"""upsharp: desk-scale verification of sharp second-order uncertainty principles.

The package evaluates the mode-decomposed radial functionals behind the
second-order Heisenberg and hydrogen uncertainty principles, scans their
exact per-mode constants, reproduces the closed-form extremal quotients, and
minimizes the discrete product quotients to recover the sharp constants
(N+2)^2/4 and (N+1)^2/4 numerically, including an evidence-only explorer for
the open low-dimension range of the hydrogen-type inequality.
"""

__version__ = "0.1.0"

from .constants import (
    PrincipleId,
    ScanResult,
    SharpConstant,
    hup2_mode_bound,
    hyup2_mode_bound,
    scan_infimum,
    sharp_constant,
)
from .errors import UpsharpError
from .extremals import QuotientReport, extremal_quotient, n1_quotient_check
from .minimize import (
    CombinedBound,
    ConjectureReport,
    GridSpec,
    MinimizationResult,
    QuotientKind,
    VariationalProblem,
    eigen_crosscheck,
    explore_conjecture,
    minimize_quotient,
    mode_combined_bound,
)
from .profiles import (
    AnalyticProfile,
    MixtureProfile,
    Mode,
    SampledProfile,
    eval_profile,
    make_mode,
    profile_from_json,
    profile_to_json,
    reduce_profile,
    unreduce_profile,
)
from .quadrature import QuadratureRule, WeightedSeminorm, integrate
from .seminorms import (
    Form,
    FunctionalId,
    ModeFunctionalValue,
    eval_mode_functional,
    full_space_value,
    hardy_1d_ratio,
    vector_equiv_check_2d,
)

__all__ = [name for name in dir() if not name.startswith("_")]
