"""Mode-decomposed radial functionals and their two equivalent forms.

Each functional of a degree-k mode can be written either in terms of the raw
radial coefficient u_k (``Form.RAW``) or, after stripping the leading monomial
u_k = r^k v_k, in terms of v_k (``Form.REDUCED``). Both assemblies are exact
identities on (0, ∞); evaluating both on the same data is the package's main
self-check. Values are reported without the sphere-measure factor (the
orthonormal angular basis absorbs it); sums over modes give full-space
integrals directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import PrincipleId
from .errors import (DivergentIntegralError, FormUnavailableError, SingularWeightError,
                     UsageError, _NameEnum)
from .profiles import (
    AnalyticProfile,
    MixtureProfile,
    Mode,
    Profile,
    SampledProfile,
    make_mode,
    shift_power,
)
from .quadrature import (
    CLOSED_FORM,
    QuadratureRule,
    WeightedSeminorm,
    _panel_integral,
    _positive_sum,
    default_r_max,
    integrate,
    positive_normal,
)


class FunctionalId(_NameEnum):
    GRAD_ENERGY = "grad_energy"                          # ∫ |∇u|^2
    WEIGHTED_GRAD_ENERGY = "weighted_grad_energy"        # ∫ |x|^2 |∇u|^2
    COULOMB_GRAD_ENERGY = "coulomb_grad_energy"          # ∫ |∇u|^2 / |x|
    LAPLACIAN_ENERGY = "laplacian_energy"                # ∫ |Δu|^2
    RADIAL_GRAD_ENERGY = "radial_grad_energy"            # ∫ |∂_r u|^2
    WEIGHTED_RADIAL_GRAD_ENERGY = "weighted_radial_grad_energy"
    COULOMB_RADIAL_GRAD_ENERGY = "coulomb_radial_grad_energy"
    RADIAL_LAPLACIAN_ENERGY = "radial_laplacian_energy"  # ∫ |∂_rr u + (N-1)/r ∂_r u|^2
    L2_NORM = "l2_norm"                                  # ∫ |u|^2
    WEIGHTED_L2 = "weighted_l2"                          # ∫ |x|^2 |u|^2 (raw form only)
    COULOMB_L2 = "coulomb_l2"                            # ∫ |u|^2 / |x| (raw form only)


class Form(_NameEnum):
    RAW = "raw"          # integrals of the coefficient u_k
    REDUCED = "reduced"  # integrals of v_k = u_k / r^k


_RAW_ONLY = (
    FunctionalId.RADIAL_LAPLACIAN_ENERGY,
    FunctionalId.WEIGHTED_L2,
    FunctionalId.COULOMB_L2,
)

#: Functionals that have both a raw and a reduced expression.
BOTH_FORMS = tuple(f for f in FunctionalId if f not in _RAW_ONLY)

#: (A, B, C) functionals of each principle's quotient A·B/C².
PRINCIPLE_FUNCTIONALS = {
    PrincipleId.HUP: (FunctionalId.GRAD_ENERGY, FunctionalId.WEIGHTED_L2, FunctionalId.L2_NORM),
    PrincipleId.HYUP: (FunctionalId.GRAD_ENERGY, FunctionalId.L2_NORM, FunctionalId.COULOMB_L2),
    PrincipleId.HUP2: (
        FunctionalId.LAPLACIAN_ENERGY,
        FunctionalId.WEIGHTED_GRAD_ENERGY,
        FunctionalId.GRAD_ENERGY,
    ),
    PrincipleId.HYUP2: (
        FunctionalId.LAPLACIAN_ENERGY,
        FunctionalId.GRAD_ENERGY,
        FunctionalId.COULOMB_GRAD_ENERGY,
    ),
    PrincipleId.HUP2_RADIAL: (
        FunctionalId.RADIAL_LAPLACIAN_ENERGY,
        FunctionalId.WEIGHTED_RADIAL_GRAD_ENERGY,
        FunctionalId.RADIAL_GRAD_ENERGY,
    ),
    PrincipleId.HYUP2_RADIAL: (
        FunctionalId.RADIAL_LAPLACIAN_ENERGY,
        FunctionalId.RADIAL_GRAD_ENERGY,
        FunctionalId.COULOMB_RADIAL_GRAD_ENERGY,
    ),
}

#: (A, B, C) of the weighted 1-d Hardy ratio A/C = A·B/C², read at degree 0
#: in dimension N + 2k: ∫ r^{N+2k+1}|v'|² over ∫ r^{N+2k-1}|v|².
HARDY_FUNCTIONALS = (FunctionalId.WEIGHTED_GRAD_ENERGY, FunctionalId.L2_NORM, FunctionalId.L2_NORM)


@lru_cache(maxsize=1024)
def _term_table(fid: FunctionalId, form: Form, mode: Mode):
    """The nonzero rows of the identity, each once, as (key, coefficient,
    seminorm) with key ``d{deriv}_p{power}``.

    Rows whose coefficient vanishes for this mode (e.g. the eigenvalue term
    at degree 0) are dropped. Built once per (fid, form, mode) and shared by
    every caller, hence tuples; the cache holds the 19 tables of each of 53
    modes.
    """
    N, k, ck = mode.dimension, mode.degree, mode.eigenvalue
    raw = {
        FunctionalId.GRAD_ENERGY: [(1, 1, N - 1), (ck, 0, N - 3)],
        FunctionalId.WEIGHTED_GRAD_ENERGY: [(1, 1, N + 1), (ck, 0, N - 1)],
        FunctionalId.COULOMB_GRAD_ENERGY: [(1, 1, N - 2), (ck, 0, N - 4)],
        FunctionalId.LAPLACIAN_ENERGY: [
            (1, 2, N - 1),
            (N - 1 + 2 * ck, 1, N - 3),
            (ck * ck + 2 * ck * (N - 4), 0, N - 5),
        ],
        FunctionalId.RADIAL_GRAD_ENERGY: [(1, 1, N - 1)],
        FunctionalId.WEIGHTED_RADIAL_GRAD_ENERGY: [(1, 1, N + 1)],
        FunctionalId.COULOMB_RADIAL_GRAD_ENERGY: [(1, 1, N - 2)],
        # At N=2 this specializes to ∫ r|u''|^2 + ∫ r^{-1}|u'|^2, which is the
        # correct two-term expression there as well.
        FunctionalId.RADIAL_LAPLACIAN_ENERGY: [(1, 2, N - 1), (N - 1, 1, N - 3)],
        FunctionalId.L2_NORM: [(1, 0, N - 1)],
        FunctionalId.WEIGHTED_L2: [(1, 0, N + 1)],
        FunctionalId.COULOMB_L2: [(1, 0, N - 2)],
    }
    reduced = {
        FunctionalId.GRAD_ENERGY: [(1, 1, N + 2 * k - 1)],
        FunctionalId.WEIGHTED_GRAD_ENERGY: [
            (1, 1, N + 2 * k + 1),
            (-2 * k, 0, N + 2 * k - 1),
        ],
        FunctionalId.COULOMB_GRAD_ENERGY: [
            (1, 1, N + 2 * k - 2),
            (k, 0, N + 2 * k - 4),
        ],
        FunctionalId.LAPLACIAN_ENERGY: [
            (1, 2, N + 2 * k - 1),
            (N + 2 * k - 1, 1, N + 2 * k - 3),
        ],
        FunctionalId.RADIAL_GRAD_ENERGY: [
            (1, 1, N + 2 * k - 1),
            (-ck, 0, N + 2 * k - 3),
        ],
        FunctionalId.WEIGHTED_RADIAL_GRAD_ENERGY: [
            (1, 1, N + 2 * k + 1),
            (-(ck + 2 * k), 0, N + 2 * k - 1),
        ],
        FunctionalId.COULOMB_RADIAL_GRAD_ENERGY: [
            (1, 1, N + 2 * k - 2),
            (-(ck - k), 0, N + 2 * k - 4),
        ],
        FunctionalId.L2_NORM: [(1, 0, N + 2 * k - 1)],
    }
    table = raw if form is Form.RAW else reduced
    if fid not in table:
        raise FormUnavailableError(f"{fid.value} has no {form.value}-form expression")
    return tuple(
        (f"d{deriv}_p{power}", coef, WeightedSeminorm(deriv, power))
        for coef, deriv, power in table[fid]
        if coef != 0
    )


@dataclass(frozen=True)
class ModeFunctionalValue:
    mode: Mode
    id: FunctionalId
    form: Form
    value: float
    terms: dict


def _check_n2_admissibility(fid: FunctionalId, form: Form, mode: Mode, profile: Profile) -> None:
    """Boundary admissibility near r=0 in dimension 2.

    Finiteness of the N=2 second-order integrals needs v_0'(0) = 0 and
    v_1(0) = 0: the first for both Laplacians in either form, whose raw and
    reduced rows coincide at degree 0, the second for their raw form at
    degree 1. For sampled data this is enforced as a smallness check at the
    grid start rather than proved. With g[x_0, ..., x_j] the divided
    differences of the first node values of g and r_1 the second node, the
    order-m condition g^(m)(0) = 0 is read as
    |g[x_0, ..., x_m]| <= 50 r_1 |g[x_0, ..., x_{m+1}]|: where g^(m)(0) = 0 the
    left side is about (r_0 + r_1) / r_1 <= 2 times the right side's
    |g^(m+1)| / (m+1)! scale, where it is not, about |g^(m)(0)| / m!.
    """
    laplacian = fid in (FunctionalId.LAPLACIAN_ENERGY, FunctionalId.RADIAL_LAPLACIAN_ENERGY)
    if mode.dimension != 2 or not laplacian or not isinstance(profile, SampledProfile):
        return
    if mode.degree == 0:
        g, order = profile.derivative_values(0)[:3], 1
        message = "dimension-2 degree-0 profile must have vanishing slope at the origin"
    elif form is Form.RAW and mode.degree == 1:
        g, order = profile.derivative_values(0)[:3] / profile.grid[:3], 0
        message = "dimension-2 degree-1 profile must vanish to second order at the origin"
    else:
        return
    x = profile.grid[:3]
    first = np.diff(g) / np.diff(x)
    divided = (g[0], first[0], (first[1] - first[0]) / (x[2] - x[0]))
    if abs(divided[order]) > 50.0 * x[1] * abs(divided[order + 1]):
        raise SingularWeightError(message)


def eval_mode_functional(
    fid: FunctionalId,
    mode: Mode,
    profile: Profile,
    form: Form = Form.RAW,
    rule: QuadratureRule = QuadratureRule.PANELS,
) -> ModeFunctionalValue:
    """Assemble one mode functional term by term in the requested form.

    The profile must already be the mode's radial coefficient in that form.
    Only the nonzero terms of the identity are integrated (see
    :func:`_term_table`), each by ``rule`` (see :func:`quadrature.integrate`).
    Their exact sum is 0.0 for the zero profile and otherwise a positive
    normal double or a DegenerateProfileError.
    """
    # Members pass as they are, without the enums' own (slower) calls.
    fid = fid if isinstance(fid, FunctionalId) else FunctionalId(fid)
    form = form if isinstance(form, Form) else Form(form)
    entries = _term_table(fid, form, mode)
    if form is Form.RAW and mode.degree >= 1 and isinstance(profile, SampledProfile):
        # In plain floats, where an r_0^k out of the float range raises
        # instead of warning.
        try:
            lead = float(profile.values[0]) / float(profile.grid[0]) ** mode.degree
        except OverflowError:  # r_0^k above the range: the lead is 0
            lead = 0.0
        except ZeroDivisionError:  # r_0^k below it
            lead = math.inf
        if not math.isfinite(lead):
            raise SingularWeightError("profile does not vanish to the mode order at the grid start")
    _check_n2_admissibility(fid, form, mode, profile)

    terms: dict[str, float] = {}
    for key, coef, seminorm in entries:
        try:
            integral = integrate(profile, seminorm, rule)
        except DivergentIntegralError as exc:
            raise SingularWeightError(
                f"{fid.value} ({form.value} form) is singular for this profile: {exc}"
            ) from exc
        terms[key] = coef * integral
    value = _positive_sum(terms.values(), "{0.value} ({1.value} form)", fid, form)
    return ModeFunctionalValue(mode, fid, form, value, terms)


def full_space_value(mode_values: list[ModeFunctionalValue]) -> float:
    """Sum per-mode values into the full-space integral (shared N and id):
    0.0 for the zero profile, otherwise a positive normal double or a
    DegenerateProfileError."""
    if not mode_values:
        raise UsageError("need at least one mode value")
    dims = {mv.mode.dimension for mv in mode_values}
    ids = {mv.id for mv in mode_values}
    if len(dims) != 1:
        raise UsageError("mode values mix dimensions")
    if len(ids) != 1:
        raise UsageError("mode values mix functional ids")
    ordered = sorted(mode_values, key=lambda mv: mv.mode.degree)
    return _positive_sum((mv.value for mv in ordered), "the full-space {0.value}",
                         mode_values[0].id)


def hardy_1d_ratio(mode: Mode, v: Profile, rule: QuadratureRule = QuadratureRule.PANELS) -> float:
    """Weighted 1-d Hardy quotient ∫ r^{N+2k+1}|v'|^2 / ∫ r^{N+2k-1}|v|^2 by
    ``rule``, from the ``HARDY_FUNCTIONALS`` rows at degree 0 in dimension N + 2k.

    For any admissible profile the continuum value is at least (N+2k)^2/4.
    The quotient is amplitude-invariant; DegenerateProfileError when it is not
    a positive normal double (``positive_normal``), the zero profile included.
    """
    degree_zero = Mode(mode.dimension + 2 * mode.degree, 0, 0)
    num, den = (integrate(v, seminorm, rule) for fid in HARDY_FUNCTIONALS[:2]
                for _, _, seminorm in _term_table(fid, Form.REDUCED, degree_zero))
    return positive_normal(num / den if den else math.nan,
                           "the Hardy quotient of num={:g} and den={:g}", num, den)


def vector_equiv_check_2d(
    radial: AnalyticProfile | MixtureProfile, degree: int = 0
) -> tuple[float, float]:
    """Divergence-free vector-field energy versus the scalar reduction, N=2.

    For u(x) = f(r) cos(degree*θ) and the rotated gradient field
    Ū = (-u_{x2}, u_{x1}), returns

        lhs = ∫_{R^2} |∇Ū|^2 dx   (the Hessian in the polar frame)
        rhs = ∫_{R^2} |Δu|^2 dx   (mode-decomposed radial machinery)

    The two agree because |∇Ū|^2 = u_xx^2 + u_yy^2 + 2 u_xy^2 = |∇²u|_F^2,
    whose integral is that of |Δu|^2 (integrate by parts twice). The squared
    Frobenius norm is the same in every orthonormal frame; in the polar
    frame the Hessian's entries are u_rr = f'' cos kθ,
    u_rθ/r - u_θ/r^2 = -k (f'/r - f/r^2) sin kθ and
    u_r/r + u_θθ/r^2 = (f'/r - k^2 f/r^2) cos kθ. The angle is integrated
    exactly (cos^2 kθ to the mode's angular norm, sin^2 kθ to π), the
    radius by the panel rule out to ``default_r_max`` (``_panel_integral``,
    which raises QuadratureConvergenceError when its estimate misses
    ``PANEL_REL_TOL``). The zero profile gives (0.0, 0.0); for any other, a
    side that is not a positive normal double is a DegenerateProfileError.
    """
    mode = make_mode(2, degree)  # UsageError below degree 0
    if not any(c != 0.0 for c, _, _ in radial.kernel_terms(0).terms):
        return 0.0, 0.0
    angular_norm_sq = 2.0 * np.pi if degree == 0 else np.pi

    def hessian_sq(r: np.ndarray) -> np.ndarray:
        f, f1, f2 = (np.asarray(radial.value(r, d)) for d in (0, 1, 2))
        # k inside the square: at k = 0 a square that overflows would give inf * 0.
        cos_sq = f2**2 + (f1 / r - degree**2 * f / r**2) ** 2
        sin_sq = 2.0 * (degree * (f1 / r - f / r**2)) ** 2
        return angular_norm_sq * cos_sq + np.pi * sin_sq

    lhs = _panel_integral(hessian_sq, 1, default_r_max(radial), "the vector-field energy")
    # u = r^k v; at degree 0 the reduced rows are the raw rows.
    reduced = shift_power(radial, -degree)
    radial_value = eval_mode_functional(
        FunctionalId.LAPLACIAN_ENERGY, mode, reduced, Form.REDUCED, CLOSED_FORM
    ).value
    return lhs, positive_normal(angular_norm_sq * radial_value, "the scalar Laplacian energy")
