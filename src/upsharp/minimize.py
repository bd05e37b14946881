"""Discrete variational minimization of the per-mode Rayleigh quotients.

The quotients here have the form Q(v) = A[v] B[v] / C[v]^2, where A, B and C
are sums of weighted radial integrals ∫ r^p |v^(d)|² dr. Their
(coef, deriv, power) rows are read from the seminorm term table through each
kind's principle (``seminorms.PRINCIPLE_FUNCTIONALS``).

Discretization. Rayleigh–Ritz on cubic B-splines in s = ln r, with the grid
nodes as breakpoints. Since r v' = v_s and r² v'' = v_ss − v_s, each row is
∫ e^{(p+1−2d)s} |D_d v|² ds with D_0 = 1, D_1 = ∂_s, D_2 = ∂_ss − ∂_s; it is
computed with 6 Gauss–Legendre points per interval. The right end is clamped
(v = v' = 0). Below r_min the function continues as the constant v(r_min),
with v'(r_min) = 0 when a row has a second derivative, and each zero-order
row gains its exact integral over (0, r_min). When a zero-order weight is not
integrable at 0 (p ≤ −1), v(r_min) = 0 is pinned instead, together with
v'(r_min) = 0 for second-order kinds. Every discrete function is therefore an
admissible function on (0, ∞), so a discrete minimum can never sit below a
proved constant.

Solver. The numerator is a product of two quadratic forms, so this is not an
eigenproblem as it stands, but by AM–GM

    inf_v sqrt(A B) / C = inf_{t>0} (1/2) * lambda_min(t A + B / t ; C).

A log-t sweep followed by a bounded refine finds t*. The Jacobi-scaled forms
are banded (half-bandwidth 3), and each lambda_min comes from banded Cholesky
factorizations: inverse iteration on t A + B/t, then a ladder of shifts s
below the Rayleigh quotient. By Sylvester's law of inertia, a Cholesky of
t A + B/t - s C that succeeds proves s < lambda_min, so every solve ends with
a certified bracket; the largest such shift is the next inverse step's
shift. The eigenvector at t* is the argmin, and its quotient, evaluated from
the factored forms, is the reported minimum; (lambda*/2)^2 is reported beside
it as the pencil value, and (sigma/2)^2 of the bracket's lower end at t* as
the pencil's lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy import optimize as _sopt
from scipy import sparse
from scipy.interpolate import BSpline
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .constants import (
    PrincipleId,
    hardy_correction_factor,
    hup2_mode_bound,
    hyup2_mode_bound,
    scan_infimum,
)
from .errors import SolverError, UsageError
from .profiles import (
    AnalyticProfile,
    MixtureProfile,
    Mode,
    Profile,
    SampledProfile,
    make_mode,
    profile_to_json,
)
from .quadrature import CLOSED_FORM, WeightedSeminorm, gauss_panels, integrate
from .seminorms import PRINCIPLE_FUNCTIONALS, Form, _hardy_rows, _term_table


class QuotientKind(str, Enum):
    PRODUCT_HUP2 = "product_hup2"        # one-dim reduction behind the hup2 constant
    PRODUCT_HYUP2 = "product_hyup2"      # one-dim reduction behind the hyup2 constant
    CLASSIC_HUP = "classic_hup"          # first-order Heisenberg quotient, one mode
    CLASSIC_HYUP = "classic_hyup"        # first-order hydrogen quotient, one mode
    HARDY_1D = "hardy_1d"                # weighted 1-d Hardy ratio (single quotient)
    MODE_HYUP2_FULL = "mode_hyup2_full"  # true second-order hydrogen quotient, one mode


_GAUSS_KINDS = (QuotientKind.PRODUCT_HUP2, QuotientKind.CLASSIC_HUP, QuotientKind.HARDY_1D)


@dataclass(frozen=True)
class GridSpec:
    r_min: float = 1e-3
    r_max: float = 14.0
    size: int = 512
    spacing: str = "geometric"

    def __post_init__(self) -> None:
        if not 0 < self.r_min < self.r_max:
            raise UsageError("need 0 < r_min < r_max")
        if self.size < 64:
            raise UsageError("grids below 64 nodes are too coarse to be meaningful")
        if self.spacing not in ("uniform", "geometric"):
            raise UsageError(f"unknown spacing rule {self.spacing!r}")

    def nodes(self) -> np.ndarray:
        if self.spacing == "uniform":
            return np.linspace(self.r_min, self.r_max, self.size)
        return self.r_min * (self.r_max / self.r_min) ** (
            np.arange(self.size) / (self.size - 1)
        )


#: Principle, form and product flag behind each quotient kind. A product kind
#: is its reduced quotient written in w = v': it keeps the rows with deriv >= 1,
#: one order lower; the dropped zero-order rows are what the Hardy correction
#: factor accounts for.
_KIND_QUOTIENT = {
    QuotientKind.PRODUCT_HUP2: (PrincipleId.HUP2, Form.REDUCED, True),
    QuotientKind.PRODUCT_HYUP2: (PrincipleId.HYUP2, Form.REDUCED, True),
    QuotientKind.CLASSIC_HUP: (PrincipleId.HUP, Form.RAW, False),
    QuotientKind.CLASSIC_HYUP: (PrincipleId.HYUP, Form.RAW, False),
    QuotientKind.MODE_HYUP2_FULL: (PrincipleId.HYUP2, Form.REDUCED, False),
}


def _kind_forms(kind: QuotientKind, mode: Mode):
    """(A, B, C) table rows as (coef, deriv, power), zero coefficients dropped."""
    if kind is QuotientKind.HARDY_1D:
        num, den = _hardy_rows(mode)
        forms = ([num], [den], [den])
    else:
        principle, form, product = _KIND_QUOTIENT[kind]
        forms = [_term_table(fid, form, mode) for fid in PRINCIPLE_FUNCTIONALS[principle]]
        if product:
            forms = [[(c, d - 1, p) for c, d, p in rows if d >= 1] for rows in forms]
    return tuple([row for row in rows if row[0] != 0] for rows in forms)


def continuum_target(kind: QuotientKind, mode: Mode) -> float | None:
    """Known continuum infimum of the quotient, when one is established.

    For the full per-mode second-order hydrogen quotient the value returned is
    the full-space constant (N+1)^2/4 as a reference: it is the degree-0
    infimum, while for higher degrees no proved per-mode value exists.
    """
    N, k = mode.dimension, mode.degree
    if kind is QuotientKind.PRODUCT_HUP2:
        return (N + 2 * k + 2) ** 2 / 4.0
    if kind is QuotientKind.PRODUCT_HYUP2:
        return (N + 2 * k + 1) ** 2 / 4.0
    if kind is QuotientKind.HARDY_1D:
        return (N + 2 * k) ** 2 / 4.0
    if kind is QuotientKind.CLASSIC_HUP:
        return N * N / 4.0 if k == 0 else None
    if kind is QuotientKind.CLASSIC_HYUP:
        return (N - 1) ** 2 / 4.0 if k == 0 else None
    return (N + 1) ** 2 / 4.0 if k == 0 else None


@dataclass(frozen=True)
class VariationalProblem:
    mode: Mode
    kind: QuotientKind
    grid: GridSpec

    @classmethod
    def for_mode(
        cls,
        kind: QuotientKind | str,
        dimension: int,
        degree: int = 0,
        size: int = 512,
        r_min: float | None = None,
        r_max: float | None = None,
        spacing: str = "geometric",
    ) -> "VariationalProblem":
        kind = QuotientKind(kind)
        r_min = 1e-3 if r_min is None else r_min
        if r_max is None:
            r_max = 14.0 if kind in _GAUSS_KINDS else 24.0
        grid = GridSpec(r_min, r_max, size, spacing)
        return cls(make_mode(dimension, degree), kind, grid)

    def assemble(self) -> "DiscreteQuotient":
        return DiscreteQuotient(self)


def _derivative_map(knots: np.ndarray, degree: int) -> sparse.csr_array:
    """Coefficients of a spline -> coefficients of its derivative on knots[1:-1]."""
    n = len(knots) - degree - 1
    scale = degree / (knots[degree + 1 : degree + n] - knots[1:n])
    idx = np.arange(n - 1)
    rows, cols = np.concatenate([idx, idx]), np.concatenate([idx, idx + 1])
    return sparse.csr_array((np.concatenate([-scale, scale]), (rows, cols)), shape=(n - 1, n))


#: Half-bandwidth of every assembled form: a cubic B-spline overlaps the
#: three splines on either side of it.
_BANDS = 3


def _upper_band(m: sparse.csr_array) -> np.ndarray:
    """LAPACK upper band storage of a symmetric matrix of half-bandwidth 3."""
    coo = m.tocoo()
    if np.any((np.abs(coo.row - coo.col) > _BANDS) & (coo.data != 0)):
        raise SolverError(f"a form is wider than {_BANDS} bands")
    return np.array([np.pad(m.diagonal(k), (k, 0)) for k in range(_BANDS, -1, -1)])


def _cholesky(band: np.ndarray) -> np.ndarray | None:
    """Upper banded Cholesky factor, or None when the matrix is not positive definite."""
    factor, info = dpbtrf(band)
    return None if info else factor


def _spline_design(x: np.ndarray, knots: np.ndarray) -> list[sparse.csr_array]:
    """Values and first two derivatives of the cubic B-splines on ``knots`` at x."""
    out = []
    for d in range(3):
        m = BSpline.design_matrix(x, knots[d : len(knots) - d], 3 - d)
        for j in range(d, 0, -1):
            m = m @ _derivative_map(knots[j - 1 : len(knots) - j + 1], 4 - j)
        out.append(m.tocsr())
    return out


class DiscreteQuotient:
    """Rayleigh–Ritz realization of one quotient on cubic B-splines in ln r.

    ``x`` holds the coefficients of the free splines (see the module
    docstring for the end conditions). ``parts`` evaluates the three forms
    factored, row by row; ``A``, ``B`` and ``C`` are the assembled sparse
    matrices that the pencil works on.
    """

    def __init__(self, problem: VariationalProblem):
        self.problem = problem
        r = problem.grid.nodes()
        s = np.log(r)
        forms = _kind_forms(problem.kind, problem.mode)
        rows = [row for form in forms for row in form]
        second = any(d == 2 for _, d, _ in rows)
        pin = any(d == 0 and p <= -1 for _, d, p in rows)

        # Free coefficients -> all n coefficients. The clamped knot vector
        # makes v(end) the end coefficient and v_s(end) a multiple of the
        # difference of the two end coefficients.
        n = len(s) + 2
        first = (2 if second else 1) if pin else 0
        full = np.arange(first, n - 2)
        free = full - first
        if second and not pin:  # v_s(s_0) = 0: the first two coefficients agree
            free = np.maximum(full - 1, 0)
        embed = sparse.csr_array(
            (np.ones(len(full)), (full, free)), shape=(n, free[-1] + 1)
        )

        sq, wq = (a.ravel() for a in gauss_panels(s, 6))
        knots = np.concatenate([np.full(3, s[0]), s, np.full(3, s[-1])])
        f0, f1, f2 = (m @ embed for m in _spline_design(sq, knots))
        design = (f0, f1, (f2 - f1).tocsr())
        edge = embed[[0]]  # v(r_min)

        # Each form is a list of (coef, design matrix, weights) terms; the
        # value is sum coef * sum weights * (design @ x)^2.
        self._terms = []
        for form in forms:
            terms = []
            for c, d, p in form:
                terms.append((c, design[d], wq * np.exp((p + 1 - 2 * d) * sq)))
                if d == 0 and not pin:
                    terms.append((c, edge, np.array([r[0] ** (p + 1) / (p + 1)])))
            self._terms.append(terms)
        self.A, self.B, self.C = (
            sum(c * (m.T @ sparse.diags_array(w) @ m) for c, m, w in terms).tocsr()
            for terms in self._terms
        )
        self.r, self._embed, self._knots = r, embed, knots
        self._projection = (f0, wq, np.exp(sq))
        self.target = continuum_target(problem.kind, problem.mode)

    def parts(self, x: np.ndarray) -> tuple[float, float, float]:
        return tuple(
            math.fsum(coef * float(w @ np.square(m @ x)) for coef, m, w in terms)
            for terms in self._terms
        )

    def value(self, x: np.ndarray) -> float:
        a, b, c = self.parts(x)
        if c <= 0.0 or not np.isfinite(c):
            raise SolverError("normalization term collapsed")
        return a * b / (c * c)

    def init_from_profile(self, profile: Profile) -> np.ndarray:
        """L2(ds) projection of the profile onto the free splines."""
        f0, wq, rq = self._projection
        factor = _cholesky(_upper_band(f0.T @ sparse.diags_array(wq) @ f0))
        if factor is None:
            raise SolverError("spline Gram matrix is not positive definite")
        rhs = f0.T @ (wq * np.asarray(profile.value(rq, 0), dtype=float))
        return dpbtrs(factor, rhs)[0]

    def to_profile(self, x: np.ndarray) -> SampledProfile:
        """The spline with coefficients x, sampled at the grid nodes.

        The returned profile is the cubic spline in r through those samples,
        zero outside the grid. The discrete function itself continues below
        r_min as the constant v(r_min) (unless v(r_min) is pinned to 0), so
        its quotient adds c * r_min^(p+1) / (p+1) * v(r_min)^2 to every
        zero-order row (c, 0, p) of ``integrate`` on this profile.
        """
        spline = BSpline(self._knots, self._embed @ x, 3)
        return SampledProfile(self.r, spline(np.log(self.r)))


@dataclass
class MinimizationResult:
    """Outcome of one t-pencil minimization.

    ``pencil_lower`` is (sigma/2)^2, where sigma is the largest shift whose
    Cholesky of t* A + B/t* - sigma C succeeded. It bounds the assembled
    discrete pencil's (lambda_min(t*)/2)^2 from below, up to the backward
    error of that factorization (machine precision times the norm of the
    scaled forms). It is not a bound on the continuum infimum, nor on the
    minimum over t. Where the assembled forms cancel near r_min, the
    assembled lambda_min can sit above the factored-form ``pencil_value``,
    and so can this bound.
    """

    problem: VariationalProblem
    min_value: float
    argmin: SampledProfile
    iterations: int  # pencil evaluations
    converged: bool  # sweep bracketed t*, refine converged, pencil agrees with min_value
    history: list[float]  # running minimum of (lambda(t)/2)^2
    target: float | None
    t_star: float
    pencil_value: float
    pencil_lower: float
    eigen_residual: float

    def to_json(self) -> dict:
        return {
            "mode": {"N": self.problem.mode.dimension, "k": self.problem.mode.degree},
            "kind": self.problem.kind.value,
            "grid": {
                "r_min": self.problem.grid.r_min,
                "r_max": self.problem.grid.r_max,
                "size": self.problem.grid.size,
                "spacing": self.problem.grid.spacing,
            },
            "min_value": self.min_value,
            "target": self.target,
            "iterations": self.iterations,
            "converged": self.converged,
            "t_star": self.t_star,
            "pencil_value": self.pencil_value,
            "pencil_lower": self.pencil_lower,
            "eigen_residual": self.eigen_residual,
            "history": list(self.history),
            "argmin": profile_to_json(self.argmin),
        }


#: Points of the coarse log-t sweep, and the relative agreement between the
#: pencil value and the argmin's quotient that counts as converged.
_SWEEP_POINTS = 16
_AGREEMENT = 1e-6

#: Shift ladder of one pencil solve: the first relative gap below the
#: Rayleigh quotient, the bracket width that ends it, and its step cap.
_FIRST_GAP = 1e-2
_BRACKET = 1e-12
_LADDER_CAP = 200


def _lowest_eigenpair(
    K: np.ndarray, C: np.ndarray, y: np.ndarray
) -> tuple[float | None, np.ndarray]:
    """Certified lower shift and eigenvector of the lowest eigenpair of (K; C).

    K and C are upper band storage. Inverse iteration starts from y; each
    shift s that a Cholesky of K - sC accepts is below lambda_min (Sylvester's
    law of inertia), so the returned shift is a lower bound of the assembled
    pencil's lambda_min up to the factorization's backward error, while the
    Rayleigh quotient of the returned vector bounds it from above. When K
    itself does not factor, nothing is certified: the shift is None and y is
    returned unchanged.
    """
    factor = _cholesky(K)
    if factor is None:
        return None, y

    def inverse_step(factor: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
        z = dpbtrs(factor, dsbmv(_BANDS, 1.0, C, y))[0]
        z /= math.sqrt(z @ dsbmv(_BANDS, 1.0, C, z))
        return z, float(z @ dsbmv(_BANDS, 1.0, K, z))

    y, _ = inverse_step(factor, y)
    y, hi = inverse_step(factor, y)
    lo, gap = 0.0, _FIRST_GAP
    for _ in range(_LADDER_CAP):
        s = max(lo, hi * (1.0 - gap))
        shifted = _cholesky(K - s * C)
        if shifted is None:
            gap *= 10.0
        else:
            lo, factor, gap = s, shifted, gap / 1e3
        y, rho = inverse_step(factor, y)
        if rho < hi:
            hi = rho
        elif shifted is None:
            # The quotient stopped falling (the rounding floor of the
            # assembled forms, which cancel near r_min for some kinds) and
            # no higher shift is certified.
            return lo, y
        if hi - lo <= _BRACKET * hi:
            return lo, y
    raise SolverError("the shift ladder of the pencil solve did not converge")


def _scaled_bands(dq: DiscreteQuotient) -> tuple[np.ndarray, ...]:
    """Jacobi scale 1/sqrt(diag C), then the scaled A, B and C in band storage."""
    scale = 1.0 / np.sqrt(dq.C.diagonal())
    jacobi = sparse.diags_array(scale)
    return (scale, *(_upper_band(jacobi @ m @ jacobi) for m in (dq.A, dq.B, dq.C)))


def minimize_quotient(problem: VariationalProblem) -> MinimizationResult:
    """Minimize the discrete quotient exactly through the t-pencil.

    Each lambda(t) = lambda_min(t A + B/t; C) comes from the Jacobi-scaled
    forms in band storage: K = t A + B/t is factored by banded Cholesky, two
    inverse-iteration steps start from the previous evaluation's eigenvector
    (ones at the first), and a ladder of shifts below the Rayleigh quotient
    follows. A shift whose Cholesky of K - sC succeeds is a certified lower
    bound of lambda_min(t) and shifts the next inverse step; the ladder ends
    when that bound and the Rayleigh quotient agree to 1e-12, or when the
    quotient stops falling and a higher shift fails. lambda(t) is then read
    as the Rayleigh quotient of the eigenvector in the factored forms (an
    upper bound that the assembled matrices, which cancel badly near r_min,
    would not give). Where that cancellation leaves K itself numerically
    indefinite (large t for mode_hyup2_full at N=2 or tiny r_min), lambda(t)
    is the factored quotient of the previous eigenvector, still an upper
    bound; SolverError if that happens at t*. The coarse log-t sweep spans
    the local scales of the splines, widened upward by ln(size) for profiles
    much wider than one spline; lambda(t) can have several local minima, and
    the sweep picks the basin that a bounded Brent search between the
    neighbours of its best point then refines.
    """
    dq = problem.assemble()
    scale, A, B, C = _scaled_bands(dq)
    evaluations: list[tuple[float, float, np.ndarray, float | None]] = []

    def lam(log_t: float) -> float:
        t = math.exp(log_t)
        # Inverse iteration starts from the previous eigenvector (ones at
        # first), so every run of the same problem takes the same path.
        y0 = evaluations[-1][2] if evaluations else np.ones(A.shape[1])
        lower, y = _lowest_eigenpair(t * A + B / t, C, y0)
        a, b, c = dq.parts(scale * y)
        evaluations.append((log_t, (t * a + b / t) / c, y, lower))
        return evaluations[-1][1]

    local = 0.5 * np.log(B[_BANDS] / A[_BANDS])
    sweep = np.linspace(local.min(), local.max() + math.log(problem.grid.size), _SWEEP_POINTS)
    best = int(np.argmin([lam(g) for g in sweep]))
    bracketed = 0 < best < len(sweep) - 1
    refine = _sopt.minimize_scalar(
        lam,
        bounds=(sweep[max(best - 1, 0)], sweep[min(best + 1, len(sweep) - 1)]),
        method="bounded",
        options={"xatol": 1e-4},
    )
    log_t, lam_star, y, lower = min(evaluations, key=lambda e: e[1])
    if lower is None:
        raise SolverError("t A + B/t is not positive definite at t*")
    t = math.exp(log_t)
    residual = float(np.linalg.norm(
        dsbmv(_BANDS, 1.0, t * A + B / t, y) - lam_star * dsbmv(_BANDS, 1.0, C, y)
    ))
    x = scale * y
    min_value = dq.value(x)
    pencil = (lam_star / 2.0) ** 2
    agrees = pencil - min_value <= _AGREEMENT * pencil
    history = np.minimum.accumulate([(e[1] / 2.0) ** 2 for e in evaluations])
    return MinimizationResult(
        problem=problem,
        min_value=min_value,
        argmin=dq.to_profile(x),
        iterations=len(evaluations),
        converged=bracketed and bool(refine.success) and agrees,
        history=history.tolist(),
        target=dq.target,
        t_star=t,
        pencil_value=pencil,
        pencil_lower=(lower / 2.0) ** 2,
        eigen_residual=residual,
    )


def eigen_crosscheck(problem: VariationalProblem) -> float:
    """Pencil value (lambda*/2)^2 of the problem's t-pencil minimization."""
    return minimize_quotient(problem).pencil_value


@dataclass
class ModeBoundRow:
    degree: int
    min_value: float
    eigen_value: float
    continuum: float
    factor: Fraction
    bound: float
    exact_bound: Fraction
    converged: bool

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "min_value": self.min_value,
            "eigen_value": self.eigen_value,
            "continuum": self.continuum,
            "factor": {"num": self.factor.numerator, "den": self.factor.denominator},
            "bound": self.bound,
            "exact_bound": {
                "num": self.exact_bound.numerator,
                "den": self.exact_bound.denominator,
                "float": float(self.exact_bound),
            },
            "converged": self.converged,
        }


@dataclass
class CombinedBound:
    quotient: str
    dimension: int
    k_max: int
    size: int
    rows: list[ModeBoundRow]
    combined: float
    argmin_degree: int
    exact_combined: Fraction

    def to_json(self) -> dict:
        return {
            "quotient": self.quotient,
            "dimension": self.dimension,
            "k_max": self.k_max,
            "size": self.size,
            "rows": [row.to_json() for row in self.rows],
            "combined": self.combined,
            "argmin_degree": self.argmin_degree,
            "exact_combined": {
                "num": self.exact_combined.numerator,
                "den": self.exact_combined.denominator,
                "float": float(self.exact_combined),
            },
        }


def mode_combined_bound(
    quotient: str,
    dimension: int,
    k_max: int = 6,
    size: int = 512,
) -> CombinedBound:
    """Per-mode product minima times the Hardy-correction factors.

    Reproduces the combination step behind the sharp constants: for each
    degree k the numerically found best product constant is multiplied by the
    exact correction factor; the minimum over k sits next to the exact scan
    value for comparison.
    """
    if quotient not in ("hup2", "hyup2"):
        raise UsageError("combined bounds exist for quotient 'hup2' or 'hyup2'")
    if k_max < 4:
        raise UsageError("k_max must be at least 4")
    kind = QuotientKind.PRODUCT_HUP2 if quotient == "hup2" else QuotientKind.PRODUCT_HYUP2
    exact_fn = hup2_mode_bound if quotient == "hup2" else hyup2_mode_bound
    rows: list[ModeBoundRow] = []
    for k in range(k_max + 1):
        problem = VariationalProblem.for_mode(kind, dimension, k, size=size)
        res = minimize_quotient(problem)
        factor = hardy_correction_factor(quotient, dimension, k)
        rows.append(
            ModeBoundRow(
                degree=k,
                min_value=res.min_value,
                eigen_value=res.pencil_value,
                continuum=continuum_target(kind, problem.mode),
                factor=factor,
                bound=float(factor) * res.min_value,
                exact_bound=exact_fn(dimension, k),
                converged=res.converged,
            )
        )
    argmin = min(range(len(rows)), key=lambda i: rows[i].bound)
    exact = scan_infimum(f"{quotient}_mode", dimension, max(k_max, 8)).infimum
    return CombinedBound(
        quotient=quotient,
        dimension=dimension,
        k_max=k_max,
        size=size,
        rows=rows,
        combined=rows[argmin].bound,
        argmin_degree=rows[argmin].degree,
        exact_combined=exact,
    )


#: Relative discretization budget of the default resolution (engineering
#: target for the 512-node grids; the resolution ladder documents actuals).
DISCRETIZATION_BUDGET = 0.02


@dataclass
class ConjectureReport:
    dimension: int
    conjectured: float
    k_max: int
    resolutions: tuple[int, ...]
    ladder: list[dict]
    combined: CombinedBound
    estimated_infimum: float
    argmin_degree: int
    counterexample: dict | None
    status: str

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "conjectured": self.conjectured,
            "k_max": self.k_max,
            "resolutions": list(self.resolutions),
            "ladder": self.ladder,
            "combined_bound": self.combined.to_json(),
            "estimated_infimum": self.estimated_infimum,
            "argmin_degree": self.argmin_degree,
            "counterexample": self.counterexample,
            "status": self.status,
        }

    def csv_rows(self) -> list[tuple[int, int, float]]:
        return [
            (entry["degree"], entry["size"], entry["min_value"])
            for entry in self.ladder
        ]


def explore_conjecture(
    dimension: int,
    k_max: int = 4,
    resolutions: tuple[int, ...] = (128, 256, 512),
) -> ConjectureReport:
    """Numerical evidence for the open 2 <= N <= 4 range of the second-order
    hydrogen principle (N = 5 runs the same pipeline as a proved calibration).

    The true per-mode quotient is minimized on a resolution ladder, and the
    combined per-mode bound pipeline runs at the finest resolution. A minimum
    below conjectured*(1 - 3 * discretization budget) is flagged as a
    counterexample candidate; no claim is made in either direction.

    Single modes exhaust the full-space infimum. Orthogonal modes add their
    A, B and C, so by Cauchy–Schwarz a mixture with per-mode values
    (a_k, b_k, c_k) and quotients q_k = a_k b_k / c_k^2 satisfies

        (sum a_k)(sum b_k) >= (sum sqrt(a_k b_k))^2 >= min_k q_k (sum c_k)^2,

    so no mode mixture goes below the best single mode.
    """
    n = int(dimension)
    if n < 2:
        raise UsageError("the conjecture explorer needs dimension >= 2")
    conjectured = (n + 1) ** 2 / 4.0
    ladder: list[dict] = []
    finest = max(resolutions)
    counterexample = None
    per_mode_finest: dict[int, float] = {}
    for size in sorted(resolutions):
        for k in range(k_max + 1):
            problem = VariationalProblem.for_mode(
                QuotientKind.MODE_HYUP2_FULL, n, k, size=size
            )
            res = minimize_quotient(problem)
            ladder.append({
                "degree": k,
                "size": size,
                "min_value": res.min_value,
                "eigen_value": res.pencil_value,
                "converged": res.converged,
            })
            if size == finest:
                per_mode_finest[k] = res.min_value
            if res.min_value < conjectured * (1.0 - 3.0 * DISCRETIZATION_BUDGET):
                cand = {
                    "degree": k,
                    "size": size,
                    "min_value": res.min_value,
                    "profile": profile_to_json(res.argmin),
                }
                if counterexample is None or cand["min_value"] < counterexample["min_value"]:
                    counterexample = cand

    combined = mode_combined_bound("hyup2", n, k_max=max(k_max, 4), size=finest)
    argmin_degree = min(per_mode_finest, key=per_mode_finest.get)
    return ConjectureReport(
        dimension=n,
        conjectured=conjectured,
        k_max=k_max,
        resolutions=tuple(sorted(resolutions)),
        ladder=ladder,
        combined=combined,
        estimated_infimum=per_mode_finest[argmin_degree],
        argmin_degree=argmin_degree,
        counterexample=counterexample,
        status="numerical evidence only; nothing here proves or refutes the open range",
    )


def n1_quotient_check(u: AnalyticProfile | MixtureProfile, use_closed_form: bool = True) -> float:
    """One-dimensional second-order quotient for even profiles on the line.

    For even u the full-line integrals reduce to half-line ones and the
    quotient ∫|u''|^2 ∫ r^2|u'|^2 / (∫|u'|^2)^2 is the N=1 case of the
    second-order Heisenberg principle; Gaussian input returns exactly 9/4.
    """
    components = u.components if isinstance(u, MixtureProfile) else (u,)
    for comp in components:
        if comp.kernel != "gauss" or comp.power != int(comp.power) or int(comp.power) % 2:
            raise UsageError("the line quotient needs an even, smooth profile")
    cfg = CLOSED_FORM if use_closed_form else None
    kwargs = {"cfg": cfg} if cfg is not None else {}
    a = integrate(u, WeightedSeminorm(2, 0), **kwargs)
    b = integrate(u, WeightedSeminorm(1, 2), **kwargs)
    c = integrate(u, WeightedSeminorm(1, 0), **kwargs)
    return a * b / (c * c)
