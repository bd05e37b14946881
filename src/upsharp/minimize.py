"""Discrete variational minimization of the per-mode Rayleigh quotients.

The quotients here have the form Q(v) = A[v] B[v] / C[v]^2, where A, B and C
are sums of weighted radial integrals ∫ r^p |v^(d)|² dr. Their
(coef, deriv, power) rows are read from the seminorm term table through each
kind's principle (``seminorms.PRINCIPLE_FUNCTIONALS``).

Order reduction. When no row is zero-order (after a product kind drops its
own), the quotient is solved in w = v', every deriv one lower, with the
admissible v = −∫_r^{r_max} w behind it. In v, constants would lie in the
kernel of every form and the second-order row would cancel near r_min.

Discretization. Rayleigh–Ritz on cubic B-splines in s = ln r, with the grid
nodes as breakpoints. Since r v' = v_s and r² v'' = v_ss − v_s, each row is
∫ e^{(p+1−2d)s} |D_d v|² ds with D_0 = 1, D_1 = ∂_s, D_2 = ∂_ss − ∂_s. The
forms are assembled straight into LAPACK upper band storage from a table of
D_0, D_1 and D_2 of the four splines nonzero on each interval, at its 6
Gauss–Legendre points. The right end is clamped (v = v' = 0). Below r_min
the function continues as the constant v(r_min), with v'(r_min) = 0 when a
row has a second derivative, and each zero-order row gains its exact
integral over (0, r_min). When a zero-order weight is not integrable at 0
(p ≤ −1), v(r_min) = 0 is pinned instead (no such kind has a second-order
row). Every discrete function is therefore an admissible function on
(0, ∞), so a discrete minimum can never sit below a proved constant.

Solver. The numerator is a product of two quadratic forms, so this is not an
eigenproblem as it stands, but by AM–GM

    inf_v sqrt(A B) / C = inf_{t>0} (1/2) * lambda_min(t A + B / t ; C).

One bisection in ln t on the sign of d lambda/d ln t = (t a - b/t)/c, the
Hellmann–Feynman slope at the eigenvector, finds t*. The Jacobi-scaled forms
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

    def __post_init__(self) -> None:
        if not 0 < self.r_min < self.r_max < math.inf:
            raise UsageError("need 0 < r_min < r_max < inf")
        if self.size < 64:
            raise UsageError("grids below 64 nodes are too coarse to be meaningful")

    def nodes(self) -> np.ndarray:
        return self.r_min * (self.r_max / self.r_min) ** (
            np.arange(self.size) / (self.size - 1)
        )


#: Principle, form and product flag behind each quotient kind. A product kind
#: drops the zero-order rows of its reduced quotient; they are what the Hardy
#: correction factor accounts for.
_KIND_QUOTIENT = {
    QuotientKind.PRODUCT_HUP2: (PrincipleId.HUP2, Form.REDUCED, True),
    QuotientKind.PRODUCT_HYUP2: (PrincipleId.HYUP2, Form.REDUCED, True),
    QuotientKind.CLASSIC_HUP: (PrincipleId.HUP, Form.RAW, False),
    QuotientKind.CLASSIC_HYUP: (PrincipleId.HYUP, Form.RAW, False),
    QuotientKind.MODE_HYUP2_FULL: (PrincipleId.HYUP2, Form.REDUCED, False),
}


def _kind_forms(kind: QuotientKind, mode: Mode):
    """Nonzero (A, B, C) rows (coef, deriv, power) of the function the kind is
    solved in: w = v', every deriv one lower, when no row is zero-order."""
    if kind is QuotientKind.HARDY_1D:
        num, den = _hardy_rows(mode)
        forms = ([num], [den], [den])
    else:
        principle, form, product = _KIND_QUOTIENT[kind]
        tables = (_term_table(fid, form, mode) for fid in PRINCIPLE_FUNCTIONALS[principle])
        forms = [[(c, d, p) for c, d, p in t if c != 0 and (d or not product)] for t in tables]
    if all(d >= 1 for rows in forms for _, d, _ in rows):
        forms = [[(c, d - 1, p) for c, d, p in rows] for rows in forms]
    return tuple(forms)


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
    ) -> "VariationalProblem":
        kind = QuotientKind(kind)
        r_min = 1e-3 if r_min is None else r_min
        if r_max is None:
            r_max = 14.0 if kind in _GAUSS_KINDS else 24.0
        grid = GridSpec(r_min, r_max, size)
        return cls(make_mode(dimension, degree), kind, grid)

    def assemble(self) -> "DiscreteQuotient":
        return DiscreteQuotient(self)


#: Half-bandwidth of every assembled form: a cubic B-spline overlaps the
#: three splines on either side of it.
_BANDS = 3


def _cholesky(band: np.ndarray) -> np.ndarray | None:
    """Upper banded Cholesky factor, or None when the matrix is not positive definite."""
    factor, info = dpbtrf(band)
    return None if info else factor


def _spline_table(knots: np.ndarray, points: np.ndarray) -> np.ndarray:
    """D_0, D_1 and D_2 of the four cubic B-splines nonzero on each interval,
    at its row of ``points``: shape (3, spline, interval, point). B-splines
    four apart never overlap, so on an interval each sum of every fourth
    B-spline is the one of its terms that is nonzero there."""
    phase = np.arange(len(knots) - 4) % 4
    sums = BSpline(knots, np.equal.outer(phase, np.arange(4)).astype(float), 3)
    interval = np.arange(len(points))
    which = (interval + np.arange(4)[:, None]) % 4  # the sum holding each local spline
    f0, f1, f2 = (sums(points, nu)[interval, :, which] for nu in range(3))
    return np.stack([f0, f1, f2 - f1])


class DiscreteQuotient:
    """Rayleigh–Ritz realization of one quotient on cubic B-splines in ln r.

    ``x`` holds the coefficients of the free splines (see the module
    docstring for the end conditions). Two arrays carry the discretization:
    the per-interval table of ``_spline_table`` at the Gauss points, and
    ``_local``, the free coefficient of each interval's four splines (−1
    where an end condition sets it to 0). From them ``parts`` evaluates the
    three forms factored, row by row, and ``A``, ``B`` and ``C`` are
    accumulated straight into the upper band storage the pencil works on.
    """

    def __init__(self, problem: VariationalProblem):
        self.problem = problem
        r = problem.grid.nodes()
        s = np.log(r)
        forms = _kind_forms(problem.kind, problem.mode)
        rows = [row for form in forms for row in form]
        second = any(d == 2 for _, d, _ in rows)
        pin = any(d == 0 and p <= -1 for _, d, p in rows)

        # Free coefficient of each of the len(s) + 2 splines. The clamped knot
        # vector makes v(end) the end coefficient and v_s(end) a multiple of
        # the difference of the two end coefficients, so the last two are 0;
        # a pin sets the first to 0, and v_s(s_0) = 0 makes the first two agree.
        free = np.arange(len(s) + 2) - int(pin or second)
        free[0] = -1 if pin else 0
        free[-2:] = -1
        self._local = free[np.arange(len(s) - 1)[:, None] + np.arange(4)]
        self._size = free.max() + 1
        a, b = self._local[:, :, None], self._local[:, None, :]
        self._upper = (a >= 0) & (a <= b)
        self._slot = ((_BANDS + a - b) * self._size + b)[self._upper]

        sq, wq = gauss_panels(s, 6)
        self._knots = np.concatenate([np.full(3, s[0]), s, np.full(3, s[-1])])
        self._table = _spline_table(self._knots, sq)
        self._projection = (wq, np.exp(sq))

        # Each form is its (coef, deriv, weights) terms, with value
        # sum coef * sum weights * (D_deriv x)^2, and the weight of v(r_min)^2
        # that adds the exact integral of its zero-order rows over (0, r_min).
        self._forms = []
        for form in forms:
            terms = [(c, d, wq * np.exp((p + 1 - 2 * d) * sq)) for c, d, p in form]
            edge = sum(c * r[0] ** (p + 1) / (p + 1) for c, d, p in form if d == 0 and not pin)
            self._forms.append((terms, edge))
        self.A, self.B, self.C = (self._band(*form) for form in self._forms)
        self.r = r
        self.target = continuum_target(problem.kind, problem.mode)

    def _band(self, terms: list, edge: float = 0.0) -> np.ndarray:
        """Upper band storage of the Gram matrix of (coef, deriv, weights) terms."""
        block = sum(c * np.einsum("iq,aiq,biq->iab", w, self._table[d], self._table[d])
                    for c, d, w in terms)
        band = np.bincount(self._slot, block[self._upper], (_BANDS + 1) * self._size)
        band[_BANDS * self._size] += edge
        return band.reshape(_BANDS + 1, self._size)

    def parts(self, x: np.ndarray) -> tuple[float, float, float]:
        local = np.append(x, 0.0)[self._local]  # index −1 reads the appended 0
        values = (self._table * local.T[:, :, None]).sum(axis=1)
        return tuple(
            math.fsum([c * float(np.vdot(w, np.square(values[d]))) for c, d, w in terms]
                      + [edge * local[0, 0] ** 2])
            for terms, edge in self._forms
        )

    def value(self, x: np.ndarray) -> float:
        a, b, c = self.parts(x)
        if c <= 0.0 or not np.isfinite(c):
            raise SolverError("normalization term collapsed")
        return a * b / (c * c)

    def init_from_profile(self, profile: Profile) -> np.ndarray:
        """L2(ds) projection of the profile onto the free splines."""
        wq, rq = self._projection
        factor = _cholesky(self._band([(1.0, 0, wq)]))
        if factor is None:
            raise SolverError("spline Gram matrix is not positive definite")
        f = wq * np.asarray(profile.value(rq, 0), dtype=float)
        free = self._local >= 0
        rhs = np.einsum("iq,aiq->ia", f, self._table[0])[free]
        return dpbtrs(factor, np.bincount(self._local[free], rhs, self._size))[0]

    def to_profile(self, x: np.ndarray) -> SampledProfile:
        """The spline with coefficients x (w = v' for reduced rows), sampled at the nodes.

        The returned profile is the cubic spline in r through those samples,
        zero outside the grid. The discrete function continues below r_min as
        its value f(r_min) (unless pinned to 0), so its quotient adds
        c * r_min^(p+1) / (p+1) * f(r_min)^2 to every zero-order row (c, 0, p)
        of ``integrate`` on this profile.
        """
        local = np.append(x, 0.0)[self._local]
        spline = BSpline(self._knots, np.concatenate([local[:, 0], local[-1, 1:]]), 3)
        return SampledProfile(self.r, spline(np.log(self.r)))


@dataclass
class MinimizationResult:
    """Outcome of one t-pencil minimization.

    ``argmin`` is w = v' for the product kinds and the degree-0
    mode_hyup2_full (``_kind_forms`` reduces their rows), v otherwise.

    ``pencil_lower`` is (sigma/2)^2, where sigma is the largest shift whose
    Cholesky of t* A + B/t* - sigma C succeeded. It bounds the assembled
    discrete pencil's (lambda_min(t*)/2)^2 from below, up to the backward
    error of that factorization (machine precision times the norm of the
    scaled forms). It is not a bound on the continuum infimum, nor on the
    minimum over t. Where that backward error exceeds the bracket, it can sit
    above the factored-form ``pencil_value``; by more than 1e-9 relative
    only on mode_hyup2_full at k >= 1, where the cases depend on rounding
    (seen at N = 2, k = 1 and N = 2, k = 2 on 2048-node grids).
    """

    problem: VariationalProblem
    min_value: float
    argmin: SampledProfile
    iterations: int  # pencil evaluations
    converged: bool  # both ends of the t range moved, pencil agrees with min_value
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


#: Width in ln t that ends the bisection for t*, and the relative agreement
#: between the pencil value and the argmin's quotient that counts as converged.
_LOG_T_WIDTH = 1e-4
_AGREEMENT = 1e-6

#: Shift ladder of one pencil solve: the first relative gap below the
#: Rayleigh quotient, the bracket width that ends it, and its step cap.
_FIRST_GAP = 1e-2
_BRACKET = 1e-12
_LADDER_CAP = 200


def _lowest_eigenpair(
    K: np.ndarray, C: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Certified lower shift and eigenvector of the lowest eigenpair of (K; C).

    K and C are upper band storage. Inverse iteration starts from y; each
    shift s that a Cholesky of K - sC accepts is below lambda_min (Sylvester's
    law of inertia), so the returned shift is a lower bound of the assembled
    pencil's lambda_min up to the factorization's backward error, while the
    Rayleigh quotient of the returned vector bounds it from above.
    SolverError when K itself is not positive definite.
    """
    factor = _cholesky(K)
    if factor is None:
        raise SolverError("t A + B/t is not positive definite")

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
            # The quotient stopped falling (its rounding floor) and no
            # higher shift is certified.
            return lo, y
        if hi - lo <= _BRACKET * hi:
            return lo, y
    raise SolverError("the shift ladder of the pencil solve did not converge")


def _scaled_bands(dq: DiscreteQuotient) -> tuple[np.ndarray, ...]:
    """Jacobi scale 1/sqrt(diag C), then the scaled A, B and C in band storage."""
    scale = 1.0 / np.sqrt(dq.C[_BANDS])
    # Row _BANDS - k of band storage holds entry (j - k, j) in column j.
    rows = np.array([np.pad(scale[: len(scale) - k], (k, 0)) for k in range(_BANDS, -1, -1)])
    return (scale, *(m * rows * scale for m in (dq.A, dq.B, dq.C)))


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
    as the Rayleigh quotient of the eigenvector in the factored forms, an
    upper bound; SolverError when K does not factor. t* is found by
    bisection in ln t on the sign of the slope (t a - b/t)/c of lambda(t),
    read from the same eigenvector, down to a width of 1e-4. The range spans
    the local scales of the splines, widened upward by ln(size) for profiles
    much wider than one spline. The best evaluation gives every reported value.
    """
    dq = problem.assemble()
    scale, A, B, C = _scaled_bands(dq)
    evaluations: list[tuple[float, float, np.ndarray, float]] = []
    local = 0.5 * np.log(B[_BANDS] / A[_BANDS])
    ends = [local.min(), local.max() + math.log(problem.grid.size)]
    moved = [False, False]
    # Inverse iteration starts from the previous eigenvector (ones at first),
    # so every run of the same problem takes the same path.
    y = np.ones(A.shape[1])
    while ends[1] - ends[0] > _LOG_T_WIDTH:
        log_t = 0.5 * (ends[0] + ends[1])
        t = math.exp(log_t)
        lower, y = _lowest_eigenpair(t * A + B / t, C, y)
        a, b, c = dq.parts(scale * y)
        evaluations.append((log_t, (t * a + b / t) / c, y, lower))
        # Hellmann–Feynman: dlambda/dln t = (t a - b/t)/c; t* lies on its downhill side.
        side = int(t * a >= b / t)
        ends[side], moved[side] = log_t, True
    log_t, lam_star, y, lower = min(evaluations, key=lambda e: e[1])
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
        converged=all(moved) and agrees,
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
    if k_max < 0 or not resolutions:
        raise UsageError("the conjecture explorer needs k_max >= 0 and at least one resolution")
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
