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
Gauss–Legendre points; ``_bspline_basis`` evaluates the splines by de Boor's
recursion on the clamped knot vector in s. That table, the Gauss rule and
the splines at the nodes depend on the grid alone and are built once per
grid (``_grid_tables``). The right end is clamped
(v = v' = 0). Below r_min the function continues as the constant v(r_min),
with v'(r_min) = 0 when a row has a second derivative, and each zero-order
row gains its exact integral over (0, r_min). When a zero-order weight is
not integrable at 0 (p ≤ −1), v(r_min) = 0 is pinned instead (no such kind
has a second-order row). Every discrete function is therefore an
admissible function on (0, ∞), so a discrete minimum can never sit below a
proved constant.

Solver. The numerator is a product of two quadratic forms, so this is not an
eigenproblem as it stands, but by AM–GM

    inf_v sqrt(A B) / C = inf_{t>0} (1/2) * lambda_min(t A + B / t ; C).

One bisection in ln t on the sign of d lambda/d ln t = (t a - b/t)/c, the
Hellmann–Feynman slope at the eigenvector, finds t*. It runs until the slope
is flat to 1e-12, |t a - b/t| <= 1e-12 (t a + b/t), where AM–GM is an
equality and lambda(t) is stationary, or the width is 1e-4. The
Jacobi-scaled forms are banded (half-bandwidth 3), and each lambda_min comes
from banded Cholesky factorizations: inverse iteration on t A + B/t, then a
ladder of shifts s below the Rayleigh quotient. By Sylvester's law of
inertia, a Cholesky of t A + B/t - s C that succeeds proves s < lambda_min,
so every solve ends with a certified bracket; the largest such shift is the
next inverse step's shift. The scaled bands are kept column-major, LAPACK's
band layout, so BLAS and LAPACK take them without a copy. The eigenvector at
t* is the argmin, and its quotient, evaluated from the factored forms, is the
reported minimum;
(lambda*/2)^2 is reported beside it as the pencil value, and (sigma/2)^2 of
the bracket's lower end at t* as the pencil's lower bound.

The conjecture explorer solves each distinct discrete problem (the kind's
rows and the grid) once per call.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .constants import (
    MODE_BOUNDS,
    PrincipleId,
    mode_bound,
    mode_principle,
    scan_infimum,
    sharp_constant,
)
from .errors import SolverError, UsageError
from .profiles import (
    AnalyticProfile,
    MixtureProfile,
    Mode,
    Profile,
    SampledProfile,
    make_mode,
)
from .quadrature import CLOSED_FORM, gauss_panels
from .seminorms import (
    PRINCIPLE_FUNCTIONALS,
    Form,
    _hardy_rows,
    _term_table,
    eval_mode_functional,
)


class QuotientKind(str, Enum):
    PRODUCT_HUP2 = "product_hup2"        # one-dim reduction behind the hup2 constant
    PRODUCT_HYUP2 = "product_hyup2"      # one-dim reduction behind the hyup2 constant
    CLASSIC_HUP = "classic_hup"          # first-order Heisenberg quotient, one mode
    CLASSIC_HYUP = "classic_hyup"        # first-order hydrogen quotient, one mode
    HARDY_1D = "hardy_1d"                # weighted 1-d Hardy ratio (single quotient)
    MODE_HYUP2_FULL = "mode_hyup2_full"  # true second-order hydrogen quotient, one mode


class KindSpec(NamedTuple):
    principle: PrincipleId | None  # None: the weighted 1-d Hardy ratio
    form: Form
    product: bool  # drops the zero-order rows, which the Hardy correction factor covers
    r_min: float  # default grid ends
    r_max: float


#: Principle, form, product flag and default grid ends of each quotient kind.
#: r_max is 14 where the extremal is Gaussian, 24 where it is hydrogen-like.
#: The Hardy infimum is not attained, and hardy_1d's domain error shrinks like
#: (pi / ln(r_max / r_min))^2, hence its small r_min.
KINDS = {
    QuotientKind.PRODUCT_HUP2: KindSpec(PrincipleId.HUP2, Form.REDUCED, True, 1e-3, 14.0),
    QuotientKind.PRODUCT_HYUP2: KindSpec(PrincipleId.HYUP2, Form.REDUCED, True, 1e-3, 24.0),
    QuotientKind.CLASSIC_HUP: KindSpec(PrincipleId.HUP, Form.RAW, False, 1e-3, 14.0),
    QuotientKind.CLASSIC_HYUP: KindSpec(PrincipleId.HYUP, Form.RAW, False, 1e-3, 24.0),
    QuotientKind.HARDY_1D: KindSpec(None, Form.REDUCED, False, 1e-9, 14.0),
    QuotientKind.MODE_HYUP2_FULL: KindSpec(PrincipleId.HYUP2, Form.REDUCED, False, 1e-3, 24.0),
}


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


def _kind_forms(kind: QuotientKind, mode: Mode):
    """Nonzero (A, B, C) rows (coef, deriv, power) of the function the kind is
    solved in: w = v', every deriv one lower, when no row is zero-order."""
    spec = KINDS[kind]
    if spec.principle is None:
        num, den = _hardy_rows(mode)
        forms = ((num,), (den,), (den,))
    else:
        tables = (_term_table(fid, spec.form, mode)
                  for fid in PRINCIPLE_FUNCTIONALS[spec.principle])
        forms = tuple(tuple((c, s.deriv, s.power) for _, c, s in t
                            if s.deriv or not spec.product)
                      for t in tables)
    if all(d >= 1 for rows in forms for _, d, _ in rows):
        forms = tuple(tuple((c, d - 1, p) for c, d, p in rows) for rows in forms)
    return forms


def continuum_target(kind: QuotientKind, mode: Mode) -> float | None:
    """Known continuum infimum of the quotient, when one is established.

    A product kind, its zero-order rows dropped, is the degree-0 quotient of
    its principle in dimension N + 2k, so its target is that constant. Any
    other kind's target is its principle's constant at degree 0 (for
    mode_hyup2_full the full-space constant, conjectured for 2 <= N <= 4) and
    None above it; the Hardy ratio's is (N+2k)^2/4.
    """
    N, k = mode.dimension, mode.degree
    spec = KINDS[kind]
    if spec.principle is None:
        return (N + 2 * k) ** 2 / 4.0
    if spec.product:
        return float(sharp_constant(spec.principle, N + 2 * k))
    return float(sharp_constant(spec.principle, N)) if k == 0 else None


@dataclass(frozen=True)
class VariationalProblem:
    mode: Mode
    kind: QuotientKind
    grid: GridSpec

    def __post_init__(self) -> None:
        if self.mode.dimension < 2:
            raise UsageError("the variational quotients need dimension >= 2; "
                             "n1_quotient_check covers N = 1")

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
        spec = KINDS[kind]
        grid = GridSpec(spec.r_min if r_min is None else r_min,
                        spec.r_max if r_max is None else r_max, size)
        return cls(make_mode(dimension, degree), kind, grid)

    def assemble(self) -> "DiscreteQuotient":
        return DiscreteQuotient(self)


#: Half-bandwidth of every assembled form: a cubic B-spline overlaps the
#: three splines on either side of it.
_BANDS = 3


def _cholesky(band: np.ndarray, overwrite: bool = False) -> np.ndarray | None:
    """Upper banded Cholesky factor, or None when the matrix is not positive
    definite. ``overwrite`` lets LAPACK factor a Fortran-ordered ``band`` in
    place."""
    factor, info = dpbtrf(band, overwrite_ab=overwrite)
    return None if info else factor


def _bspline_basis(knots: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values, first and second derivatives of the four cubic B-splines
    nonzero on each interval, at its row of ``points``: shape (3, spline,
    interval, point).

    De Boor's triangular recursion (BSPLVB; de Boor, *A Practical Guide to
    Splines*, ch. X), vectorized over intervals. On the clamped knot vector
    interval i is knot span j = i + 3. The m splines of order m nonzero on
    the span are divided by the widths t[j+1+r] - t[j+1+r-m] of their
    supports; each width covers the span, so is positive. The divided
    splines give the next order's values, weighted by t[j+1+r] - x and
    x - t[j+1+r-m], or its derivatives, weighted by -m and m.
    """
    span = np.arange(len(points))[:, None] + 3
    r = np.arange(3)[:, None, None]
    right = knots[span + 1 + r] - points  # t[j+1+r] - x, shape (r, interval, point)
    left = points - knots[span - r]       # x - t[j-r]

    def divide(b: np.ndarray) -> np.ndarray:
        m = len(b)
        return b / (right[:m] + left[m - 1::-1])

    def raise_order(term: np.ndarray, derivative: bool = False) -> np.ndarray:
        m = len(term)
        low, high = (-m, m) if derivative else (right[:m], left[m - 1::-1])
        out = np.zeros((m + 1, *points.shape))
        out[:-1] = low * term
        out[1:] += high * term
        return out

    term2 = divide(raise_order(divide(np.ones((1, *points.shape)))))
    term3 = divide(raise_order(term2))
    table = [
        raise_order(term3),
        raise_order(term3, derivative=True),
        raise_order(divide(raise_order(term2, derivative=True)), derivative=True),
    ]
    return np.stack(table)


def _spline_table(knots: np.ndarray, points: np.ndarray) -> np.ndarray:
    """D_0, D_1 and D_2 = ∂_ss − ∂_s of the four cubic B-splines nonzero on
    each interval, at its row of ``points``: shape (3, spline, interval, point)."""
    f0, f1, f2 = _bspline_basis(knots, points)
    return np.stack([f0, f1, f2 - f1])


class _GridTables(NamedTuple):
    """What a discrete quotient needs from its grid alone (read-only arrays)."""

    r: np.ndarray           # the nodes
    table: np.ndarray       # _spline_table at the Gauss points of each interval
    sq: np.ndarray          # those Gauss points, one row per interval
    wq: np.ndarray          # their weights
    rq: np.ndarray          # e^{sq}
    node_basis: np.ndarray  # the four splines at each interval's ends: (spline, interval, end)


@lru_cache(maxsize=8)
def _grid_tables(grid: GridSpec) -> _GridTables:
    """The tables of ``grid``, built once per grid and shared; read-only."""
    r = grid.nodes()
    s = np.log(r)
    sq, wq = gauss_panels(s, 6)
    knots = np.concatenate([np.full(3, s[0]), s, np.full(3, s[-1])])
    # Each interval supplies its left node; the last also its right node.
    ends = np.stack([s[:-1], s[1:]], axis=1)
    tables = _GridTables(r, _spline_table(knots, sq), sq, wq, np.exp(sq),
                         _bspline_basis(knots, ends)[0])
    for array in tables:
        array.flags.writeable = False
    return tables


class DiscreteQuotient:
    """Rayleigh–Ritz realization of one quotient on cubic B-splines in ln r,
    on the clamped knot vector of the nodes, evaluated by de Boor's recursion.

    ``x`` holds the coefficients of the free splines (see the module
    docstring for the end conditions). Two arrays carry the discretization:
    the per-interval table of ``_spline_table`` at the Gauss points, and
    ``_local``, the free coefficient of each interval's four splines (−1
    where an end condition sets it to 0). From them ``parts`` evaluates the
    three forms factored, row by row, and ``A``, ``B`` and ``C`` are
    accumulated straight into the upper band storage the pencil works on.
    The table, the Gauss rule and the splines at the nodes depend on the
    grid alone; they are built once per grid and shared (``_grid_tables``).
    """

    def __init__(self, problem: VariationalProblem):
        self.problem = problem
        self._grid = grid = _grid_tables(problem.grid)
        r, sq, wq = grid.r, grid.sq, grid.wq
        forms = _kind_forms(problem.kind, problem.mode)
        rows = [row for form in forms for row in form]
        second = any(d == 2 for _, d, _ in rows)
        pin = any(d == 0 and p <= -1 for _, d, p in rows)

        # Free coefficient of each of the len(r) + 2 splines. The clamped knot
        # vector makes v(end) the end coefficient and v_s(end) a multiple of
        # the difference of the two end coefficients, so the last two are 0;
        # a pin sets the first to 0, and v_s(s_0) = 0 makes the first two agree.
        free = np.arange(len(r) + 2) - int(pin or second)
        free[0] = -1 if pin else 0
        free[-2:] = -1
        self._local = free[np.arange(len(r) - 1)[:, None] + np.arange(4)]
        self._size = free.max() + 1
        a, b = self._local[:, :, None], self._local[:, None, :]
        self._upper = (a >= 0) & (a <= b)
        self._slot = ((_BANDS + a - b) * self._size + b)[self._upper]
        self._table = grid.table

        # Each form is its (coef, deriv, weights) terms, with value
        # sum coef * sum weights * (D_deriv x)^2, and the weight of v(r_min)^2
        # that adds the exact integral of its zero-order rows over (0, r_min).
        self._forms = []
        for form in forms:
            terms = [(c, d, wq * np.exp((p + 1 - 2 * d) * sq)) for c, d, p in form]
            edge = sum(c * r[0] ** (p + 1) / (p + 1) for c, d, p in form if d == 0 and not pin)
            self._forms.append((terms, edge))
        self._orders = sorted({d for _, d, _ in rows})
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
        squares = {}
        for d in self._orders:
            # D_d x at the Gauss points: the four splines' terms, added in order.
            spline = self._table[d]
            value = spline[0] * local[:, 0, None]
            for j in range(1, 4):
                value += spline[j] * local[:, j, None]
            squares[d] = np.square(value, out=value)
        return tuple(
            math.fsum([c * float(np.vdot(w, squares[d])) for c, d, w in terms]
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
        wq = self._grid.wq
        factor = _cholesky(self._band([(1.0, 0, wq)]))
        if factor is None:
            raise SolverError("spline Gram matrix is not positive definite")
        f = wq * np.asarray(profile.value(self._grid.rq, 0), dtype=float)
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
        values = (self._grid.node_basis * local.T[:, :, None]).sum(axis=0)
        return SampledProfile(self.r, np.append(values[:, 0], values[-1, 1]))


@dataclass
class MinimizationResult:
    """Outcome of one t-pencil minimization; its JSON report is these fields.

    ``kind``, ``mode`` and ``grid`` are the problem's; ``target`` is
    ``continuum_target``. ``argmin`` is w = v' for the product kinds and the
    degree-0 mode_hyup2_full (no row of theirs is zero-order, so their rows
    are reduced), v otherwise.

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

    kind: QuotientKind
    mode: Mode
    grid: GridSpec
    min_value: float
    argmin: SampledProfile
    iterations: int  # pencil evaluations
    # Why the bisection stopped: "flat" (the slope is flat to 1e-12),
    # "bracketed" (the width is 1e-4 and both ends of the t range moved) or
    # "range_end" (the width is 1e-4 and one end never moved).
    exit: str
    converged: bool  # exit is not "range_end", pencil agrees with min_value
    target: float | None
    t_star: float
    pencil_value: float
    pencil_lower: float
    eigen_residual: float


#: Width in ln t that ends the bisection for t*, the relative Hellmann–Feynman
#: slope |t a - b/t| / (t a + b/t) that ends it earlier, and the relative
#: agreement between the pencil value and the argmin's quotient that counts
#: as converged.
_LOG_T_WIDTH = 1e-4
_FLAT_SLOPE = 1e-12
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

    K and C are upper band storage, Fortran-ordered as LAPACK stores bands,
    so no call copies them. Inverse iteration starts from y; each
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
        z = dpbtrs(factor, dsbmv(_BANDS, 1.0, C, y), overwrite_b=True)[0]
        z /= math.sqrt(z @ dsbmv(_BANDS, 1.0, C, z))
        return z, float(z @ dsbmv(_BANDS, 1.0, K, z))

    y, _ = inverse_step(factor, y)
    y, hi = inverse_step(factor, y)
    lo, gap = 0.0, _FIRST_GAP
    for _ in range(_LADDER_CAP):
        s = max(lo, hi * (1.0 - gap))
        shifted = _cholesky(K - s * C, overwrite=True)
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
    """Jacobi scale 1/sqrt(diag C), then the scaled A, B and C in band storage,
    Fortran-ordered (column-major, LAPACK's band layout), so that the sums
    t A + B/t and K - sC stay in that order and BLAS and LAPACK take them
    without a copy."""
    scale = 1.0 / np.sqrt(dq.C[_BANDS])
    # Row _BANDS - k of band storage holds entry (j - k, j) in column j.
    rows = np.array([np.pad(scale[: len(scale) - k], (k, 0)) for k in range(_BANDS, -1, -1)])
    return (scale, *(np.asfortranarray(m * rows * scale) for m in (dq.A, dq.B, dq.C)))


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
    upper bound; SolverError when K does not factor, or before any solve
    when a form's diagonal underflows to 0 or overflows, which leaves no
    finite t range (extreme r_min or r_max). t* is found by
    bisection in ln t on the sign of the slope (t a - b/t)/c of lambda(t),
    read from the same eigenvector, until the slope is flat to 1e-12 of
    (t a + b/t) or the width is 1e-4; ``exit`` says which ("flat",
    "bracketed", or "range_end" when t* was not bracketed). The range spans
    the local scales of the splines, widened upward by ln(size) for profiles
    much wider than one spline. The best evaluation gives every reported value.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            dq = problem.assemble()
            scale, A, B, C = _scaled_bands(dq)
            local = 0.5 * np.log(B[_BANDS] / A[_BANDS])
        except FloatingPointError as exc:
            raise SolverError(f"the forms are not finite on this grid ({exc})") from None
    evaluations: list[tuple[float, float, np.ndarray, float]] = []
    ends = [local.min(), local.max() + math.log(problem.grid.size)]
    moved = [False, False]
    # Inverse iteration starts from the previous eigenvector (ones at first),
    # so every run of the same problem takes the same path.
    y = np.ones(A.shape[1])
    reason = "flat"
    while ends[1] - ends[0] > _LOG_T_WIDTH:
        log_t = 0.5 * (ends[0] + ends[1])
        t = math.exp(log_t)
        lower, y = _lowest_eigenpair(t * A + B / t, C, y)
        a, b, c = dq.parts(scale * y)
        evaluations.append((log_t, (t * a + b / t) / c, y, lower))
        # Hellmann–Feynman: dlambda/dln t = (t a - b/t)/c; t* lies on its downhill side.
        if abs(t * a - b / t) <= _FLAT_SLOPE * (t * a + b / t):
            break
        side = int(t * a >= b / t)
        ends[side], moved[side] = log_t, True
    else:
        reason = "bracketed" if all(moved) else "range_end"
    log_t, lam_star, y, lower = min(evaluations, key=lambda e: e[1])
    t = math.exp(log_t)
    residual = float(np.linalg.norm(
        dsbmv(_BANDS, 1.0, t * A + B / t, y) - lam_star * dsbmv(_BANDS, 1.0, C, y)
    ))
    x = scale * y
    min_value = dq.value(x)
    pencil = (lam_star / 2.0) ** 2
    agrees = pencil - min_value <= _AGREEMENT * pencil
    return MinimizationResult(
        kind=problem.kind,
        mode=problem.mode,
        grid=problem.grid,
        min_value=min_value,
        argmin=dq.to_profile(x),
        iterations=len(evaluations),
        exit=reason,
        converged=reason != "range_end" and agrees,
        target=dq.target,
        t_star=t,
        pencil_value=pencil,
        pencil_lower=(lower / 2.0) ** 2,
        eigen_residual=residual,
    )


#: The results of one explore_conjecture call by discrete problem (the
#: kind's rows and the grid), so that it solves each problem once; None
#: outside such a call.
_SOLVED: ContextVar[dict | None] = ContextVar("_SOLVED", default=None)


def _solve(problem: VariationalProblem) -> MinimizationResult:
    """``minimize_quotient``, reusing an earlier solve of the same discrete
    problem within one explore_conjecture call. The reused result is relabelled
    with this problem's kind, mode and target; its numbers and argmin are
    those of the shared problem."""
    solved = _SOLVED.get()
    if solved is None:
        return minimize_quotient(problem)
    key = (_kind_forms(problem.kind, problem.mode), problem.grid)
    if key not in solved:
        solved[key] = minimize_quotient(problem)
    return replace(solved[key], kind=problem.kind, mode=problem.mode,
                   target=continuum_target(problem.kind, problem.mode))


def eigen_crosscheck(problem: VariationalProblem) -> float:
    """Pencil value (lambda*/2)^2 of the problem's t-pencil minimization."""
    return minimize_quotient(problem).pencil_value


@dataclass
class ModeBoundRow:
    degree: int
    min_value: float
    continuum: float
    factor: Fraction
    bound: float
    exact_bound: Fraction
    converged: bool


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
    principle = mode_principle(quotient)
    if k_max < 4:
        raise UsageError("k_max must be at least 4")
    kind = next(kind for kind, spec in KINDS.items()
                if spec.product and spec.principle is principle)
    rows: list[ModeBoundRow] = []
    for k in range(k_max + 1):
        problem = VariationalProblem.for_mode(kind, dimension, k, size=size)
        res = _solve(problem)
        factor = MODE_BOUNDS[principle].correction(dimension, k)
        rows.append(
            ModeBoundRow(
                degree=k,
                min_value=res.min_value,
                continuum=res.target,
                factor=factor,
                bound=float(factor) * res.min_value,
                exact_bound=mode_bound(principle, dimension, k),
                converged=res.converged,
            )
        )
    argmin = min(range(len(rows)), key=lambda i: rows[i].bound)
    exact = scan_infimum(quotient, dimension, max(k_max, 8)).infimum
    return CombinedBound(
        quotient=principle.value,
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
    combined_bound: CombinedBound
    estimated_infimum: float
    argmin_degree: int
    counterexample: dict | None
    status: str


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

    Each distinct discrete problem is solved once per call: the combined
    bound's degree-0 product_hyup2 row has the rows and grid of the finest
    degree-0 rung, and takes that rung's result.
    """
    n = int(dimension)
    conjectured = float(sharp_constant(PrincipleId.HYUP2, n))  # UsageError below N = 2
    resolutions = tuple(sorted(set(resolutions)))
    if k_max < 0 or not resolutions:
        raise UsageError("the conjecture explorer needs k_max >= 0 and at least one resolution")
    ladder: list[dict] = []
    finest = max(resolutions)
    counterexample = None
    per_mode_finest: dict[int, float] = {}
    token = _SOLVED.set({})
    try:
        for size in resolutions:
            for k in range(k_max + 1):
                problem = VariationalProblem.for_mode(
                    QuotientKind.MODE_HYUP2_FULL, n, k, size=size
                )
                res = _solve(problem)
                ladder.append({
                    "degree": k,
                    "size": size,
                    "min_value": res.min_value,
                    "converged": res.converged,
                })
                if size == finest:
                    per_mode_finest[k] = res.min_value
                if res.min_value < conjectured * (1.0 - 3.0 * DISCRETIZATION_BUDGET):
                    cand = {
                        "degree": k,
                        "size": size,
                        "min_value": res.min_value,
                        "profile": res.argmin,
                    }
                    if counterexample is None or cand["min_value"] < counterexample["min_value"]:
                        counterexample = cand

        combined = mode_combined_bound("hyup2", n, k_max=max(k_max, 4), size=finest)
    finally:
        _SOLVED.reset(token)
    argmin_degree = min(per_mode_finest, key=per_mode_finest.get)
    return ConjectureReport(
        dimension=n,
        conjectured=conjectured,
        k_max=k_max,
        resolutions=resolutions,
        ladder=ladder,
        combined_bound=combined,
        estimated_infimum=per_mode_finest[argmin_degree],
        argmin_degree=argmin_degree,
        counterexample=counterexample,
        status="numerical evidence only; nothing here proves or refutes the open range",
    )


def n1_quotient_check(u: AnalyticProfile | MixtureProfile) -> float:
    """One-dimensional second-order quotient for even profiles on the line.

    For even u the full-line integrals reduce to half-line ones and the
    quotient ∫|u''|^2 ∫ r^2|u'|^2 / (∫|u'|^2)^2 is the N=1 case of the
    second-order Heisenberg principle; Gaussian input returns exactly 9/4.
    """
    components = u.components if isinstance(u, MixtureProfile) else (u,)
    for comp in components:
        if comp.kernel != "gauss" or comp.power != int(comp.power) or int(comp.power) % 2:
            raise UsageError("the line quotient needs an even, smooth profile")
    line = make_mode(1, 0)  # each functional has a single row here
    a, b, c = (eval_mode_functional(fid, line, u, Form.RAW, CLOSED_FORM).value
               for fid in PRINCIPLE_FUNCTIONALS[PrincipleId.HUP2])
    return a * b / (c * c)
