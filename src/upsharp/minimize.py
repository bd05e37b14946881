"""Discrete variational minimization of the per-mode Rayleigh quotients.

The quotients here have the form Q(v) = A[v] B[v] / C[v]^2, where A, B and C
are sums of weighted radial integrals ∫ r^p |v^(d)|² dr. Their
(coef, deriv, power) rows are read from the seminorm term table through each
kind's principle (``seminorms.PRINCIPLE_FUNCTIONALS``) at one mode: the
problem's, or for the product kinds and the Hardy ratio the degree-0 mode in
dimension N + 2k, whose quotient the degree-k product quotient is
(``KINDS``, ``_kind_lookup``).

Order reduction. When no row is zero-order, the quotient is solved in
w = v', every deriv one lower, with the admissible v = −∫_r^{r_max} w behind
it, and the result says so (``solved_in``). In v, constants would lie in the
kernel of every form and the second-order row would cancel near r_min.

Discretization. Rayleigh–Ritz on cubic B-splines in s = ln r, with the grid
nodes as breakpoints: the space of ``profiles.SampledProfile``, on its
Gauss rule. Since r v' = v_s and r² v'' = v_ss − v_s, each row is
∫ e^{(p+1−2d)s} |D_d v|² ds with D_0 = 1, D_1 = ∂_s, D_2 = ∂_ss − ∂_s. The
forms are assembled in LAPACK upper band storage from a table of D_0, D_1
and D_2 of the four splines nonzero on each interval, at its Gauss points in
s, which the sampled profiles' rule evaluates from the splines' Hermite
data, their closed-form values and slopes at the nodes: a form sums its
rows' weights per order d and contracts each sum once with the products
D_d B_m D_d B_n of the table, on all nodes + 2 splines of the clamped knot
vector. Table, products and node data depend on the grid alone and are
built once per grid (``_grid_tables``).

Ends. Beyond the grid the function continues by power pieces taken from the
asymptotics (``_end_exponents``). Below r_min it is sum_j alpha_j r^{e_j},
with e_0 the order at which the solved function of a smooth mode vanishes
and e_0 + 1 beside it for the hydrogen kinds and second-order rows; two
terms are matched to the end node's value and slope in s (C^1), one term to
its value. Above r_max, mode_hyup2_full at k >= 1 continues as
beta_0 r^sigma + beta_1 r^{sigma-1}, sigma = 2 - N - 2k, matched C^1; every
other kind is clamped there (v = v' = 0). The rows' exact integrals over a
piece are a 2 x 2 form in the end node's value and slope (``_end_block``),
added through that node's three splines to the full band, which the clamp
then restricts once to the free coefficients (``DiscreteQuotient``). Every
discrete function is therefore an admissible function on (0, ∞), so a
discrete minimum can never sit below a proved constant. Since the pieces
follow the extremal's own power laws, the quotient is nearly invariant
under a dilation r -> a r, as in the continuum: lambda(t) below is
nearly flat, the ends no longer limit the accuracy (every proved kind is
within 1e-10 of its constant on its default 512-node grid), and the
t-search mostly stops at its first probe.

Solver. The numerator is a product of two quadratic forms, so this is not an
eigenproblem as it stands, but by AM–GM

    inf_v sqrt(A B) / C = inf_{t>0} (1/2) * lambda_min(t A + B / t ; C).

One bisection in ln t on the sign of d lambda/d ln t = (t a - b/t)/c, the
Hellmann–Feynman slope at the eigenvector, finds t*. It stops once the
relative slope (t a - b/t)/(t a + b/t) times the bracket width, about the
most a convex lambda could still fall, is 1e-12, or at width 1e-4. The
Jacobi-scaled forms are banded (half-bandwidth 3), and each lambda_min comes
from banded Cholesky factorizations: inverse iteration on t A + B/t, then a
ladder of shifts s below the Rayleigh quotient. By Sylvester's law of
inertia, a Cholesky of t A + B/t - s C that succeeds proves s < lambda_min,
so every solve ends with a certified bracket; the largest such shift is the
next inverse step's shift. A step shifted by s cuts the quotient's error by
about ((lambda_1 - s)/(lambda_2 - s))^2 (Parlett, *The Symmetric Eigenvalue
Problem*, ch. 4), at most the square of the certified gap g, so the ladder
sets its next relative gap from the fall f of the quotient in that step:
1e3 g^2 f, at least ten times below the last gap and no less than half the
1e-12 bracket; a shift that fails widens the gap tenfold. Each inverse step
takes two band products, since the normalised C z of one step is the next
one's right-hand side. The scaled bands are kept column-major, LAPACK's
band layout, so BLAS and LAPACK take them without a copy. The eigenvector at
t* is the argmin, handed over as the sampled profile of that very spline
(``to_profile``), and that profile's quotient is the reported minimum;
(lambda*/2)^2 is reported beside it as the pencil value, and (sigma/2)^2 of
the bracket's lower end at t* as the pencil's lower bound.

The conjecture explorer solves each distinct discrete problem (the kind's
rows, its end pieces and the grid) once per call.
"""

from __future__ import annotations

import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
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
from .errors import SolverError, UsageError, _integer, _NameEnum
from .profiles import Mode, Profile, SampledProfile, _grid_rule, _GridRule, make_mode
from .seminorms import BOTH_FORMS, HARDY_FUNCTIONALS, PRINCIPLE_FUNCTIONALS, Form, _term_table


class QuotientKind(_NameEnum):
    PRODUCT_HUP2 = "product_hup2"        # one-dim reduction behind the hup2 constant
    PRODUCT_HYUP2 = "product_hyup2"      # one-dim reduction behind the hyup2 constant
    CLASSIC_HUP = "classic_hup"          # first-order Heisenberg quotient, one mode
    CLASSIC_HYUP = "classic_hyup"        # first-order hydrogen quotient, one mode
    HARDY_1D = "hardy_1d"                # weighted 1-d Hardy ratio (single quotient)
    MODE_HYUP2_FULL = "mode_hyup2_full"  # true second-order hydrogen quotient, one mode


class KindSpec(NamedTuple):
    principle: PrincipleId | None  # None: the weighted 1-d Hardy ratio
    degree_zero: bool  # read at degree 0 in dimension N + 2k (product kinds, Hardy ratio)
    r_min: float  # default grid ends
    r_max: float


#: Principle, degree-0 flag and default grid ends of each quotient kind, from
#: which ``_kind_lookup`` derives its rows and target. r_max is 14 where the
#: extremal is Gaussian, 24 where it is hydrogen-like. hardy_1d's infimum is
#: not attained and its domain error is (pi / ln(r_max / r_min))^2: small r_min.
KINDS = {
    QuotientKind.PRODUCT_HUP2: KindSpec(PrincipleId.HUP2, True, 1e-3, 14.0),
    QuotientKind.PRODUCT_HYUP2: KindSpec(PrincipleId.HYUP2, True, 1e-3, 24.0),
    QuotientKind.CLASSIC_HUP: KindSpec(PrincipleId.HUP, False, 1e-3, 14.0),
    QuotientKind.CLASSIC_HYUP: KindSpec(PrincipleId.HYUP, False, 1e-3, 24.0),
    QuotientKind.HARDY_1D: KindSpec(None, True, 1e-9, 14.0),
    QuotientKind.MODE_HYUP2_FULL: KindSpec(PrincipleId.HYUP2, False, 1e-3, 24.0),
}


@dataclass(frozen=True)
class GridSpec:
    r_min: float = 1e-3
    r_max: float = 14.0
    size: int = 512

    def __post_init__(self) -> None:
        if not 0 < self.r_min < self.r_max < math.inf:
            raise UsageError("need 0 < r_min < r_max < inf")
        if _integer(self.size, "the grid size") < 64:
            raise UsageError("grids below 64 nodes are too coarse to be meaningful")

    def nodes(self) -> np.ndarray:
        # Spaced in logarithms, so that no ratio r_max / r_min overflows.
        return np.geomspace(self.r_min, self.r_max, self.size)


def _kind_lookup(kind: QuotientKind, mode: Mode):
    """Nonzero (A, B, C) rows (coef, deriv, power) of the function the kind is
    solved in, the known continuum infimum of the quotient (None where none
    is), and that function: "w" for w = v', every deriv one lower, when no
    row is zero-order, "v" otherwise.

    The rows are the term table's at one mode, reduced unless a functional
    has only a raw form: a degree-0 kind reads degree 0 in dimension N + 2k,
    where the degree-k product quotient is the degree-0 one. A principle's
    target is its constant in the dimension read when that mode has degree 0
    (for mode_hyup2_full the full-space constant, conjectured for
    2 <= N <= 4), None otherwise; the Hardy ratio's is (N+2k)^2/4.
    """
    spec = KINDS[kind]
    if spec.degree_zero:
        mode = Mode(mode.dimension + 2 * mode.degree, 0, 0)
    fids = HARDY_FUNCTIONALS if spec.principle is None else PRINCIPLE_FUNCTIONALS[spec.principle]
    form = Form.REDUCED if all(fid in BOTH_FORMS for fid in fids) else Form.RAW
    forms = tuple(tuple((c, s.deriv, s.power) for _, c, s in _term_table(fid, form, mode))
                  for fid in fids)
    target = None
    if mode.degree == 0:  # always so for the Hardy ratio
        target = (mode.dimension ** 2 / 4.0 if spec.principle is None
                  else float(sharp_constant(spec.principle, mode.dimension)))
    if all(d >= 1 for rows in forms for _, d, _ in rows):
        forms = tuple(tuple((c, d - 1, p) for c, d, p in rows) for rows in forms)
        return forms, target, "w"
    return forms, target, "v"


def _end_exponents(kind: QuotientKind, mode: Mode) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponents e_j of the end pieces sum_j alpha_j r^{e_j} of the function
    the kind is solved in (``_kind_lookup``): below r_min, and above r_max,
    where () keeps the clamp v = v' = 0.

    Below r_min e_0 is the order at which that function of a smooth degree-k
    mode vanishes: 1 for w = v', k for the raw rows of the classic kinds
    (u = r^k v), 0 otherwise. e_0 + 1 joins it for the hydrogen kinds, whose
    Coulomb row gives a cusp a + b r, and wherever a row is second order.
    Above r_max, mode_hyup2_full at k >= 1 decays as r^sigma with
    sigma = 2 - N - 2k, since its B row r^{N+2k-1} |v'|^2 dominates there;
    every other kind's extremal decays exponentially and keeps the clamp.
    """
    forms, _, solved_in = _kind_lookup(kind, mode)
    principle = KINDS[kind].principle
    if solved_in == "w":
        first = 1
    elif principle in (PrincipleId.HUP, PrincipleId.HYUP):  # raw rows: u = r^k v
        first = mode.degree
    else:
        first = 0
    head = (first,)
    if principle in (PrincipleId.HYUP, PrincipleId.HYUP2) or any(
            d == 2 for rows in forms for _, d, _ in rows):
        head = (first, first + 1)
    if kind is QuotientKind.MODE_HYUP2_FULL and mode.degree >= 1:
        sigma = 2 - mode.dimension - 2 * mode.degree
        return head, (sigma, sigma - 1)
    return head, ()


def _end_block(rows, exponents: tuple[int, ...], r_end: float, sign: int) -> np.ndarray:
    """The exact integrals of the rows over the end piece sum_j A_j (r/r_end)^{e_j},
    as a 2 x 2 form in the value v and slope v_s in s at r_end: over (0, r_end)
    for sign 1, (r_end, inf) for sign -1. Row (c, d, p) adds
    c A_j A_l phi_d(e_j) phi_d(e_l) r_end^{p+1-2d} / |q_jl| with
    q_jl = p + 1 - 2d + e_j + e_l and phi_0 = 1, phi_1 = e, phi_2 = e(e - 1).
    Two terms are matched to v and v_s (v = A_0 + A_1, v_s = e_0 A_0 + e_1 A_1),
    one to v alone. SolverError where a term's integral diverges."""
    phi = np.array([[1, e, e * (e - 1)] for e in exponents], dtype=float)
    block = np.zeros((len(exponents),) * 2)
    for c, d, p in rows:
        for j, l in itertools.product(range(len(exponents)), repeat=2):
            weight = c * phi[j, d] * phi[l, d]
            if weight == 0.0:
                continue
            q = p + 1 - 2 * d + exponents[j] + exponents[l]
            if sign * q <= 0:
                raise SolverError(f"the end piece r^{exponents[j]} of a row r^{p} |f^({d})|^2 "
                                  "is not integrable")
            block[j, l] += weight * r_end ** (p + 1 - 2 * d) / abs(q)
    if len(exponents) == 1:
        return np.array([[block[0, 0], 0.0], [0.0, 0.0]])
    e0, e1 = exponents
    to_terms = np.array([[e1, -1.0], [-e0, 1.0]]) / (e1 - e0)  # (v, v_s) -> (A_0, A_1)
    return to_terms.T @ block @ to_terms


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

#: The pairs m <= n of an interval's four splines, in the order of
#: ``_GridTables.products``.
_PAIRS = [(m, n) for m in range(_BANDS + 1) for n in range(m, _BANDS + 1)]


def _cholesky(band: np.ndarray, overwrite: bool = False) -> np.ndarray | None:
    """Upper banded Cholesky factor, or None when the matrix is not positive
    definite. ``overwrite`` lets LAPACK factor a Fortran-ordered ``band`` in
    place."""
    factor, info = dpbtrf(band, overwrite_ab=overwrite)
    return None if info else factor


class _GridTables(NamedTuple):
    """What a discrete quotient needs from its grid alone (read-only arrays)."""

    rule: _GridRule        # the sampled profiles' rule: nodes, Gauss rule in s, weights
    table: np.ndarray      # D_0, D_1, D_2 at the Gauss points: (3, spline, interval, point)
    # D_d B_m * D_d B_n of each interval's splines m <= n (pair e of
    # ``_PAIRS``) at the Gauss points, the forms' integrands: (3, point, pair, interval)
    products: np.ndarray
    knot_data: np.ndarray  # v and v_s of the three splines nonzero at each node: (2, 3, node)


@lru_cache(maxsize=8)
def _grid_tables(grid: GridSpec) -> _GridTables:
    """The tables of ``grid``, built once per grid and shared; read-only.

    B_j, B_{j+1}, B_{j+2} are nonzero at node j. With steps h_j = s_{j+1} - s_j
    (0 beyond the ends), B_j(s_j) = h_j^2 / D and B_j'(s_j) = -3 h_j / D with
    D = (h_{j-2} + h_{j-1} + h_j)(h_{j-1} + h_j), B_{j+2} likewise with h_{j-1}
    and the mirrored D, and B_{j+1} makes the sums 1 and 0 (de Boor, *A
    Practical Guide to Splines*, ch. IX).
    """
    rule = _grid_rule(grid.nodes().tobytes())
    h = np.pad(rule.steps, 2)
    before, after, here = h[1:-2], h[3:], h[2:-1]  # h_{j-1}, h_{j+1}, h_j
    first = here / ((h[:-3] + before + here) * (before + here))
    last = before / ((before + here + after) * (before + here))
    knot_data = np.array([(here * first, 1.0 - here * first - before * last, before * last),
                          (-3.0 * first, 3.0 * (first - last), 3.0 * last)])
    # Spline i + m of interval i is row m of its left node, row m - 1 of its
    # right node, and 0 where that row is out of range.
    ends = np.pad(knot_data, ((0, 0), (1, 1), (0, 0)))
    data = rule.hermite_data(ends[:, 1:, :-1], ends[:, :-1, 1:])
    table = np.ascontiguousarray(np.moveaxis(rule.derivatives(data), 1, -1))
    first, second = np.transpose(_PAIRS)
    products = np.ascontiguousarray((table[:, first] * table[:, second]).transpose(0, 3, 1, 2))
    tables = _GridTables(rule, table, products, knot_data)
    for array in tables[1:]:
        array.flags.writeable = False
    return tables


def _quotient(a: float, b: float, c: float) -> float:
    """A·B/C² from the forms' values; SolverError unless C is positive and finite."""
    if c <= 0.0 or not np.isfinite(c):
        raise SolverError("normalization term collapsed")
    return a * b / (c * c)


class DiscreteQuotient:
    """Rayleigh–Ritz realization of one quotient on cubic B-splines in ln r,
    on the clamped knot vector of the nodes.

    Every form is first assembled on all nodes + 2 splines, in upper band
    storage, from the per-interval products of D_0, D_1 and D_2 of pairs of
    splines at the sampled profiles' Gauss points in s, weighted by that
    rule's weights. Each end piece adds its exact 2 x 2 block in the value
    and slope in s at its end node (``_end_block``), which are that node's
    knot data times its three splines' coefficients. The clamp at r_max, where
    there is no tail, then restricts it once to the coefficients ``x`` of
    the free splines: Pᵀ G P, where P extends x to all coefficients by two
    zeros (the clamped knot vector makes v(end) the end coefficient and
    v_s(end) a multiple of the difference of the two end coefficients); the
    left end restricts nothing. ``A``, ``B`` and ``C`` are those restricted
    bands, which the pencil works on. ``to_profile`` hands the spline of
    ``x`` over as a sampled profile, and ``parts`` is that profile's forms
    plus the same end blocks at its end values and slopes.
    The table, its products and the node data depend on the grid alone and
    are shared (``_grid_tables``). SolverError unless every entry of the
    forms, assembled without floating-point checks, is finite.
    """

    def __init__(self, problem: VariationalProblem):
        self.problem = problem
        self._grid = grid = _grid_tables(problem.grid)
        self.r = r = grid.rule.grid
        forms, self.target, self.solved_in = _kind_lookup(problem.kind, problem.mode)
        head, tail = _end_exponents(problem.kind, problem.mode)
        # The clamp at r_max drops the last two splines; a tail keeps them.
        self._free = len(r) + 2 if tail else len(r)

        # Each form is its (coef, deriv, power) rows and its end blocks: the
        # node and the 2 x 2 form in (v, v_s) there of each end piece.
        with np.errstate(all="ignore"):  # judged once, below
            self._forms = [
                (rows, [(0, _end_block(rows, head, r[0], 1))]
                 + ([(len(r) - 1, _end_block(rows, tail, r[-1], -1))] if tail else []))
                for rows in forms
            ]
            self.A, self.B, self.C = (self._band(*form) for form in self._forms)
        if not all(np.isfinite(band).all() for band in (self.A, self.B, self.C)):
            raise SolverError("the forms are not finite on this grid")

    def _band(self, rows, ends=()) -> np.ndarray:
        """Upper band storage of the Gram matrix of (coef, deriv, power) rows
        on the free splines: the rows' weights summed per derivative order,
        each order's sum contracted once with the grid's spline products,
        accumulated on all splines with the end blocks and restricted once."""
        weights: dict[int, np.ndarray] = {}
        for c, d, p in rows:
            weights[d] = weights.get(d, 0.0) + c * self._grid.rule.weights(p - 2 * d)[0]
        block = sum(np.einsum("qi,qei->ei", w, self._grid.products[d])
                    for d, w in weights.items())
        intervals = block.shape[1]
        band = np.zeros((_BANDS + 1, intervals + 3))
        # Pair (m, n) of interval i is entry (i + m, i + n), stored at row
        # _BANDS - (n - m), column i + n. In reverse pair order each entry
        # sums its intervals in ascending order.
        for (m, n), products in zip(reversed(_PAIRS), block[::-1]):
            band[_BANDS - n + m, n:n + intervals] += products
        for node, end in ends:
            # v and v_s at the node are the knot data of its three splines.
            knots = self._grid.knot_data[:, :, node]
            local = knots.T @ end @ knots
            for k in range(3):  # diagonal k of the block is row _BANDS - k
                band[_BANDS - k, node + k:node + 3] += np.diagonal(local, k)
        return band[:, :self._free]

    def parts(self, x: np.ndarray) -> tuple[float, float, float]:
        """A, B and C of the spline with coefficients x: the forms of
        ``to_profile(x)``, each with its end blocks at the profile's end
        values and slopes."""
        # Sums of squares, not x·A·x from the bands: where x is nearly in the
        # kernel of a form's derivative rows (mode_hyup2_full at k >= 1),
        # Σ A_ij x_i x_j cancels, so the rounding of the assembled entries
        # moves it far more than that of these integrals (A by 2.0e-6
        # relative at N = 2, k = 1 on 2048 nodes, even summed exactly).
        v = self.to_profile(x)
        data = np.array([v.values, v._slopes])
        return tuple(
            math.fsum([c * v.integral(d, p) for c, d, p in rows]
                      + [float(data[:, node] @ end @ data[:, node]) for node, end in ends])
            for rows, ends in self._forms
        )

    def value(self, x: np.ndarray) -> float:
        return _quotient(*self.parts(x))

    def init_from_profile(self, profile: Profile) -> np.ndarray:
        """L2(ds) projection of the profile onto the free splines."""
        rule = self._grid.rule
        # The weights of r^-1 dr are the Gauss weights in s.
        factor = _cholesky(self._band([(1.0, 0, -1)]))
        if factor is None:
            raise SolverError("spline Gram matrix is not positive definite")
        f = rule.weights(-1)[0] * np.asarray(profile.value(rule.radii, 0), dtype=float)
        local = np.einsum("qi,aiq->ai", f, self._grid.table[0])
        rhs = np.zeros(len(self.r) + 2)
        for m in reversed(range(_BANDS + 1)):  # each entry sums its intervals in order
            rhs[m:m + local.shape[1]] += local[m]
        return dpbtrs(factor, rhs[:self._free])[0]

    def to_profile(self, x: np.ndarray) -> SampledProfile:
        """The spline with coefficients x (w = v' for reduced rows) itself, as
        a sampled profile from its node values and node slopes in s, zero
        outside the grid. The discrete function continues beyond the grid by
        its end pieces (``_end_exponents``), whose integrals ``parts`` adds
        to those of this profile from its end values and slopes.
        """
        # P x: the coefficients of all splines, the clamped two at the end 0.
        c = np.zeros(len(self.r) + 2)
        c[:self._free] = x
        values, slopes = (k[0] * c[:-2] + k[1] * c[1:-1] + k[2] * c[2:]
                          for k in self._grid.knot_data)
        return SampledProfile._from_slopes(self._grid.rule, values, slopes)


@dataclass
class MinimizationResult:
    """Outcome of one t-pencil minimization; its JSON report is these fields.

    ``kind``, ``mode`` and ``grid`` are the problem's; ``target`` is the
    kind's continuum target (``_kind_lookup``). ``argmin`` is the
    minimizer's own spline (``DiscreteQuotient.to_profile``), in the function
    ``solved_in`` names: "v", or "w" for w = v' where no row of the kind is
    zero-order. ``min_value`` is its quotient with the end pieces beyond the
    grid (``_end_exponents``), whose integrals follow from the argmin's end
    values and slopes in s (``DiscreteQuotient.parts``); the argmin itself
    carries no end pieces and vanishes outside its grid. The report writes
    the argmin's grid, node values and slopes as their float64 bytes
    (``profile_to_json``), so ``profile_from_json`` reads back this very
    spline.

    ``pencil_value`` is (lambda(t*)/2)^2 with lambda(t*) = (t* a + b/t*)/c
    from the argmin's A, B and C (``DiscreteQuotient.parts``), so
    ``pencil_value - min_value`` is (t* a - b/t*)^2 / (4 c^2), the AM-GM gap
    at t*: it measures how well t* was found, not a second eigen solve.

    ``pencil_lower`` is (sigma/2)^2, where sigma is the largest shift whose
    Cholesky of t* A + B/t* - sigma C succeeded. It bounds the assembled
    bands' (lambda_min(t*)/2)^2 from below, up to the backward error of that
    factorization. It is not a bound on the continuum infimum, nor on the
    minimum over t, nor on ``pencil_value``: the bands' entries carry
    rounding, which the cancellation in x·A·x amplifies on mode_hyup2_full at
    k >= 1 (see ``parts``). There the bands' lambda(t*) lies above the
    argmin's (1.3e-6 relative at N = 2, k = 1 on 2048 nodes, 5.6e-10 on 512
    nodes), and ``pencil_lower`` above ``pencil_value`` (2.5e-6 and 1.5e-9).
    A verified factorization of the same bands cannot close that gap.
    """

    kind: QuotientKind
    mode: Mode
    grid: GridSpec
    min_value: float
    argmin: SampledProfile
    solved_in: str  # "v", or "w" for w = v'
    iterations: int  # pencil evaluations
    # Why the bisection stopped: "flat" (the slope times the width is flat to
    # 1e-12), "bracketed" (the width is 1e-4 and both ends of the t range
    # moved) or "range_end" (the width is 1e-4 and one end never moved).
    exit: str
    converged: bool  # exit is not "range_end", pencil agrees with min_value
    target: float | None
    t_star: float
    pencil_value: float
    pencil_lower: float
    eigen_residual: float


#: Width in ln t that ends the bisection for t*, the relative Hellmann–Feynman
#: slope |t a - b/t| / (t a + b/t) times the width that ends it earlier, the
#: relative agreement between the pencil value and the argmin's quotient that
#: counts as converged, and the ulps of lambda within which a later probe is
#: a tie that keeps the earlier best (lambda's own rounding).
_LOG_T_WIDTH = 1e-4
_FLAT_SLOPE = 1e-12
_AGREEMENT = 1e-6
_TIE_ULPS = 4

#: Shift ladder of one pencil solve: the first relative gap below the
#: Rayleigh quotient, the bracket width that ends it, and its step cap; the
#: margin of a gap over the error the last step's fall predicts, and how far
#: within a failed gap the certified bracket must be for a stalled quotient
#: to end the ladder.
_FIRST_GAP = 1e-2
_BRACKET = 1e-12
_LADDER_CAP = 200
_AIM = 1e3
_FLOOR_REACH = 100.0


def _lowest_eigenpair(
    K: np.ndarray, C: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Certified lower shift and eigenvector of the lowest eigenpair of (K; C).

    K and C are upper band storage, Fortran-ordered as LAPACK stores bands,
    so no call copies them. Inverse iteration starts from y and
    carries the normalised C z of each step to the next as its right-hand
    side. Each shift s that a Cholesky of K - sC accepts is below lambda_min
    (Sylvester's law of inertia), so the returned shift is a lower bound of
    the assembled pencil's lambda_min up to the factorization's backward
    error, while the Rayleigh quotient of the returned vector bounds it from
    above. After an accepted shift the next relative gap below the quotient
    is ``_AIM`` g^2 f, with g the certified gap and f the quotient's relative
    fall in the step just taken, at most a tenth of the last gap and at
    least half ``_BRACKET``; a rejected shift widens the gap tenfold. The
    ladder ends when the bracket is ``_BRACKET``, or when the quotient
    stopped falling after a rejected shift and the bracket is within
    ``_FLOOR_REACH`` times that shift's gap. SolverError when K itself is
    not positive definite, or after ``_LADDER_CAP`` shifts.
    """
    factor = _cholesky(K)
    if factor is None:
        raise SolverError("t A + B/t is not positive definite")
    Cy = dsbmv(_BANDS, 1.0, C, y)

    def inverse_step(factor: np.ndarray, Cy: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        z = dpbtrs(factor, Cy, overwrite_b=True)[0]
        Cz = dsbmv(_BANDS, 1.0, C, z)
        norm = math.sqrt(z @ Cz)
        z /= norm
        Cz /= norm
        return z, Cz, float(z @ dsbmv(_BANDS, 1.0, K, z))

    y, Cy, _ = inverse_step(factor, Cy)
    y, Cy, hi = inverse_step(factor, Cy)
    lo, gap = 0.0, _FIRST_GAP
    for _ in range(_LADDER_CAP):
        s = max(lo, hi * (1.0 - gap))
        # At s = lo the factor of K - lo C is already at hand.
        shifted = factor if s == lo else _cholesky(K - s * C, overwrite=True)
        if shifted is not None:
            lo, factor = s, shifted
        y, Cy, rho = inverse_step(factor, Cy)
        if shifted is not None:
            # The error of the quotient contracts by about ((lambda_1 - s) /
            # (lambda_2 - s))^2 a step, so the next one leaves about g^2 of
            # this fall, with g the certified gap (hi - lo) / hi.
            fall = max(hi - rho, 0.0) / hi
            hi = min(hi, rho)
            g = (hi - lo) / hi
            gap = max(0.5 * _BRACKET, min(gap / 10.0, _AIM * g * g * fall))
        elif rho < hi or hi - lo > _FLOOR_REACH * gap * hi:
            hi, gap = min(hi, rho), gap * 10.0
        else:
            # The quotient stopped falling (its rounding floor), no higher
            # shift is certified, and the bracket is near the failed shift.
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
    rows = np.zeros((_BANDS + 1, len(scale)))
    for k in range(_BANDS + 1):
        rows[_BANDS - k, k:] = scale[: len(scale) - k]
    return (scale, *(np.asfortranarray(m * rows * scale) for m in (dq.A, dq.B, dq.C)))


def minimize_quotient(problem: VariationalProblem) -> MinimizationResult:
    """Minimize the discrete quotient exactly through the t-pencil.

    Each lambda(t) = lambda_min(t A + B/t; C) comes from the Jacobi-scaled
    forms in band storage: K = t A + B/t is factored by banded Cholesky, two
    inverse-iteration steps start from the previous evaluation's eigenvector
    (ones at the first), and a ladder of shifts below the Rayleigh quotient
    follows (``_lowest_eigenpair``). A shift whose Cholesky of K - sC
    succeeds is a certified lower bound of lambda_min(t) and shifts the next
    inverse step; the ladder ends when that bound and the Rayleigh quotient
    agree to 1e-12, or when the quotient stops falling and a higher shift
    fails close to the bound. lambda(t) is then read as the Rayleigh
    quotient of the eigenvector in the factored forms, an upper bound;
    SolverError when K does not factor, or before any solve for every form,
    scaled form or ln t range that is not finite (extreme r_min or r_max
    leave weights or diagonals out of the float range). t* is found by
    bisection in ln t on the sign of the slope (t a - b/t)/c of lambda(t),
    read from the same eigenvector, until |t a - b/t| times the updated
    bracket's width is 1e-12 of (t a + b/t), or the width is 1e-4; ``exit``
    says which ("flat", "bracketed", or "range_end" when t* was not
    bracketed). The range spans the local scales of the splines, widened
    upward by ln(size) for profiles much wider than one spline. The best
    evaluation gives every reported value;
    a later probe replaces it only when its lambda is lower by more than
    lambda's rounding (``_TIE_ULPS``), so that ties at the rounding level keep
    the earlier probe whether or not the bisection stopped where it was flat.
    """
    dq = problem.assemble()
    with np.errstate(all="ignore"):  # judged once, below
        scale, A, B, C = _scaled_bands(dq)
        local = 0.5 * np.log(B[_BANDS] / A[_BANDS])
    ends = [local.min(), local.max() + math.log(problem.grid.size)]
    if not all(np.isfinite(x).all() for x in (scale, A, B, C, ends)):
        raise SolverError("the scaled forms or their t range are not finite on this grid")
    moved = [False, False]
    # Inverse iteration starts from the previous eigenvector (ones at first),
    # so every run of the same problem takes the same path.
    y = np.ones(A.shape[1])
    reason = "flat"
    iterations = 0
    best = None  # the lowest probe: (lambda, t, eigenvector, lower shift, parts)
    while ends[1] - ends[0] > _LOG_T_WIDTH:
        log_t = 0.5 * (ends[0] + ends[1])
        t = math.exp(log_t)
        lower, y = _lowest_eigenpair(t * A + B / t, C, y)
        iterations += 1
        a, b, c = parts = dq.parts(scale * y)
        lam = (t * a + b / t) / c
        if best is None or lam < best[0] - _TIE_ULPS * math.ulp(best[0]):
            best = (lam, t, y, lower, parts)
        # Hellmann–Feynman: dlambda/dln t = (t a - b/t)/c; t* lies on its downhill side.
        side = int(t * a >= b / t)
        ends[side], moved[side] = log_t, True
        if abs(t * a - b / t) * (ends[1] - ends[0]) <= _FLAT_SLOPE * (t * a + b / t):
            break
    else:
        reason = "bracketed" if all(moved) else "range_end"
    lam_star, t, y, lower, parts = best
    residual = float(np.linalg.norm(
        dsbmv(_BANDS, 1.0, t * A + B / t, y) - lam_star * dsbmv(_BANDS, 1.0, C, y)
    ))
    min_value = _quotient(*parts)
    pencil = (lam_star / 2.0) ** 2
    agrees = pencil - min_value <= _AGREEMENT * pencil
    return MinimizationResult(
        kind=problem.kind,
        mode=problem.mode,
        grid=problem.grid,
        min_value=min_value,
        argmin=dq.to_profile(scale * y),
        solved_in=dq.solved_in,
        iterations=iterations,
        exit=reason,
        converged=reason != "range_end" and agrees,
        target=dq.target,
        t_star=t,
        pencil_value=pencil,
        pencil_lower=(lower / 2.0) ** 2,
        eigen_residual=residual,
    )


#: The results of one explore_conjecture call by discrete problem (the
#: kind's rows, its end pieces and the grid), so that it solves each problem once; None
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
    forms, target, solved_in = _kind_lookup(problem.kind, problem.mode)
    key = (forms, solved_in, _end_exponents(problem.kind, problem.mode), problem.grid)
    if key not in solved:
        solved[key] = minimize_quotient(problem)
    return replace(solved[key], kind=problem.kind, mode=problem.mode, target=target)


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
    if _integer(k_max, "k_max") < 4:
        raise UsageError("k_max must be at least 4")
    kind = next(kind for kind, spec in KINDS.items()
                if spec.degree_zero and spec.principle is principle)
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
    counterexample candidate, with its argmin and the function that argmin
    is (``solved_in``); no claim is made in either direction.

    Single modes exhaust the full-space infimum. Orthogonal modes add their
    A, B and C, so by Cauchy–Schwarz a mixture with per-mode values
    (a_k, b_k, c_k) and quotients q_k = a_k b_k / c_k^2 satisfies

        (sum a_k)(sum b_k) >= (sum sqrt(a_k b_k))^2 >= min_k q_k (sum c_k)^2,

    so no mode mixture goes below the best single mode.

    Each distinct discrete problem is solved once per call: the combined
    bound's degree-0 product_hyup2 row has the rows, end pieces and grid of
    the finest degree-0 rung, and takes that rung's result.
    """
    n = _integer(dimension, "dimension")
    conjectured = float(sharp_constant(PrincipleId.HYUP2, n))  # UsageError below N = 2
    resolutions = tuple(sorted(set(resolutions)))
    if _integer(k_max, "k_max") < 0 or not resolutions:
        raise UsageError("the conjecture explorer needs k_max >= 0 and at least one resolution")
    solves = []  # (size, degree, result) in ladder order
    token = _SOLVED.set({})
    try:
        for size in resolutions:
            for k in range(k_max + 1):
                problem = VariationalProblem.for_mode(
                    QuotientKind.MODE_HYUP2_FULL, n, k, size=size
                )
                solves.append((size, k, _solve(problem)))
        combined = mode_combined_bound("hyup2", n, k_max=max(k_max, 4), size=resolutions[-1])
    finally:
        _SOLVED.reset(token)
    ladder = [{"degree": k, "size": size, "min_value": res.min_value, "converged": res.converged}
              for size, k, res in solves]
    # min keeps the first of equal minima: the lowest degree, the coarsest rung.
    finest = [s for s in solves if s[0] == resolutions[-1]]
    _, argmin_degree, best = min(finest, key=lambda s: s[2].min_value)
    below = [s for s in solves
             if s[2].min_value < conjectured * (1.0 - 3.0 * DISCRETIZATION_BUDGET)]
    counterexample = None
    if below:
        size, k, res = min(below, key=lambda s: s[2].min_value)
        counterexample = {"degree": k, "size": size, "min_value": res.min_value,
                          "profile": res.argmin, "solved_in": res.solved_in}
    return ConjectureReport(
        dimension=n,
        conjectured=conjectured,
        k_max=k_max,
        resolutions=resolutions,
        ladder=ladder,
        combined_bound=combined,
        estimated_infimum=best.min_value,
        argmin_degree=argmin_degree,
        counterexample=counterexample,
        status="numerical evidence only; nothing here proves or refutes the open range",
    )

