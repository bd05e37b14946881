"""Discrete variational minimization of the per-mode Rayleigh quotients.

The quotients here have the form Q(x) = A[x] B[x] / C[x]^2 with A, B, C
quadratic forms on grid values. Because the numerator is a *product* of two
quadratic forms, this is not a generalized eigenproblem; the primary solver is
projected gradient descent on the normalization slice C[x] = 1 with
backtracking line search. An independent cross-check converts the product to
a family of single quadratic forms via

    inf_x sqrt(A B) / C = inf_{t>0} (1/2) * lambda_min(t A + B / t ; C),

so inf Q = (inf_t lambda_min(t)/2)^2, each inner problem being a symmetric
generalized eigenvalue computation.

Discretization notes. First-derivative energies use staggered midpoint cells
(the piecewise-linear finite-element form) and second-derivative energies use
interior 3-point rows: collocated central differences would assign near-zero
derivative energy to grid-scale oscillations and single-node spikes, creating
spurious discrete minima far below the continuum constants. The default grid
is geometric, so the local spacing is proportional to r and a concentration
at any radius pays its full derivative energy by self-similarity (a uniform
grid cannot resolve bumps sitting at radii comparable to its spacing).

The (coef, deriv, power) rows of A, B and C are read from the seminorm term
table through each kind's principle (``seminorms.PRINCIPLE_FUNCTIONALS``);
only the truncation charges at the grid ends are written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy import linalg as _sla
from scipy import optimize as _sopt
from scipy import sparse

from ._fd import fornberg_weights
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
from .quadrature import CLOSED_FORM, WeightedSeminorm, integrate
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
    """(A, B, C) term lists: table rows as (coef, deriv, power) with zero coefs
    dropped, then the truncation charges as (name, coef, power)."""
    if kind is QuotientKind.HARDY_1D:
        num, den = _hardy_rows(mode)
        forms = ([num], [den], [den])
    else:
        principle, form, product = _KIND_QUOTIENT[kind]
        forms = [_term_table(fid, form, mode) for fid in PRINCIPLE_FUNCTIONALS[principle]]
        if product:
            forms = [[(c, d - 1, p) for c, d, p in rows if d >= 1] for rows in forms]
    A, B, C = ([row for row in rows if row[0] != 0] for rows in forms)
    p = mode.dimension + 2 * mode.degree - 1
    # The "left_value"/"left_slope" entries charge the minimal admissible
    # extension of the unknown below r_min (cost r_min^{p-1} |w(r_min)|^2 for
    # the derivative-plus-penalty forms, by the Euler equation); without them
    # the truncated domain admits edge-hugging modes below the half-line
    # constants in low dimensions.
    if kind in (QuotientKind.PRODUCT_HUP2, QuotientKind.PRODUCT_HYUP2):
        A.append(("left_value", 1.0, p - 1))
    elif kind is QuotientKind.MODE_HYUP2_FULL:
        # ∫ r^p |v'' + p v'/r|^2 equals the two-term form plus the boundary
        # flux p [r^{p-1}|v'|^2] between the domain ends. On a truncated grid
        # neither pure form is safe: dropping the right flux opens a
        # ramp-shaped spurious minimum, while the raw operator square vanishes
        # on the (left-singular) kernel r^{-(p-1)} that truncation re-admits.
        # Two-term assembly plus the explicit right-end slope term shields both
        # ends and is exact for admissible decaying profiles. The left-end
        # slope term charges the minimal admissible extension of v' below r_min
        # (Euler solution is linear, cost r_min^{p-1}|v'|^2); without it,
        # half-bumps hugging the cut recover the tail saving and sit below the
        # half-line infimum in low dimensions.
        A += [("right_slope", p, p - 1), ("left_slope", 1.0, p - 1)]
    return A, B, C


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


def _default_init(kind: QuotientKind, mode: Mode, r: np.ndarray) -> np.ndarray:
    k = mode.degree
    if kind is QuotientKind.PRODUCT_HUP2:
        return r * np.exp(-(r**2))
    if kind is QuotientKind.PRODUCT_HYUP2:
        return r * np.exp(-r)
    if kind is QuotientKind.CLASSIC_HUP:
        return r**k * np.exp(-(r**2))
    if kind is QuotientKind.CLASSIC_HYUP:
        return r**k * np.exp(-r)
    if kind is QuotientKind.HARDY_1D:
        # Near-extremal power profile, windowed at both grid ends: the Hardy
        # infimum is approached by log-spread mass, never attained.
        N2k = mode.dimension + 2 * k
        window = np.exp(-3.0 * r[0] / r) * np.exp(-((r / (0.5 * r[-1])) ** 6))
        return r ** (-N2k / 2.0) * window
    return (1.0 + r) * np.exp(-r)


@dataclass(frozen=True)
class VariationalProblem:
    mode: Mode
    kind: QuotientKind
    grid: GridSpec
    normalization: float = 1.0

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
        default_r_max = 14.0 if kind in _GAUSS_KINDS else 24.0
        grid = GridSpec(r_min or 1e-3, r_max or default_r_max, size, spacing)
        return cls(make_mode(dimension, degree), kind, grid)

    def assemble(self) -> "DiscreteQuotient":
        return DiscreteQuotient(self)


def _zero_order_matrix(r: np.ndarray, w: np.ndarray, p: float) -> sparse.csr_array:
    return sparse.csr_array(sparse.diags_array(w * r**p))


def _first_order_matrix(r: np.ndarray, p: float) -> sparse.csr_array:
    # Staggered midpoint cells: sum_j dr_j * r_mid^p * ((x_{j+1}-x_j)/dr_j)^2.
    n = len(r)
    dr = np.diff(r)
    rm = 0.5 * (r[1:] + r[:-1])
    idx = np.arange(n - 1)
    g = sparse.csr_array(
        (
            np.concatenate([-1.0 / dr, 1.0 / dr]),
            (np.concatenate([idx, idx]), np.concatenate([idx, idx + 1])),
        ),
        shape=(n - 1, n),
    )
    return (g.T @ sparse.diags_array(dr * rm**p) @ g).tocsr()


def _second_order_matrix(r: np.ndarray, w: np.ndarray, p: float) -> sparse.csr_array:
    # Interior 3-point second-difference rows; no boundary extrapolation rows.
    n = len(r)
    rows, cols, data = [], [], []
    for i in range(1, n - 1):
        wts = fornberg_weights(r[i], r[i - 1 : i + 2], 2)
        rows.extend([i - 1] * 3)
        cols.extend([i - 1, i, i + 1])
        data.extend(wts.tolist())
    d2 = sparse.csr_array((data, (rows, cols)), shape=(n - 2, n))
    return (d2.T @ sparse.diags_array((w * r**p)[1:-1]) @ d2).tocsr()


def _edge_slope_matrix(r: np.ndarray, coef: float, p: float, left: bool) -> sparse.csr_array:
    # coef * r_edge^p * |v'(r_edge)|^2 with the slope taken over the edge cell.
    n = len(r)
    i, j = (0, 1) if left else (n - 2, n - 1)
    dr = r[j] - r[i]
    val = coef * (r[0] if left else r[-1]) ** p / dr**2
    m = sparse.lil_array((n, n))
    m[i, i] = val
    m[j, j] = val
    m[i, j] = -val
    m[j, i] = -val
    return m.tocsr()


class DiscreteQuotient:
    """Grid realization of one product quotient (forms on free node values).

    The right endpoint is always pinned to zero (compact-support model); the
    left endpoint is pinned for the one-dimensional product problems at
    degree >= 1, mirroring the r^k vanishing order at the origin.
    """

    def __init__(self, problem: VariationalProblem):
        self.problem = problem
        kind, mode, grid = problem.kind, problem.mode, problem.grid
        r = grid.nodes()
        w = np.empty_like(r)
        w[0] = 0.5 * (r[1] - r[0])
        w[-1] = 0.5 * (r[-1] - r[-2])
        w[1:-1] = 0.5 * (r[2:] - r[:-2])
        terms_abc = _kind_forms(kind, mode)

        def build(terms):
            m = sparse.csr_array((len(r), len(r)))
            for coef, d, p in terms:
                if coef in ("right_slope", "left_slope"):
                    m = m + _edge_slope_matrix(r, float(d), float(p), coef == "left_slope")
                    continue
                if coef == "left_value":
                    extra = sparse.lil_array((len(r), len(r)))
                    extra[0, 0] = float(d) * r[0] ** float(p)
                    m = m + extra.tocsr()
                    continue
                if d == 0:
                    part = _zero_order_matrix(r, w, float(p))
                elif d == 1:
                    part = _first_order_matrix(r, float(p))
                else:
                    part = _second_order_matrix(r, w, float(p))
                m = m + coef * part
            return m

        A, B, C = (build(t) for t in terms_abc)
        pin_left = (
            kind in (QuotientKind.PRODUCT_HUP2, QuotientKind.PRODUCT_HYUP2)
            and mode.degree >= 1
        )
        free = np.arange(1 if pin_left else 0, len(r) - 1)
        self.r, self.w, self.free = r, w, free
        self.geometric = grid.spacing == "geometric"
        self.A = A[free][:, free].tocsr()
        self.B = B[free][:, free].tocsr()
        self.C = C[free][:, free].tocsr()
        self.target = continuum_target(kind, mode)

    def parts(self, x: np.ndarray) -> tuple[float, float, float]:
        return float(x @ (self.A @ x)), float(x @ (self.B @ x)), float(x @ (self.C @ x))

    def value(self, x: np.ndarray) -> float:
        a, b, c = self.parts(x)
        if c <= 0.0 or not np.isfinite(c):
            raise SolverError("normalization term collapsed")
        return a * b / (c * c)

    def default_init(self, dilation: float = 1.0) -> np.ndarray:
        full = _default_init(self.problem.kind, self.problem.mode, dilation * self.r)
        return full[self.free]

    def init_from_profile(self, profile: Profile) -> np.ndarray:
        return np.asarray(profile.value(self.r[self.free], 0), dtype=float)

    def to_profile(self, x: np.ndarray) -> SampledProfile:
        full = np.zeros_like(self.r)
        full[self.free] = x
        scheme = "cd4" if self.problem.grid.spacing == "uniform" else "cd2"
        return SampledProfile(self.r, full, scheme)


@dataclass
class MinimizationResult:
    problem: VariationalProblem
    min_value: float
    argmin: SampledProfile
    iterations: int
    converged: bool
    history: list[float]
    target: float | None
    seed: int
    restarts: int

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
            "seed": self.seed,
            "restarts": self.restarts,
            "history": list(self.history),
            "argmin": profile_to_json(self.argmin),
        }


def _descend(dq: DiscreteQuotient, x0: np.ndarray, budget: int):
    c0 = float(x0 @ (dq.C @ x0))
    if not np.isfinite(c0) or c0 <= 1e-280:
        raise SolverError("degenerate initial profile: middle term below tolerance")
    x = x0 / math.sqrt(c0)
    q = dq.value(x)
    history = [q]
    eta = None
    x_prev = g_prev = None
    stall = 0
    iterations = 0
    converged = False
    for iterations in range(1, budget + 1):
        a, b, _ = dq.parts(x)
        g = 2.0 * (b * (dq.A @ x) + a * (dq.B @ x) - 2.0 * a * b * (dq.C @ x))
        gg = float(g @ g)
        # |g| carries units of Q * |x|; compare scale-free.
        if gg * float(x @ x) <= 1e-18 * q * q:
            converged = True
            break
        # Barzilai-Borwein trial step, safeguarded by Armijo backtracking below.
        if x_prev is not None:
            s = x - x_prev
            ydiff = g - g_prev
            sy = float(s @ ydiff)
            if sy > 0.0:
                eta = float(s @ s) / sy
        if eta is None:
            eta = 0.01 * math.sqrt(float(x @ x) / gg)
        eta = float(min(max(eta, 1e-18), 1e12))
        x_prev, g_prev = x, g
        accepted = False
        for _ in range(60):
            y = x - eta * g
            cy = float(y @ (dq.C @ y))
            if cy > 0.0 and np.isfinite(cy):
                y = y / math.sqrt(cy)
                qy = dq.value(y)
                if qy <= q - 1e-4 * eta * gg or qy < q * (1.0 - 1e-15):
                    accepted = True
                    break
            eta *= 0.5
        if not accepted:
            converged = True  # no descent direction left at float resolution
            break
        drop = q - qy
        x, q = y, qy
        history.append(q)
        # On geometric grids an index shift is a dilation: probe the
        # quasi-invariant direction occasionally to escape wrong-scale states.
        if dq.geometric and iterations % 50 == 0:
            shifted = _best_shift(dq, x, q)
            if shifted is not None:
                x, q = shifted
                history.append(q)
                x_prev = g_prev = None
        stall = stall + 1 if drop < 1e-12 * max(q, 1.0) else 0
        if stall >= 30:
            converged = True
            break
        # Flat-valley exit: creeping tails improve the value by a few parts
        # in 1e6 per 500 iterations, far inside every tolerance band used
        # downstream; treat that as converged.
        if len(history) > 500 and history[-501] - q < 3e-6 * abs(q):
            converged = True
            break
    return x, q, history, iterations, converged


def _best_shift(dq: DiscreteQuotient, x: np.ndarray, q: float):
    best = None
    for j in (-8, -3, -1, 1, 3, 8):
        y = np.zeros_like(x)
        if j > 0:
            y[j:] = x[:-j]
        else:
            y[:j] = x[-j:]
        cy = float(y @ (dq.C @ y))
        if cy <= 1e-280 or not np.isfinite(cy):
            continue
        y = y / math.sqrt(cy)
        qy = dq.value(y)
        if qy < q * (1.0 - 1e-12) and (best is None or qy < best[1]):
            best = (y, qy)
    return best


def minimize_quotient(
    problem: VariationalProblem,
    init: Profile | None = None,
    budget: int = 6000,
    seed: int = 0,
    restarts: int = 5,
    noise: float = 0.1,
) -> MinimizationResult:
    """Minimize the discrete quotient by normalized gradient descent.

    The first restart starts from the family extremal (or the given init); the
    others cycle through dilations of it and add multiplicative noise. The
    best run is returned; its history is nonincreasing by construction.
    """
    if restarts < 1:
        raise UsageError("need at least one restart")
    dq = problem.assemble()
    dilations = (1.0, 0.6, 1.7, 3.0, 0.35)
    rng = np.random.default_rng(seed)
    best = None
    for attempt in range(restarts):
        if init is not None:
            base = dq.init_from_profile(init)
        else:
            base = dq.default_init(dilations[attempt % len(dilations)])
        if not np.any(base):
            raise SolverError("degenerate initial profile: identically zero")
        x0 = base if attempt == 0 else base * (1.0 + noise * rng.standard_normal(base.shape))
        x, q, history, iterations, converged = _descend(dq, x0, budget)
        if best is None or q < best[1]:
            best = (x, q, history, iterations, converged)
    x, q, history, iterations, converged = best
    return MinimizationResult(
        problem=problem,
        min_value=q,
        argmin=dq.to_profile(x),
        iterations=iterations,
        converged=converged,
        history=history,
        target=dq.target,
        seed=seed,
        restarts=restarts,
    )


def eigen_crosscheck(problem: VariationalProblem, t_window: float = 5.0) -> float:
    """Product-quotient infimum via the t-parameterized eigenvalue pencil.

    Independent of the descent path: for each t the smallest generalized
    eigenvalue of (t A + B/t, C) is computed after a Jacobi rescaling, and the
    infimum over t is taken by bounded scalar minimization on log t.
    """
    dq = problem.assemble()
    A, B, C = dq.A.toarray(), dq.B.toarray(), dq.C.toarray()
    s = 1.0 / np.sqrt(np.diag(C))
    A = A * s[:, None] * s[None, :]
    B = B * s[:, None] * s[None, :]
    C = C * s[:, None] * s[None, :]

    def lam(log_t: float) -> float:
        t = math.exp(log_t)
        m = t * A + B / t
        return float(
            _sla.eigh(m, C, eigvals_only=True, subset_by_index=[0, 0])[0]
        )

    x0 = dq.default_init()
    a0, b0, _ = dq.parts(x0)
    center = 0.5 * math.log(b0 / a0)
    res = _sopt.minimize_scalar(
        lam,
        bounds=(center - t_window, center + t_window),
        method="bounded",
        options={"xatol": 1e-7},
    )
    return (res.fun / 2.0) ** 2


@dataclass
class ModeBoundRow:
    degree: int
    min_value: float
    eigen_value: float | None
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
    seed: int = 0,
    restarts: int = 3,
    budget: int = 4000,
    eigen_check: bool = True,
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
        res = minimize_quotient(problem, budget=budget, seed=seed + k, restarts=restarts)
        eig = eigen_crosscheck(problem) if eigen_check else None
        factor = hardy_correction_factor(quotient, dimension, k)
        rows.append(
            ModeBoundRow(
                degree=k,
                min_value=res.min_value,
                eigen_value=eig,
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
    multi_mode_trials: dict
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
            "multi_mode_trials": self.multi_mode_trials,
            "status": self.status,
        }

    def csv_rows(self) -> list[tuple[int, int, float]]:
        return [
            (entry["degree"], entry["size"], entry["min_value"])
            for entry in self.ladder
        ]


def _random_multimode_trial(rng, quotients: list[DiscreteQuotient]) -> float:
    """Full-space quotient of one random multi-mode profile (totals over modes)."""
    a = b = c = 0.0
    for dq in quotients:
        r = dq.r[dq.free]
        centers = rng.uniform(1.0, 6.0, size=2)
        rates = rng.uniform(0.3, 1.0, size=2)
        amps = rng.uniform(-1.0, 1.0, size=2)
        x = sum(
            amp * np.exp(-rate * (r - c0) ** 2)
            for amp, rate, c0 in zip(amps, rates, centers)
        )
        ak, bk, ck = dq.parts(x)
        a, b, c = a + ak, b + bk, c + ck
    if c <= 0.0:
        return math.inf
    return a * b / (c * c)


def explore_conjecture(
    dimension: int,
    k_max: int = 4,
    resolutions: tuple[int, ...] = (128, 256, 512),
    seed: int = 0,
    restarts: int = 3,
    budget: int = 4000,
    trials: int = 200,
) -> ConjectureReport:
    """Numerical evidence for the open 2 <= N <= 4 range of the second-order
    hydrogen principle (N = 5 runs the same pipeline as a proved calibration).

    The true per-mode quotient is minimized on a resolution ladder (single
    modes exhaust the full-space infimum for product quotients), the combined
    per-mode bound pipeline runs at the finest resolution, and random
    multi-mode trials confirm nothing dips below the single-mode minima. A
    trial below conjectured*(1 - 3 * discretization budget) is flagged as a
    counterexample candidate; no claim is made in either direction.
    """
    n = int(dimension)
    if n < 2:
        raise UsageError("the conjecture explorer needs dimension >= 2")
    conjectured = (n + 1) ** 2 / 4.0
    ladder: list[dict] = []
    finest = max(resolutions)
    counterexample = None
    per_mode_finest: dict[int, float] = {}
    quotients_finest: list[DiscreteQuotient] = []
    for size in sorted(resolutions):
        for k in range(k_max + 1):
            problem = VariationalProblem.for_mode(
                QuotientKind.MODE_HYUP2_FULL, n, k, size=size
            )
            res = minimize_quotient(
                problem, budget=budget, seed=seed + 31 * k + size, restarts=restarts
            )
            entry = {
                "degree": k,
                "size": size,
                "min_value": res.min_value,
                "converged": res.converged,
            }
            if size == finest:
                entry["eigen_value"] = eigen_crosscheck(problem)
                per_mode_finest[k] = res.min_value
                quotients_finest.append(problem.assemble())
            ladder.append(entry)
            if res.min_value < conjectured * (1.0 - 3.0 * DISCRETIZATION_BUDGET):
                cand = {
                    "degree": k,
                    "size": size,
                    "min_value": res.min_value,
                    "profile": profile_to_json(res.argmin),
                }
                if counterexample is None or cand["min_value"] < counterexample["min_value"]:
                    counterexample = cand

    combined = mode_combined_bound(
        "hyup2", n, k_max=max(k_max, 4), size=finest, seed=seed, restarts=restarts,
        budget=budget, eigen_check=False,
    )
    rng = np.random.default_rng(seed + 7919)
    trial_values = [_random_multimode_trial(rng, quotients_finest) for _ in range(trials)]
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
        multi_mode_trials={"count": trials, "min_quotient": float(min(trial_values))},
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
