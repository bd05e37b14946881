"""Radial trial functions: spherical-harmonic modes, analytic families, sampled grids.

Every functional in the package is evaluated on one of two profile kinds:

* :class:`AnalyticProfile` — a closed-form family member with exact derivative
  formulas (and exact weighted moments, see :mod:`upsharp.quadrature`);
* :class:`SampledProfile` — node values on a strictly positive grid, read as
  the not-a-knot cubic spline in s = ln r through them and treated as zero
  outside the grid: the package's one discrete function space, in which
  ``minimize`` also works. It integrates itself by ``SAMPLED_POINTS``-point
  Gauss-Legendre in s on every grid interval (:func:`gauss_panels`). The work
  that depends on the grid alone (the spline system, factored once without
  pivoting, that Gauss rule, its weights of r^p dr, the Hermite basis at the
  Gauss points) is done once per distinct grid and shared by every profile on
  it, also by the profiles ``reduce_profile`` and ``unreduce_profile`` derive.
  A new profile costs one symmetric tridiagonal solve for its node slopes in
  s. Its node values and slopes, as the cubic Hermite data of every interval,
  are its only representation, evaluated by one small matrix product of the
  Hermite basis with that data, then the chain rule r f' = v_s,
  r^2 f'' = v_ss - v_s (:meth:`_GridRule.derivatives`, which also evaluates
  minimize's B-splines). Each distinct integral of a profile is computed once.

Profiles are real-valued. Complex amplitudes lose no generality here: every
quotient of interest is invariant under scalar rescaling and every extremal is
a scalar multiple of a real profile.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.linalg import lapack

from .errors import DegenerateProfileError, UsageError, _integer

GAUSS_KERNEL = "gauss"  # decay factor e^{-rate * r^2}
EXP_KERNEL = "exp"      # decay factor e^{-rate * r}

FAMILY_KERNELS = {
    "gaussian": GAUSS_KERNEL,
    "monomial_cutoff": GAUSS_KERNEL,
    "exponential": EXP_KERNEL,
    "hydrogen_second": EXP_KERNEL,
}

#: Gauss-Legendre points per grid interval in s = ln r for sampled profiles;
#: exact for the squares |D_d v|^2 of their cubic pieces in s (degree 6) where
#: the weight r^(p+1-2d) is 1, and for every polynomial in s up to degree 7.
SAMPLED_POINTS = 4

#: The smallest normal double; below it a value has lost digits or is 0.
_TINY = float(np.finfo(float).tiny)


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_panels(edges: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``points``-point Gauss-Legendre on every interval
    of ``edges``, one row per interval."""
    xi, om = _gl_nodes(points)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return mid + half * xi, half * om


@dataclass(frozen=True)
class Mode:
    """A (dimension, spherical-harmonic degree) pair with its sphere eigenvalue."""

    dimension: int
    degree: int
    eigenvalue: int


def make_mode(dimension: int, degree: int) -> Mode:
    """Build a mode; the eigenvalue k(k+N-2) is exact integer arithmetic.

    Dimension 1 admits only degree 0 (no spherical decomposition on the line).
    """
    dimension, degree = _integer(dimension, "dimension"), _integer(degree, "degree")
    if dimension < 1:
        raise UsageError(f"dimension must be >= 1, got {dimension}")
    if degree < 0:
        raise UsageError(f"degree must be >= 0, got {degree}")
    if dimension == 1 and degree != 0:
        raise UsageError("dimension 1 only supports degree 0")
    return Mode(dimension, degree, degree * (degree + dimension - 2))


def _coefficient(x: float, y: float) -> float:
    """x * y; DegenerateProfileError when nonzero factors give a product below
    the normal range, which would drop the term or keep it without its digits."""
    c = x * y
    if abs(c) < _TINY and x != 0.0 and y != 0.0:
        raise DegenerateProfileError(
            f"the kernel coefficient {x:g} * {y:g} leaves the normal float range"
        )
    return c


@dataclass(frozen=True)
class KernelTerms:
    """Sum of c * r^e * K(rate, r) terms sharing one kernel type.

    ``kernel`` is ``"gauss"`` (K = e^{-rate r^2}) or ``"exp"`` (K = e^{-rate r}).
    Terms are (coefficient, exponent, rate) triples; exponents may be real.
    """

    kernel: str
    terms: tuple[tuple[float, float, float], ...]

    def differentiate(self) -> "KernelTerms":
        """The terms of the derivative, each coefficient a ``_coefficient``
        product; terms that cancel exactly are dropped."""
        acc: dict[tuple[float, float], float] = {}

        def add(x: float, y: float, e: float, b: float) -> None:
            c = _coefficient(x, y)
            if c != 0.0:
                acc[(e, b)] = acc.get((e, b), 0.0) + c

        for c, e, b in self.terms:
            add(c, e, e - 1.0, b)
            if self.kernel == GAUSS_KERNEL:
                add(-2.0 * b, c, e + 1.0, b)
            else:
                add(-b, c, e, b)
        terms = tuple((c, e, b) for (e, b), c in sorted(acc.items()) if c != 0.0)
        return KernelTerms(self.kernel, terms)

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        """Sum of the terms at r; each distinct rate's decay is computed once."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        decays: dict[float, np.ndarray] = {}
        for c, e, b in self.terms:
            if b not in decays:
                decays[b] = np.exp(-b * r * r) if self.kernel == GAUSS_KERNEL else np.exp(-b * r)
            out = out + c * np.power(r, e) * decays[b]
        return out


@dataclass(frozen=True)
class AnalyticProfile:
    """Closed-form radial family member alpha * (shape) * decay.

    Families
    --------
    gaussian:         alpha * e^{-beta r^2}
    exponential:      alpha * e^{-beta r}
    hydrogen_second:  alpha * (1 + beta r) * e^{-beta r}
    monomial_cutoff:  alpha * r^power * e^{-beta r^2}

    ``rate`` (beta) is an inverse length for the exponential kernels and an
    inverse squared length for the Gaussian kernels.
    """

    family: str
    amplitude: float = 1.0
    rate: float = 1.0
    power: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILY_KERNELS:
            raise UsageError(f"unknown analytic family {self.family!r}")
        if not (0 < self.rate < math.inf and math.isfinite(self.amplitude)):
            raise UsageError("rate must be finite and > 0, amplitude finite")
        if self.family != "monomial_cutoff" and self.power != 0.0:
            raise UsageError("power is only meaningful for the monomial_cutoff family")

    @property
    def kernel(self) -> str:
        return FAMILY_KERNELS[self.family]

    def kernel_terms(self, deriv: int = 0) -> KernelTerms:
        _check_deriv(deriv)
        return _kernel_terms(self, deriv)

    def value(self, r: np.ndarray | float, deriv: int = 0) -> np.ndarray | float:
        return self.kernel_terms(deriv)(r)

    def scaled(self, factor: float) -> "AnalyticProfile":
        return replace(self, amplitude=self.amplitude * factor)


@lru_cache(maxsize=256)
def _kernel_terms(profile: AnalyticProfile, deriv: int) -> KernelTerms:
    """The terms of the profile's derivative of order ``deriv``, built once
    per (frozen) profile and order."""
    a, b = profile.amplitude, profile.rate
    if profile.family == "gaussian":
        base = KernelTerms(GAUSS_KERNEL, ((a, 0.0, b),))
    elif profile.family == "monomial_cutoff":
        base = KernelTerms(GAUSS_KERNEL, ((a, float(profile.power), b),))
    elif profile.family == "exponential":
        base = KernelTerms(EXP_KERNEL, ((a, 0.0, b),))
    else:  # hydrogen_second
        base = KernelTerms(EXP_KERNEL, ((a, 0.0, b), (_coefficient(a, b), 1.0, b)))
    for _ in range(deriv):
        base = base.differentiate()
    return base


@dataclass(frozen=True)
class MixtureProfile:
    """Linear combination of analytic members sharing one kernel type.

    Convenience for multi-hump trial profiles; closed-form moments still apply
    because cross terms keep the kernel family (rates add under squaring).
    """

    components: tuple[AnalyticProfile, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise UsageError("mixture needs at least one component")
        kernels = {c.kernel for c in self.components}
        if len(kernels) != 1:
            raise UsageError("mixture components must share a kernel type")

    @property
    def kernel(self) -> str:
        return self.components[0].kernel

    def kernel_terms(self, deriv: int = 0) -> KernelTerms:
        terms: list[tuple[float, float, float]] = []
        for c in self.components:
            terms.extend(c.kernel_terms(deriv).terms)
        return KernelTerms(self.kernel, tuple(terms))

    def value(self, r: np.ndarray | float, deriv: int = 0) -> np.ndarray | float:
        return self.kernel_terms(deriv)(r)

    def scaled(self, factor: float) -> "MixtureProfile":
        return MixtureProfile(tuple(c.scaled(factor) for c in self.components))


class SampledProfile:
    """Node values on a strictly increasing positive grid.

    The profile is the not-a-knot cubic spline in s = ln r through the nodes,
    and zero outside the grid (compact-support model); the grid must start
    strictly above zero so that negative radial weights stay finite.
    Instances are immutable after construction and keep private copies of
    the grid and the values. The node values and the node slopes in s are
    the spline's cubic Hermite data (see :meth:`_GridRule.hermite_data`),
    from which every evaluation is made. Everything that depends on the grid
    alone is built once per distinct grid and shared (see :func:`_grid_rule`).
    """

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = _per_node(grid, values, "values")
        rule = _grid_rule(grid.tobytes())
        self._hold(rule, values, rule.spline(values))

    @classmethod
    def _from_slopes(cls, rule: "_GridRule", values: np.ndarray, slopes: np.ndarray):
        """The cubic in ln r on each interval of ``rule``'s grid with these node
        values and node slopes in s, not interpolated: C^1 in ln r, and C^2
        where the slopes are a spline's (the minimizer's, or one written by
        ``profile_to_json``)."""
        profile = cls.__new__(cls)
        profile._hold(rule, values, slopes)
        return profile

    def _hold(self, rule: "_GridRule", values: np.ndarray, slopes: np.ndarray) -> None:
        values.flags.writeable = slopes.flags.writeable = False
        self._rule, self.grid, self.values, self._slopes = rule, rule.grid, values, slopes
        self._squares: np.ndarray | None = None
        self._integrals: dict[tuple[int, int], float] = {}

    def derivative_values(self, deriv: int) -> np.ndarray:
        """Node values of the spline's deriv-th derivative (deriv in {0, 1, 2})."""
        return self.values if deriv == 0 else self.value(self.grid, deriv)

    def value(self, r: np.ndarray | float, deriv: int = 0) -> np.ndarray | float:
        """The spline's deriv-th derivative in r at r, by the chain rule
        r f' = v_s, r^2 f'' = v_ss - v_s at s = ln r; 0 outside the grid."""
        _check_deriv(deriv)
        r = np.asarray(r, dtype=float)
        rule, grid, y, slopes = self._rule, self.grid, self.values, self._slopes
        inside = np.clip(r, grid[0], grid[-1]).ravel()  # no point outside reaches the log
        x = np.log(inside)
        i = np.clip(np.searchsorted(rule.s, x, side="right") - 1, 0, len(rule.steps) - 1)
        data = rule.hermite_data((y[i], slopes[i]), (y[i + 1], slopes[i + 1]), i)
        d = rule.derivatives(data, at=(x, i))
        out = (d[deriv] / inside**deriv).reshape(r.shape)
        outside = (r < grid[0]) | (r > grid[-1])
        return np.where(outside, 0.0, out) if r.ndim else (0.0 if outside else float(out))

    def integral(self, deriv: int, power: int) -> float:
        """∫ r^power |f^(deriv)|^2 dr over the grid, which is
        ∫ r^(power+1-2 deriv) |D_deriv v|^2 ds by ``SAMPLED_POINTS``-point
        Gauss-Legendre in s on every interval (D_0 = 1, D_1 = ∂_s,
        D_2 = ∂_ss - ∂_s). The first call evaluates the squares of all three
        orders at once (see :meth:`_GridRule.squares`), and each (deriv,
        power) is integrated once: its value is kept for every later call.

        DegenerateProfileError when the integral is inf or nan, the one
        verdict on squares and weights out of the float range, so an order
        whose squares overflow fails only its own integrals. That is tested
        only where the largest square times the largest weight times their
        number could overflow; elsewhere no sum of them can.
        """
        try:
            return self._integrals[deriv, power]
        except KeyError:
            pass
        _check_deriv(deriv)
        if self._squares is None:
            self._squares, self._peaks = self._rule.squares(self.values, self._slopes)
        weights, bound = self._rule.weights(power - 2 * deriv)
        # One dot per Gauss point, each as long as the grid has intervals.
        # OpenBLAS runs a ddot of up to 10 000 elements on the calling thread,
        # so rows keep grids of up to 10 001 nodes off the BLAS thread pool;
        # one dot over all four rows would reach it from 2 502 nodes on.
        if self._peaks[deriv] * bound < _HALF_MAX:
            total = math.fsum(np.vecdot(self._squares[deriv], weights).tolist())
        else:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    total = math.fsum(np.vecdot(self._squares[deriv], weights).tolist())
            except OverflowError:  # fsum's own partial sums
                total = math.inf
            if not total < math.inf:
                raise DegenerateProfileError(f"∫ r^{power} |f^({deriv})|^2 overflows on the grid")
        self._integrals[deriv, power] = total
        return total


def _per_node(grid: np.ndarray, column, name: str) -> np.ndarray:
    """A private float copy of ``column``: one finite number per grid node."""
    column = np.array(column, dtype=float)
    if grid.ndim != 1 or column.shape != grid.shape:
        raise UsageError(f"grid and {name} must be 1-d arrays of equal length")
    if not np.all(np.isfinite(column)):
        raise UsageError(f"profile {name} must be finite")
    return column


def _column(column):
    """A sampled profile's column read from JSON: the float64 array of a typed
    column ``{"dtype": "<f8", "base64": ...}``, any other (a list of numbers)
    as it is. Unknown dtypes are a UsageError; text that is not base64 or
    whose byte count is not a multiple of 8 raises ValueError."""
    if not isinstance(column, dict):
        return column
    if column["dtype"] != "<f8":
        raise UsageError(f"unknown column dtype {column['dtype']!r}")
    return np.frombuffer(base64.b64decode(column["base64"], validate=True), "<f8")


def _hermite_table(t: np.ndarray) -> np.ndarray:
    """Row d * len(t) + j: h^d times the d-th derivative at t[j] in [0, 1] of
    the cubic piece y_i + Δy H01 + h s_i H10 + h s_{i+1} H11 (Hermite basis),
    per unit of its data (y_i, Δy, h s_i, h s_{i+1}). The increment Δy keeps
    y_i out of the derivative rows, which would otherwise cancel terms of
    size |y| / h^d."""
    u, tt, t6, zero = 1 - t, t * t, 6 * t, np.zeros_like(t)
    rows = (
        (np.ones_like(t), tt * (3 - 2 * t), t * u**2, tt * (t - 1)),
        (zero, t6 * u, u * (1 - 3 * t), t * (3 * t - 2)),
        (zero, 6 - 12 * t, t6 - 4, t6 - 2),
    )
    return np.array(rows).transpose(0, 2, 1).reshape(-1, 4)


#: Half the largest double: a bound on a sum of products below it leaves
#: room for the rounding of the bound itself.
_HALF_MAX = float(np.finfo(float).max) / 2.0


class _GridRule:
    """What a sampled profile needs from its grid alone.

    ``_factor`` is the pivot-free factorization (LAPACK ``pttrf``) of the
    not-a-knot system in the node slopes in s = ln r that
    ``scipy.interpolate.CubicSpline`` solves, with its end rows eliminated
    and its interior made symmetric by ``_root`` (see :meth:`spline`);
    ``hermite`` is :func:`_hermite_table` at the Gauss points of the unit
    interval, which :meth:`derivatives` applies to :meth:`hermite_data`. The
    Gauss points in s and in r (``points``, ``radii``) and their weights are
    stored one row per Gauss point, so each row is a contiguous run over the
    intervals; :meth:`weights` tabulates the weights of r^p dr per power p.
    """

    def __init__(self, grid: np.ndarray):
        if len(grid) < 8:
            raise UsageError("sampled profiles need at least 8 nodes")
        if not np.all(np.isfinite(grid)):
            raise UsageError("grid nodes must be finite")
        if np.any(grid <= 0.0):
            raise UsageError("grid nodes must lie strictly above 0")
        s = np.log(grid)
        h = np.diff(s)
        # A strictly increasing ln r implies a strictly increasing r.
        if np.any(h <= 0.0):
            raise UsageError("grid must be strictly increasing in ln r")
        self.grid, self.s, self.steps = grid, s, h
        self.ends = (s[2] - s[0], s[-1] - s[-3])
        # The end rows eliminated into their neighbours, then the diagonal
        # similarity that symmetrises the interior rows (see ``spline``).
        inner = h[:-1] + h[1:]
        diag = 2.0 * inner
        diag[[0, -1]] = inner[[0, -1]]
        self._root = np.sqrt(h[:-1] * h[1:])
        self._inverse_root = 1.0 / self._root
        *self._factor, info = lapack.dpttrf(diag, np.sqrt(h[:-2] * h[2:]))
        if info != 0:
            raise UsageError("grid spacing too uneven for a cubic spline")
        unit, _ = gauss_panels(np.array([0.0, 1.0]), SAMPLED_POINTS)
        self.hermite = _hermite_table(unit[0])
        self._inverse_steps = np.stack((1.0 / h, 1.0 / h**2))
        points, w = gauss_panels(s, SAMPLED_POINTS)
        self.points, self._weights = points.T.copy(), w.T.copy()
        self.radii = np.exp(self.points)
        self._by_power: dict[int, tuple[np.ndarray, float]] = {}

    def spline(self, y: np.ndarray) -> np.ndarray:
        """Node slopes in s of the not-a-knot spline in s through y.

        Same right-hand side as ``CubicSpline``, so the same spline to
        rounding. The first row, h_1 m_0 + (h_0 + h_1) m_1 = b_0, taken from
        the second leaves (h_0 + h_1) m_1 + h_0 m_2 = b_1 - b_0, and the last
        row likewise its neighbour. The interior rows
        h_i m_(i-1) + 2 (h_(i-1) + h_i) m_i + h_(i-1) m_(i+1) = b_i are then
        strictly diagonally dominant with a positive diagonal, and scaling
        m_i by 1 / sqrt(h_(i-1) h_i) makes them symmetric (off-diagonals
        sqrt(h_(i-1) h_(i+1))): positive definite on every grid, factored once
        without pivoting (LAPACK ``pttrf``). The two eliminated rows give m_0
        and m_(n-1) back.
        """
        h, (d0, d1) = self.steps, self.ends
        slope = np.diff(y) / h
        first = ((h[0] + 2 * d0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d0
        last = (h[-1] ** 2 * slope[-2] + (2 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
        b = 3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
        b[0] -= first
        b[-1] -= last
        b *= self._inverse_root
        inner, _ = lapack.dpttrs(*self._factor, b, overwrite_b=True)
        slopes = np.empty(len(y))
        np.multiply(inner, self._root, out=slopes[1:-1])
        slopes[0] = (first - d0 * slopes[1]) / h[1]
        slopes[-1] = (last - d1 * slopes[-2]) / h[-2]
        return slopes

    def hermite_data(self, left, right, i=slice(None)) -> np.ndarray:
        """The rows (y_i, Δy_i, h s_i, h s_{i+1}) of cubic pieces in s on the
        intervals i (all by default), the last axis running over them: the
        data that :func:`_hermite_table` weights. ``left`` and ``right`` are
        (value, slope in s) at the left and right node of each interval."""
        (y0, s0), (y1, s1), h = left, right, self.steps[i]
        return np.array((y0, y1 - y0, h * s0, h * s1))

    def derivatives(self, data: np.ndarray, at=None) -> np.ndarray:
        """D_0 v = v, D_1 v = v_s, D_2 v = v_ss - v_s of the cubic pieces with
        Hermite data ``data`` (4, ..., interval): at the Gauss points, shape
        (3, point, ..., interval), or with ``at`` = (x, i) at the points x in
        s of the intervals i, shape (3, point). The table gives h^d v^(d) in
        s; rescaling by 1/h^d and one subtraction finish in place."""
        if at is None:
            f = (self.hermite @ data.reshape(4, -1)).reshape(3, SAMPLED_POINTS, *data.shape[1:])
            inverse = self._inverse_steps.reshape(2, *(1,) * (f.ndim - 2), -1)
        else:
            x, i = at
            basis = _hermite_table((x - self.s[i]) / self.steps[i]).reshape(3, x.size, 4)
            f = np.einsum("djk,kj->dj", basis, data)
            inverse = self._inverse_steps[:, i]
        f[1:] *= inverse
        f[2] -= f[1]
        return f

    def squares(self, y: np.ndarray, slopes: np.ndarray) -> tuple[np.ndarray, dict[int, float]]:
        """|D_0 v|^2, |D_1 v|^2 and |D_2 v|^2 at the Gauss nodes, shape (3,
        points, intervals), and the largest of each, for the spline with node
        values y and node slopes ``slopes`` in s: :meth:`derivatives`, squared
        in place. A value or a square out of the float range (steep data or
        huge values) is left inf or nan, for ``integral`` to judge.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            f = self.derivatives(self.hermite_data((y[:-1], slopes[:-1]), (y[1:], slopes[1:])))
            f *= f
        f.flags.writeable = False
        return f, dict(enumerate(f.max(axis=(1, 2)).tolist()))

    def weights(self, power: int) -> tuple[np.ndarray, float]:
        """The Gauss weights of r^power dr = r^(power+1) ds, and the largest
        weight times their number (the bound ``integral`` takes it by); an
        r^(power+1) that overflows is left inf, for ``integral`` to judge."""
        try:
            return self._by_power[power]
        except KeyError:
            with np.errstate(over="ignore"):
                table = self._weights * self.radii ** float(power + 1)
            table.flags.writeable = False
            self._by_power[power] = table, float(table.max()) * table.size
            return self._by_power[power]


@lru_cache(maxsize=8)
def _grid_rule(key: bytes) -> _GridRule:
    """The rule of the grid whose float64 bytes are ``key``, built once.

    Keyed by contents, so equal grids built as separate arrays share a rule;
    the grid it holds is a read-only view of the key.
    """
    return _GridRule(np.frombuffer(key))


def _check_deriv(deriv: int) -> None:
    if deriv not in (0, 1, 2):
        raise UsageError("derivative order must be 0, 1 or 2")


Profile = Union[AnalyticProfile, MixtureProfile, SampledProfile]


def eval_profile(p: Profile, r, deriv: int = 0):
    """Evaluate f, f' or f'' at finite r > 0; sampled profiles vanish outside their grid."""
    _check_deriv(deriv)
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr > 0.0) & (r_arr < math.inf)):  # nan fails both
        raise UsageError("profiles are defined for finite r > 0 only")
    return p.value(r, deriv)


def reduce_profile(mode: Mode, u: SampledProfile) -> SampledProfile:
    """Strip the leading monomial of a degree-k coefficient: v(r) = u(r) / r^k;
    UsageError where that leaves the float range."""
    if mode.degree == 0:
        return u
    with np.errstate(all="ignore"):  # _on_rule_of rejects values that are not finite
        values = u.values / u.grid ** mode.degree
    return _on_rule_of(u, values)


def unreduce_profile(mode: Mode, v: SampledProfile) -> SampledProfile:
    """Restore the leading monomial: u(r) = r^k v(r). Inverse of reduce_profile;
    UsageError where that leaves the float range."""
    if mode.degree == 0:
        return v
    with np.errstate(all="ignore"):  # _on_rule_of rejects values that are not finite
        values = v.values * v.grid ** mode.degree
    return _on_rule_of(v, values)


def _on_rule_of(p: SampledProfile, values: np.ndarray) -> SampledProfile:
    """``SampledProfile(p.grid, values)`` on p's grid rule, which it shares
    instead of looking the grid up again."""
    values = _per_node(p.grid, values, "values")
    return SampledProfile._from_slopes(p._rule, values, p._rule.spline(values))


def shift_power(p: AnalyticProfile | MixtureProfile, delta: float):
    """Multiply a Gaussian-kernel profile by r^delta (exact family algebra);
    r^0 leaves any profile as it is."""
    if delta == 0:
        return p
    if isinstance(p, MixtureProfile):
        return MixtureProfile(tuple(shift_power(c, delta) for c in p.components))
    if p.kernel != GAUSS_KERNEL:
        raise UsageError("power shifts are only defined for Gaussian-kernel families")
    new_power = p.power + delta
    if new_power == 0.0:
        return AnalyticProfile("gaussian", p.amplitude, p.rate)
    return AnalyticProfile("monomial_cutoff", p.amplitude, p.rate, power=new_power)


def profile_to_json(p: Profile) -> dict:
    """A sampled profile is its grid, node values and node slopes in s, each
    column written exactly as ``{"dtype": "<f8", "base64": ...}``: standard
    base64 of its little-endian float64 bytes."""
    if isinstance(p, SampledProfile):
        columns = {"grid": p.grid, "values": p.values, "slopes": p._slopes}
        return {name: {"dtype": "<f8", "base64": base64.b64encode(np.asarray(c, "<f8").tobytes()).decode()}
                for name, c in columns.items()}
    if isinstance(p, MixtureProfile):
        return {"mixture": [profile_to_json(c) for c in p.components]}
    params: dict[str, float] = {"amplitude": p.amplitude, "rate": p.rate}
    if p.family == "monomial_cutoff":
        params["power"] = p.power
    return {"family": p.family, "params": params}


def profile_from_json(obj: dict | str) -> Profile:
    """The profile ``profile_to_json`` wrote: a sampled one from its node
    slopes as written, or by interpolation when it has none. A sampled
    column is read in the typed form ``profile_to_json`` writes or as a list
    of numbers (hand-written profiles, older reports)."""
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        if "slopes" in obj:
            grid = np.asarray(_column(obj["grid"]), dtype=float)
            values, slopes = (_per_node(grid, _column(obj[name]), name) for name in ("values", "slopes"))
            return SampledProfile._from_slopes(_grid_rule(grid.tobytes()), values, slopes)
        if "grid" in obj:
            return SampledProfile(_column(obj["grid"]), _column(obj["values"]))
        if "mixture" in obj:
            return MixtureProfile(tuple(profile_from_json(c) for c in obj["mixture"]))
        return AnalyticProfile(obj["family"], **obj.get("params", {}))
    except UsageError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers unreadable JSON text, non-numeric grid or values,
        # and a typed column that is not base64 or not whole float64s.
        raise UsageError(f"malformed profile object: {exc!r}") from None
