"""Radial trial functions: spherical-harmonic modes, analytic families, sampled grids.

Every functional in the package is evaluated on one of two profile kinds:

* :class:`AnalyticProfile` — a closed-form family member with exact derivative
  formulas (and exact weighted moments, see :mod:`upsharp.quadrature`);
* :class:`SampledProfile` — node values on a strictly positive grid, read as
  the not-a-knot cubic spline through them and treated as zero outside the
  grid. The work that depends on the grid alone (the factored spline system,
  the Gauss rule of the grid intervals, its weights times r^p) is done once
  per distinct grid and shared by every profile on it, so a new profile
  costs one tridiagonal back-substitution.

Profiles are real-valued. Complex amplitudes lose no generality here: every
quotient of interest is invariant under scalar rescaling and every extremal is
a scalar multiple of a real profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import lapack

from .errors import UsageError

GAUSS_KERNEL = "gauss"  # decay factor e^{-rate * r^2}
EXP_KERNEL = "exp"      # decay factor e^{-rate * r}

FAMILY_KERNELS = {
    "gaussian": GAUSS_KERNEL,
    "monomial_cutoff": GAUSS_KERNEL,
    "exponential": EXP_KERNEL,
    "hydrogen_second": EXP_KERNEL,
}


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
    if not isinstance(dimension, (int, np.integer)) or not isinstance(degree, (int, np.integer)):
        raise UsageError("dimension and degree must be integers")
    if dimension < 1:
        raise UsageError(f"dimension must be >= 1, got {dimension}")
    if degree < 0:
        raise UsageError(f"degree must be >= 0, got {degree}")
    if dimension == 1 and degree != 0:
        raise UsageError("dimension 1 only supports degree 0")
    return Mode(int(dimension), int(degree), int(degree) * (int(degree) + int(dimension) - 2))


@dataclass(frozen=True)
class KernelTerms:
    """Sum of c * r^e * K(rate, r) terms sharing one kernel type.

    ``kernel`` is ``"gauss"`` (K = e^{-rate r^2}) or ``"exp"`` (K = e^{-rate r}).
    Terms are (coefficient, exponent, rate) triples; exponents may be real.
    """

    kernel: str
    terms: tuple[tuple[float, float, float], ...]

    def differentiate(self) -> "KernelTerms":
        acc: dict[tuple[float, float], float] = {}

        def add(c: float, e: float, b: float) -> None:
            if c != 0.0:
                acc[(e, b)] = acc.get((e, b), 0.0) + c

        for c, e, b in self.terms:
            add(c * e, e - 1.0, b)
            if self.kernel == GAUSS_KERNEL:
                add(-2.0 * b * c, e + 1.0, b)
            else:
                add(-b * c, e, b)
        terms = tuple((c, e, b) for (e, b), c in sorted(acc.items()) if c != 0.0)
        return KernelTerms(self.kernel, terms)

    def __call__(self, r: np.ndarray | float) -> np.ndarray | float:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for c, e, b in self.terms:
            decay = np.exp(-b * r * r) if self.kernel == GAUSS_KERNEL else np.exp(-b * r)
            out = out + c * np.power(r, e) * decay
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
        a, b = self.amplitude, self.rate
        if self.family == "gaussian":
            base = KernelTerms(GAUSS_KERNEL, ((a, 0.0, b),))
        elif self.family == "monomial_cutoff":
            base = KernelTerms(GAUSS_KERNEL, ((a, float(self.power), b),))
        elif self.family == "exponential":
            base = KernelTerms(EXP_KERNEL, ((a, 0.0, b),))
        else:  # hydrogen_second
            base = KernelTerms(EXP_KERNEL, ((a, 0.0, b), (a * b, 1.0, b)))
        for _ in range(deriv):
            base = base.differentiate()
        return base

    def value(self, r: np.ndarray | float, deriv: int = 0) -> np.ndarray | float:
        return self.kernel_terms(deriv)(r)

    def scaled(self, factor: float) -> "AnalyticProfile":
        return replace(self, amplitude=self.amplitude * factor)


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

    The profile is the not-a-knot cubic spline in r through the nodes, and
    zero outside the grid (compact-support model); the grid must start
    strictly above zero so that negative radial weights stay finite.
    Instances are immutable after construction and keep private copies of
    the grid and the values. Everything that depends on the grid alone is
    built once per distinct grid and shared (see :func:`_grid_rule`).
    """

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.array(values, dtype=float)
        if grid.ndim != 1 or values.shape != grid.shape:
            raise UsageError("grid and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(values)):
            raise UsageError("profile values must be finite")
        values.flags.writeable = False
        self._rule = _grid_rule(grid.tobytes())
        self.grid = self._rule.grid
        self.values = values
        self._coeffs, self._slopes = self._rule.spline(values)
        self._ppoly: PPoly | None = None
        self._squares: dict[int, np.ndarray] = {}

    def derivative_values(self, deriv: int) -> np.ndarray:
        """Node values of the spline's deriv-th derivative (deriv in {0, 1, 2})."""
        if deriv == 0:
            return self.values
        _check_deriv(deriv)
        if deriv == 1:
            return self._slopes
        c, h = self._coeffs, self._rule.steps[-1]
        return np.append(2.0 * c[1], 6.0 * c[0, -1] * h + 2.0 * c[1, -1])

    def value(self, r: np.ndarray | float, deriv: int = 0) -> np.ndarray | float:
        """The spline's deriv-th derivative at r; 0 outside the grid."""
        _check_deriv(deriv)
        if self._ppoly is None:
            self._ppoly = PPoly(self._coeffs, self.grid)
        r = np.asarray(r, dtype=float)
        out = self._ppoly(r, deriv)
        outside = (r < self.grid[0]) | (r > self.grid[-1])
        return np.where(outside, 0.0, out) if out.ndim else (0.0 if outside else float(out))

    def gauss_squares(self, deriv: int) -> np.ndarray:
        """|f^(d)|^2 at the Gauss nodes of every grid interval, unweighted.

        Evaluated once per derivative order, by Horner on the spline pieces;
        :meth:`gauss_weights` holds the matching weights.
        """
        if deriv not in self._squares:
            _check_deriv(deriv)
            coeffs = self._coeffs[: 4 - deriv] * _FALLING_FACTORIALS[deriv][:, None]
            t = self._rule.offsets
            f = coeffs[0][:, None] * t
            for c in coeffs[1:-1]:
                f += c[:, None]
                f *= t
            f += coeffs[-1][:, None]
            f *= f
            self._squares[deriv] = f.ravel()
        return self._squares[deriv]

    def gauss_weights(self, power: int) -> np.ndarray:
        """Gauss weights times r^power at the nodes of :meth:`gauss_squares`."""
        return self._rule.weights(power)


#: d-th derivative of the cubic pieces: c_j (t^(3-j))^(d) has the factor
#: (3-j)!/(3-j-d)! on the coefficient c_j, highest power first.
_FALLING_FACTORIALS = (np.ones(4), np.array([3.0, 2.0, 1.0]), np.array([6.0, 2.0]))


class _GridRule:
    """What a sampled profile needs from its grid alone.

    ``lu`` is the LU factorization (LAPACK ``gttrf``) of the not-a-knot
    tridiagonal system in the node slopes, the system that
    ``scipy.interpolate.CubicSpline`` solves; ``offsets`` are the Gauss nodes
    of every grid interval measured from its left node, and
    :meth:`weights` tabulates the Gauss weights times r^p per power p.
    """

    def __init__(self, grid: np.ndarray):
        # Imported here because quadrature imports this module.
        from .quadrature import SAMPLED_POINTS, gauss_panels

        if len(grid) < 8:
            raise UsageError("sampled profiles need at least 8 nodes")
        if not np.all(np.isfinite(grid)):
            raise UsageError("grid nodes must be finite")
        if grid[0] <= 0.0:
            raise UsageError("grid must start strictly above 0")
        h = np.diff(grid)
        if np.any(h <= 0.0):
            raise UsageError("grid must be strictly increasing")
        self.grid, self.steps = grid, h
        self.ends = (grid[2] - grid[0], grid[-1] - grid[-3])
        diag = np.concatenate([[h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]]])
        upper = np.concatenate([[self.ends[0]], h[:-1]])
        lower = np.concatenate([h[1:], [self.ends[1]]])
        *self.lu, info = lapack.dgttrf(lower, diag, upper)
        if info != 0:
            raise UsageError("grid spacing too uneven for a cubic spline")
        r, w = gauss_panels(grid, SAMPLED_POINTS)
        self.offsets = r - grid[:-1, None]
        self._nodes, self._weights = r.ravel(), w.ravel()
        self._by_power: dict[int, np.ndarray] = {}

    def spline(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-cubic coefficients (highest power first, one column per
        interval) and node slopes of the not-a-knot spline through y.

        Same formulas as ``CubicSpline``, so the same spline to rounding.
        """
        h, (d0, d1) = self.steps, self.ends
        slope = np.diff(y) / h
        b = np.empty(len(y))
        b[0] = ((h[0] + 2 * d0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d0
        b[1:-1] = 3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
        b[-1] = (h[-1] ** 2 * slope[-2] + (2 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
        s, _ = lapack.dgttrs(*self.lu, b)
        s.flags.writeable = False
        t = (s[:-1] + s[1:] - 2 * slope) / h
        return np.stack((t / h, (slope - s[:-1]) / h - t, s[:-1], y[:-1])), s

    def weights(self, power: int) -> np.ndarray:
        if power not in self._by_power:
            table = self._weights * self._nodes ** float(power)
            table.flags.writeable = False
            self._by_power[power] = table
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
    """Evaluate f, f' or f'' at r > 0; sampled profiles vanish outside their grid."""
    _check_deriv(deriv)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise UsageError("profiles are defined for r > 0 only")
    return p.value(r, deriv)


def reduce_profile(mode: Mode, u: SampledProfile) -> SampledProfile:
    """Strip the leading monomial of a degree-k coefficient: v(r) = u(r) / r^k."""
    if mode.degree == 0:
        return u
    return SampledProfile(u.grid, u.values / u.grid ** mode.degree)


def unreduce_profile(mode: Mode, v: SampledProfile) -> SampledProfile:
    """Restore the leading monomial: u(r) = r^k v(r). Inverse of reduce_profile."""
    if mode.degree == 0:
        return v
    return SampledProfile(v.grid, v.values * v.grid ** mode.degree)


def shift_power(p: AnalyticProfile | MixtureProfile, delta: float):
    """Multiply a Gaussian-kernel profile by r^delta (exact family algebra)."""
    if isinstance(p, MixtureProfile):
        return MixtureProfile(tuple(shift_power(c, delta) for c in p.components))
    if p.kernel != GAUSS_KERNEL:
        raise UsageError("power shifts are only defined for Gaussian-kernel families")
    new_power = p.power + delta
    if new_power == 0.0:
        return AnalyticProfile("gaussian", p.amplitude, p.rate)
    return AnalyticProfile("monomial_cutoff", p.amplitude, p.rate, power=new_power)


def profile_to_json(p: Profile) -> dict:
    if isinstance(p, SampledProfile):
        return {"grid": p.grid.tolist(), "values": p.values.tolist()}
    if isinstance(p, MixtureProfile):
        return {"mixture": [profile_to_json(c) for c in p.components]}
    params: dict[str, float] = {"amplitude": p.amplitude, "rate": p.rate}
    if p.family == "monomial_cutoff":
        params["power"] = p.power
    return {"family": p.family, "params": params}


def profile_from_json(obj: dict | str) -> Profile:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if "grid" in obj:
        return SampledProfile(obj["grid"], obj["values"])
    if "mixture" in obj:
        return MixtureProfile(tuple(profile_from_json(c) for c in obj["mixture"]))
    params = dict(obj.get("params", {}))
    return AnalyticProfile(obj["family"], **params)
