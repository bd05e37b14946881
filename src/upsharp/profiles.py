"""Radial trial functions: spherical-harmonic modes, analytic families, sampled grids.

Every functional in the package is evaluated on one of two profile kinds:

* :class:`AnalyticProfile` — a closed-form family member with exact derivative
  formulas (and exact weighted moments, see :mod:`upsharp.quadrature`);
* :class:`SampledProfile` — node values on a strictly positive grid, read as
  the not-a-knot cubic spline through them and treated as zero outside the
  grid.

Profiles are real-valued. Complex amplitudes lose no generality here: every
quotient of interest is invariant under scalar rescaling and every extremal is
a scalar multiple of a real profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.interpolate import CubicSpline

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
        if not self.rate > 0:
            raise UsageError("rate must be > 0")
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
    Instances are immutable after construction.
    """

    def __init__(self, grid, values):
        grid = np.ascontiguousarray(grid, dtype=float)
        values = np.ascontiguousarray(values, dtype=float)
        if grid.ndim != 1 or values.shape != grid.shape:
            raise UsageError("grid and values must be 1-d arrays of equal length")
        if len(grid) < 8:
            raise UsageError("sampled profiles need at least 8 nodes")
        if grid[0] <= 0.0:
            raise UsageError("grid must start strictly above 0")
        if np.any(np.diff(grid) <= 0.0):
            raise UsageError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise UsageError("profile values must be finite")
        grid.flags.writeable = False
        values.flags.writeable = False
        self.grid = grid
        self.values = values
        self._spline = CubicSpline(grid, values)
        self._rule: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._squares: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def derivative_values(self, deriv: int) -> np.ndarray:
        """Node values of the spline's deriv-th derivative (deriv in {0, 1, 2})."""
        if deriv == 0:
            return self.values
        _check_deriv(deriv)
        return self._spline(self.grid, deriv)

    def value(self, r: np.ndarray | float, deriv: int = 0) -> np.ndarray | float:
        """The spline's deriv-th derivative at r; 0 outside the grid."""
        _check_deriv(deriv)
        r = np.asarray(r, dtype=float)
        out = self._spline(r, deriv)
        outside = (r < self.grid[0]) | (r > self.grid[-1])
        return np.where(outside, 0.0, out) if out.ndim else (0.0 if outside else float(out))

    def gauss_squares(self, deriv: int) -> tuple[np.ndarray, np.ndarray]:
        """(ln r, w |f^(d)(r)|^2) at the Gauss nodes r of every grid interval.

        Evaluated once per derivative order, by Horner on the spline pieces.
        """
        if deriv not in self._squares:
            _check_deriv(deriv)
            t, w, log_r = self._gauss_rule()
            coeffs = self._spline.derivative(deriv).c if deriv else self._spline.c
            f = coeffs[0][:, None]
            for c in coeffs[1:]:
                f = f * t + c[:, None]
            self._squares[deriv] = (log_r, (w * f * f).ravel())
        return self._squares[deriv]

    def _gauss_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Offsets from the left node, weights and ln r of the Gauss nodes."""
        if self._rule is None:
            # Imported here because quadrature imports this module.
            from .quadrature import SAMPLED_POINTS, gauss_panels

            r, w = gauss_panels(self.grid, SAMPLED_POINTS)
            self._rule = (r - self.grid[:-1, None], w, np.log(r).ravel())
        return self._rule

    def with_values(self, values) -> "SampledProfile":
        """Same grid, new values; the Gauss rule on the grid is shared."""
        out = SampledProfile(self.grid, values)
        out._rule = self._gauss_rule()
        return out


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
    return u.with_values(u.values / u.grid ** mode.degree)


def unreduce_profile(mode: Mode, v: SampledProfile) -> SampledProfile:
    """Restore the leading monomial: u(r) = r^k v(r). Inverse of reduce_profile."""
    if mode.degree == 0:
        return v
    return v.with_values(v.values * v.grid ** mode.degree)


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
