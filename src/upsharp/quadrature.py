"""Weighted radial integrals  I = ∫ r^p |f^(d)(r)|^2 dr  on (0, ∞).

Three routes, the members of :class:`QuadratureRule`:

* ``closed_form_gamma`` — exact Gamma/factorial moments for analytic families
  (both kernels, real exponents, mixtures included);
* ``gauss_legendre_panels`` — composite Gauss-Legendre with geometric panel
  grading toward 0, compensated panel summation, and a refinement error
  estimate held to ``PANEL_REL_TOL``;
* ``adaptive`` — scipy's adaptive quadrature (QUADPACK) at ``ADAPTIVE_REL_TOL``,
  used as an independent oracle. ``scipy.integrate`` is imported on its first
  use, so importing the package loads only numpy and ``scipy.linalg``.

Sampled profiles integrate their cubic spline over their own grid:
``SAMPLED_POINTS``-point Gauss-Legendre on every grid interval, with the
profile zero outside the grid. The profile supplies the squared derivative at
the Gauss nodes and its grid's cached table of weights times r^p, both one
row per Gauss point, so a sampled integral is one dot product per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DivergentIntegralError, QuadratureConvergenceError, UsageError
from .profiles import (
    GAUSS_KERNEL,
    AnalyticProfile,
    KernelTerms,
    MixtureProfile,
    Profile,
    SampledProfile,
)


#: Panel rule: panels, Gauss points per panel, and points added per panel for
#: the refined value; the two values differ by the rule's error estimate.
PANEL_COUNT = 48
PANEL_POINTS = 24
PANEL_REFINE = 8
#: Relative tolerances of the panel rule's estimate and of QUADPACK. An
#: integral scales with the squared amplitude and a power of the rate, so an
#: absolute floor would pass small integrals unresolved.
PANEL_REL_TOL = 1e-9
ADAPTIVE_REL_TOL = 1e-10
# Deepest panel edge relative to r_max; resolves integrable power singularities
# down to r^{-1+eps} without losing the smooth bulk.
_GRADING_EPS = 1e-30
# Coefficients smaller than this (relative) are treated as exact cancellations
# when locating the leading exponent near the origin.
_CANCEL_TOL = 1e-12
#: Gauss-Legendre points per grid interval for sampled profiles; exact for
#: the squared derivatives of their cubic pieces times polynomial weights
#: up to degree 1.
SAMPLED_POINTS = 4


class QuadratureRule(str, Enum):
    """The route ``integrate`` takes for analytic profiles."""

    CLOSED_FORM = "closed_form_gamma"
    PANELS = "gauss_legendre_panels"
    ADAPTIVE = "adaptive"

    @classmethod
    def _missing_(cls, value):
        raise UsageError(f"unknown quadrature rule {value!r}")


#: The closed-form and default rules by the names perfbench/workloads.py uses.
CLOSED_FORM = QuadratureRule.CLOSED_FORM
DEFAULT_CONFIG = QuadratureRule.PANELS


@dataclass(frozen=True)
class WeightedSeminorm:
    """Derivative order d and radial power p of ∫ r^p |f^(d)|^2 dr."""

    deriv: int
    power: int

    def __post_init__(self) -> None:
        if self.deriv not in (0, 1, 2):
            raise UsageError("seminorm derivative order must be 0, 1 or 2")
        if self.power < -5:
            raise UsageError("radial powers below r^-5 are not used anywhere")


def _gauss_moment(c: float, q: float) -> float:
    # ∫_0^∞ r^q e^{-c r^2} dr, q > -1
    s = 0.5 * (q + 1.0)
    try:
        return math.gamma(s) / (2.0 * c**s)
    except OverflowError:
        return 0.5 * math.exp(math.lgamma(s) - s * math.log(c))


def _exp_moment(c: float, q: float) -> float:
    # ∫_0^∞ r^q e^{-c r} dr, q > -1
    try:
        return math.gamma(q + 1.0) / c ** (q + 1.0)
    except OverflowError:
        return math.exp(math.lgamma(q + 1.0) - (q + 1.0) * math.log(c))


def _squared_pairs(kt: KernelTerms, power: float):
    """(coef, exponent, combined_rate) triples of r^power * |f|^2."""
    for ci, ei, bi in kt.terms:
        for cj, ej, bj in kt.terms:
            yield ci * cj, ei + ej + power, bi + bj


def _check_origin_convergence(kt: KernelTerms, power: float) -> None:
    by_exponent: dict[float, float] = {}
    scale = 0.0
    for c, e, _ in _squared_pairs(kt, power):
        by_exponent[e] = by_exponent.get(e, 0.0) + c
        scale += abs(c)
    if scale == 0.0:
        return
    for e in sorted(by_exponent):
        if abs(by_exponent[e]) > _CANCEL_TOL * scale:
            if e <= -1.0:
                raise DivergentIntegralError(
                    f"integrand behaves like r^{e:g} near the origin"
                )
            return


def _log_pair_term(ci: float, cj: float, q: float, c: float, gauss: bool) -> float:
    """ci * cj * ∫_0^∞ r^q e^{-c r^2 or -c r} dr from log magnitudes; q > -1,
    so the moment is positive. ±inf when even the result overflows."""
    if gauss:
        s = 0.5 * (q + 1.0)
        log_moment = math.lgamma(s) - math.log(2.0) - s * math.log(c)
    else:
        log_moment = math.lgamma(q + 1.0) - (q + 1.0) * math.log(c)
    try:
        magnitude = math.exp(math.log(abs(ci)) + math.log(abs(cj)) + log_moment)
    except OverflowError:
        magnitude = math.inf
    return math.copysign(magnitude, ci * cj)


def closed_form_weighted_square(kt: KernelTerms, power: float) -> float:
    """Exact ∫ r^power |f|^2 dr for f given as kernel terms.

    Each pair of terms contributes ci * cj times a Gamma moment. At extreme
    rates the coefficient product under- or overflows before the moment
    rescales it, so a pair whose direct term is 0 or not finite is formed
    from log magnitudes instead. A term out of range even then makes the sum
    inf or nan, which is returned for the caller to reject.
    """
    nonzero = [term for term in kt.terms if term[0] != 0.0]
    if not nonzero:
        return 0.0
    _check_origin_convergence(kt, power)
    gauss = kt.kernel == GAUSS_KERNEL
    moment = _gauss_moment if gauss else _exp_moment
    terms = []
    for ci, ei, bi in nonzero:
        for cj, ej, bj in nonzero:
            q, c = ei + ej + power, bi + bj
            try:
                term = ci * cj * moment(c, q)
            except (OverflowError, ZeroDivisionError):
                term = 0.0
            if not 0.0 < abs(term) < math.inf:
                term = _log_pair_term(ci, cj, q, c, gauss)
            terms.append(term)
    try:
        return math.fsum(terms)
    except ValueError:  # inf - inf
        return math.nan


def default_r_max(profile: AnalyticProfile | MixtureProfile, power: float = 0.0) -> float:
    """Truncation radius making the tail negligible at working precision.

    ``power`` is the total radial power q of an integrand r^q K^2. For the
    exponential kernel r^q e^{-2 rate r} peaks at q / (2 rate), so the radius
    grows with q; up to q = 15 it stays at 40 / rate.
    """
    if isinstance(profile, MixtureProfile):
        rate = min(c.rate for c in profile.components)
    else:
        rate = profile.rate
    if profile.kernel == GAUSS_KERNEL:
        return 12.0 / math.sqrt(rate)
    return max(40.0, power + 25.0) / rate


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _graded_edges(r_max: float, panels: int) -> np.ndarray:
    """Geometric grading toward 0 on the inner quarter, uniform panels outside.

    The inner panels resolve integrable power singularities down to
    _GRADING_EPS * r_max; the uniform outer panels keep each panel a few decay
    lengths wide for the smooth bulk.
    """
    theta = 0.25
    n_uniform = max(4, panels // 2)
    n_geo = panels - n_uniform
    ratio = (_GRADING_EPS / theta) ** (1.0 / n_geo)
    geo = theta * r_max * ratio ** np.arange(n_geo - 1, -1, -1)
    uniform = np.linspace(theta * r_max, r_max, n_uniform + 1)[1:]
    return np.concatenate([[0.0], geo, uniform])


def gauss_panels(edges: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``points``-point Gauss-Legendre on every interval
    of ``edges``, one row per interval."""
    xi, om = _gl_nodes(points)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return mid + half * xi, half * om


@lru_cache(maxsize=16)
def panel_nodes(r_max: float, panels: int, points: int) -> tuple[np.ndarray, np.ndarray, int]:
    """All Gauss-Legendre nodes/weights of the graded composite rule.

    Cached (every seminorm of one profile shares its radius), so the arrays
    are read-only.
    """
    nodes, weights = gauss_panels(_graded_edges(r_max, panels), points)
    nodes, weights = nodes.ravel(), weights.ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights, points


def panel_integrate(fn, r_max: float) -> tuple[float, float]:
    """Composite GL integral of a vectorized integrand on (0, r_max) with a refinement estimate.

    Returns (value, error_estimate); the value comes from the refined rule.
    """

    def run(points: int) -> float:
        r, w, _ = panel_nodes(r_max, PANEL_COUNT, points)
        vals = (fn(r) * w).reshape(PANEL_COUNT, points)
        return math.fsum(vals.sum(axis=1).tolist())

    coarse = run(PANEL_POINTS)
    fine = run(PANEL_POINTS + PANEL_REFINE)
    return fine, abs(fine - coarse)


def _integrand(kt: KernelTerms, power: int):
    def fn(r: np.ndarray) -> np.ndarray:
        return np.asarray(kt(r)) ** 2 * r ** float(power)

    return fn


def integrate(profile: Profile, s: WeightedSeminorm,
              rule: QuadratureRule = QuadratureRule.PANELS) -> float:
    """Evaluate ∫ r^p |f^(d)|^2 dr by the given rule.

    Sampled profiles integrate their spline over their grid by Gauss-Legendre
    per interval regardless of the rule (their support is the grid). Analytic
    profiles are checked for origin divergence first; the numerical rules
    integrate up to ``default_r_max`` and raise when their error estimate
    misses their relative tolerance. An unknown rule name is a UsageError.
    """
    rule = QuadratureRule(rule)
    if isinstance(profile, SampledProfile):
        # One dot per Gauss point, each as long as the grid has intervals.
        # OpenBLAS runs a ddot of up to 10 000 elements on the calling thread,
        # so rows keep grids of up to 10 001 nodes off the BLAS thread pool;
        # one dot over all four rows would reach it from 2 502 nodes on.
        rows = np.vecdot(profile.gauss_squares(s.deriv), profile.gauss_weights(s.power))
        return math.fsum(rows.tolist())

    kt = profile.kernel_terms(s.deriv)
    if not any(c != 0.0 for c, _, _ in kt.terms):
        return 0.0
    if rule is QuadratureRule.CLOSED_FORM:
        return closed_form_weighted_square(kt, float(s.power))

    _check_origin_convergence(kt, float(s.power))
    r_max = default_r_max(profile, s.power + 2 * max(e for _, e, _ in kt.terms))
    fn = _integrand(kt, s.power)
    if rule is QuadratureRule.ADAPTIVE:
        # Loaded here, not at import: scipy.integrate brings in scipy.optimize,
        # sparse, spatial and special, and only this oracle uses it.
        from scipy import integrate as _sciint

        # full_output keeps quad from warning; a missed tolerance raises below.
        value, err, *_ = _sciint.quad(
            fn, 0.0, r_max, epsabs=0.0, epsrel=ADAPTIVE_REL_TOL, limit=400, full_output=1
        )
        if err > 10.0 * ADAPTIVE_REL_TOL * abs(value):
            raise QuadratureConvergenceError(
                f"adaptive rule reports error {err:.3e} for value {value:.6e}"
            )
        return float(value)

    value, est = panel_integrate(fn, r_max)
    if est > PANEL_REL_TOL * abs(value):
        raise QuadratureConvergenceError(
            f"panel rule estimate {est:.3e} exceeds tolerance for value {value:.6e}"
        )
    return float(value)
