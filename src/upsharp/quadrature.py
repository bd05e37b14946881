"""Weighted radial integrals  I = ∫ r^p |f^(d)(r)|^2 dr  on (0, ∞).

Two routes, the members of :class:`QuadratureRule`:

* ``closed_form_gamma`` — exact Gamma moments Γ(s)/(2c^s) or Γ(s)/c^s for
  analytic families (both kernels, real exponents, mixtures included); a
  pair term out of the float range is formed with its binary exponents split
  off exactly;
* ``gauss_legendre_panels`` — composite Gauss-Legendre with geometric panel
  grading toward 0, compensated panel summation, and a refinement error
  estimate held to ``PANEL_REL_TOL``. It reproduces the closed form
  numerically, so each route checks the other. The squares |f^(d)|^2 of one
  set of kernel terms are evaluated once per panel node set and serve every
  power (``_panel_squares``).

Every value the package builds from these integrals passes one verdict,
``positive_normal``: an integral, a mode functional, a full-space sum or a
quotient is a positive normal double or a DegenerateProfileError. Kernel
coefficients out of the float range, |f^(d)|^2 below the normal range at
every panel node, or a value that is 0, subnormal, negative, inf or nan make
it degenerate; only the zero profile integrates (and sums) to 0.0.

Sampled profiles integrate themselves over their own grid, whatever the rule
(:meth:`profiles.SampledProfile.integral`, which keeps each value it has
computed); ``integrate`` hands them on. A derivative of sampled data can
vanish identically, so 0.0 is a legitimate integral there.

Error texts are formatted only when a value fails (``positive_normal``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DegenerateProfileError, DivergentIntegralError,
                     QuadratureConvergenceError, UsageError, _integer, _NameEnum)
from .profiles import (
    GAUSS_KERNEL,
    _TINY,
    AnalyticProfile,
    KernelTerms,
    MixtureProfile,
    Profile,
    SampledProfile,
    gauss_panels,
)


#: Panel rule: panels, Gauss points per panel, and points added per panel for
#: the refined value; the two values differ by the rule's error estimate.
PANEL_COUNT = 48
PANEL_POINTS = 24
PANEL_REFINE = 8
#: Relative tolerance of the panel rule's estimate. An integral scales with
#: the squared amplitude and a power of the rate, so an absolute floor would
#: pass small integrals unresolved.
PANEL_REL_TOL = 1e-9
# Deepest panel edge relative to r_max; resolves integrable power singularities
# down to r^{-1+eps} without losing the smooth bulk.
_GRADING_EPS = 1e-30
# Coefficients smaller than this (relative) are treated as exact cancellations
# when locating the leading exponent near the origin.
_CANCEL_TOL = 1e-12


class QuadratureRule(_NameEnum):
    """The route ``integrate`` takes for analytic profiles."""

    CLOSED_FORM = "closed_form_gamma"
    PANELS = "gauss_legendre_panels"


#: The closed-form and default rules by the names perfbench/workloads.py uses.
CLOSED_FORM = QuadratureRule.CLOSED_FORM
DEFAULT_CONFIG = QuadratureRule.PANELS


@dataclass(frozen=True)
class WeightedSeminorm:
    """Derivative order d and radial power p of ∫ r^p |f^(d)|^2 dr."""

    deriv: int
    power: int

    def __post_init__(self) -> None:
        # The order is an integer; the power stays real, as closed forms take real exponents.
        if _integer(self.deriv, "the seminorm derivative order") not in (0, 1, 2):
            raise UsageError("seminorm derivative order must be 0, 1 or 2")
        if self.power < -5:
            raise UsageError("radial powers below r^-5 are not used anywhere")


def _order(q: float, gauss: bool) -> float:
    return 0.5 * (q + 1.0) if gauss else q + 1.0


def _moment(c: float, q: float, gauss: bool) -> float:
    """∫_0^∞ r^q e^{-c r^2} dr = Γ(s) / (2 c^s) with s = (q + 1)/2, or
    ∫_0^∞ r^q e^{-c r} dr = Γ(s) / c^s with s = q + 1 (``_order``); q > -1.
    Raises when Γ(s) or c^s leaves the float range."""
    s = _order(q, gauss)
    return math.gamma(s) / ((2.0 if gauss else 1.0) * c**s)


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


def _exact_exponent_term(ci: float, cj: float, q: float, c: float, gauss: bool) -> float:
    """ci * cj * _moment(c, q, gauss) with the binary exponents split off:
    for x = m 2^e (``math.frexp``), c^-s = m_c^-s 2^(-e_c s), so the moment
    is taken at c's mantissa, 2^(-e_c s) is split into a whole and a
    fractional power (exactly, for integer q), and one ``ldexp`` joins the
    pieces. ±inf when even the result overflows."""
    (mi, ei), (mj, ej), (mc, ec) = math.frexp(ci), math.frexp(cj), math.frexp(c)
    shift = -ec * _order(q, gauss)
    whole = math.floor(shift)
    mantissa = mi * mj * _moment(mc, q, gauss) * 2.0 ** (shift - whole)
    try:
        return math.ldexp(mantissa, ei + ej + whole)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def closed_form_weighted_square(kt: KernelTerms, power: float) -> float:
    """Exact ∫ r^power |f|^2 dr for f given as kernel terms.

    Each pair of terms contributes ci * cj times one Gamma moment
    (``_moment``). At extreme rates the coefficient product or the moment
    under- or overflows before the other rescales it, so a pair whose direct
    term is 0, not finite or raises is formed again with its binary exponents
    split off exactly (``_exact_exponent_term``). A term out of range even
    then makes the sum inf or nan, which is returned for the caller to reject.
    """
    nonzero = [term for term in kt.terms if term[0] != 0.0]
    _check_origin_convergence(kt, power)
    gauss = kt.kernel == GAUSS_KERNEL
    terms = []
    for ci, ei, bi in nonzero:
        for cj, ej, bj in nonzero:
            q, c = ei + ej + power, bi + bj
            try:
                term = ci * cj * _moment(c, q, gauss)
            except (OverflowError, ZeroDivisionError):
                term = 0.0
            if not 0.0 < abs(term) < math.inf:
                term = _exact_exponent_term(ci, cj, q, c, gauss)
            terms.append(term)
    return _fsum(terms)


def _fsum(terms) -> float:
    """``math.fsum`` of ``terms``, or nan where it raises: the exact sum is
    beyond the float range, or inf - inf."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
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


@lru_cache(maxsize=16)
def panel_nodes(r_max: float, panels: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """All Gauss-Legendre nodes/weights of the graded composite rule.

    Cached (every seminorm of one profile shares its radius), so the arrays
    are read-only.
    """
    nodes, weights = gauss_panels(_graded_edges(r_max, panels), points)
    nodes, weights = nodes.ravel(), weights.ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def panel_integrate(fn, r_max: float) -> tuple[float, float]:
    """Composite GL integral of a vectorized integrand on (0, r_max) with a refinement estimate.

    Returns (value, error_estimate); the value comes from the refined rule.
    """

    def run(points: int) -> float:
        r, w = panel_nodes(r_max, PANEL_COUNT, points)
        vals = (fn(r) * w).reshape(PANEL_COUNT, points)
        return math.fsum(vals.sum(axis=1).tolist())

    coarse = run(PANEL_POINTS)
    fine = run(PANEL_POINTS + PANEL_REFINE)
    return fine, abs(fine - coarse)


def positive_normal(value: float, what: str, *args) -> float:
    """``value`` if it is a positive normal double, else DegenerateProfileError
    naming it as ``what.format(*args)``, a text built only then.

    The one float-range verdict: every integral, mode functional, full-space
    sum and quotient of a profile that is not zero passes here. 0, a
    subnormal or a negative value means squares underflowed or cancelled,
    inf or nan that they left the float range.
    """
    if not _TINY <= value < math.inf:
        raise DegenerateProfileError(f"{what.format(*args)} is {value:g} for this profile")
    return value


def _positive_sum(terms, what: str, *args) -> float:
    """The exact sum of ``terms``: 0.0 when every term is 0 (the zero
    profile), else a positive normal double (``positive_normal``)."""
    terms = list(terms)
    return positive_normal(_fsum(terms), what, *args) if any(terms) else 0.0


@lru_cache(maxsize=6)
def _panel_squares(kt: KernelTerms, r_max: float, points: int) -> np.ndarray:
    """|f|^2 of the kernel terms at the nodes of ``panel_nodes(r_max,
    PANEL_COUNT, points)``, read-only: evaluated once for every power of one
    set of terms. The six entries hold the three orders of one profile at
    both point counts; a new profile brings new terms."""
    r, _ = panel_nodes(r_max, PANEL_COUNT, points)
    with np.errstate(all="ignore"):  # _panel_integral judges the squares
        squares = np.asarray(kt(r)) ** 2
    squares.flags.writeable = False
    return squares


def _panel_integral(square, power: int, r_max: float, what: str, *args) -> float:
    """∫ r^power square(r) dr on (0, r_max) by ``panel_integrate``, with
    floating-point warnings off, for the squares ``square`` (vectorized in r)
    of a profile that is not zero; ``what.format(*args)`` names it in errors.

    Squares below the normal range at every node are 0 or have lost their
    digits, and the error estimate, made of the same squares, cannot tell:
    DegenerateProfileError, as for a value that is not a positive normal
    double. QuadratureConvergenceError when the estimate misses
    ``PANEL_REL_TOL``.
    """
    peak = 0.0

    def fn(r: np.ndarray) -> np.ndarray:
        nonlocal peak
        values = square(r)
        peak = max(peak, values.max())
        return values * r ** float(power)

    # Squares beyond the float range make the value inf or nan, rejected below.
    with np.errstate(all="ignore"):
        value, est = panel_integrate(fn, r_max)
    if peak < _TINY:
        raise DegenerateProfileError(
            f"the squares of {what.format(*args)} underflow at every panel node")
    positive_normal(value, what, *args)
    if est > PANEL_REL_TOL * value:
        raise QuadratureConvergenceError(
            f"panel error estimate {est:.3e} of {what.format(*args)} exceeds tolerance"
            f" for value {value:.6e}"
        )
    return value


def integrate(profile: Profile, s: WeightedSeminorm,
              rule: QuadratureRule = QuadratureRule.PANELS) -> float:
    """Evaluate ∫ r^p |f^(d)|^2 dr by the given rule.

    Sampled profiles integrate their spline over their grid by Gauss-Legendre
    per interval regardless of the rule (their support is the grid). Analytic
    profiles are checked for origin divergence first. The panel rule
    integrates up to ``default_r_max`` (``_panel_integral``). A profile whose
    coefficients of f^(d) are all 0 integrates to 0.0; for any other, a value
    that is not a positive normal double is a DegenerateProfileError
    (``positive_normal``). An unknown rule name is a UsageError.
    """
    # A member passes as it is: the enum's own call costs more than reading
    # an integral a sampled profile has kept.
    rule = rule if isinstance(rule, QuadratureRule) else QuadratureRule(rule)
    if isinstance(profile, SampledProfile):
        return profile.integral(s.deriv, s.power)

    kt = profile.kernel_terms(s.deriv)
    if not all(math.isfinite(c) for c, _, _ in kt.terms):
        raise DegenerateProfileError(f"the coefficients of f^({s.deriv}) leave the float range")
    if not any(c != 0.0 for c, _, _ in kt.terms):
        return 0.0
    what = "∫ r^{0.power} |f^({0.deriv})|^2"
    if rule is QuadratureRule.CLOSED_FORM:
        return positive_normal(closed_form_weighted_square(kt, float(s.power)), what, s)

    _check_origin_convergence(kt, float(s.power))
    r_max = default_r_max(profile, s.power + 2 * max(e for _, e, _ in kt.terms))
    return _panel_integral(lambda r: _panel_squares(kt, r_max, r.size // PANEL_COUNT),
                           s.power, r_max, what, s)
