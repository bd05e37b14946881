import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from upsharp import quadrature
from upsharp.errors import DegenerateProfileError, DivergentIntegralError, UsageError
from upsharp.profiles import AnalyticProfile, KernelTerms, MixtureProfile, SampledProfile
from upsharp.quadrature import (
    CLOSED_FORM,
    QuadratureRule,
    WeightedSeminorm,
    closed_form_weighted_square,
    integrate,
    panel_integrate,
    panel_nodes,
)

PANELS = QuadratureRule.PANELS


@pytest.mark.parametrize("deriv,power", [(-1, 0), (3, 0), (0, -6)])
def test_weighted_seminorm_rejects_orders_and_powers_out_of_range(deriv, power):
    with pytest.raises(UsageError):
        WeightedSeminorm(deriv, power)
    WeightedSeminorm(2, -5)


def test_integrate_closed_form_examples():
    # Gaussian L2 with weight r^{N-1}: Gamma(N/2) / (2 (2 beta)^{N/2})
    for n in (1, 2, 3, 7):
        for beta in (0.5, 1.0, 3.0):
            g = AnalyticProfile("gaussian", 1.0, beta)
            got = integrate(g, WeightedSeminorm(0, n - 1), CLOSED_FORM)
            expected = math.gamma(n / 2) / (2 * (2 * beta) ** (n / 2))
            assert_allclose(got, expected, rtol=1e-13)
    # Exponential with weight r^{N+1}: (N+1)!/(beta^{N+2} 2^{N+2})
    for n in (2, 5):
        for beta in (0.5, 2.0):
            e = AnalyticProfile("exponential", 1.0, beta)
            got = integrate(e, WeightedSeminorm(0, n + 1), CLOSED_FORM)
            expected = math.factorial(n + 1) / (beta ** (n + 2) * 2 ** (n + 2))
            assert_allclose(got, expected, rtol=1e-13)


def test_zero_profile_integrates_to_zero():
    z = AnalyticProfile("gaussian", 0.0, 1.0)
    for cfg in (CLOSED_FORM, PANELS):
        assert integrate(z, WeightedSeminorm(1, 3), cfg) == 0.0


def test_panels_agree_with_closed_forms():
    # relative error < 1e-10 across families, derivatives, and powers; at the
    # high powers r^q e^{-2 beta r} peaks near q/(2 beta), so the default
    # radius has to grow with q (a fixed 40/beta loses 2e-4 of the mass at q=50)
    profiles = [
        AnalyticProfile("gaussian", 1.0, 0.25),
        AnalyticProfile("gaussian", -0.5, 4.0),
        AnalyticProfile("exponential", 1.0, 0.7),
        AnalyticProfile("hydrogen_second", 1.0, 1.3),
        AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=2.0),
        MixtureProfile(
            (
                AnalyticProfile("gaussian", 1.0, 0.8),
                AnalyticProfile("monomial_cutoff", -0.3, 1.2, power=2.0),
            )
        ),
    ]
    for p in profiles:
        for d in (0, 1, 2):
            for power in (-2, 0, 1, 4, 9, 35, 50):
                try:
                    exact = integrate(p, WeightedSeminorm(d, power), CLOSED_FORM)
                except DivergentIntegralError:
                    continue
                if exact == 0.0:
                    continue
                got = integrate(p, WeightedSeminorm(d, power), PANELS)
                assert_allclose(got, exact, rtol=1e-10)


def test_kernel_terms_share_decays():
    # Terms with one rate share one exponential; the sum must not change.
    mix = MixtureProfile(
        (
            AnalyticProfile("gaussian", 0.9, 0.7),
            AnalyticProfile("monomial_cutoff", -0.4, 0.7, power=2.0),
            AnalyticProfile("monomial_cutoff", 0.3, 1.9, power=1.0),
            AnalyticProfile("gaussian", 0.5, 1.9),
            AnalyticProfile("gaussian", -0.2, 3.1),
        )
    )
    r = np.linspace(0.01, 6.0, 997)
    for d in (0, 1, 2):
        kt = mix.kernel_terms(d)
        assert len({b for _, _, b in kt.terms}) < len(kt.terms)
        by_term = sum(c * r**e * np.exp(-b * r * r) for c, e, b in kt.terms)
        got = kt(r)
        assert np.max(np.abs(got - by_term)) <= 1e-15 * np.max(np.abs(by_term))
        for power in (0, 1, 3):
            s = WeightedSeminorm(d, power)
            exact = integrate(mix, s, CLOSED_FORM)
            assert abs(integrate(mix, s, PANELS) - exact) < 1e-9 * abs(exact)


def test_small_integrals_keep_the_relative_tolerance():
    # A small integral (exactly 5e-25) is held to the relative tolerance:
    # the panel rule has no absolute floor.
    v = AnalyticProfile("monomial_cutoff", 1.0, 1e8, power=2.0)
    exact = integrate(v, WeightedSeminorm(1, 3), CLOSED_FORM)
    assert_allclose(exact, 5e-25, rtol=1e-13)
    assert_allclose(integrate(v, WeightedSeminorm(1, 3), PANELS), exact, rtol=1e-9)


def test_quadratic_scaling():
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    g3 = AnalyticProfile("gaussian", 3.0, 1.0)
    s = WeightedSeminorm(1, 2)
    for cfg in (CLOSED_FORM, PANELS):
        one = integrate(g, s, cfg)
        scaled = integrate(g3, s, cfg)
        assert_allclose(scaled, 9.0 * one, rtol=1e-12)


def test_monotone_in_r_max():
    def fn(r):  # r^4 |e^{-r^2}|^2
        return r**4 * np.exp(-2.0 * r * r)

    values = [panel_integrate(fn, r)[0] for r in (2.0, 4.0, 8.0, 12.0)]
    for small, big in zip(values, values[1:]):
        assert big >= small - 1e-12


def test_divergence_signals():
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    with pytest.raises(DivergentIntegralError):
        integrate(g, WeightedSeminorm(0, -1), CLOSED_FORM)
    with pytest.raises(DivergentIntegralError):
        integrate(g, WeightedSeminorm(0, -1), PANELS)
    # d=1 gains a factor r^2, so power -3 converges but -5 does not
    assert integrate(g, WeightedSeminorm(1, -1), CLOSED_FORM) > 0
    with pytest.raises(DivergentIntegralError):
        integrate(g, WeightedSeminorm(1, -3), CLOSED_FORM)


def test_sampled_profile_integration():
    grid = np.linspace(1e-3, 12, 4001)
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    p = SampledProfile(grid, np.exp(-grid**2))
    s = WeightedSeminorm(1, 3)
    exact = integrate(g, s, CLOSED_FORM)
    got = integrate(p, s, PANELS)  # rule is irrelevant for sampled data
    assert_allclose(got, exact, rtol=1e-6)


@pytest.mark.parametrize("spacing", ["uniform", "geometric"])
def test_sampled_integration_exact_on_cubic_data(spacing):
    # Data cubic in s = ln r is its own spline, and with p = 2d - 1 the
    # seminorm is ∫ |D_d q|^2 ds (D_1 = ∂_s, D_2 = ∂_ss - ∂_s), a degree-6
    # polynomial in s, which the sampled Gauss rule integrates exactly.
    grid = np.linspace(0.2, 5.0, 64) if spacing == "uniform" else np.geomspace(0.2, 5.0, 64)
    s = np.log(grid)
    q = np.polynomial.Polynomial([0.4, -1.1, 0.6, -0.07])
    p = SampledProfile(grid, q(s))
    for d, dq in enumerate((q, q.deriv(), q.deriv(2) - q.deriv())):
        exact = (dq**2).integ()
        want = exact(s[-1]) - exact(s[0])
        got = integrate(p, WeightedSeminorm(d, 2 * d - 1))
        assert_allclose(got, want, rtol=1e-12)


def test_panel_nodes_are_cached_read_only():
    nodes, weights = panel_nodes(7.5, 48, 24)
    again = panel_nodes(7.5, 48, 24)
    assert again[0] is nodes and again[1] is weights
    assert nodes.shape == weights.shape == (48 * 24,)
    with pytest.raises(ValueError):
        nodes[0] = 1.0
    with pytest.raises(ValueError):
        weights[0] = 1.0


def test_panel_squares_serve_every_power_bit_for_bit():
    # The panel rule evaluates |f^(d)|^2 of one set of kernel terms once per
    # node set and reads it for every power: the nine integrals of a mixture
    # are the same doubles taken d-major, p-major, or with the squares
    # evaluated anew for each one.
    mix = MixtureProfile((AnalyticProfile("monomial_cutoff", 0.7, 0.8, power=2.0),
                          AnalyticProfile("monomial_cutoff", -0.4, 1.3, power=2.0)))
    rows = [(d, p) for d in (0, 1, 2) for p in (1, 2, 4)]

    def integrals(order, fresh=False):
        out = {}
        for d, p in order:
            if fresh:
                quadrature._panel_squares.cache_clear()
            out[d, p] = integrate(mix, WeightedSeminorm(d, p), PANELS)
        return out

    quadrature._panel_squares.cache_clear()
    d_major = integrals(rows)
    assert quadrature._panel_squares.cache_info().misses == 3 * 2  # orders x point counts
    assert integrals(sorted(rows, key=lambda row: row[::-1])) == d_major
    assert integrals(rows, fresh=True) == d_major
    squares = quadrature._panel_squares(mix.kernel_terms(1), 12.0 / math.sqrt(0.8), 24)
    with pytest.raises(ValueError):
        squares[0] = 1.0


def test_closed_form_pair_terms_at_extreme_rates_match_mpmath():
    # One kernel term a r^e K(b) squares to a single pair term a^2 times the
    # Gamma moment at rate c = 2b. At these rates c^s leaves the float range,
    # so every term here is formed with its binary exponents split off.
    # The amplitude brings each term near 1; terms outside the normal range
    # are skipped. For integer q the power of two of c^-s is exact.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    worst = {True: 0.0, False: 0.0}
    for kernel, order in (("gauss", 2), ("exp", 1)):
        for rate in (1e250, 3.7e183, 2.9e-171, 1e-250):
            for e in (0.0, 0.3, 1.0, 1.75):
                for power in range(7):
                    q, c = 2 * e + power, 2.0 * rate
                    s = mpmath.mpf(q + 1) / order
                    exponent = float(s) * math.log10(c) / 2.0
                    a = 1.37 * 10.0 ** max(-300.0, min(300.0, exponent))
                    want = mpmath.mpf(a) ** 2 * mpmath.gamma(s) / (order * mpmath.mpf(c) ** s)
                    if not mpmath.mpf("1e-300") < want < mpmath.mpf("1e300"):
                        continue
                    kt = KernelTerms(kernel, ((a, e, rate),))
                    got = closed_form_weighted_square(kt, float(power))
                    integer = float(q).is_integer()
                    worst[integer] = max(worst[integer], float(abs(got - want) / want))
    assert worst[True] <= 2e-15
    assert worst[False] <= 2e-13


@pytest.mark.parametrize("rule", [PANELS])
def test_numerical_rules_reject_underflowed_squares(rule):
    # f'' of (1 + b r) e^{-b r} is of size b^2, so at b = 1e-100 its square
    # underflows at every node while the closed form is 7.5e-101: the rules
    # must not return the remaining terms as the integral.
    tiny = AnalyticProfile("hydrogen_second", 1.0, 1e-100)
    assert integrate(tiny, WeightedSeminorm(2, 2), CLOSED_FORM) > 0.0
    with pytest.raises(DegenerateProfileError):
        integrate(tiny, WeightedSeminorm(2, 2), rule)
    small = AnalyticProfile("hydrogen_second", 1.0, 1e-70)
    assert_allclose(integrate(small, WeightedSeminorm(2, 2), rule),
                    integrate(small, WeightedSeminorm(2, 2), CLOSED_FORM), rtol=1e-9)


@pytest.mark.parametrize("amplitude", [1e-200, 1e-160])
def test_every_rule_rejects_squares_below_the_normal_range(amplitude):
    # The coefficients of f'' are normal, but their squares underflow to 0
    # (1e-200) or to subnormals (1e-160): the closed form, like the panel
    # rule, must not return 0.0 or a subnormal as the integral.
    small = AnalyticProfile("gaussian", amplitude, 1.0)
    for rule in QuadratureRule:
        with pytest.raises(DegenerateProfileError):
            integrate(small, WeightedSeminorm(2, 2), rule)


def test_non_finite_kernel_coefficients_are_degenerate():
    # At amplitude 1e150 and rate 1e161 the coefficient a b overflows, and
    # differentiating turns inf - inf into nan.
    wide = AnalyticProfile("hydrogen_second", 1e150, 1e161)
    for rule in QuadratureRule:
        for d in (0, 1, 2):
            with pytest.raises(DegenerateProfileError):
                integrate(wide, WeightedSeminorm(d, 2), rule)


@pytest.mark.parametrize("rule", list(QuadratureRule))
def test_integrals_beyond_the_float_range_are_degenerate_without_warnings(rule):
    # At amplitude 1e200 every square overflows: the integral is inf, or nan
    # for f'' in closed form. That is a typed error, and no rule warns.
    huge = AnalyticProfile("gaussian", 1e200, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (0, 1, 2):
            with pytest.raises(DegenerateProfileError):
                integrate(huge, WeightedSeminorm(d, 2), rule)


def test_closed_form_requires_analytic():
    grid = np.linspace(0.1, 5, 64)
    p = SampledProfile(grid, np.exp(-grid))
    # sampled profiles integrate on their grid regardless of the rule
    assert integrate(p, WeightedSeminorm(0, 2), CLOSED_FORM) > 0


def test_config_validation_and_json():
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    with pytest.raises(UsageError):
        integrate(g, WeightedSeminorm(0, 2), "trapezoid")
    for rule in QuadratureRule:  # a rule's name stands for the rule
        assert integrate(g, WeightedSeminorm(1, 2), rule.value) == integrate(
            g, WeightedSeminorm(1, 2), rule)
