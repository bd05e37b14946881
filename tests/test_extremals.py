import json
import math

import pytest
from numpy.testing import assert_allclose

from upsharp.cli import main
from upsharp.constants import CONJECTURAL, PROVED
from upsharp.errors import DegenerateProfileError, QuadratureConvergenceError, UsageError
from upsharp.extremals import (
    extremal_quotient,
    n1_quotient_check,
    sphere_area,
)
from upsharp.profiles import AnalyticProfile, MixtureProfile
from upsharp.quadrature import WeightedSeminorm, integrate
from upsharp.reports import render_json

BETAS = (0.25, 1.0, 4.0)


def test_hup2_gaussian_closed_form_exact():
    for n in range(1, 11):
        for beta in BETAS:
            rep = extremal_quotient("hup2", n, beta)
            assert rep.family == "gaussian"
            assert rep.rel_gap < 1e-12
            assert_allclose(rep.quotient, (n + 2) ** 2 / 4, rtol=1e-12)


def test_hyup2_hydrogen_closed_form_exact():
    for n in range(5, 11):
        rep = extremal_quotient("hyup2", n, 1.0)
        assert rep.family == "hydrogen_second"
        assert rep.rel_gap < 1e-12
        assert rep.status == PROVED
        assert_allclose(rep.quotient, (n + 1) ** 2 / 4, rtol=1e-12)


def test_first_order_baselines():
    rep = extremal_quotient("hup", 1, 2.0)
    assert_allclose(rep.quotient, 0.25, rtol=1e-12)  # N^2/4 at N=1
    for n in (2, 3, 7):
        assert_allclose(extremal_quotient("hup", n, 0.5).quotient, n * n / 4, rtol=1e-12)
    for n in (2, 3, 7):
        assert_allclose(
            extremal_quotient("hyup", n, 1.3).quotient, (n - 1) ** 2 / 4, rtol=1e-12
        )


def test_radial_variants():
    rep = extremal_quotient("hup2_radial", 4, 2.0)
    assert_allclose(rep.quotient, 9.0, rtol=1e-12)
    assert "degree-0" in rep.note
    rep = extremal_quotient("hyup2_radial", 2, 1.0)
    assert_allclose(rep.quotient, 2.25, rtol=1e-12)
    assert rep.status == PROVED
    assert "degree-0" in rep.note
    assert extremal_quotient("hup2", 3, 1.0).note == ""


def test_beta_and_amplitude_invariance():
    values = [extremal_quotient("hup2", 3, beta).quotient for beta in BETAS]
    assert max(values) - min(values) < 1e-12 * values[0]
    a1 = extremal_quotient("hyup2", 6, 1.0, amplitude=1.0).quotient
    a2 = extremal_quotient("hyup2", 6, 1.0, amplitude=-7.5).quotient
    assert_allclose(a1, a2, rtol=1e-13)


def test_quadrature_mode_agreement():
    for principle, dims in (
        ("hup2", range(1, 11)),
        ("hyup2", range(5, 11)),
        ("hyup2_radial", range(2, 11)),
        ("hup", range(1, 11)),
        ("hyup", range(2, 11)),
    ):
        for n in dims:
            closed = extremal_quotient(principle, n, 1.0, "closed_form").quotient
            quad = extremal_quotient(principle, n, 1.0, "quadrature").quotient
            assert abs(closed - quad) / closed < 1e-9, (principle, n)


def test_quadrature_mode_reports_unresolved_integrals():
    # ∫ r^-0.9 e^{-2r^2} = 9.40 converges, but its origin singularity is too
    # strong for the default panels: the refinement estimate reads 4.4e-4.
    u = AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=-0.45)
    with pytest.raises(QuadratureConvergenceError):
        integrate(u, WeightedSeminorm(0, 0))


@pytest.mark.parametrize("mode", ["closed_form", "quadrature"])
def test_coefficients_out_of_float_range_are_degenerate(mode):
    # The hydrogen coefficient amplitude * rate overflows to inf, and its
    # derivatives carry inf - inf = nan: a typed failure, not a math domain
    # error from a Gamma moment of a nan order.
    with pytest.raises(DegenerateProfileError):
        extremal_quotient("hyup2", 2, 1e161, mode=mode, amplitude=1e150)


def test_moments_below_the_normal_range_are_degenerate():
    # At rate 1e161 the weighted L2 moment of the Gaussian is 1.25e-323, a
    # subnormal with two significant bits, so its quotient means nothing.
    with pytest.raises(DegenerateProfileError):
        extremal_quotient("hup", 2, 1e161)


def test_n1_quotient():
    g = AnalyticProfile("gaussian", 1.0, 2.0)
    assert_allclose(n1_quotient_check(g), 2.25, rtol=1e-12)
    dilated = AnalyticProfile("gaussian", 1.0, 8.0)
    assert_allclose(n1_quotient_check(dilated), n1_quotient_check(g), rtol=1e-12)
    mixture = MixtureProfile(
        (
            AnalyticProfile("monomial_cutoff", 0.8, 0.7, power=2.0),
            AnalyticProfile("gaussian", -0.2, 1.3),
        )
    )
    assert n1_quotient_check(mixture) >= 2.25 - 1e-3
    with pytest.raises(UsageError):
        n1_quotient_check(AnalyticProfile("exponential", 1.0, 1.0))
    with pytest.raises(UsageError):
        n1_quotient_check(AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=1.0))


@pytest.mark.parametrize("amplitude,rate", [(0.0, 1.0), (1e-200, 1.0), (1e200, 1.0), (1.0, 1e-200)])
def test_n1_quotient_out_of_float_range_is_degenerate(amplitude, rate):
    # The zero profile has no quotient; at amplitude 1e-200 the moments
    # underflow and at 1e200 they overflow; at rate 1e-200 the 4 b^2 r^2 term
    # of f'' underflows, and without it the quotient reads 3, not 9/4.
    with pytest.raises(DegenerateProfileError):
        n1_quotient_check(AnalyticProfile("gaussian", amplitude, rate))


def test_baseline_ordering():
    for n in range(1, 11):
        ratio = (
            extremal_quotient("hup2", n, 1.0).quotient
            / extremal_quotient("hup", n, 1.0).quotient
        )
        assert_allclose(ratio, (n + 2) ** 2 / n**2, rtol=1e-11)


def test_conjectural_labels():
    for n in (2, 3, 4):
        rep = extremal_quotient("hyup2", n, 1.0)
        assert rep.status == CONJECTURAL
        assert "conjectural" in rep.note
        assert_allclose(rep.quotient, (n + 1) ** 2 / 4, rtol=1e-12)


def test_report_consistency_and_serialization(capsys):
    rep = extremal_quotient("hup2", 3, 1.0)
    a, b = rep.numerator_terms.values()
    assert_allclose(rep.quotient, a * b / rep.denominator**2, rtol=1e-12)
    blob = json.loads(render_json(rep))
    assert blob["principle"] == "hup2"
    assert blob["sphere_factor"] == pytest.approx(sphere_area(3))
    assert main(["verify", "hup2", "--n", "3", "--beta", "1", "--mode", "closed_form",
                 "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("hup2,3,1.0,")
    assert row.split(",")[3:] == [repr(rep.quotient), repr(rep.predicted), repr(rep.rel_gap)]


def test_rejections():
    with pytest.raises(UsageError):
        extremal_quotient("hyup2", 1, 1.0)
    with pytest.raises(UsageError):
        extremal_quotient("hyup", 1, 1.0)
    with pytest.raises(UsageError):
        extremal_quotient("hup2", 3, -1.0)
    with pytest.raises(UsageError):
        extremal_quotient("hup2", 3, 1.0, mode="montecarlo")


@pytest.mark.parametrize("bad", [2.7, 3.0, True])
def test_non_integer_dimension_is_a_usage_error(bad):
    with pytest.raises(UsageError, match="must be an integer"):
        extremal_quotient("hup2", bad)


def test_sphere_area_values():
    assert_allclose(sphere_area(1), 2.0, rtol=1e-14)
    assert_allclose(sphere_area(2), 2 * math.pi, rtol=1e-14)
    assert_allclose(sphere_area(3), 4 * math.pi, rtol=1e-14)


def test_unknown_principle_name_is_a_usage_error():
    with pytest.raises(UsageError, match="'x' is not a valid PrincipleId"):
        extremal_quotient("x", 3)
