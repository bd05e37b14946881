import itertools
import json
import math
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import IDENTITY_GRID, gaussian_mixture, interior_profile
from upsharp.reports import render_json
from upsharp.errors import (
    DegenerateProfileError,
    FormUnavailableError,
    SingularWeightError,
    UpsharpError,
    UsageError,
)
from upsharp.profiles import (
    AnalyticProfile,
    SampledProfile,
    make_mode,
    shift_power,
    unreduce_profile,
)
from upsharp.quadrature import CLOSED_FORM, QuadratureRule, WeightedSeminorm, integrate
from upsharp.seminorms import (
    BOTH_FORMS,
    Form,
    FunctionalId,
    eval_mode_functional,
    full_space_value,
    hardy_1d_ratio,
    vector_equiv_check_2d,
)

PANELS = QuadratureRule.PANELS


def test_degree_zero_forms_coincide():
    g = AnalyticProfile("gaussian", 1.0, 0.8)
    mode = make_mode(3, 0)
    raw = eval_mode_functional(FunctionalId.GRAD_ENERGY, mode, g, Form.RAW, CLOSED_FORM)
    red = eval_mode_functional(FunctionalId.GRAD_ENERGY, mode, g, Form.REDUCED, CLOSED_FORM)
    assert_allclose(raw.value, red.value, rtol=1e-14)


def test_gaussian_laplacian_closed_value():
    # radial value of the squared-Laplacian energy for alpha e^{-beta r^2}:
    # 4 beta^2 (2 beta)^{-N/2} * (N(N+2)/4) * Gamma(N/2)/2
    for n in (1, 2, 3, 6, 9):
        beta = 1.7
        g = AnalyticProfile("gaussian", 1.0, beta)
        val = eval_mode_functional(
            FunctionalId.LAPLACIAN_ENERGY, make_mode(n, 0), g, Form.RAW, CLOSED_FORM
        ).value
        predicted = (
            4 * beta**2 * (2 * beta) ** (-n / 2) * (n * (n + 2) / 4) * math.gamma(n / 2) / 2
        )
        assert_allclose(val, predicted, rtol=1e-13)


def test_weighted_grad_raw_vs_reduced_degree_one():
    # u = r e^{-r^2} at degree 1; the raw assembly by panels, the reduced one
    # by the closed form
    mode = make_mode(3, 1)
    u = AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=1.0)
    v = AnalyticProfile("gaussian", 1.0, 1.0)
    raw = eval_mode_functional(FunctionalId.WEIGHTED_GRAD_ENERGY, mode, u, Form.RAW, PANELS)
    red = eval_mode_functional(FunctionalId.WEIGHTED_GRAD_ENERGY, mode, v, Form.REDUCED, CLOSED_FORM)
    assert abs(raw.value - red.value) / abs(red.value) < 1e-9


def test_identity_suite_small(rng):
    # Subset of the acceptance identity suite: raw and reduced assemblies agree.
    for n in (2, 5, 8):
        for k in (0, 2, 5):
            mode = make_mode(n, k)
            for _ in range(3):
                v = interior_profile(rng)
                u = unreduce_profile(mode, v)
                for fid in BOTH_FORMS:
                    raw = eval_mode_functional(fid, mode, u, Form.RAW).value
                    red = eval_mode_functional(fid, mode, v, Form.REDUCED).value
                    scale = max(abs(raw), abs(red))
                    if scale < 1e-13:
                        continue
                    assert abs(raw - red) / scale < 1e-8, (n, k, fid)


def test_terms_sum_to_value_and_nonnegative_totals(rng):
    mode = make_mode(4, 2)
    v = interior_profile(rng)
    for fid in BOTH_FORMS:
        mv = eval_mode_functional(fid, mode, v, Form.REDUCED)
        assert_allclose(mv.value, math.fsum(mv.terms.values()), rtol=1e-12)
        assert mv.value >= -1e-10 * sum(abs(t) for t in mv.terms.values())


def test_full_space_value_additivity_and_validation():
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    a = eval_mode_functional(FunctionalId.L2_NORM, make_mode(3, 0), g, Form.RAW, CLOSED_FORM)
    b = eval_mode_functional(FunctionalId.L2_NORM, make_mode(3, 2), g, Form.RAW, CLOSED_FORM)
    assert full_space_value([a]) == a.value
    assert_allclose(full_space_value([a, b]), a.value + b.value, rtol=1e-15)
    c = eval_mode_functional(FunctionalId.L2_NORM, make_mode(4, 0), g, Form.RAW, CLOSED_FORM)
    with pytest.raises(UsageError):
        full_space_value([a, c])  # mixed dimensions
    d = eval_mode_functional(FunctionalId.GRAD_ENERGY, make_mode(3, 0), g, Form.RAW, CLOSED_FORM)
    with pytest.raises(UsageError):
        full_space_value([a, d])  # mixed ids
    with pytest.raises(UsageError):
        full_space_value([])
    # The functional's and the form's names stand for them.
    named = eval_mode_functional("grad_energy", make_mode(3, 0), g, "raw", CLOSED_FORM)
    assert named == d


def test_full_space_grad_energy_against_2d_tensor_quadrature():
    # N=2 profile: constant mode g0 plus cos(theta) mode g1; oracle is a
    # 2-D tensor-product quadrature of |grad u|^2 in polar coordinates.
    beta0, beta1 = 0.9, 1.4
    g0 = AnalyticProfile("gaussian", 0.8, beta0)
    g1 = AnalyticProfile("monomial_cutoff", 0.5, beta1, power=1.0)

    # Orthonormal-coefficient convention: u = u0 phi0 + u1 phi1 with
    # phi0 = 1/sqrt(2 pi), phi1 = cos(theta)/sqrt(pi).
    u0 = g0.scaled(math.sqrt(2 * math.pi))
    u1 = shift_power(g1, 0.0).scaled(math.sqrt(math.pi))
    vals = [
        eval_mode_functional(FunctionalId.GRAD_ENERGY, make_mode(2, 0), u0, Form.RAW, CLOSED_FORM),
        eval_mode_functional(FunctionalId.GRAD_ENERGY, make_mode(2, 1), u1, Form.RAW, CLOSED_FORM),
    ]
    total = full_space_value(vals)

    from numpy.polynomial.legendre import leggauss

    xs, ws = leggauss(80)
    r = 6.0 * (xs + 1) / 2
    wr = 6.0 / 2 * ws
    theta = 2 * np.pi * np.arange(256) / 256
    wt = 2 * np.pi / 256
    c, s = np.cos(theta)[None, :], np.sin(theta)[None, :]
    f0 = np.asarray(g0.value(r))[:, None]
    f0p = np.asarray(g0.value(r, 1))[:, None]
    f1 = np.asarray(g1.value(r))[:, None]
    f1p = np.asarray(g1.value(r, 1))[:, None]
    u_r = f0p + f1p * c
    u_t = -f1 * s
    integrand = (u_r**2 + u_t**2 / r[:, None] ** 2) * r[:, None]
    oracle = float(wr @ integrand.sum(axis=1) * wt)
    assert abs(total - oracle) / oracle < 1e-7


def test_second_order_energies_ordering(rng):
    # In dimensions 3..8 the squared-Laplacian energy dominates the squared
    # radial-Laplacian energy; random multi-mode analytic profiles.
    for n in (3, 5, 8):
        for _ in range(5):
            degrees = sorted(rng.choice(np.arange(6), size=3, replace=False))
            lap_vals, rad_vals = [], []
            for k in degrees:
                u_k = gaussian_mixture(rng, degree=int(k))
                mode = make_mode(n, int(k))
                lap_vals.append(
                    eval_mode_functional(FunctionalId.LAPLACIAN_ENERGY, mode, u_k, Form.RAW, CLOSED_FORM)
                )
                rad_vals.append(
                    eval_mode_functional(
                        FunctionalId.RADIAL_LAPLACIAN_ENERGY, mode, u_k, Form.RAW, CLOSED_FORM
                    )
                )
            lap = full_space_value(lap_vals)
            rad = full_space_value(rad_vals)
            assert lap >= rad * (1 - 1e-9)


def test_hardy_ratio_example_and_scaling():
    mode = make_mode(4, 0)
    v = AnalyticProfile("gaussian", 1.0, 1.0)
    assert_allclose(hardy_1d_ratio(mode, v, CLOSED_FORM), 6.0, rtol=1e-13)
    scaled = AnalyticProfile("gaussian", -17.3, 1.0)
    assert_allclose(
        hardy_1d_ratio(mode, scaled, CLOSED_FORM),
        hardy_1d_ratio(mode, v, CLOSED_FORM),
        rtol=1e-12,
    )


def test_hardy_near_extremal_monotone_approach():
    mode = make_mode(3, 1)
    target = (3 + 2) ** 2 / 4
    ratios = []
    for eps in (0.4, 0.2, 0.1):
        v = AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=-(3 + 2) / 2 + eps)
        ratios.append(hardy_1d_ratio(mode, v, CLOSED_FORM))
    assert ratios[0] > ratios[1] > ratios[2] > target


def test_hardy_degenerate_profile():
    mode = make_mode(2, 0)
    v = AnalyticProfile("gaussian", 0.0, 1.0)
    with pytest.raises(DegenerateProfileError):
        hardy_1d_ratio(mode, v, CLOSED_FORM)
    # The quotient is amplitude-invariant, small amplitudes included.
    small = hardy_1d_ratio(mode, AnalyticProfile("gaussian", 1e-9, 1.0), CLOSED_FORM)
    one = hardy_1d_ratio(mode, AnalyticProfile("gaussian", 1.0, 1.0), CLOSED_FORM)
    assert_allclose(small, one, rtol=1e-13)


def test_hardy_ratio_out_of_float_range_is_degenerate():
    # The closed form reads 3.75 at every rate. On the panels r^4 overflows
    # at rate 1e-200 and the numerator underflows to 0 at 1e200: a typed
    # failure, without a floating-point warning.
    mode = make_mode(3, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rate in (1e-200, 1e200):
            v = AnalyticProfile("gaussian", 1.0, rate)
            assert hardy_1d_ratio(mode, v, CLOSED_FORM) == pytest.approx(3.75, rel=1e-14)
            with pytest.raises(DegenerateProfileError):
                hardy_1d_ratio(mode, v)
        for rate in (1e-100, 1e100):
            v = AnalyticProfile("gaussian", 1.0, rate)
            assert hardy_1d_ratio(mode, v) == pytest.approx(3.75, rel=1e-9)


def test_form_unavailable():
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    with pytest.raises(FormUnavailableError):
        eval_mode_functional(
            FunctionalId.RADIAL_LAPLACIAN_ENERGY, make_mode(3, 1), g, Form.REDUCED
        )


def test_singular_weight_detection_analytic():
    # u = r e^{-r^2} vanishes only to first order; its raw laplacian assembly
    # at N=2, k=1 carries individually divergent pieces.
    u = AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=1.0)
    with pytest.raises(SingularWeightError):
        eval_mode_functional(FunctionalId.LAPLACIAN_ENERGY, make_mode(2, 1), u, Form.RAW)


def test_singular_weight_detection_sampled():
    # Dimension 2: the degree-0 reduced Laplacian needs v'(0) = 0, the
    # degree-1 raw one u = r v with v(0) = 0. e^{-r} has slope -1 at the
    # origin and e^{-r^2} slope 0; r e^{-r^2} vanishes to first order only,
    # r^2 e^{-r} to second. Each on a linear and a geometric grid.
    cases = [
        (grid, degree, form, values, admissible)
        for grid in (np.linspace(1e-3, 10, 2000), np.geomspace(1e-3, 10, 2000))
        for degree, form, values, admissible in (
            (0, Form.REDUCED, np.exp(-grid), False),
            (0, Form.REDUCED, np.exp(-grid**2), True),
            (1, Form.RAW, grid * np.exp(-grid**2), False),
            (1, Form.RAW, grid**2 * np.exp(-grid), True),
        )
    ]
    for grid, degree, form, values, admissible in cases:
        profile, mode = SampledProfile(grid, values), make_mode(2, degree)
        if admissible:
            val = eval_mode_functional(FunctionalId.LAPLACIAN_ENERGY, mode, profile, form)
            assert val.value > 0
        else:
            with pytest.raises(SingularWeightError):
                eval_mode_functional(FunctionalId.LAPLACIAN_ENERGY, mode, profile, form)


@pytest.mark.parametrize("fid", [FunctionalId.LAPLACIAN_ENERGY,
                                 FunctionalId.RADIAL_LAPLACIAN_ENERGY])
def test_n2_degree_zero_raw_laplacians_need_a_flat_origin(fid):
    # At degree 0 and N = 2 the raw rows of both Laplacians are the reduced
    # Laplacian's, (1, 2, 1) and (1, 1, -1), so e^{-r}, with slope -1 at the
    # origin, is inadmissible in the raw form too; e^{-r^2} is not.
    grid = np.geomspace(1e-3, 12, 512)
    mode = make_mode(2, 0)
    with pytest.raises(SingularWeightError):
        eval_mode_functional(fid, mode, SampledProfile(grid, np.exp(-grid)), Form.RAW)
    assert eval_mode_functional(fid, mode, SampledProfile(grid, np.exp(-grid**2))).value > 0


@pytest.mark.parametrize("rule", list(QuadratureRule))
def test_mode_functional_whose_sum_overflows_is_degenerate(rule):
    # Both integrals of the raw gradient energy at (3, 20) are finite, but
    # its d0_p0 term, 420 times 6.3e305, overflows: the sum is not inf.
    huge = AnalyticProfile("gaussian", 1e153, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateProfileError):
            eval_mode_functional(FunctionalId.GRAD_ENERGY, make_mode(3, 20), huge, Form.RAW, rule)


def test_full_space_sum_beyond_the_float_range_is_degenerate():
    # Each mode value is 9.025e307, and their exact sum is beyond the float
    # range, where math.fsum raises OverflowError.
    g = AnalyticProfile("gaussian", 1.9e154, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [eval_mode_functional(FunctionalId.L2_NORM, make_mode(2, k), g, Form.RAW,
                                       CLOSED_FORM) for k in (0, 1)]
        assert [mv.value for mv in values] == pytest.approx([9.025e307] * 2)
        with pytest.raises(DegenerateProfileError):
            full_space_value(values)


def test_every_mode_functional_is_a_positive_normal_double_or_a_typed_error():
    # Every form the term table defines, at both ends of the float range and
    # in between, by both rules: a value is a positive normal double and
    # anything else an UpsharpError, without a floating-point warning.
    forms = [(fid, Form.RAW) for fid in FunctionalId] + [(fid, Form.REDUCED) for fid in BOTH_FORMS]
    unit_failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, k in ((2, 0), (2, 1), (3, 0), (3, 20)):
            mode = make_mode(n, k)
            for (fid, form), amplitude, rule in itertools.product(
                forms, (1e-200, 1e-160, 1.0, 1e153, 1e200), QuadratureRule
            ):
                profile = AnalyticProfile("gaussian", amplitude, 1.0)
                try:
                    value = eval_mode_functional(fid, mode, profile, form, rule).value
                except UpsharpError:
                    if amplitude == 1.0 and form is Form.REDUCED:
                        unit_failures.append((fid, mode, rule))
                    continue
                assert sys.float_info.min <= value < math.inf, (fid, form, mode, amplitude, rule)
    # The reduced forms of a unit Gaussian all have values.
    assert not unit_failures


def test_mode_functional_beyond_the_float_range_is_degenerate():
    # The inf of an overflowing integral is not passed on as a value.
    huge = AnalyticProfile("gaussian", 1e200, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateProfileError):
            eval_mode_functional(FunctionalId.LAPLACIAN_ENERGY, make_mode(3, 0), huge,
                                 Form.REDUCED, CLOSED_FORM)


def test_vector_equiv_beyond_the_float_range_is_degenerate():
    huge = AnalyticProfile("gaussian", 1e200, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateProfileError):
            vector_equiv_check_2d(huge)


def test_raw_lead_check_at_an_underflowing_grid_start_warns_nothing():
    # r_0^2 = 1e-400 underflows to 0: the profile does not vanish to the
    # mode order there, and that is said without a division warning first.
    grid = np.geomspace(1e-200, 10, 64)
    profile = SampledProfile(grid, np.exp(-grid**2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularWeightError):
            eval_mode_functional(FunctionalId.GRAD_ENERGY, make_mode(3, 2), profile, Form.RAW)


def test_vector_equiv_2d():
    lhs, rhs = vector_equiv_check_2d(AnalyticProfile("gaussian", 1.0, 1.0), 0)
    assert abs(lhs - rhs) / rhs < 1e-6
    lhs, rhs = vector_equiv_check_2d(
        AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=1.0), 1
    )
    assert abs(lhs - rhs) / rhs < 1e-6
    lhs, rhs = vector_equiv_check_2d(AnalyticProfile("gaussian", 0.0, 1.0), 0)
    assert lhs == 0.0 and rhs == 0.0


@pytest.mark.parametrize("radial", [
    AnalyticProfile("gaussian", 1e-200, 1.0),
    AnalyticProfile("monomial_cutoff", 1e-200, 1.0, power=1.0),
])
def test_vector_equiv_2d_of_underflowed_profile_is_degenerate(radial):
    # A nonzero profile whose squares underflow has no meaningful energies:
    # (0.0, 0.0) would make the relative error 0/0.
    degree = int(radial.power)
    with pytest.raises(DegenerateProfileError):
        vector_equiv_check_2d(radial, degree)


def test_vector_equiv_degree_zero_rhs_is_the_raw_laplacian():
    # At degree 0 the reduced Laplacian rows are the raw rows, so the one
    # reduced route gives exactly 2 pi times the raw functional; r^0 leaves
    # an exponential-kernel profile as it is.
    mode = make_mode(2, 0)
    for radial in (AnalyticProfile("gaussian", 1.3, 0.7),
                   gaussian_mixture(np.random.default_rng(3)),
                   AnalyticProfile("hydrogen_second", 1.0, 1.0)):
        raw = eval_mode_functional(
            FunctionalId.LAPLACIAN_ENERGY, mode, radial, Form.RAW, CLOSED_FORM
        )
        _, rhs = vector_equiv_check_2d(radial, 0)
        assert rhs == 2.0 * np.pi * raw.value
    with pytest.raises(UsageError):
        vector_equiv_check_2d(AnalyticProfile("gaussian", 1.0, 1.0), -1)


def test_polar_frame_hessian_gives_the_cartesian_frobenius_norm():
    # The three polar-frame Hessian entries that vector_equiv_check_2d
    # integrates, the off-diagonal one twice, square to
    # u_xx^2 + u_yy^2 + 2 u_xy^2 of u = f(r) cos kθ: cos kθ = T_k(x/r) and
    # sin kθ = (y/r) U_{k-1}(x/r), with f, f', f'' at r free symbols.
    import sympy

    x, y = sympy.symbols("x y", positive=True)
    f0, f1, f2 = derivs = sympy.symbols("f0:3")
    f = sympy.Function("f")
    r = sympy.sqrt(x**2 + y**2)
    for k in range(4):
        cos_k = sympy.chebyshevt(k, x / r)
        sin_k = y / r * sympy.chebyshevu(k - 1, x / r) if k else 0
        u = f(r) * cos_k
        cartesian = sympy.diff(u, x, 2) ** 2 + sympy.diff(u, y, 2) ** 2 + 2 * sympy.diff(u, x, y) ** 2
        cartesian = cartesian.subs(
            {d: derivs[d.expr.derivative_count] for d in cartesian.atoms(sympy.Subs)}
        ).subs(f(r), f0)
        polar = (
            (f2 * cos_k) ** 2
            + 2 * (k * (f1 / r - f0 / r**2) * sin_k) ** 2
            + ((f1 / r - k**2 * f0 / r**2) * cos_k) ** 2
        )
        assert sympy.expand(sympy.together(cartesian - polar)) == 0, k


def test_mode_functional_json():
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    mv = eval_mode_functional(FunctionalId.GRAD_ENERGY, make_mode(3, 0), g, Form.RAW, CLOSED_FORM)
    blob = json.loads(render_json(mv))
    assert blob["mode"] == {"N": 3, "k": 0}
    assert blob["id"] == "grad_energy"
    assert set(blob) == {"mode", "id", "form", "terms", "value"}
    assert_allclose(sum(blob["terms"].values()), blob["value"], rtol=1e-12)


def test_unknown_functional_or_form_name_is_a_usage_error():
    mode, profile = make_mode(3, 0), AnalyticProfile("gaussian", 1.0, 1.0)
    with pytest.raises(UsageError, match="'x' is not a valid FunctionalId"):
        eval_mode_functional("x", mode, profile)
    with pytest.raises(UsageError, match="'x' is not a valid Form"):
        eval_mode_functional("l2_norm", mode, profile, form="x")
