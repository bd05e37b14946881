import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from upsharp import profiles
from upsharp.errors import DegenerateProfileError, UsageError
from upsharp.profiles import (
    SAMPLED_POINTS,
    AnalyticProfile,
    MixtureProfile,
    SampledProfile,
    _grid_rule,
    eval_profile,
    make_mode,
    profile_from_json,
    profile_to_json,
    reduce_profile,
    shift_power,
    unreduce_profile,
)
from upsharp.quadrature import WeightedSeminorm, integrate

from conftest import IDENTITY_GRID


def test_mode_eigenvalues():
    assert make_mode(3, 2).eigenvalue == 6
    assert make_mode(5, 0).eigenvalue == 0
    assert make_mode(2, 4).eigenvalue == 16  # k(k+N-2) = 4*4
    assert make_mode(1, 0).eigenvalue == 0


@pytest.mark.parametrize("dim,deg", [(0, 0), (2, -1), (1, 1), (-3, 2)])
def test_mode_rejects(dim, deg):
    with pytest.raises(UsageError):
        make_mode(dim, deg)


@pytest.mark.parametrize("dim,deg", [(True, False), (3, True), (2.0, 0), (3, 1.5), (3, "1")])
def test_mode_needs_integer_dimension_and_degree(dim, deg):
    with pytest.raises(UsageError, match="must be an integer"):
        make_mode(dim, deg)
    assert make_mode(np.int64(3), np.int8(1)) == make_mode(3, 1)


def test_gaussian_value():
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    assert_allclose(eval_profile(g, 0.5), math.exp(-0.25), rtol=1e-15)


def test_hydrogen_second_derivative_against_symbolic():
    # Symbolic oracle for d/dr (1+r)e^{-r}; frozen value -e^{-1} at r=1.
    import sympy

    r = sympy.symbols("r", positive=True)
    expr = (1 + r) * sympy.exp(-r)
    d1 = sympy.lambdify(r, sympy.diff(expr, r))
    d2 = sympy.lambdify(r, sympy.diff(expr, r, 2))
    h = AnalyticProfile("hydrogen_second", 1.0, 1.0)
    assert_allclose(eval_profile(h, 1.0, 1), -math.exp(-1.0), rtol=1e-14)
    for rv in (0.3, 1.0, 2.7):
        assert_allclose(eval_profile(h, rv, 1), d1(rv), rtol=1e-13)
        assert_allclose(eval_profile(h, rv, 2), d2(rv), rtol=1e-13)


def test_zero_amplitude_profile():
    z = AnalyticProfile("exponential", 0.0, 2.0)
    r = np.linspace(0.1, 5, 17)
    assert np.all(eval_profile(z, r) == 0.0)
    assert np.all(eval_profile(z, r, 2) == 0.0)


@pytest.mark.parametrize(
    "profile",
    [
        AnalyticProfile("gaussian", 0.7, 1.3),
        AnalyticProfile("exponential", -1.1, 0.8),
        AnalyticProfile("hydrogen_second", 2.0, 1.7),
        AnalyticProfile("monomial_cutoff", 1.0, 0.9, power=2.5),
        MixtureProfile(
            (
                AnalyticProfile("gaussian", 1.0, 0.6),
                AnalyticProfile("monomial_cutoff", -0.4, 1.4, power=2.0),
            )
        ),
    ],
)
def test_derivative_formulas_match_finite_differences(profile, rng):
    # relative error < 1e-6 at step 1e-5, 100 random radii in (0.1, 10)
    radii = rng.uniform(0.1, 10.0, 100)
    step = 1e-5
    for d in (1, 2):
        exact = np.asarray(eval_profile(profile, radii, d))
        lo = np.asarray(eval_profile(profile, radii - step, d - 1))
        hi = np.asarray(eval_profile(profile, radii + step, d - 1))
        fd = (hi - lo) / (2 * step)
        scale = np.maximum(np.abs(exact), 1e-8 * np.max(np.abs(exact)))
        assert np.max(np.abs(fd - exact) / scale) < 1e-6


def test_eval_rejects_bad_inputs():
    g = AnalyticProfile("gaussian", 1.0, 1.0)
    with pytest.raises(UsageError):
        eval_profile(g, -1.0)
    with pytest.raises(UsageError):
        eval_profile(g, 0.0)
    with pytest.raises(UsageError):
        eval_profile(g, 1.0, 3)
    with pytest.raises(UsageError):
        AnalyticProfile("gaussian", 1.0, -2.0)
    with pytest.raises(UsageError):
        AnalyticProfile("no_such_family", 1.0, 1.0)


@pytest.mark.parametrize("spacing", ["uniform", "geometric"])
def test_sampled_polynomial_differentiation_exact(spacing):
    # The not-a-knot spline in s = ln r reproduces a cubic in s, so its node
    # derivatives are exact: r f' = q'(s) and r^2 f'' = q''(s) - q'(s).
    grid = np.linspace(0.5, 6.0, 101) if spacing == "uniform" else np.geomspace(0.5, 6.0, 101)
    q = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.05])
    s = np.log(grid)
    p = SampledProfile(grid, q(s))
    exact = {1: q.deriv(1)(s) / grid, 2: (q.deriv(2)(s) - q.deriv(1)(s)) / grid**2}
    for d in (1, 2):
        got = p.derivative_values(d)
        assert np.max(np.abs(got - exact[d])) / np.max(np.abs(exact[d])) < 1e-10


def test_sampled_validation():
    grid = np.linspace(0.1, 5, 64)
    with pytest.raises(UsageError):
        SampledProfile(grid[:4], np.ones(4))  # too few nodes
    with pytest.raises(UsageError):
        SampledProfile(np.linspace(0.0, 5, 64), np.ones(64))  # starts at 0
    with pytest.raises(UsageError):
        SampledProfile(grid[::-1], np.ones(64))  # decreasing
    with pytest.raises(UsageError):
        SampledProfile(grid, np.full(64, np.nan))
    nan_node = grid.copy()
    nan_node[10] = np.nan
    with pytest.raises(UsageError):
        SampledProfile(nan_node, np.ones(64))
    inf_last = grid.copy()
    inf_last[-1] = np.inf
    with pytest.raises(UsageError):
        SampledProfile(inf_last, np.ones(64))


def test_sampled_outside_grid_is_zero():
    grid = np.linspace(0.5, 5, 64)
    p = SampledProfile(grid, np.ones(64))
    assert eval_profile(p, 6.0) == 0.0
    assert eval_profile(p, 0.2) == 0.0


def test_sampled_immutable():
    grid = np.linspace(0.5, 5, 64)
    p = SampledProfile(grid, np.ones(64))
    with pytest.raises(ValueError):
        p.values[0] = 3.0
    with pytest.raises(ValueError):
        p.grid[0] = 0.7


def test_sampled_copies_caller_arrays():
    grid = np.linspace(0.5, 5, 64)
    values = np.exp(-grid)
    kept_grid, kept_values = grid.copy(), values.copy()
    p = SampledProfile(grid, values)
    assert grid.flags.writeable and values.flags.writeable
    grid[3] = 9.0
    values[3] = 7.0
    assert np.array_equal(p.grid, kept_grid) and np.array_equal(p.values, kept_values)


def _oracle_grid(spacing, size, rng):
    if spacing == "uniform":
        return np.linspace(0.05, 6.0, size)
    if spacing == "geometric":
        return np.geomspace(0.05, 6.0, size)
    h = 5.95 / (size - 1)
    return np.linspace(0.05, 6.0, size) + rng.uniform(-0.3, 0.3, size) * h


def _log_spline_orders(cs, s):
    """D_0, D_1 and D_2 = ∂_ss - ∂_s of the spline cs in s at s."""
    d1 = cs(s, 1)
    return cs(s), d1, cs(s, 2) - d1


@pytest.mark.parametrize("size", [8, 101, 4096])
@pytest.mark.parametrize("spacing", ["uniform", "geometric", "jittered"])
def test_sampled_matches_cubic_spline(spacing, size, rng):
    # scipy's not-a-knot CubicSpline in s = ln r is the reference, with the
    # chain rule r f' = v_s and r^2 f'' = v_ss - v_s: node derivatives, values
    # anywhere and the 4-point Gauss integrals in s of every seminorm.
    grid = _oracle_grid(spacing, size, rng)
    values = np.exp(-grid) * np.sin(3.0 * grid) + 0.1 * rng.standard_normal(size)
    s = np.log(grid)
    p, cs = SampledProfile(grid, values), CubicSpline(s, values)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def in_r(radii):
        orders = _log_spline_orders(cs, np.log(radii))
        return [orders[d] / radii**d for d in (0, 1, 2)]

    radii = rng.uniform(grid[0], grid[-1], 500)
    xi, om = np.polynomial.legendre.leggauss(SAMPLED_POINTS)
    mid, half = 0.5 * (s[1:] + s[:-1]), 0.5 * np.diff(s)
    sq = (mid[:, None] + half[:, None] * xi).ravel()
    w = (half[:, None] * om).ravel()
    orders = _log_spline_orders(cs, sq)
    for d in (0, 1, 2):
        assert close(p.derivative_values(d), in_r(grid)[d])
        assert close(p.value(radii, d), in_r(radii)[d])
        squares = w * orders[d] ** 2
        for power in range(-5, 22):
            want = math.fsum(squares * np.exp(sq) ** (power + 1 - 2 * d))
            got = integrate(p, WeightedSeminorm(d, power))
            assert abs(got - want) <= 1e-12 * want


def _not_a_knot_system(grid, values):
    """The tridiagonal not-a-knot system in the node slopes in s = ln r, end
    rows included, as (upper, diagonal, lower) rows of band storage and its
    right-hand side: the system ``CubicSpline`` solves."""
    s = np.log(grid)
    h, n = np.diff(s), len(grid)
    d0, d1 = s[2] - s[0], s[-1] - s[-3]
    slope = np.diff(values) / h
    band, b = np.zeros((3, n)), np.empty(n)
    band[1, 0], band[0, 1] = h[1], d0
    band[2, :-2], band[1, 1:-1], band[0, 2:] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    band[2, -2], band[1, -1] = d1, h[-2]
    b[0] = ((h[0] + 2 * d0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d0
    b[1:-1] = 3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    b[-1] = (h[-1] ** 2 * slope[-2] + (2 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
    return band, b


def _alternating_grid(first: float, second: float, size: int) -> np.ndarray:
    """A grid whose steps in s alternate between ``first`` and ``second``."""
    steps = np.where(np.arange(size - 1) % 2, second, first)
    return np.exp(np.concatenate([[0.0], np.cumsum(steps)]) - 4.0)


@pytest.mark.parametrize("name", ["identity", "geometric", "jittered", "alternating"])
def test_pivot_free_slopes_match_the_pivoted_solve(name, rng):
    # The end rows eliminated and the interior symmetrised, the system is
    # positive definite (a positive pivot at every step of the factorization,
    # LAPACK pttrf's info 0) on every grid, the one whose neighbouring steps
    # in s differ 125-fold included (short steps at its ends; after a long
    # end step the end slopes are ill-conditioned, see the next test). Its
    # slopes agree with the whole system's solve by LU with row interchanges
    # (LAPACK gbsv) to 1e-14 of the largest.
    grid = {
        "identity": IDENTITY_GRID,
        "geometric": np.geomspace(1e-3, 24.0, 512),
        "jittered": _oracle_grid("jittered", 8, rng),
        "alternating": _alternating_grid(0.002, 0.25, 64),
    }[name]
    steps = np.diff(np.log(grid))
    if name == "alternating":
        assert np.min(np.maximum(steps[1:] / steps[:-1], steps[:-1] / steps[1:])) >= 100.0
    assert np.all(_grid_rule(grid.tobytes())._factor[0] > 0.0)
    for _ in range(5):
        values = np.exp(-grid) * np.sin(3.0 * grid) + 0.1 * rng.standard_normal(grid.size)
        want = solve_banded((1, 1), *_not_a_knot_system(grid, values))
        got = SampledProfile(grid, values)._slopes
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_end_slopes_after_a_long_end_step_are_as_exact_as_the_pivoted_solve(rng):
    # Where an end step is 125 times its neighbour, the end row
    # h_1 m_0 + (h_0 + h_1) m_1 = b_0 gives m_0 from m_1 with the factor
    # (h_0 + h_1) / h_1 = 126: the end slopes are that ill-conditioned for
    # any solver. Against the exact solution of the same system (mpmath, 40
    # digits) the pivot-free slopes are as close as the pivoted ones.
    mpmath = pytest.importorskip("mpmath")
    grid = _alternating_grid(0.25, 0.002, 16)
    for _ in range(3):
        values = np.exp(-grid) * np.sin(3.0 * grid) + 0.1 * rng.standard_normal(grid.size)
        band, b = _not_a_knot_system(grid, values)
        dense = np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)
        with mpmath.workdps(40):
            exact = np.array(mpmath.lu_solve(mpmath.matrix(dense), mpmath.matrix(b)).tolist(),
                             dtype=float).ravel()
        scale = np.max(np.abs(exact))
        pivoted = np.max(np.abs(solve_banded((1, 1), band, b) - exact)) / scale
        got = np.max(np.abs(SampledProfile(grid, values)._slopes - exact)) / scale
        assert got <= max(3.0 * pivoted, 1e-15)


def test_sampled_cubic_integrals_match_exact_polynomial_integrals():
    # The not-a-knot spline in s = ln r reproduces a cubic q(s), and
    # ∫ r^(2d-1) |f^(d)|^2 dr = ∫ |D_d q|^2 ds is the integral of a degree-6
    # polynomial in s, which 4-point Gauss integrates exactly.
    grid = np.geomspace(0.05, 4.0, 257)
    s = np.log(grid)
    q = np.polynomial.Polynomial([-0.8, 1.7, 0.45, -0.3])
    p = SampledProfile(grid, q(s))
    for d, dq in enumerate((q, q.deriv(), q.deriv(2) - q.deriv())):
        antiderivative = (dq**2).integ()
        want = antiderivative(s[-1]) - antiderivative(s[0])
        got = integrate(p, WeightedSeminorm(d, 2 * d - 1))
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("spacing", ["uniform", "geometric"])
def test_gauss_squares_match_point_values(spacing):
    # Squares from the Hermite product against scipy's CubicSpline in s, at
    # the Gauss nodes in s built here: one row per Gauss point, one column per
    # interval, with the largest square of each order beside them.
    grid = np.linspace(0.5, 6.0, 64) if spacing == "uniform" else np.geomspace(0.5, 6.0, 64)
    values = np.exp(-grid) * np.cos(2.0 * grid)
    s = np.log(grid)
    p, cs = SampledProfile(grid, values), CubicSpline(s, values)
    xi, _ = np.polynomial.legendre.leggauss(SAMPLED_POINTS)
    mid, half = 0.5 * (s[1:] + s[:-1]), 0.5 * np.diff(s)
    nodes = mid + half * xi[:, None]
    squares, peaks = p._rule.squares(p.values, p._slopes)
    for d, order in enumerate(_log_spline_orders(cs, nodes)):
        want = order**2
        assert squares[d].shape == nodes.shape
        assert np.max(np.abs(squares[d] - want)) <= 1e-13 * np.max(want)
        assert peaks[d] == squares[d].max()


def test_gauss_squares_rejects_bad_order_after_caching():
    grid = np.linspace(0.5, 5, 64)
    p = SampledProfile(grid, np.exp(-grid))
    with pytest.raises(UsageError):
        p.integral(3, 0)
    p.integral(1, 0)
    for bad in (3, -1):
        with pytest.raises(UsageError):
            p.integral(bad, 0)


def test_grid_rule_is_shared_by_contents():
    grid = np.linspace(0.5, 5, 64)
    a = SampledProfile(grid, np.ones(64))
    b = SampledProfile(np.linspace(0.5, 5, 64), np.exp(-grid))
    assert a._rule is b._rule
    moved = grid.copy()
    moved[20] = np.nextafter(moved[20], np.inf)
    c = SampledProfile(moved, np.ones(64))
    assert c._rule is not a._rule
    assert c.grid[20] != a.grid[20]
    maxsize = _grid_rule.cache_info().maxsize
    for i in range(maxsize + 5):
        SampledProfile(np.linspace(0.5, 5.0 + i, 64), np.ones(64))
    assert _grid_rule.cache_info().currsize <= maxsize


def test_reduce_unreduce_identity_and_roundtrip(rng):
    grid = np.linspace(0.05, 8, 256)
    values = rng.standard_normal(grid.size)
    p = SampledProfile(grid, values)
    m0 = make_mode(4, 0)
    assert reduce_profile(m0, p) is p  # degree 0 is the identity map

    m2 = make_mode(4, 2)
    u = SampledProfile(grid, grid**2)
    v = reduce_profile(m2, u)
    assert_allclose(v.values, 1.0, rtol=1e-14)

    q = SampledProfile(grid, values)
    rt = reduce_profile(m2, unreduce_profile(m2, q))
    err = np.abs(rt.values - q.values) / np.maximum(np.abs(q.values), 1e-300)
    assert np.max(err) < 1e-12


def test_derived_profiles_share_their_parents_rule(rng, monkeypatch):
    # reduce_profile and unreduce_profile build on the parent's grid rule,
    # without looking the grid up again, with the values and slopes a
    # profile built from the grid would have.
    grid = np.linspace(0.05, 8, 256)
    q = SampledProfile(grid, rng.standard_normal(grid.size))
    mode = make_mode(4, 2)
    lookups = []
    monkeypatch.setattr(profiles, "_grid_rule", lambda key: lookups.append(key))
    derived_profiles = (reduce_profile(mode, q), unreduce_profile(mode, q))
    assert lookups == []
    monkeypatch.undo()
    for derived in derived_profiles:
        assert derived._rule is q._rule
        fresh = SampledProfile(grid, derived.values)
        assert derived.values.tobytes() == fresh.values.tobytes()
        assert derived._slopes.tobytes() == fresh._slopes.tobytes()
        assert not derived.values.flags.writeable and not derived._slopes.flags.writeable


def test_reduce_profile_out_of_the_float_range_is_a_usage_error():
    # r_0^2 = 1e-400 underflows to 0, so v = u / r^2 is not finite there.
    u = SampledProfile(np.geomspace(1e-200, 10, 64), np.ones(64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError):
            reduce_profile(make_mode(3, 2), u)


def test_unreduce_profile_out_of_the_float_range_is_a_usage_error():
    # r^3 overflows at the outer nodes of a grid reaching 1e120.
    v = SampledProfile(np.geomspace(1e-3, 1e120, 64), np.ones(64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError):
            unreduce_profile(make_mode(3, 3), v)


def test_json_round_trip():
    for p in (
        AnalyticProfile("hydrogen_second", 0.5, 2.0),
        AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=-1.3),
        MixtureProfile((AnalyticProfile("gaussian", 1.0, 1.0),)),
    ):
        blob = json.dumps(profile_to_json(p))
        back = profile_from_json(blob)
        r = np.linspace(0.2, 4, 11)
        assert_allclose(back.value(r, 1), p.value(r, 1), rtol=1e-15)

    grid = np.linspace(0.1, 5, 64)
    sp = SampledProfile(grid, np.exp(-grid))
    back = profile_from_json(profile_to_json(sp))
    assert_allclose(back.values, sp.values)


def test_sampled_profile_json_keeps_its_node_slopes():
    # A sampled profile is written with its node slopes in s and read back
    # as that very spline, even where they are not the interpolating
    # spline's; a blob without slopes is interpolated anew.
    grid = np.geomspace(0.01, 10.0, 64)
    slopes = -2.0 * grid**2 * np.exp(-grid**2) * (1.0 + 0.1 * np.sin(grid))
    sp = SampledProfile._from_slopes(_grid_rule(grid.tobytes()), np.exp(-grid**2), slopes)
    blob = json.loads(json.dumps(profile_to_json(sp)))
    back = profile_from_json(blob)
    assert back.values.tobytes() == sp.values.tobytes()
    assert back._slopes.tobytes() == sp._slopes.tobytes()
    assert back.integral(2, 3) == sp.integral(2, 3)
    del blob["slopes"]
    assert_array_equal(profile_from_json(blob)._slopes, SampledProfile(grid, sp.values)._slopes)


@pytest.mark.parametrize("obj", [
    {},
    {"grid": [1, 2]},
    {"family": "gaussian", "params": {"bogus": 1}},
    {"family": "gaussian", "params": {"rate": "x"}},
    {"grid": ["a"] * 8, "values": [1] * 8},
    "{bad",
    {"grid": list(range(1, 9)), "values": [1] * 8, "slopes": [0] * 7},
    {"grid": list(range(1, 9)), "values": [1] * 8, "slopes": [0] * 7 + [math.nan]},
    {"grid": list(range(1, 9)), "values": [1] * 8, "slopes": None},
])
def test_profile_from_json_rejects_malformed_objects(obj):
    with pytest.raises(UsageError):
        profile_from_json(obj)
    with pytest.raises(UsageError):
        profile_from_json(json.dumps(obj))


def test_grid_whose_log_steps_vanish_is_a_usage_error():
    # Next to 1e10 the gap between doubles is below half an ulp of
    # ln 1e10 = 23.03: two nodes that differ in r share their ln r, so the
    # spline in ln r would divide by a zero step.
    grid = np.geomspace(1.0, 1e10, 64)
    grid[-2] = np.nextafter(grid[-1], 0.0)
    assert np.all(np.diff(grid) > 0) and np.log(grid[-2]) == np.log(grid[-1])
    with pytest.raises(UsageError, match="increasing"):
        SampledProfile(grid, np.exp(-grid))


@pytest.mark.parametrize("r_min", [1e-110, 1e-130, 1e-150])
def test_sampled_squares_or_weights_that_overflow_are_degenerate(r_min):
    # In s = ln r the squares grow with the values only, so values of 1e160
    # overflow them; r^-8 (d = 2, p = -5) and r^-4 (d = 0, p = -5) overflow at
    # the first Gauss nodes. Either would integrate to inf or nan with a
    # warning.
    grid = np.geomspace(r_min, 10.0, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateProfileError, match="overflows"):
            integrate(SampledProfile(grid, 1e160 * np.exp(-grid**2)), WeightedSeminorm(0, 1))
        p = SampledProfile(grid, np.exp(-grid**2))
        with pytest.raises(DegenerateProfileError, match="overflows"):
            integrate(p, WeightedSeminorm(2, -5))
        with pytest.raises(DegenerateProfileError, match="overflows"):
            SampledProfile(grid, np.ones(256)).integral(0, -5)


def test_sampled_integral_that_overflows_is_degenerate():
    # Finite squares times finite weights whose sum leaves the float range
    # (r^10 and r^21): a typed error, with no warning on the way. At r^5 no
    # sum can overflow; at r^9 the bound could, but the integral, 4.3e307,
    # does not.
    grid = np.linspace(0.1, 10.0, 256)
    p = SampledProfile(grid, 1e150 * np.exp(-grid**2 / 50.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for power in (10, 21):
            with pytest.raises(DegenerateProfileError, match="overflows"):
                p.integral(0, power)
        for power in (5, 9):
            assert 0.0 < p.integral(0, power) < math.inf


def test_an_order_whose_squares_overflow_fails_only_its_own_integrals():
    # Alternating values of 1e152: the squares of v stay finite (up to
    # 2.1e304) and so does their integral, while the slopes in s, up to
    # 2.4e154, square beyond the float range in both derivative orders.
    grid = np.geomspace(1e-3, 10.0, 256)
    p = SampledProfile(grid, 1e152 * (-1.0) ** np.arange(256))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for deriv in (1, 2):
            with pytest.raises(DegenerateProfileError, match="overflows"):
                p.integral(deriv, -1)
        value = p.integral(0, -1)
    assert value == pytest.approx(4.528e304, rel=1e-3)
    assert np.finfo(float).tiny <= value < math.inf


def test_sampled_integrals_are_kept_and_failures_are_not():
    # Each (deriv, power) is integrated once and then read back, whatever the
    # order of the calls; an integral that overflows raises on every call.
    grid = np.linspace(0.1, 10.0, 256)
    values = 1e150 * np.exp(-grid**2 / 50.0)
    rows = [(d, p) for p in (9, -1, 3, 5) for d in (2, 0, 1)]
    kept = SampledProfile(grid, values)
    first = [kept.integral(d, p) for d, p in rows]
    assert [kept.integral(d, p) for d, p in reversed(rows)] == first[::-1]
    for (d, p), value in zip(rows, first):
        assert SampledProfile(grid, values).integral(d, p) == value
    for _ in range(3):
        with pytest.raises(DegenerateProfileError, match="overflows"):
            kept.integral(0, 10)
    assert (0, 10) not in kept._integrals


@pytest.mark.parametrize("profile,deriv", [
    (AnalyticProfile("gaussian", 1.0, 1e-200), 2),       # 4 b^2 = 4e-400
    (AnalyticProfile("gaussian", 1e-300, 1e-10), 1),     # -2 b a = -2e-310
    (AnalyticProfile("hydrogen_second", 1e-150, 1e-161), 0),  # a b = 1e-311
], ids=["gaussian_f2", "gaussian_f1", "hydrogen_f"])
def test_underflowed_kernel_coefficient_is_degenerate(profile, deriv):
    # Dropped, the term would leave a different function; kept as a
    # subnormal, it would have lost its digits.
    with pytest.raises(DegenerateProfileError):
        profile.kernel_terms(deriv)


def test_kernel_terms_that_cancel_exactly_are_dropped():
    # d/dr (1 + b r) e^{-b r} = -b^2 r e^{-b r}: the r^0 terms b and -b cancel.
    for rate in (1e-100, 1.0, 1e100):
        h = AnalyticProfile("hydrogen_second", 1.0, rate)
        assert h.kernel_terms(1).terms == ((-rate * rate, 1.0, rate),)


def test_shift_power():
    g = AnalyticProfile("gaussian", 2.0, 1.5)
    up = shift_power(g, 3.0)
    r = np.linspace(0.3, 3, 7)
    assert_allclose(up.value(r), r**3 * g.value(r), rtol=1e-14)
    back = shift_power(up, -3.0)
    assert back.family == "gaussian"
    with pytest.raises(UsageError):
        shift_power(AnalyticProfile("exponential", 1.0, 1.0), 1.0)


def test_constructors_reject_bad_parameters():
    with pytest.raises(UsageError, match="integers"):
        make_mode(2.5, 0)
    with pytest.raises(UsageError, match="power"):
        AnalyticProfile("gaussian", power=1.0)
    with pytest.raises(UsageError, match="at least one"):
        MixtureProfile(())


def test_mixture_scaling_and_power_shift_act_on_each_component():
    parts = (AnalyticProfile("gaussian", 2.0, 1.5),
             AnalyticProfile("monomial_cutoff", -1.0, 0.5, power=1.0))
    mix = MixtureProfile(parts)
    assert mix.scaled(3.0) == MixtureProfile(tuple(c.scaled(3.0) for c in parts))
    assert shift_power(mix, 2.0) == MixtureProfile(tuple(shift_power(c, 2.0) for c in parts))
    r = np.linspace(0.3, 3, 7)
    assert_allclose(mix.scaled(3.0).value(r), 3.0 * mix.value(r), rtol=1e-14)
    assert_allclose(shift_power(mix, 2.0).value(r), r**2 * mix.value(r), rtol=1e-14)


def test_mixture_requires_shared_kernel():
    with pytest.raises(UsageError):
        MixtureProfile(
            (
                AnalyticProfile("gaussian", 1.0, 1.0),
                AnalyticProfile("exponential", 1.0, 1.0),
            )
        )
