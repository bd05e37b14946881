import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg
from scipy.linalg.blas import dsbmv

from upsharp import minimize
from upsharp.constants import hardy_correction_factor
from upsharp.errors import SolverError, UsageError
from upsharp.minimize import (
    GridSpec,
    QuotientKind,
    VariationalProblem,
    continuum_target,
    eigen_crosscheck,
    explore_conjecture,
    minimize_quotient,
    mode_combined_bound,
    n1_quotient_check,
    _BANDS,
    _bspline_basis,
    _kind_forms,
    _lowest_eigenpair,
    _scaled_bands,
)
from upsharp.profiles import AnalyticProfile, MixtureProfile, SampledProfile
from upsharp.quadrature import CLOSED_FORM, WeightedSeminorm, gauss_panels, integrate
from upsharp.reports import render_json
from fractions import Fraction


def problem(kind, n, k=0, size=256):
    return VariationalProblem.for_mode(kind, n, k, size=size)


def test_grid_spec_validation():
    with pytest.raises(UsageError):
        GridSpec(r_min=0.0)
    with pytest.raises(UsageError):
        GridSpec(size=32)
    with pytest.raises(UsageError):
        GridSpec(r_max=math.inf)
    nodes = GridSpec(0.001, 10.0, 128).nodes()
    assert nodes[0] == pytest.approx(0.001) and nodes[-1] == pytest.approx(10.0)
    assert np.all(np.diff(np.log(nodes)) > 0)


def test_solver_soundness(rng):
    p = problem("product_hup2", 3, 0)
    dq = p.assemble()
    init_vals = (dq.r + 0.3) * np.exp(-0.7 * dq.r**2)
    init = SampledProfile(dq.r, init_vals)
    res = minimize_quotient(p)
    q_init = dq.value(dq.init_from_profile(init))
    assert res.min_value <= q_init


def test_degenerate_init_raises():
    dq = problem("product_hup2", 3, 0).assemble()
    zeros = SampledProfile(dq.r, np.zeros(256))
    with pytest.raises(SolverError):
        dq.value(dq.init_from_profile(zeros))


def test_for_mode_rejects_zero_radius():
    with pytest.raises(UsageError):
        VariationalProblem.for_mode("product_hup2", 3, r_min=0.0)
    with pytest.raises(UsageError):
        VariationalProblem.for_mode("product_hup2", 3, r_max=0.0)


@pytest.mark.parametrize(
    "kind,n,k",
    [
        ("product_hup2", 2, 0),
        ("product_hup2", 3, 1),
        ("product_hyup2", 5, 0),
        ("classic_hup", 3, 0),
        ("classic_hyup", 3, 0),
    ],
)
def test_descent_agrees_with_eigen_pencil(kind, n, k):
    p = problem(kind, n, k)
    res = minimize_quotient(p)
    eig = eigen_crosscheck(p)
    assert res.converged
    assert abs(res.min_value - eig) / eig < 0.01


@pytest.mark.parametrize("kind", list(QuotientKind))
def test_discrete_forms_match_table_rows(kind):
    # Each discrete form, on the projection of a Gaussian-kernel profile,
    # reproduces the closed-form integrals of the kind's table rows.
    product = kind in (QuotientKind.PRODUCT_HUP2, QuotientKind.PRODUCT_HYUP2)
    classic = kind in (QuotientKind.CLASSIC_HUP, QuotientKind.CLASSIC_HYUP)
    for size in (512, 2048):
        for n in (2, 3, 5):
            for k in (0, 1, 2):
                # w = r e^{-r^2} where the rows are reduced to w = v',
                # u = r^k e^{-r^2}, or v = e^{-r^2}
                reduced = product or (kind is QuotientKind.MODE_HYUP2_FULL and k == 0)
                power = 1.0 if reduced else float(k) if classic else 0.0
                profile = AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=power)
                dq = problem(kind, n, k, size=size).assemble()
                parts = dq.parts(dq.init_from_profile(profile))
                for rows, got in zip(_kind_forms(dq.problem.kind, dq.problem.mode), parts):
                    exact = math.fsum(
                        c * integrate(profile, WeightedSeminorm(d, p), CLOSED_FORM)
                        for c, d, p in rows
                    )
                    assert abs(got - exact) <= 5e-3 * abs(exact), (size, n, k)


def test_per_mode_product_constants(rng):
    # (N+2k+2)^2/4 and (N+2k+1)^2/4 within 2% across dimensions and degrees.
    for n in (2, 3, 5):
        for k in (0, 1, 2):
            res = minimize_quotient(problem("product_hup2", n, k))
            target = (n + 2 * k + 2) ** 2 / 4
            assert abs(res.min_value - target) / target < 0.02, ("hup2", n, k)
            res = minimize_quotient(problem("product_hyup2", n, k))
            target = (n + 2 * k + 1) ** 2 / 4
            assert abs(res.min_value - target) / target < 0.02, ("hyup2", n, k)


def test_calibration_from_random_init(rng):
    # Generic random radial trial profiles (centered Gaussian mixtures).
    def random_init(r):
        amps = rng.uniform(0.2, 1.0, 3)
        rates = rng.uniform(0.3, 2.0, 3)
        vals = sum(a * np.exp(-b * r**2) for a, b in zip(amps, rates))
        return SampledProfile(r, vals)

    for kind, dims, target_fn in (
        ("classic_hup", (2, 3, 5), lambda n: n * n / 4),
        ("classic_hyup", (2, 3, 5), lambda n: (n - 1) ** 2 / 4),
    ):
        for n in dims:
            p = problem(kind, n, 0)
            dq = p.assemble()
            res = minimize_quotient(p)
            assert res.min_value <= dq.value(dq.init_from_profile(random_init(dq.r)))
            target = target_fn(n)
            assert abs(res.min_value - target) / target < 0.02, (kind, n)
    # N = 1 is no per-mode problem; verify hup --n 1 checks its constant 1/4.
    with pytest.raises(UsageError):
        problem("classic_hup", 1, 0)


def test_dilation_invariance():
    # Same profile dilated by 2 on the grid dilated by 1/2: identical quotient.
    base = VariationalProblem(
        mode=problem("classic_hup", 3).mode,
        kind=QuotientKind.CLASSIC_HUP,
        grid=GridSpec(1e-3, 14.0, 256),
    )
    halved = VariationalProblem(mode=base.mode, kind=base.kind, grid=GridSpec(5e-4, 7.0, 256))
    values = {}
    for prob, beta in ((base, 1.0), (halved, 4.0)):
        dq = prob.assemble()
        x = dq.init_from_profile(AnalyticProfile("gaussian", 1.0, beta))
        values[beta] = dq.value(x)
    assert abs(values[1.0] - values[4.0]) / values[1.0] < 1e-10


def test_lower_bound_and_shrinking_excess(rng):
    # Random admissible profiles never dip below the constant (minus the
    # discretization budget), and the excess of a fixed family shrinks as the
    # grid refines.
    p = problem("classic_hup", 3)
    dq = p.assemble()
    target = 9 / 4
    for _ in range(20):
        amps = rng.uniform(-1.0, 1.0, 3)
        rates = rng.uniform(0.4, 1.5, 3)
        vals = sum(a * np.exp(-b * dq.r**2) for a, b in zip(amps, rates))
        if np.max(np.abs(vals)) < 0.05:
            continue
        x = dq.init_from_profile(SampledProfile(dq.r, vals))
        assert dq.value(x) >= target * (1 - 0.02)

    excesses = []
    for size in (128, 256, 512):
        dq = problem("classic_hup", 3, size=size).assemble()
        x = dq.init_from_profile(AnalyticProfile("gaussian", 1.0, 1.0))
        excesses.append(abs(dq.value(x) - target))
    assert excesses[0] > excesses[1] > excesses[2]


def test_kind_targets_and_default_grids():
    # Every kind's continuum target and default grid ends, against the
    # formulas written out here.
    grids = {
        "product_hup2": (1e-3, 14.0), "classic_hup": (1e-3, 14.0), "hardy_1d": (1e-9, 14.0),
        "product_hyup2": (1e-3, 24.0), "classic_hyup": (1e-3, 24.0),
        "mode_hyup2_full": (1e-3, 24.0),
    }
    assert set(grids) == {kind.value for kind in QuotientKind}
    for n in range(2, 7):
        for k in range(4):
            targets = {
                "product_hup2": (n + 2 * k + 2) ** 2 / 4,
                "product_hyup2": (n + 2 * k + 1) ** 2 / 4,
                "hardy_1d": (n + 2 * k) ** 2 / 4,
                "classic_hup": n * n / 4 if k == 0 else None,
                "classic_hyup": (n - 1) ** 2 / 4 if k == 0 else None,
                "mode_hyup2_full": (n + 1) ** 2 / 4 if k == 0 else None,
            }
            for kind, target in targets.items():
                p = VariationalProblem.for_mode(kind, n, k)
                assert (p.grid.r_min, p.grid.r_max, p.grid.size) == (*grids[kind], 512)
                assert continuum_target(p.kind, p.mode) == target, (kind, n, k)


def test_hardy_problem_bounds():
    p = problem("hardy_1d", 4, 0)
    res = minimize_quotient(p)
    target = 4.0
    # not attained: the truncated-grid minimum sits above the constant
    assert target - 5e-3 <= res.min_value < target * 1.2


def test_combined_bound_matches_exact_scan():
    cb = mode_combined_bound("hup2", 2, k_max=4, size=256)
    assert cb.argmin_degree == 0
    assert abs(cb.combined - 4.0) < 0.03 * 4.0
    assert cb.exact_combined == 4
    for row in cb.rows:
        assert row.converged
        assert row.continuum == (2 + 2 * row.degree + 2) ** 2 / 4
        assert abs(row.bound - float(row.exact_bound)) < 0.03 * float(row.exact_bound)
    blob = json.loads(render_json(cb))
    assert blob["exact_combined"] == {"num": 4, "den": 1, "float": 4.0}
    assert blob["rows"][1]["factor"] == {"num": 1, "den": 2, "float": 0.5}
    with pytest.raises(UsageError):
        mode_combined_bound("hup", 3)
    with pytest.raises(UsageError):
        mode_combined_bound("hup2", 3, k_max=2)


def test_hardy_correction_factors():
    assert hardy_correction_factor("hup2", 2, 0) == 1
    assert hardy_correction_factor("hup2", 2, 1) == Fraction(1, 2)
    assert hardy_correction_factor("hyup2", 3, 0) == 1  # degree 0: no Hardy step
    assert hardy_correction_factor("hyup2", 5, 1) == Fraction(16, 20) ** 2
    with pytest.raises(UsageError):
        hardy_correction_factor("hup", 3, 1)


def test_explore_conjecture_calibration_quick():
    # A repeated grid size is solved once.
    report = explore_conjecture(5, k_max=2, resolutions=(96, 192, 96))
    assert len(report.ladder) == 2 * (2 + 1)
    assert report.argmin_degree == 0
    assert abs(report.estimated_infimum - 9.0) / 9.0 < 0.03
    assert report.counterexample is None
    assert {entry["size"] for entry in report.ladder} == {96, 192}
    assert "evidence" in report.status


def test_explore_conjecture_solves_each_problem_once(monkeypatch):
    # The combined bound's degree-0 product_hyup2 row has the rows and grid
    # of the finest degree-0 rung and takes its result: 12 rungs and 5
    # combined rows make 16 solves, not 17.
    calls = []

    def counted(p):
        calls.append(p)
        return minimize_quotient(p)

    monkeypatch.setattr(minimize, "minimize_quotient", counted)
    report = explore_conjecture(3, k_max=3, resolutions=(128, 256, 512))
    assert len(calls) == 16
    finest = next(entry for entry in report.ladder
                  if entry["size"] == 512 and entry["degree"] == 0)
    assert report.combined_bound.rows[0].min_value == finest["min_value"]
    # Nothing is kept past the call.
    mode_combined_bound("hyup2", 3, k_max=4, size=512)
    assert len(calls) == 16 + 5


def test_grid_tables_are_shared_and_read_only():
    first = problem("mode_hyup2_full", 3, 1, size=128).assemble()
    second = problem("product_hyup2", 3, 0, size=128).assemble()
    assert first.problem.grid == second.problem.grid
    shared = minimize._grid_tables(first.problem.grid)
    assert second._grid is first._grid is shared
    for array in shared:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    other = minimize._grid_tables(GridSpec(1e-3, 14.0, 128))
    assert other is not shared and other.r[-1] != shared.r[-1]
    assert not np.array_equal(other.table, shared.table)
    _, *bands = _scaled_bands(first)
    assert all(band.flags.f_contiguous for band in bands)


def test_explore_conjecture_flags_low_dimension_candidate():
    report = explore_conjecture(2, k_max=1, resolutions=(96, 192))
    # The degree-1 sector sits well below the reference value in dimension 2;
    # the explorer reports it as a candidate with the profile attached.
    assert report.counterexample is not None
    assert report.counterexample["degree"] == 1
    assert report.counterexample["min_value"] < report.conjectured
    assert isinstance(report.counterexample["profile"], SampledProfile)
    assert "grid" in json.loads(render_json(report))["counterexample"]["profile"]
    assert report.estimated_infimum < report.conjectured


def test_degree_one_hydrogen_trial_quotients_closed_form():
    # Independent evidence for the explorer finding: the degree-1 trial
    # profile (1+r)e^{-r} evaluated through exact moments. At N=2 the value
    # is the exact rational 225/256; above N=4 it exceeds the constant.
    from upsharp.quadrature import CLOSED_FORM
    from upsharp.seminorms import Form, FunctionalId, eval_mode_functional
    from upsharp.profiles import make_mode

    v = AnalyticProfile("hydrogen_second", 1.0, 1.0)

    def full_quotient(n):
        mode = make_mode(n, 1)
        lap = eval_mode_functional(FunctionalId.LAPLACIAN_ENERGY, mode, v, Form.REDUCED, CLOSED_FORM).value
        grad = eval_mode_functional(FunctionalId.GRAD_ENERGY, mode, v, Form.REDUCED, CLOSED_FORM).value
        cou = eval_mode_functional(FunctionalId.COULOMB_GRAD_ENERGY, mode, v, Form.REDUCED, CLOSED_FORM).value
        return lap * grad / cou**2

    assert_allclose(full_quotient(2), 225 / 256, rtol=1e-12)
    assert full_quotient(2) < 9 / 4
    assert full_quotient(3) < 4.0
    assert full_quotient(4) > 25 / 4
    assert full_quotient(5) > 9.0


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


def test_minimization_result_json():
    p = problem("product_hup2", 3, 1, size=128)
    res = minimize_quotient(p)
    blob = json.loads(render_json(res))
    assert blob["kind"] == "product_hup2"
    assert blob["mode"] == {"N": 3, "k": 1}
    assert blob["grid"]["size"] == 128
    assert blob["target"] == pytest.approx(49 / 4)
    assert blob["iterations"] >= 1
    assert blob["pencil_value"] == pytest.approx(blob["min_value"], rel=1e-6)
    assert blob["t_star"] > 0 and blob["eigen_residual"] >= 0
    assert 0 < blob["pencil_lower"] <= blob["pencil_value"] * (1 + 1e-9)
    assert blob["exit"] in ("flat", "bracketed") and blob["converged"]


#: Every kind with a proved continuum infimum, at the degrees where it holds.
_PROVED = [
    (kind, k)
    for kind in ("product_hup2", "product_hyup2", "hardy_1d")
    for k in (0, 1, 2)
] + [("classic_hup", 0), ("classic_hyup", 0), ("mode_hyup2_full", 0)]


@pytest.mark.parametrize("size", [96, 512])
def test_minima_never_below_proved_constants(size):
    # Every discrete function is admissible, so neither the argmin's quotient
    # nor the pencil value can fall below a proved constant; the certified
    # lower bound of the assembled pencil stays below the pencil value.
    for kind, k in _PROVED:
        for n in (2, 3, 5):
            res = minimize_quotient(problem(kind, n, k, size=size))
            assert res.min_value >= res.target * (1 - 1e-9), (kind, n, k)
            assert abs(res.pencil_value - res.min_value) <= 1e-6 * res.min_value, (kind, n, k)
            assert res.converged and res.exit in ("flat", "bracketed"), (kind, n, k)
            assert res.pencil_lower <= res.pencil_value * (1 + 1e-9), (kind, n, k)
            assert res.iterations <= 20, (kind, n, k)


def band_to_dense(band):
    """The symmetric matrix whose upper band storage is ``band``."""
    upper = sum(np.diag(band[_BANDS - k, k:], k) for k in range(_BANDS + 1))
    return upper + np.triu(upper, 1).T


@pytest.mark.parametrize("kind", list(QuotientKind))
def test_band_forms_match_factored_parts(kind, rng):
    # x.(A x) from the assembled band storage reproduces the factored,
    # row-by-row value that min_value is computed from.
    for size in (96, 512):
        for n in (2, 3, 5):
            for k in (0, 1, 2):
                dq = problem(kind, n, k, size=size).assemble()
                x = rng.standard_normal(dq.A.shape[1])
                for band, part in zip((dq.A, dq.B, dq.C), dq.parts(x)):
                    assembled = x @ dsbmv(_BANDS, 1.0, band, x)
                    assert assembled == pytest.approx(part, rel=1e-12), (size, n, k)


@pytest.mark.parametrize("kind", list(QuotientKind))
def test_banded_solve_matches_dense_eigh(kind):
    # The banded lambda_min agrees with a dense generalized eigensolve of the
    # same scaled forms, and the certified shift never exceeds it. The dense
    # value is the lowest of all eigenvalues (dsygvd): the subset route
    # (dsygvx) meets only an absolute tolerance and was 2.5e-7 relative off
    # on product_hup2, N=2.
    for n in (2, 3, 5):
        p = problem(kind, n, 0, size=96)
        t_star = minimize_quotient(p).t_star
        dq = p.assemble()
        scale, A, B, C = _scaled_bands(dq)
        dense_a, dense_b, dense_c = (band_to_dense(m) for m in (A, B, C))
        for scaled, form in zip((dense_a, dense_b, dense_c), (dq.A, dq.B, dq.C)):
            assert_allclose(scaled, scale[:, None] * band_to_dense(form) * scale, rtol=1e-15)
        for t in (t_star / 2, t_star, 2 * t_star):
            lower, y = _lowest_eigenpair(t * A + B / t, C, np.ones(A.shape[1]))
            banded = y @ (t * dense_a + dense_b / t) @ y / (y @ dense_c @ y)
            dense = linalg.eigh(t * dense_a + dense_b / t, dense_c, eigvals_only=True)[0]
            assert lower <= dense * (1 + 1e-12), (n, t)
            assert banded == pytest.approx(dense, rel=5e-12), (n, t)


def test_pencil_errors_are_typed(monkeypatch):
    p = problem("product_hup2", 3, 0, size=96)
    dq = p.assemble()
    dq.A, dq.B = -dq.A, -dq.B
    monkeypatch.setattr(VariationalProblem, "assemble", lambda self: dq)
    with pytest.raises(SolverError):
        minimize_quotient(p)


def _clamped_knots(s):
    return np.concatenate([np.full(3, s[0]), s, np.full(3, s[-1])])


@pytest.mark.parametrize("size", [96, 512, 2048])
def test_bspline_basis_matches_scipy(size):
    # scipy's BSpline is the oracle: on an interval, each sum of every fourth
    # B-spline is the one of its terms that is nonzero there.
    from scipy.interpolate import BSpline

    s = np.log(GridSpec(size=size).nodes())
    points, _ = gauss_panels(s, 6)
    knots = _clamped_knots(s)
    basis = _bspline_basis(knots, points)
    phase = np.arange(size + 2) % 4
    sums = BSpline(knots, np.equal.outer(phase, np.arange(4)).astype(float), 3)
    interval = np.arange(size - 1)
    which = (interval + np.arange(4)[:, None]) % 4
    for nu in range(3):
        expected = sums(points, nu)[interval, :, which]
        scale = np.abs(expected).max()
        assert np.abs(basis[nu] - expected).max() <= 1e-13 * scale, nu
        # Partition of unity: the splines sum to 1, their derivatives to 0.
        assert np.abs(basis[nu].sum(axis=0) - (nu == 0)).max() <= 1e-13 * scale, nu


def test_to_profile_matches_scipy_bspline(rng):
    from scipy.interpolate import BSpline

    dq = problem("mode_hyup2_full", 3, 1, size=512).assemble()
    x = rng.standard_normal(dq.A.shape[1])
    local = np.append(x, 0.0)[dq._local]
    coefficients = np.concatenate([local[:, 0], local[-1, 1:]])
    expected = BSpline(_clamped_knots(np.log(dq.r)), coefficients, 3)(np.log(dq.r))
    got = dq.to_profile(x).values
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_criterion_8_minima_match_reference():
    # Minima at 512 nodes from the shift-invert Lanczos solver that the
    # banded shift ladder replaced.
    reference = [
        ("product_hup2", 2, 0, 4.000001086665811),
        ("product_hup2", 3, 0, 6.250000000245296),
        ("product_hup2", 3, 1, 12.250000000039782),
        ("product_hup2", 5, 0, 12.250000000039782),
        ("product_hyup2", 5, 0, 9.000000000002705),
        ("product_hyup2", 5, 1, 16.00000000002214),
        ("classic_hup", 3, 0, 2.250000000001528),
        ("classic_hyup", 3, 0, 1.0000000004184109),
    ]
    for kind, n, k, value in reference:
        res = minimize_quotient(problem(kind, n, k, size=512))
        assert res.min_value == pytest.approx(value, rel=1e-12), (kind, n, k)


@pytest.mark.parametrize(
    "kind", ["product_hup2", "product_hyup2", "classic_hup", "classic_hyup", "mode_hyup2_full"]
)
def test_argmin_reproduces_min_value(kind):
    # The exported argmin integrates back to the reported minimum: the kind's
    # table rows over the grid, plus the constant continuation below r_min
    # for every zero-order row (absent where v(r_min) is pinned to 0). The
    # export is cubic in r, the minimizer's spline cubic in ln r; at 512 nodes
    # their quotients differ by at most 1.2e-8 (mode_hyup2_full, N=5).
    for n in (2, 3, 5):
        for k in (0, 1, 2) if kind.startswith("product") else (0,):
            res = minimize_quotient(problem(kind, n, k, size=512))
            v, r_min = res.argmin, res.argmin.grid[0]
            forms = _kind_forms(res.kind, res.mode)
            pinned = any(d == 0 and p <= -1 for rows in forms for _, d, p in rows)

            def row_value(coef, d, p):
                head = 0.0 if d or pinned else r_min ** (p + 1) / (p + 1) * v.values[0] ** 2
                return coef * (integrate(v, WeightedSeminorm(d, p)) + head)

            a, b, c = (math.fsum(row_value(*row) for row in rows) for rows in forms)
            assert a * b / (c * c) == pytest.approx(res.min_value, rel=2e-8), (n, k)


def test_radial_hydrogen_n2_robust_across_sizes():
    # The degree-0 hydrogen quotient is solved in w = v', on exactly the rows
    # of product_hyup2 at k = 0: refining the grid enlarges the trial space,
    # so the minimum never rises, and both kinds give the same result.
    for n in (2, 3, 4):
        target = (n + 1) ** 2 / 4
        previous = math.inf
        for size in (96, 160, 256, 512, 768, 1024, 2048, 4096):
            res = minimize_quotient(problem("mode_hyup2_full", n, 0, size=size))
            assert target * (1 - 1e-9) <= res.min_value <= target * 1.03, (n, size)
            assert res.min_value <= previous * (1 + 1e-12), (n, size)
            assert res.converged and res.eigen_residual <= 1e-9, (n, size)
            blob = json.loads(render_json(res))
            twin = minimize_quotient(problem("product_hyup2", n, 0, size=size))
            twin = json.loads(render_json(twin))
            assert {**blob, "kind": None} == {**twin, "kind": None}, (n, size)
            previous = res.min_value


def test_radial_hydrogen_n2_survives_indefinite_assembly():
    # Fine grids and tiny r_min: forms in v would cancel near r_min and leave
    # t A + B/t numerically indefinite; in w = v' they factor and converge.
    cases = [(2, 2048, None)] + [(n, 512, r_min) for n in (2, 3) for r_min in (1e-9, 1e-12)]
    for n, size, r_min in cases:
        p = VariationalProblem.for_mode("mode_hyup2_full", n, 0, size=size, r_min=r_min)
        res = minimize_quotient(p)
        target = (n + 1) ** 2 / 4
        assert target * (1 - 1e-9) <= res.min_value <= target * 1.03, (n, size, r_min)
        assert res.converged, (n, size, r_min)


def test_minimization_is_bit_reproducible():
    p = problem("mode_hyup2_full", 2, 0, size=160)
    first, second = (render_json(minimize_quotient(p)) for _ in range(2))
    assert first == second


def test_flat_slope_stop_matches_full_bisection(monkeypatch):
    # Where the Hellmann–Feynman slope is flat, AM–GM is an equality and the
    # probe's quotient is the minimum over t, so stopping there gives the
    # full bisection's minimum (to rounding) for well under its solves.
    cases = [
        (kind, n, k, size)
        for kind in QuotientKind if kind is not QuotientKind.HARDY_1D
        for n in (2, 3, 5) for k in (0, 1) for size in (96, 512)
    ]
    p = problem("mode_hyup2_full", 5, 0, size=512)
    first, second = (minimize_quotient(p) for _ in range(2))
    assert first.exit == "flat"
    assert render_json(first) == render_json(second)
    flat = [minimize_quotient(problem(*case)) for case in cases]
    monkeypatch.setattr(minimize, "_FLAT_SLOPE", 0.0)
    full = [minimize_quotient(problem(*case)) for case in cases]
    for case, res, ref in zip(cases, flat, full):
        assert ref.converged and res.converged, case
        assert ref.min_value <= res.min_value <= ref.min_value * (1 + 1e-12), case
    assert sum(r.iterations for r in flat) <= 0.6 * sum(r.iterations for r in full)


def test_mode_mixtures_never_beat_best_single_mode(rng):
    # Orthogonal modes add their A, B and C; by Cauchy-Schwarz the mixture
    # quotient is at least the smallest single-mode quotient.
    quotients = [problem("mode_hyup2_full", 3, k, size=96).assemble() for k in range(4)]
    for _ in range(200):
        parts = []
        for dq in quotients:
            x = rng.uniform(0.0, 2.0) * rng.standard_normal(dq.A.shape[1])
            parts.append(dq.parts(x))
        a, b, c = (math.fsum(column) for column in zip(*parts))
        best = min(pa * pb / (pc * pc) for pa, pb, pc in parts)
        assert a * b / (c * c) >= best * (1 - 1e-12)
