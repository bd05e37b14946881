import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import linalg
from scipy.linalg.blas import dsbmv

from upsharp import minimize
from upsharp.constants import MODE_BOUNDS, PrincipleId, mode_principle, sharp_constant
from upsharp.cli import main
from upsharp.errors import SolverError, UsageError
from upsharp.minimize import (
    GridSpec,
    QuotientKind,
    VariationalProblem,
    eigen_crosscheck,
    explore_conjecture,
    minimize_quotient,
    mode_combined_bound,
    _BANDS,
    _end_block,
    _end_exponents,
    _kind_lookup,
    _lowest_eigenpair,
    _scaled_bands,
)
from upsharp.profiles import (AnalyticProfile, SampledProfile, _grid_rule, gauss_panels,
                              make_mode, profile_from_json)
from upsharp.quadrature import CLOSED_FORM, WeightedSeminorm, integrate
from upsharp.reports import render_json
from upsharp.seminorms import PRINCIPLE_FUNCTIONALS, Form, _term_table
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
                for rows, got in zip(_kind_lookup(dq.problem.kind, dq.problem.mode)[0], parts):
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
                assert _kind_lookup(p.kind, p.mode)[1] == target, (kind, n, k)


#: The kind table as it was before every kind was read at one mode:
#: principle, form, and whether the kind drops its zero-order rows.
_OLD_KINDS = {
    "product_hup2": (PrincipleId.HUP2, Form.REDUCED, True),
    "product_hyup2": (PrincipleId.HYUP2, Form.REDUCED, True),
    "classic_hup": (PrincipleId.HUP, Form.RAW, False),
    "classic_hyup": (PrincipleId.HYUP, Form.RAW, False),
    "hardy_1d": (None, Form.REDUCED, False),
    "mode_hyup2_full": (PrincipleId.HYUP2, Form.REDUCED, False),
}


def _old_rows(kind, mode):
    """The unreduced rows and the target of the old derivation: the rows at
    (N, k) in the kind's form, zero-order rows dropped for a product kind,
    the Hardy ratio's two rows written out, and the product target read in
    dimension N + 2k."""
    principle, form, product = _OLD_KINDS[kind]
    n, k = mode.dimension, mode.degree
    if principle is None:
        num, den = (1, 1, n + 2 * k + 1), (1, 0, n + 2 * k - 1)
        return ((num,), (den,), (den,)), (n + 2 * k) ** 2 / 4.0
    forms = tuple(tuple((c, s.deriv, s.power) for _, c, s in _term_table(fid, form, mode)
                        if s.deriv or not product)
                  for fid in PRINCIPLE_FUNCTIONALS[principle])
    if product:
        return forms, float(sharp_constant(principle, n + 2 * k))
    return forms, float(sharp_constant(principle, n)) if k == 0 else None


def test_kind_lookup_matches_old_derivation():
    # Reading the product kinds and the Hardy ratio at degree 0 in dimension
    # N + 2k gives the same rows, with the same types, and the same targets
    # as filtering the (N, k) rows did.
    for kind in QuotientKind:
        for n in range(2, 7):
            for k in range(5):
                forms, target = _old_rows(kind.value, make_mode(n, k))
                solved_in = "v"
                if all(d >= 1 for rows in forms for _, d, _ in rows):
                    forms = tuple(tuple((c, d - 1, p) for c, d, p in rows) for rows in forms)
                    solved_in = "w"
                got = _kind_lookup(kind, make_mode(n, k))
                assert repr(got) == repr((forms, target, solved_in)), (kind, n, k)


def test_solved_in_names_the_function_of_the_argmin():
    # "w" exactly when none of the kind's unreduced rows is zero-order, on
    # the result, in its JSON and on the explorer's candidate.
    for kind in QuotientKind:
        for k in range(3):
            rows, _ = _old_rows(kind.value, make_mode(3, k))
            zero_order = any(d == 0 for form in rows for _, d, _ in form)
            res = minimize_quotient(problem(kind, 3, k, size=96))
            assert res.solved_in == ("v" if zero_order else "w"), (kind, k)
            assert json.loads(render_json(res))["solved_in"] == res.solved_in, (kind, k)
    report = explore_conjecture(2, k_max=1, resolutions=(96,))
    assert report.counterexample["solved_in"] == "v"
    assert json.loads(render_json(report))["counterexample"]["solved_in"] == "v"


@pytest.mark.parametrize("size", [128, 512])
def test_product_kinds_are_degree_zero_in_dimension_n_plus_2k(size):
    # The degree-k product quotient is the degree-0 one in dimension N + 2k:
    # both give the same report but for the mode.
    for kind in ("product_hup2", "product_hyup2"):
        for (n, k), twin in (((3, 1), (5, 0)), ((2, 2), (6, 0))):
            blob = json.loads(render_json(minimize_quotient(problem(kind, n, k, size))))
            other = json.loads(render_json(minimize_quotient(problem(kind, *twin, size))))
            assert blob["mode"] != other["mode"]
            assert {**blob, "mode": None} == {**other, "mode": None}, (kind, n, k, size)


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
    def correction(quotient, n, k):
        return MODE_BOUNDS[mode_principle(quotient)].correction(n, k)

    assert correction("hup2", 2, 0) == 1
    assert correction("hup2", 2, 1) == Fraction(1, 2)
    assert correction("hyup2", 3, 0) == 1  # degree 0: no Hardy step
    assert correction("hyup2", 5, 1) == Fraction(16, 20) ** 2
    with pytest.raises(UsageError):
        correction("hup", 3, 1)


def test_explore_conjecture_calibration_quick():
    # A repeated grid size is solved once.
    report = explore_conjecture(5, k_max=2, resolutions=(96, 192, 96))
    assert len(report.ladder) == 2 * (2 + 1)
    assert report.argmin_degree == 0
    assert abs(report.estimated_infimum - 9.0) / 9.0 < 0.03
    assert report.counterexample is None
    assert {entry["size"] for entry in report.ladder} == {96, 192}
    assert "evidence" in report.status


@pytest.mark.parametrize("bad", [5.9, 5.0, True])
def test_explore_conjecture_needs_an_integer_dimension(bad):
    # 5.9 is not N = 5: the explorer rejects it before any solve, and a
    # highest degree that is not an integer too.
    with pytest.raises(UsageError, match="must be an integer"):
        explore_conjecture(bad, k_max=0, resolutions=(96,))
    with pytest.raises(UsageError, match="must be an integer"):
        explore_conjecture(5, k_max=bad, resolutions=(96,))
    with pytest.raises(UsageError, match="must be an integer"):
        mode_combined_bound("hup2", 3, k_max=bad, size=64)


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
    # The minimizer's Gauss rule is the sampled profiles' rule of its nodes.
    first = problem("mode_hyup2_full", 3, 1, size=128).assemble()
    second = problem("product_hyup2", 3, 0, size=128).assemble()
    assert first.problem.grid == second.problem.grid
    shared = minimize._grid_tables(first.problem.grid)
    assert second._grid is first._grid is shared
    assert shared.rule is _grid_rule(first.problem.grid.nodes().tobytes())
    for array in (shared.table, shared.products, shared.knot_data, shared.rule.weights(2)[0]):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    other = minimize._grid_tables(GridSpec(1e-3, 14.0, 128))
    assert other is not shared and other.rule.grid[-1] != shared.rule.grid[-1]
    assert not np.array_equal(other.table, shared.table)
    _, *bands = _scaled_bands(first)
    assert all(band.flags.f_contiguous for band in bands)


def test_shift_ladder_never_factors_its_certified_shift_again(monkeypatch):
    # After two rejected shifts the gap reaches 1, so the next shift is the
    # certified one, lo (here 0, K itself), whose factor is at hand. No solve
    # hands _cholesky the same band twice.
    cholesky, solve = minimize._cholesky, minimize._lowest_eigenpair
    solves = []

    def counted_cholesky(band, overwrite=False):
        key = band.tobytes()
        factor = cholesky(band, overwrite)
        if solves:
            solves[-1].append((key, factor is None))
        return factor

    def counted_solve(K, C, y):
        solves.append([])
        return solve(K, C, y)

    monkeypatch.setattr(minimize, "_cholesky", counted_cholesky)
    monkeypatch.setattr(minimize, "_lowest_eigenpair", counted_solve)
    minimize_quotient(problem("classic_hyup", 2, 0, size=256))
    assert any(sum(failed for _, failed in calls) >= 2 for calls in solves)
    for calls in solves:
        assert len({key for key, _ in calls}) == len(calls)


def test_explore_conjecture_flags_low_dimension_candidate():
    report = explore_conjecture(2, k_max=1, resolutions=(96, 192))
    # The degree-1 sector sits well below the reference value in dimension 2;
    # the explorer reports it as a candidate with the profile attached.
    assert report.counterexample is not None
    assert report.counterexample["degree"] == 1
    assert report.counterexample["min_value"] < report.conjectured
    profile = report.counterexample["profile"]
    assert isinstance(profile, SampledProfile)
    # The report's counterexample reads back as that very spline.
    read_back = profile_from_json(json.loads(render_json(report))["counterexample"]["profile"])
    assert read_back.grid.tobytes() == profile.grid.tobytes()
    assert read_back.values.tobytes() == profile.values.tobytes()
    assert read_back._slopes.tobytes() == profile._slopes.tobytes()
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
    assert blob["solved_in"] == res.solved_in == "w"


def test_minimize_report_file_argmin_reads_back_bit_for_bit(tmp_path):
    # The path users take: a minimize report written by the CLI to a file,
    # its argmin read back from that file alone.
    out = tmp_path / "min.json"
    assert main(["minimize", "product_hup2", "--n", "3", "--m", "128", "--out", str(out)]) == 0
    read_back = profile_from_json(json.loads(out.read_text())["result"]["argmin"])
    argmin = minimize_quotient(problem("product_hup2", 3, 0, size=128)).argmin
    assert read_back.grid.tobytes() == argmin.grid.tobytes()
    assert read_back.values.tobytes() == argmin.values.tobytes()
    assert read_back._slopes.tobytes() == argmin._slopes.tobytes()


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


def _falling(e, d):
    """e (e - 1) ... (e - d + 1): the factor of r^(e - d) in the d-th derivative of r^e."""
    return math.prod(e - i for i in range(d))


def _end_gram(rows, exponents, r_end, sign, f=lambda x: x):
    """The rows' integrals over the end piece f = sum_j A_j (r / r_end)^(e_j),
    over (0, r_end) for sign 1 and (r_end, inf) for sign -1, as a 2 x 2 form
    in its value v and slope v_s in s at r_end: A = M^-1 (v, v_s) with
    M = [[1, 1], [e_0, e_1]], or A_0 = v for one term. Summed exactly in
    rationals, term by term, each term through f."""
    if len(exponents) == 1:
        terms = [[Fraction(1), Fraction(0)]]
    else:
        e0, e1 = exponents
        terms = [[Fraction(e1, e1 - e0), Fraction(-1, e1 - e0)],
                 [Fraction(-e0, e1 - e0), Fraction(1, e1 - e0)]]
    gram = [[Fraction(0)] * 2 for _ in range(2)]
    for c, d, p in rows:
        for (a, e), (b, g) in itertools.product(zip(terms, exponents), repeat=2):
            factor = _falling(e, d) * _falling(g, d)
            if factor:
                q = p + 1 - 2 * d + e + g
                assert sign * q > 0, (c, d, p, exponents)
                weight = c * factor * Fraction(r_end) ** (p + 1 - 2 * d) / abs(q)
                for i, j in itertools.product(range(2), repeat=2):
                    gram[i][j] += f(a[i] * weight * b[j])
    return np.array(gram, dtype=float)


def _end_integrals(v, rows, exponents):
    """The rows' integrals over both end pieces of the argmin v, from its
    node values and slopes in s at r_min and r_max."""
    head, tail = exponents
    pieces = [(0, head, 1)] + ([(-1, tail, -1)] if tail else [])
    return sum(np.array([v.values[node], v._slopes[node]])
               @ _end_gram(rows, piece, v.grid[node], sign)
               @ np.array([v.values[node], v._slopes[node]])
               for node, piece, sign in pieces)


def _dense_to_band(matrix):
    band = np.zeros((_BANDS + 1, len(matrix)))
    for k in range(_BANDS + 1):
        band[_BANDS - k, k:] = np.diag(matrix, k)
    return band


_BAND_CASES = [(size, n, k) for size in (96, 512) for n in (2, 3, 5) for k in (0, 1, 2)]


@pytest.mark.parametrize("kind", list(QuotientKind))
def test_band_matches_per_row_assembly(kind):
    # The oracle is dense: the Gram matrix G of all nodes + 2 splines,
    # assembled row by row and interval by interval from the splines' D_d at
    # the Gauss points, plus the end pieces' exact integrals as forms in v
    # and v_s at the end nodes (computed here term by term), mapped onto the
    # three splines of each end node by their node data; then restricted to
    # the free coefficients as P^T G P, where P drops the last two splines
    # where r_max is clamped and nothing else. _band sums the weights per
    # order, contracts them with the grid's pair products on the full band
    # and restricts it once. Each band entry agrees to 1e-14 of the same sum
    # taken in absolute values. The case list meets one- and two-term pieces
    # below r_min and the tail above r_max.
    ends = {(len(head), len(tail)) for other in QuotientKind for _, n, k in _BAND_CASES
            for head, tail in [_end_exponents(other, make_mode(n, k))]}
    assert ends == {(1, 0), (2, 0), (2, 2)}
    for size, n, k in _BAND_CASES:
        dq = problem(kind, n, k, size=size).assemble()
        table, weights = dq._grid.table, dq._grid.rule.weights
        splines = np.arange(size - 1)[:, None] + np.arange(_BANDS + 1)
        head, tail = _end_exponents(dq.problem.kind, dq.problem.mode)
        extension = np.eye(size + 2, size + 2 if tail else size)
        pieces = [(0, head, 1)] + ([(size - 1, tail, -1)] if tail else [])
        for rows, ends in dq._forms:
            def oracle(f):
                gram = np.zeros((size + 2, size + 2))
                for c, d, p in rows:
                    local = f(c) * np.einsum("qi,aiq,biq->iab", weights(p - 2 * d)[0],
                                             f(table[d]), f(table[d]))
                    np.add.at(gram, (splines[:, :, None], splines[:, None, :]), local)
                for node, exponents, sign in pieces:
                    knots = dq._grid.knot_data[:, :, node]
                    end = _end_gram(rows, exponents, dq.r[node], sign, f)
                    gram[node:node + 3, node:node + 3] += f(knots).T @ end @ f(knots)
                return _dense_to_band(extension.T @ gram @ extension)

            scale = oracle(np.abs)
            error = np.abs(dq._band(rows, ends) - oracle(lambda x: x))
            assert (error <= 1e-14 * scale).all(), (size, n, k)


def test_pencil_solves_factor_within_budget(monkeypatch):
    # The shift ladder sets each gap from the last step's fall, so a warm
    # start needs few shifts: 2523 Cholesky calls for 590 solves (4.28 a
    # solve) over the proved problems at 96 and 512 nodes, where a fixed
    # division of the gap by 1e3 took 3948 (6.69 a solve).
    calls = []
    cholesky = minimize._cholesky
    monkeypatch.setattr(minimize, "_cholesky", lambda *a, **kw: calls.append(1) or cholesky(*a, **kw))
    solves = sum(minimize_quotient(problem(kind, n, k, size=size)).iterations
                 for size in (96, 512) for kind, k in _PROVED for n in (2, 3, 5))
    assert len(calls) <= 4.7 * solves, (len(calls), solves)


def test_pencil_brackets_stay_tight():
    # Every solve ends with a certified bracket of the pencil's lambda_min at
    # t*: its relative width is at most 2e-8, and its lower end exceeds the
    # pencil value by more than 1e-9 only where the Cholesky's backward
    # error exceeds the bracket (mode_hyup2_full at k >= 1, solved in v).
    for kind in QuotientKind:
        for n in (2, 3, 4, 5):
            for k in range(4):
                for size in (96, 512):
                    res = minimize_quotient(problem(kind, n, k, size=size))
                    case = (kind, n, k, size)
                    assert res.pencil_value - res.pencil_lower <= 2e-8 * res.pencil_value, case
                    if res.pencil_lower > res.pencil_value * (1 + 1e-9):
                        assert kind is QuotientKind.MODE_HYUP2_FULL and k >= 1, case


#: Grid ends at which weights r^(p+1) or form diagonals leave the float range.
_EXTREME_ENDS = [(1e-300, 24.0), (1e-150, 24.0), (1e-60, 24.0), (1e-3, 1e150),
                 (1e-3, 1e300), (1e-200, 1e200), (1e-30, 1e30)]


def test_extreme_grids_fail_as_solver_errors():
    # The forms are judged once by value, in assembly and before the first
    # solve: every failure is a SolverError, and no floating-point warning
    # escapes on the way (the suite turns warnings into errors). Of these
    # 168 problems, 68 fail in assembly (a direct assemble() included), 53
    # more on their scaled forms or t range, and 47 solve.
    unassembled = failed = 0
    for kind, n, k, (r_min, r_max) in itertools.product(QuotientKind, (2, 5), (0, 2),
                                                         _EXTREME_ENDS):
        p = VariationalProblem.for_mode(kind, n, k, size=96, r_min=r_min, r_max=r_max)
        try:
            p.assemble()
        except SolverError:
            unassembled += 1
        try:
            res = minimize_quotient(p)
        except SolverError:
            failed += 1
        else:
            assert 0.0 < res.min_value < math.inf
    assert (unassembled, failed) == (68, 121)


@pytest.mark.parametrize("entry", [math.inf, math.nan, 1e308])
def test_scaled_forms_are_judged_before_any_solve(monkeypatch, entry):
    # An off-diagonal entry leaves the diagonals, and so the t range, finite;
    # the verdict on the scaled forms still stops it before the first solve
    # (1e308 overflows once scaled).
    p = problem("product_hup2", 3, 0, size=96)
    dq = p.assemble()
    dq.A[_BANDS - 1, 5] = entry
    monkeypatch.setattr(VariationalProblem, "assemble", lambda self: dq)
    monkeypatch.setattr(minimize, "_lowest_eigenpair", None)  # never reached
    with pytest.raises(SolverError, match="scaled forms"):
        minimize_quotient(p)


def test_shift_ladder_cap_is_a_solver_error(monkeypatch):
    # One shift cannot close a bracket of 1e-12 from a first gap of 1e-2.
    monkeypatch.setattr(minimize, "_LADDER_CAP", 1)
    with pytest.raises(SolverError, match="shift ladder"):
        minimize_quotient(problem("product_hup2", 3, 0, size=96))


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
    # scipy's BSpline is the oracle for the grid's table: on an interval,
    # each sum of every fourth B-spline is the one of its terms that is
    # nonzero there. The table holds D_0 = v, D_1 = v_s and D_2 = v_ss - v_s
    # at the rule's Gauss points in s, shape (3, spline, interval, point).
    from scipy.interpolate import BSpline

    tables = minimize._grid_tables(GridSpec(size=size))
    points = tables.rule.points.T  # (interval, point)
    knots = _clamped_knots(tables.rule.s)
    phase = np.arange(size + 2) % 4
    sums = BSpline(knots, np.equal.outer(phase, np.arange(4)).astype(float), 3)
    interval = np.arange(size - 1)
    which = (interval + np.arange(4)[:, None]) % 4
    expected = [sums(points, nu)[interval, :, which] for nu in range(3)]
    table = tables.table.copy()
    table[2] += table[1]  # v_ss
    for nu in range(3):
        scale = np.abs(expected[nu]).max()
        assert np.abs(table[nu] - expected[nu]).max() <= 1e-12 * scale, nu
        # Partition of unity: the splines sum to 1, their derivatives to 0.
        assert np.abs(table[nu].sum(axis=0) - (nu == 0)).max() <= 1e-13 * scale, nu


def test_to_profile_matches_scipy_bspline(rng):
    # The exported profile is the B-spline in ln r itself, at the nodes and
    # between them (scipy's BSpline as the oracle), with r f' = v_s and
    # r^2 f'' = v_ss - v_s.
    from scipy.interpolate import BSpline

    dq = problem("mode_hyup2_full", 3, 1, size=512).assemble()
    x = rng.standard_normal(dq.A.shape[1])
    # All nodes + 2 coefficients are free: the end pieces fix none below
    # r_min, and at k >= 1 the power tail replaces the clamp at r_max.
    coefficients = x
    assert len(coefficients) == len(dq.r) + 2
    spline = BSpline(_clamped_knots(np.log(dq.r)), coefficients, 3)
    profile = dq.to_profile(x)
    expected = spline(np.log(dq.r))
    assert np.abs(profile.values - expected).max() <= 1e-14 * np.abs(expected).max()
    radii = np.exp(rng.uniform(np.log(dq.r[0]), np.log(dq.r[-1]), 2000))
    s = np.log(radii)
    expected = (spline(s), spline(s, 1) / radii, (spline(s, 2) - spline(s, 1)) / radii**2)
    for d in (0, 1, 2):
        got = profile.value(radii, d)
        assert np.abs(got - expected[d]).max() <= 1e-12 * np.abs(expected[d]).max(), d


def test_criterion_8_minima_match_reference():
    # Minima at 512 nodes from the shift-invert Lanczos solver that the
    # banded shift ladder replaced, with the old end conditions (constant
    # continuation below r_min, or a pin or a fold there). The end pieces
    # from the asymptotics take those minima as upper bounds and never fall
    # below the proved constant.
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
        assert res.target <= res.min_value <= value * (1 + 1e-12), (kind, n, k)


def test_proved_kinds_meet_their_constants_at_the_default_grid():
    # With end pieces from the asymptotics the ends no longer limit the
    # accuracy: every proved kind at N 2-5, k 0-2 on its default 512-node
    # grid lies within 1e-10 of its constant (the constant continuation, pin
    # and fold left product_hyup2 at N = 2, k = 0 1.6e-6 above it). hardy_1d's
    # infimum is not attained; its domain error is (pi / ln(r_max / r_min))^2.
    for kind, k in _PROVED:
        if kind == "hardy_1d":
            continue
        for n in range(2, 6):
            res = minimize_quotient(VariationalProblem.for_mode(kind, n, k))
            assert res.grid.size == 512
            assert abs(res.min_value - res.target) <= 1e-10 * res.target, (kind, n, k)


def _quad_end_piece(mpmath, rows, exponents, r_end, sign, data):
    """mpmath.quad of the rows over the end piece sum_j A_j (r / r_end)^(e_j)
    with value and slope in s (v, v_s) = data at r_end, in x = r / r_end so
    that quad's tolerance is relative."""
    if len(exponents) == 1:
        terms = [mpmath.mpf(data[0])]
    else:
        terms = mpmath.lu_solve(mpmath.matrix([[1, 1], list(exponents)]), mpmath.matrix(data))
    span = [0, 1] if sign == 1 else [1, mpmath.inf]

    def row(c, d, p):
        def square(x):
            return x ** p * sum(a * _falling(e, d) * x ** (e - d)
                                for a, e in zip(terms, exponents)) ** 2
        return c * mpmath.mpf(r_end) ** (p + 1 - 2 * d) * mpmath.quad(square, span)

    return float(mpmath.fsum(row(*r) for r in rows))


def test_end_blocks_match_quadrature_of_the_end_pieces():
    # Each end block is the rows' integral over its end piece, a form in the
    # value and slope in s at the end node: against mpmath.quad of the piece
    # sum_j A_j (r / r_end)^(e_j), matched to (v, v_s) by a linear solve, at
    # three end data (which fix a symmetric 2 x 2 form). The cases meet one-
    # and two-term pieces below r_min and the tail above r_max.
    mpmath = pytest.importorskip("mpmath")
    seen = set()
    with mpmath.workdps(20):
        for kind in QuotientKind:
            for n, k in ((2, 0), (2, 1), (5, 2)):
                vp = VariationalProblem.for_mode(kind, n, k)
                forms = _kind_lookup(vp.kind, vp.mode)[0]
                head, tail = _end_exponents(vp.kind, vp.mode)
                seen.add((len(head), len(tail)))
                pieces = [(head, vp.grid.r_min, 1)] + ([(tail, vp.grid.r_max, -1)] if tail else [])
                for (exponents, r_end, sign), rows in itertools.product(pieces, forms):
                    block = _end_block(rows, exponents, r_end, sign)
                    for data in ((1.0, 0.0), (0.0, 1.0), (0.7, -1.3)):
                        exact = _quad_end_piece(mpmath, rows, exponents, r_end, sign, data)
                        got = np.array(data) @ block @ np.array(data)
                        case = (kind, n, k, sign, data)
                        assert got == pytest.approx(exact, rel=1e-12, abs=1e-300), case
    assert seen == {(1, 0), (2, 0), (2, 2)}


def test_degree_one_ladder_never_rises():
    # Every rung is conforming and the ends no longer hold the minimum up, so
    # refining the grid never raises the degree-1 minimum, and its 512-node
    # value lies within 1e-8 of the converged one (r_min 1e-9, r_max 24, 1025
    # nodes; before the end pieces the ladder sat 2.3e-4 above it at N = 2).
    converged = {2: 0.713654197, 3: 3.32510773, 4: 7.0029700}
    for n, value in converged.items():
        previous = math.inf
        for size in (128, 256, 512, 1024):
            res = minimize_quotient(problem("mode_hyup2_full", n, 1, size=size))
            assert res.min_value <= previous * (1 + 1e-12), (n, size)
            previous = res.min_value
            if size == 512:
                assert res.min_value == pytest.approx(value, rel=1e-8), n


def test_sweep_stays_above_the_constants_in_few_solves():
    # 6 kinds x N 2-5 x k 0-3 x 128 and 512 nodes: no SolverError, no minimum
    # below its proved constant, and at most 850 pencil solves in all, since
    # lambda(t) is nearly flat once the ends respect the dilation invariance
    # (1297 with the constant continuation, pin, fold and clamp).
    solves = 0
    for kind, n, k, size in itertools.product(QuotientKind, range(2, 6), range(4), (128, 512)):
        res = minimize_quotient(problem(kind, n, k, size=size))
        solves += res.iterations
        if res.target is not None:
            assert res.min_value >= res.target, (kind, n, k, size)
    assert solves <= 850


@pytest.mark.parametrize("kind", [kind.value for kind in QuotientKind])
def test_argmin_reproduces_min_value(kind):
    # The exported argmin integrates back to the reported minimum: the kind's
    # table rows over the grid, plus the exact integrals of the end pieces
    # from the argmin's end values and slopes in s. The
    # export is the minimizer's spline in ln r itself, so the two agree to
    # rounding. Its JSON form is that spline too: read back from a report it
    # has the same node values and slopes, bit for bit.
    for n in (2, 3, 5):
        for k in (0, 1, 2):
            res = minimize_quotient(problem(kind, n, k, size=512))
            read_back = profile_from_json(json.loads(render_json(res))["argmin"])
            assert read_back.values.tobytes() == res.argmin.values.tobytes(), (n, k)
            assert read_back._slopes.tobytes() == res.argmin._slopes.tobytes(), (n, k)
            forms = _kind_lookup(res.kind, res.mode)[0]
            exponents = _end_exponents(res.kind, res.mode)
            for v in (res.argmin, read_back):
                a, b, c = (math.fsum([coef * integrate(v, WeightedSeminorm(d, p))
                                      for coef, d, p in rows]
                                     + [_end_integrals(v, rows, exponents)])
                           for rows in forms)
                assert a * b / (c * c) == pytest.approx(res.min_value, rel=1e-12), (n, k)


def test_gauss_rule_truncation_is_bounded_at_512_nodes():
    # The forms are assembled by 4-point Gauss in s, exact only where the
    # weight r^(p+1-2d) is 1. Against the argmin's quotient by 16 points per
    # interval, with its end pieces' exact integrals, min_value errs by about
    # 1e-11 for hardy_1d (whose r_min of 1e-9 makes its steps in s widest)
    # and at rounding for every other kind.
    points = 16
    for kind in QuotientKind:
        bound = 5e-11 if kind is QuotientKind.HARDY_1D else 1e-13
        for n in range(2, 6):
            for k in range(4):
                res = minimize_quotient(problem(kind, n, k, size=512))
                forms = _kind_lookup(res.kind, res.mode)[0]
                exponents = _end_exponents(res.kind, res.mode)
                v = res.argmin
                s, w = (x.ravel() for x in gauss_panels(np.log(v.grid), points))
                r = np.exp(s)

                def row_value(coef, d, p):
                    return coef * math.fsum((w * r ** (p + 1) * v.value(r, d) ** 2).tolist())

                a, b, c = (math.fsum([row_value(*row) for row in rows]
                                     + [_end_integrals(v, rows, exponents)])
                           for rows in forms)
                fine = a * b / (c * c)
                assert abs(res.min_value - fine) <= bound * fine, (kind, n, k)


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


def test_flat_stop_is_stable_under_rounding(monkeypatch):
    # The flat stop is scaled by the bracket width, so a relative change of
    # 1e-15 in the scaled A band moves no explorer problem's number of pencil
    # solves by more than a few.
    cases = [(n, k, size) for n in (3, 5) for k in range(4) for size in (128, 256, 512)]
    base = [minimize_quotient(problem("mode_hyup2_full", *case)).iterations for case in cases]
    scaled_bands = minimize._scaled_bands
    for factor in (1.0 + 1e-15, 1.0 - 1e-15):
        def perturbed(dq, factor=factor):
            scale, A, B, C = scaled_bands(dq)
            return scale, A * factor, B, C

        monkeypatch.setattr(minimize, "_scaled_bands", perturbed)
        for case, solves in zip(cases, base):
            res = minimize_quotient(problem("mode_hyup2_full", *case))
            assert abs(res.iterations - solves) <= 5, (factor, case, solves, res.iterations)


def test_one_quotient_evaluation_per_probe(monkeypatch):
    # Each probe evaluates the forms once on its eigenvector, and the minimum
    # is read from the lowest probe's parts, not from a further evaluation.
    counts = {"parts": 0, "solves": 0}
    parts, solve = minimize.DiscreteQuotient.parts, minimize._lowest_eigenpair

    def counted_parts(self, x):
        counts["parts"] += 1
        return parts(self, x)

    def counted_solve(*args):
        counts["solves"] += 1
        return solve(*args)

    monkeypatch.setattr(minimize.DiscreteQuotient, "parts", counted_parts)
    monkeypatch.setattr(minimize, "_lowest_eigenpair", counted_solve)
    for kind in QuotientKind:
        for n, k in ((2, 0), (3, 1), (5, 2)):
            counts.update(parts=0, solves=0)
            res = minimize_quotient(problem(kind, n, k, size=128))
            assert counts == {"parts": res.iterations, "solves": res.iterations}, (kind, n, k)


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


def test_unknown_kind_name_is_a_usage_error():
    with pytest.raises(UsageError, match="'x' is not a valid QuotientKind"):
        VariationalProblem.for_mode("x", 3)


def test_grid_size_must_be_an_integer():
    for size in (100.5, 128.0, True, "128"):
        with pytest.raises(UsageError, match="grid size must be an integer"):
            VariationalProblem.for_mode("product_hup2", 3, size=size)
    assert len(GridSpec(size=np.int64(128)).nodes()) == 128
