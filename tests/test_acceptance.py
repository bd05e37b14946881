"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here exactly as stated; nothing is deferred to later
calibration. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import IDENTITY_GRID, gaussian_mixture, interior_values
from upsharp.constants import scan_infimum
from upsharp.extremals import extremal_quotient
from upsharp.minimize import (
    VariationalProblem,
    explore_conjecture,
    minimize_quotient,
    mode_combined_bound,
)
from upsharp.profiles import AnalyticProfile, SampledProfile, make_mode, unreduce_profile
from upsharp.quadrature import CLOSED_FORM
from upsharp.seminorms import (
    BOTH_FORMS,
    Form,
    FunctionalId,
    eval_mode_functional,
    full_space_value,
    hardy_1d_ratio,
    vector_equiv_check_2d,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_extremal_exactness_hup2():
    worst_closed, worst_agree = 0.0, 0.0
    for n in range(1, 11):
        for beta in (0.25, 1.0, 4.0):
            closed = extremal_quotient("hup2", n, beta, "closed_form")
            worst_closed = max(worst_closed, closed.rel_gap)
            quad = extremal_quotient("hup2", n, beta, "quadrature")
            worst_agree = max(
                worst_agree, abs(quad.quotient - closed.quotient) / closed.quotient
            )
    ok = worst_closed < 1e-12 and worst_agree < 1e-9
    _report(
        "1 (second-order Heisenberg extremals)",
        ok,
        f"worst closed gap {worst_closed:.2e}, worst quadrature agreement {worst_agree:.2e}",
    )


def test_criterion_02_extremal_exactness_hyup2():
    worst = max(extremal_quotient("hyup2", n, 1.0).rel_gap for n in range(5, 11))
    _report("2 (second-order hydrogen extremals)", worst < 1e-12, f"worst gap {worst:.2e}")


def test_criterion_03_hup2_mode_scan():
    ok = True
    for n in range(2, 51):
        res = scan_infimum("hup2_mode", n, 20)
        ok &= res.argmin == 0 and res.infimum == Fraction((n + 2) ** 2, 4)
    from upsharp.constants import hup2_mode_bound

    spots = (
        hup2_mode_bound(2, 0) == 4
        and hup2_mode_bound(3, 0) == Fraction(25, 4)
        and hup2_mode_bound(3, 1) == Fraction(833, 100)
    )
    _report("3 (gradient-side mode scan)", ok and spots, "N=2..50 exact, spot values exact")


def test_criterion_04_hyup2_mode_scan():
    from upsharp.constants import hyup2_mode_bound

    ok = True
    for n in range(5, 51):
        res = scan_infimum("hyup2_mode", n, 20)
        ok &= res.argmin == 0 and res.infimum == Fraction((n + 1) ** 2, 4)
        ok &= all(
            hyup2_mode_bound(n, k + 1) >= hyup2_mode_bound(n, k) for k in range(1, 20)
        )
    moved = {}
    for n in (2, 3, 4):
        res = scan_infimum("hyup2_mode", n, 20)
        moved[n] = (res.argmin, res.infimum)
        ok &= res.argmin != 0 and res.infimum < Fraction((n + 1) ** 2, 4)
    detail = "; ".join(
        f"N={n}: argmin {arg}, infimum {inf}" for n, (arg, inf) in moved.items()
    )
    _report("4 (hydrogen-side mode scan)", ok, f"low dimensions documented: {detail}")


def test_criterion_05_identity_suite():
    rng = np.random.default_rng(51)
    grid = IDENTITY_GRID
    worst = 0.0
    worst_case = None
    for n in range(2, 9):
        for k in range(0, 7):
            mode = make_mode(n, k)
            for _ in range(50):
                v = SampledProfile(grid, interior_values(rng, grid))
                u = unreduce_profile(mode, v)
                for fid in BOTH_FORMS:
                    raw = eval_mode_functional(fid, mode, u, Form.RAW).value
                    red = eval_mode_functional(fid, mode, v, Form.REDUCED).value
                    scale = max(abs(raw), abs(red))
                    if scale < 1e-13:
                        continue
                    rel = abs(raw - red) / scale
                    if rel > worst:
                        worst, worst_case = rel, (n, k, fid.value)
    ok = worst < 1e-8
    _report("5 (raw/reduced identity suite)", ok, f"worst {worst:.2e} at {worst_case}")


def test_criterion_06_second_order_energy_ordering():
    rng = np.random.default_rng(62)
    worst_slack = 0.0
    for n in range(3, 9):
        for _ in range(100):
            degrees = rng.choice(np.arange(6), size=3, replace=False)
            lap_vals, rad_vals = [], []
            for k in sorted(int(x) for x in degrees):
                u_k = gaussian_mixture(rng, degree=k)
                mode = make_mode(n, k)
                lap_vals.append(
                    eval_mode_functional(
                        FunctionalId.LAPLACIAN_ENERGY, mode, u_k, Form.RAW, CLOSED_FORM
                    )
                )
                rad_vals.append(
                    eval_mode_functional(
                        FunctionalId.RADIAL_LAPLACIAN_ENERGY, mode, u_k, Form.RAW, CLOSED_FORM
                    )
                )
            lap = full_space_value(lap_vals)
            rad = full_space_value(rad_vals)
            slack = (rad - lap) / max(lap, 1e-300)
            worst_slack = max(worst_slack, slack)
    ok = worst_slack <= 1e-9
    _report(
        "6 (squared-Laplacian dominates radial part, N>=3)",
        ok,
        f"worst relative slack {worst_slack:.2e}",
    )


def test_criterion_07_weighted_hardy():
    rng = np.random.default_rng(73)
    grid = np.linspace(1e-3, 14.0, 2000)
    worst_margin = math.inf
    for n in range(2, 7):
        for k in range(0, 5):
            mode = make_mode(n, k)
            target = (n + 2 * k) ** 2 / 4
            for _ in range(100):
                amps = rng.uniform(-1.0, 1.0, 3)
                rates = rng.uniform(0.4, 1.5, 3)
                centers = rng.uniform(0.0, 3.0, 3)
                vals = sum(
                    a * np.exp(-b * (grid - c) ** 2)
                    for a, b, c in zip(amps, rates, centers)
                )
                if np.max(np.abs(vals)) < 0.05:
                    continue
                ratio = hardy_1d_ratio(mode, SampledProfile(grid, vals))
                worst_margin = min(worst_margin, ratio - target)
    monotone = True
    for (n, k) in ((2, 0), (4, 1), (6, 4)):
        target = (n + 2 * k) ** 2 / 4
        ratios = [
            hardy_1d_ratio(
                make_mode(n, k),
                AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=-(n + 2 * k) / 2 + eps),
                CLOSED_FORM,
            )
            for eps in (0.4, 0.2, 0.1)
        ]
        monotone &= ratios[0] > ratios[1] > ratios[2] > target
    ok = worst_margin >= -5e-3 and monotone
    _report(
        "7 (weighted 1-d Hardy ratios)",
        ok,
        f"worst margin {worst_margin:+.2e}, near-extremal approach monotone: {monotone}",
    )


def test_criterion_08_variational_recovery():
    runs = [
        ("product_hup2", 2, 0, 4.0),
        ("product_hup2", 3, 0, 25 / 4),
        ("product_hup2", 3, 1, 49 / 4),
        ("product_hup2", 5, 0, 49 / 4),
        ("product_hyup2", 5, 0, 9.0),
        ("product_hyup2", 5, 1, 16.0),
        ("classic_hup", 3, 0, 9 / 4),
        ("classic_hyup", 3, 0, 1.0),
    ]
    worst = 0.0
    ok = True
    for kind, n, k, target in runs:
        problem = VariationalProblem.for_mode(kind, n, k, size=512)
        res = minimize_quotient(problem)
        rel = abs(res.min_value - target) / target
        worst = max(worst, rel)
        ok &= rel < 0.02 and res.converged
    _report("8 (variational recovery at M=512)", ok, f"worst deviation {worst:.2%}")


def test_criterion_09_combined_bounds():
    ok = True
    details = []
    for quotient, n, target in (("hup2", 2, 4.0), ("hup2", 4, 9.0), ("hyup2", 5, 9.0)):
        cb = mode_combined_bound(quotient, n, k_max=6, size=512)
        rel = abs(cb.combined - target) / target
        scan_match = abs(cb.combined - float(cb.exact_combined)) / float(cb.exact_combined)
        ok &= rel < 0.03 and scan_match < 0.03 and cb.argmin_degree == 0
        details.append(f"{quotient} N={n}: {cb.combined:.4f} (target {target}, gap {rel:.2%})")
    _report("9 (combined per-mode bounds)", ok, "; ".join(details))


def test_criterion_10_vector_field_equivalence():
    lhs, rhs = vector_equiv_check_2d(AnalyticProfile("gaussian", 1.0, 1.0), 0)
    rel_radial = abs(lhs - rhs) / rhs
    lhs, rhs = vector_equiv_check_2d(
        AnalyticProfile("monomial_cutoff", 1.0, 1.0, power=1.0), 1
    )
    rel_mode = abs(lhs - rhs) / rhs
    ok = rel_radial < 1e-6 and rel_mode < 1e-6
    _report(
        "10 (divergence-free vector-field equivalence, N=2)",
        ok,
        f"radial {rel_radial:.2e}, degree-1 mode {rel_mode:.2e}",
    )


def test_criterion_11_conjecture_explorer():
    ladder = (128, 256, 512)
    calibration = explore_conjecture(
        5, k_max=3, resolutions=ladder
    )
    cal_gap = abs(calibration.estimated_infimum - 9.0) / 9.0
    ok = cal_gap < 0.03 and calibration.counterexample is None
    details = [f"N=5 calibration {calibration.estimated_infimum:.4f} (gap {cal_gap:.2%})"]
    for n in (2, 3, 4):
        report = explore_conjecture(
            n, k_max=3, resolutions=ladder
        )
        complete = (
            len(report.ladder) == len(ladder) * 4
            and report.estimated_infimum > 0
            and "evidence" in report.status
        )
        ok &= complete
        flag = (
            f"candidate at degree {report.counterexample['degree']}"
            if report.counterexample
            else "no candidate"
        )
        details.append(
            f"N={n}: inf~{report.estimated_infimum:.4f} vs {report.conjectured:.4f}, {flag}"
        )
    _report("11 (conjecture explorer, evidence only)", ok, "; ".join(details))
