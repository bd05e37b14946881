import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import upsharp
from upsharp.cli import EXIT_COMPUTE, main, parse_float_list, parse_int_range
from upsharp.constants import PrincipleId
from upsharp.errors import UsageError
from upsharp.minimize import QuotientKind, minimize_quotient
from upsharp.reports import render_json


def run_cli(capsys, args):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_range_parsing():
    assert parse_int_range("2..5") == [2, 3, 4, 5]
    assert parse_int_range("7") == [7]
    assert parse_int_range("2,4,9") == [2, 4, 9]
    assert parse_float_list("0.25,1,4") == [0.25, 1.0, 4.0]
    with pytest.raises(UsageError):
        parse_int_range("5..2")


def test_malformed_numbers_are_usage_errors(capsys):
    for args in (
        ["verify", "hup", "--n", "x"],
        ["conjecture", "--n", "5", "--ladder", ","],
        ["conjecture", "--n", "5", "--ladder", "96.7"],
        ["minimize", "product_hup2", "--n", "3", "--r-max", "inf"],
        ["minimize", "product_hup2", "--n", "3", "--band", "nan"],
        ["minimize", "product_hup2", "--n", "3", "--band", "-1"],
        ["minimize", "product_hup2", "--n", "3", "--band", "inf"],
        ["verify", "hup", "--n", "3", "--beta", "inf"],
        ["decompose-check", "--n", "3", "--amplitude", "nan"],
        ["conjecture", "--n", "5", "--k-max", "-1", "--ladder", "96"],
        ["verify", "hup", "--format", "xml"],
        ["decompose-check", "--beta", "1,7"],
        ["minimize", "product_hup2", "--n", "2..3"],
    ):
        rc, _ = run_cli(capsys, args)
        assert rc == 2, args


def test_bad_config_files_are_usage_errors(capsys, tmp_path):
    # A config value of the wrong type or outside its flag's choices, a key
    # that names no flag, malformed JSON and a missing file are usage errors
    # (exit 2), not verification failures (exit 1).
    cases = [
        (["verify", "hup", "--n", "3"], '{"bogus": 1}'),
        (["minimize", "product_hup2", "--n", "3"], '{"band": "abc"}'),
        (["verify", "hup", "--n", "3"], '{"format": "xml"}'),
        (["minimize", "product_hup2", "--n", "3"], '{"m": 512.5}'),
        (["scan", "hup2_mode", "--n", "3"], '{"k_max": "x"}'),
        (["verify", "hup", "--n", "3"], '{"n": "3",'),
        (["verify", "hup", "--n", "3"], None),
    ]
    for i, (args, text) in enumerate(cases):
        cfg = tmp_path / f"cfg{i}.json"
        if text is not None:
            cfg.write_text(text)
        rc, _ = run_cli(capsys, args + ["--config", str(cfg)])
        assert rc == 2, (args, text)


@pytest.mark.parametrize("beta", ["1e300", "1e-300"])
def test_verify_out_of_range_beta_is_a_computation_failure(capsys, beta):
    # The moments overflow (1e300) or underflow to 0 (1e-300): a NaN quotient
    # must fail the computation, not pass the gate.
    rc = main(["verify", "hup2", "--n", "3", "--beta", beta])
    assert rc == EXIT_COMPUTE
    assert "computation failed" in capsys.readouterr().err


def run_python(args):
    """Run a fresh interpreter that imports this checkout's upsharp."""
    src = str(Path(upsharp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_console_usage_error_exits_2_without_traceback(tmp_path):
    # The console entry point, not just main(): a bad config value is an
    # argparse error on stderr and exit status 2.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"band": "abc"}')
    proc = run_python(["-m", "upsharp.cli", "minimize", "product_hup2", "--n", "3",
                       "--config", str(cfg)])
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_sweep_passes(capsys):
    rc, out = run_cli(capsys, ["verify", "hup2", "--n", "1..10"])
    data = json.loads(out)
    assert rc == 0
    assert data["failures"] == 0
    assert len(data["reports"]) == 10 * 3 * 2  # dims x betas x modes
    closed = [r for r in data["reports"] if r["mode"] == "closed_form"]
    assert all(r["rel_gap"] < 1e-12 for r in closed)


@pytest.mark.parametrize("args", [
    *(["verify", p.value] for p in PrincipleId),
    ["scan", "hup2_mode"],
    ["scan", "hyup2_mode"],
    *(["minimize", k.value] for k in QuotientKind),
    ["conjecture"],
    ["decompose-check"],
], ids=" ".join)
def test_required_arguments_alone_succeed(capsys, args):
    rc, out = run_cli(capsys, args)
    assert rc == 0, args
    json.loads(out)


def test_verify_default_range_starts_at_least_dimension(capsys):
    least = {"hup": 1, "hyup": 2, "hup2": 1, "hyup2": 2, "hup2_radial": 1, "hyup2_radial": 2}
    assert set(least) == {p.value for p in PrincipleId}
    for principle, first in least.items():
        rc, out = run_cli(capsys, ["verify", principle, "--mode", "closed_form"])
        data = json.loads(out)
        assert rc == 0
        assert data["manifest"]["parameters"]["n"] == f"{first}..10"
        assert [r["dimension"] for r in data["reports"]][::3] == list(range(first, 11))


def test_verify_radial_reports_carry_the_radial_note(capsys):
    rc, out = run_cli(capsys, ["verify", "hup2_radial", "--n", "2..3"])
    reports = json.loads(out)["reports"]
    assert rc == 0 and len(reports) == 2 * 3 * 2
    assert all("degree-0 scalar quotient" in r["note"] for r in reports)


def test_verify_theorem_range_usage_error(capsys):
    rc, _ = run_cli(capsys, ["verify", "hyup2", "--n", "1"])
    assert rc == 2


def test_verify_identical_quotients_across_beta(capsys):
    rc, out = run_cli(capsys, ["verify", "hup", "--n", "3", "--beta", "0.25,1,4",
                               "--mode", "closed_form"])
    data = json.loads(out)
    assert rc == 0
    values = [r["quotient"] for r in data["reports"]]
    assert len(values) == 3
    assert max(values) - min(values) < 1e-13
    assert values[0] == pytest.approx(9 / 4, rel=1e-12)


def test_scan_command_and_annotations(capsys):
    rc, out = run_cli(capsys, ["scan", "hup2_mode", "--n", "2..20", "--k-max", "16"])
    data = json.loads(out)
    assert rc == 0 and data["mismatches"] == 0
    assert all(res["argmin"] == 0 for res in data["results"])

    rc, out = run_cli(capsys, ["scan", "hyup2_mode", "--n", "2..6", "--k-max", "16"])
    data = json.loads(out)
    assert rc == 0
    noted = {a["dimension"] for a in data["annotations"]}
    assert noted == {2, 3, 4}

    rc, out = run_cli(capsys, ["scan", "hyup2_mode", "--n", "5..20", "--k-max", "16"])
    data = json.loads(out)
    assert rc == 0
    for res in data["results"]:
        n = res["dimension"]
        assert res["infimum"]["num"] * 4 == (n + 1) ** 2 * res["infimum"]["den"]


def test_scan_csv_format(capsys):
    rc, out = run_cli(capsys, ["scan", "hup2_mode", "--n", "2", "--k-max", "8",
                               "--format", "csv"])
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "formula,N,k,num,den,value"
    assert lines[1].startswith("hup2_mode,2,0,4,1,")


def test_minimize_command(capsys):
    rc, out = run_cli(capsys, [
        "minimize", "product_hup2", "--n", "2", "--k", "0", "--m", "256",
        "--seed", "7", "--restarts", "2", "--budget", "5000",
    ])
    data = json.loads(out)
    assert rc == 0
    assert data["result"]["min_value"] == pytest.approx(4.0, rel=0.02)
    assert data["result"]["converged"]
    assert data["eigen_crosscheck"] == pytest.approx(data["result"]["min_value"], rel=0.01)


def test_unconverged_minimize_names_exit_reason(capsys, monkeypatch):
    def at_range_end(problem):
        res = minimize_quotient(problem)
        return dataclasses.replace(res, exit="range_end", converged=False)

    monkeypatch.setattr(upsharp.cli, "minimize_quotient", at_range_end)
    rc = main(["minimize", "product_hup2", "--n", "2", "--m", "96"])
    err = capsys.readouterr().err
    assert rc == EXIT_COMPUTE
    assert "exit range_end" in err and "not bracketed" in err


def test_minimize_csv_row(capsys, tmp_path):
    out_path = tmp_path / "result.csv"
    rc, _ = run_cli(capsys, [
        "minimize", "classic_hyup", "--n", "3", "--m", "128", "--budget", "3000",
        "--restarts", "1", "--format", "csv", "--out", str(out_path),
    ])
    assert rc == 0
    header, row = (line.split(",") for line in out_path.read_text().strip().splitlines())
    assert header == ["kind", "N", "k", "size", "min_value", "pencil_value", "pencil_lower",
                      "t_star", "exit", "iterations"]
    row = dict(zip(header, row))
    assert (row["kind"], row["N"], row["k"], row["size"]) == ("classic_hyup", "3", "0", "128")
    assert float(row["min_value"]) == pytest.approx(1.0, rel=0.02)  # (N-1)^2/4 at N=3
    assert float(row["pencil_value"]) == pytest.approx(float(row["min_value"]), rel=1e-6)
    assert row["exit"] in ("flat", "bracketed") and int(row["iterations"]) >= 1


def test_conjecture_calibration_command(capsys):
    rc, out = run_cli(capsys, [
        "conjecture", "--n", "5", "--k-max", "2", "--ladder", "96,160",
        "--budget", "2000", "--restarts", "1", "--trials", "10",
    ])
    data = json.loads(out)["report"]
    assert rc == 0
    assert data["estimated_infimum"] == pytest.approx(9.0, rel=0.03)
    assert data["counterexample"] is None
    assert "evidence" in data["status"]

    rc, out = run_cli(capsys, ["conjecture", "--n", "5", "--k-max", "1", "--ladder", "96",
                               "--format", "csv"])
    lines = out.strip().splitlines()
    assert rc == 0 and lines[0] == "k,resolution,min_value"
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "96"], ["1", "96"]]


def test_conjecture_radial_only_matches_radial_theorem(capsys):
    rc, out = run_cli(capsys, [
        "conjecture", "--n", "2", "--k-max", "0", "--ladder", "96,160",
        "--budget", "2500", "--restarts", "1", "--trials", "5",
    ])
    data = json.loads(out)["report"]
    assert rc == 0
    assert data["estimated_infimum"] == pytest.approx(9 / 4, rel=0.03)


def test_conjecture_rejects_bad_dimension(capsys):
    rc, _ = run_cli(capsys, ["conjecture", "--n", "7"])
    assert rc == 2


def test_decompose_check(capsys):
    rc, out = run_cli(capsys, ["decompose-check", "--n", "2"])
    data = json.loads(out)
    assert rc == 0 and data["failures"] == 0
    checks = {row["check"] for row in data["rows"]}
    assert "vector_field_energy_vs_scalar" in checks

    rc, out = run_cli(capsys, ["decompose-check", "--n", "2", "--mode-k", "1"])
    assert rc == 0

    rc, out = run_cli(capsys, ["decompose-check", "--n", "3"])
    data = json.loads(out)
    assert rc == 0
    assert all(row["rel_error"] < 1e-6 for row in data["rows"])

    rc, _ = run_cli(capsys, ["decompose-check", "--n", "4"])
    assert rc == 2

    # At beta = 1000 the integrals are small (down to 4e-15); the adaptive
    # rule still resolves them to its relative tolerance.
    rc, out = run_cli(capsys, ["decompose-check", "--n", "2", "--mode-k", "2", "--beta", "1000"])
    assert rc == 0 and json.loads(out)["failures"] == 0


@pytest.mark.parametrize("beta", ["1e-100", "1e100"])
def test_decompose_check_extreme_rates_stay_exact(capsys, beta):
    # The closed-form moments of a Gaussian at rate 1e-100 or 1e100 are in
    # range even though its coefficient products are not: every row still
    # agrees to rounding.
    rc, out = run_cli(capsys, ["decompose-check", "--n", "2", "--mode-k", "0", "--beta", beta])
    data = json.loads(out)
    assert rc == 0 and data["failures"] == 0
    assert all(row["rel_error"] < 1e-13 for row in data["rows"])


@pytest.mark.parametrize("flags", [
    ["--amplitude", "0"], ["--amplitude", "1e-200"], ["--beta", "1e300"],
    ["--amplitude", "1e200"], ["--n", "3", "--amplitude", "1e200"], ["--beta", "1e-300"],
    ["--n", "3", "--beta", "1e300"],
])
def test_decompose_check_degenerate_profile_is_a_computation_failure(capsys, flags):
    # Integrals that underflow to 0 or overflow make a row meaningless: a
    # row with a zero or non-finite side must fail the computation, not pass
    # the gate, and no floating-point warning may reach stderr.
    rc = main(["decompose-check", *flags])
    err = capsys.readouterr().err
    assert rc == EXIT_COMPUTE
    assert err.startswith("computation failed") and "Warning" not in err


def test_deterministic_reruns_modulo_timestamp(capsys):
    args = ["verify", "hup2", "--n", "2..4", "--seed", "3"]
    _, first = run_cli(capsys, args)
    _, second = run_cli(capsys, args)
    scrub = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
    assert scrub(first) == scrub(second)


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "4", "beta": "2", "mode": "closed_form", "out": None}))
    rc, out = run_cli(capsys, ["verify", "hup2", "--config", str(cfg)])
    data = json.loads(out)
    assert rc == 0
    assert len(data["reports"]) == 1
    assert data["reports"][0]["dimension"] == 4
    assert data["reports"][0]["rate"] == 2.0

    rc, out = run_cli(capsys, ["verify", "hup2", "--config", str(cfg), "--n", "6"])
    data = json.loads(out)
    assert data["reports"][0]["dimension"] == 6  # flag wins


def test_manifest_embedded(capsys):
    rc, out = run_cli(capsys, ["scan", "hup2_mode", "--n", "2", "--k-max", "8"])
    data = json.loads(out)
    manifest = data["manifest"]
    assert manifest["command"] == "scan"
    assert manifest["parameters"]["k_max"] == 8
    assert "upsharp" in manifest["versions"]
    assert re.match(r"\d{4}-\d{2}-\d{2}T", manifest["timestamp"])


def test_render_json_rejects_unknown_objects():
    with pytest.raises(TypeError):
        render_json({"x": object()})


@pytest.mark.parametrize("args", [
    "product_hup2 --n 2 --r-min 1e-300",
    "product_hup2 --n 5 --k 3 --r-min 1e-30 --m 128",
    "hardy_1d --n 3 --r-max 1e300 --m 64",
    "classic_hyup --n 2 --r-min 1e-200 --m 128",
    "product_hup2 --n 5 --k 3 --r-min 1e-25 --m 128",
])
def test_extreme_grids_are_computation_failures(capsys, args):
    # A form diagonal that underflows to 0 or overflows leaves no finite t
    # range: a typed failure (exit 3), raised before any RuntimeWarning (the
    # suite turns warnings into errors, and an escaping one fails the test).
    rc = main(["minimize", *args.split()])
    assert rc == EXIT_COMPUTE
    assert "computation failed" in capsys.readouterr().err


def test_tiny_r_min_still_solves(capsys):
    rc, out = run_cli(capsys, ["minimize", "product_hup2", "--n", "2", "--r-min", "1e-30"])
    assert rc == 0 and json.loads(out)["result"]["converged"]


def test_minimize_at_dimension_one_is_a_usage_error(capsys):
    # No per-mode quotient is the N = 1 problem (n1_quotient_check is).
    for kind in QuotientKind:
        rc = main(["minimize", kind.value, "--n", "1", "--m", "64"])
        assert rc == 2, kind
        assert "dimension >= 2" in capsys.readouterr().err


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    for out in (tmp_path, tmp_path / "missing" / "report.json"):
        rc = main(["scan", "hup2_mode", "--n", "2", "--k-max", "8", "--out", str(out)])
        assert rc == 2, out
        assert "cannot write report" in capsys.readouterr().err


_IMPORT_GUARD = """
import json, sys
import upsharp.cli
heavy = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.sparse",
         "scipy.spatial", "scipy.special", "scipy.fft")
loaded = [m for m in heavy if m in sys.modules]
from upsharp.profiles import AnalyticProfile
from upsharp.quadrature import CLOSED_FORM, QuadratureRule, WeightedSeminorm, integrate
u, s = AnalyticProfile("hydrogen_second", 1.0, 0.7), WeightedSeminorm(2, 3)
values = [integrate(u, s, rule) for rule in (QuadratureRule.ADAPTIVE, CLOSED_FORM)]
print(json.dumps({"loaded": loaded, "values": values}))
"""


def test_import_loads_only_numpy_and_scipy_linalg():
    # Start-up imports numpy and scipy.linalg; scipy.integrate comes in only
    # with the adaptive oracle, which still agrees with the closed form.
    proc = run_python(["-c", _IMPORT_GUARD])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    adaptive, exact = result["values"]
    assert adaptive == pytest.approx(exact, rel=1e-9)
