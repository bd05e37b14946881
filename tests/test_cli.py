import json
import re

import pytest

from upsharp.cli import main, parse_float_list, parse_int_range
from upsharp.errors import UsageError


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
    ):
        rc, _ = run_cli(capsys, args)
        assert rc == 2, args


def test_bad_config_files_are_usage_errors(capsys, tmp_path):
    # A config value of the wrong type or outside its flag's choices,
    # malformed JSON and a missing file are usage errors (exit 2), not
    # verification failures (exit 1).
    cases = [
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


def test_verify_sweep_passes(capsys):
    rc, out = run_cli(capsys, ["verify", "hup2", "--n", "1..10"])
    data = json.loads(out)
    assert rc == 0
    assert data["failures"] == 0
    assert len(data["reports"]) == 10 * 3 * 2  # dims x betas x modes
    closed = [r for r in data["reports"] if r["mode"] == "closed_form"]
    assert all(r["rel_gap"] < 1e-12 for r in closed)


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


def test_minimize_history_csv(capsys, tmp_path):
    out_path = tmp_path / "history.csv"
    rc, _ = run_cli(capsys, [
        "minimize", "classic_hyup", "--n", "3", "--m", "128", "--budget", "3000",
        "--restarts", "1", "--format", "csv", "--out", str(out_path),
    ])
    assert rc == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, rel=0.02)  # (N-1)^2/4 at N=3


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


def test_deterministic_reruns_modulo_timestamp(capsys):
    args = ["verify", "hup2", "--n", "2..4", "--seed", "3"]
    _, first = run_cli(capsys, args)
    _, second = run_cli(capsys, args)
    scrub = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
    assert scrub(first) == scrub(second)


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "4", "beta": "2", "mode": "closed_form"}))
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
