"""Job lists and output gates of the benchmark workloads.

Every job is one closed-loop call into upsharp: either one in-process CLI
invocation (``upsharp.cli.main``) or one call of exported library functions.
A job is split into three steps so that only program work is timed:

* ``prepare`` expands the job's seeded input (untimed);
* ``call`` runs the program (timed; this is the job latency);
* ``check`` applies the output gates (untimed) and returns a :class:`Check`.

Package functions are always looked up through their module at call time,
so the traced run's wrappers see every call.

The gates are pinned here and are never looser than the package's own:

* certify: closed-form gap < 1e-12 and quadrature agreement < 1e-9
  (acceptance criteria 1 and 2), exact scan equality where the constant is
  proved (criteria 3 and 4), raw/reduced identity disagreement < 1e-8
  (criterion 5), the CLI's decompose-check gate 1e-6 (criterion 10), and
  panel quadrature against closed forms < 1e-9 (the default quadrature
  tolerance);
* explore: the N = 5 calibration within 3 % of 9 with no counterexample, and
  the N = 3 ladder complete with its degree-1 candidate flagged (criterion 11);
* recover: descent and pencil values within the CLI's 2 % band of the proved
  target, with ``converged`` (criterion 8).
"""

from __future__ import annotations

import importlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

CLOSED_GAP = 1e-12
QUADRATURE_AGREEMENT = 1e-9
IDENTITY_GATE = 1e-8
IDENTITY_SCALE_FLOOR = 1e-13
DECOMPOSE_GATE = 1e-6
MIXTURE_GATE = 1e-9
RECOVERY_BAND = 0.02
CALIBRATION_BAND = 0.03
#: A value counts as below a proved constant c when it is < c * (1 - 1e-9).
BELOW_SLACK = 1e-9

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


@dataclass
class Check:
    """Outcome of one job's gates."""

    ok: bool
    max_rel_err: float = 0.0
    below_proved: int = 0
    payload: str = ""  # deterministic digest input (timestamps scrubbed)
    note: str = ""


@dataclass
class Job:
    name: str
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], Check]
    prepare: Callable[[], Any] = lambda: None


def _mod(name: str):
    return importlib.import_module(f"upsharp.{name}")


# ---------------------------------------------------------------- CLI jobs


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = _mod("cli").main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_job(argv: list[str], check: Callable[[dict], Check]) -> Job:
    def checked(_args, result) -> Check:
        rc, out, err = result
        payload = _TIMESTAMP.sub('"timestamp": null', out)
        if rc != 0:
            return Check(False, payload=payload, note=f"exit code {rc}: {err.strip()[:200]}")
        outcome = check(json.loads(out))
        outcome.payload = payload
        return outcome

    return Job(" ".join(argv), lambda _args: _run_cli(argv), checked)


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _below(value: float, proved: float) -> int:
    return int(value < proved * (1.0 - BELOW_SLACK))


# ------------------------------------------------------------------ certify

_VERIFY_MIN_DIMENSION = {
    "hup": 1, "hyup": 2, "hup2": 1, "hyup2": 2, "hup2_radial": 1, "hyup2_radial": 2,
}
_BETAS = (0.25, 1.0, 4.0)
_IDENTITY_DIMS = range(2, 9)
_IDENTITY_DEGREES = range(0, 7)
_IDENTITY_DRAWS = 40          # 7 x 7 x 40 = 1960 identity jobs
_MIXTURE_JOBS = 300
_MIXTURE_SEMINORMS = tuple((d, p) for d in (0, 1, 2) for p in (1, 2, 4))
#: Uniform 4096-node grid of the identity jobs (acceptance criterion 5).
IDENTITY_GRID = (0.003, 12.0, 4096)


def _check_verify(principle: str, dims: range):
    def check(data: dict) -> Check:
        reports = data["reports"]
        closed = {(r["dimension"], r["rate"]): r for r in reports if r["mode"] == "closed_form"}
        ok = len(reports) == 2 * len(dims) * len(_BETAS) and data["failures"] == 0
        worst = 0.0
        for rep in reports:
            ref = closed[(rep["dimension"], rep["rate"])]
            if rep["mode"] == "closed_form":
                ok &= rep["rel_gap"] < CLOSED_GAP
                if rep["status"] == "proved":
                    worst = max(worst, rep["rel_gap"])
            else:
                agree = _rel(rep["quotient"], ref["quotient"])
                ok &= agree < QUADRATURE_AGREEMENT
                worst = max(worst, agree)
        return Check(ok, worst, note="" if ok else f"verify {principle} gate missed")

    return check


def _check_scan(formula: str):
    def check(data: dict) -> Check:
        ok = data["mismatches"] == 0
        for res in data["results"]:
            n = res["dimension"]
            if formula == "hup2_mode":
                proved = Fraction((n + 2) ** 2, 4)
            elif n >= 5:
                proved = Fraction((n + 1) ** 2, 4)
            else:
                continue
            inf = Fraction(res["infimum"]["num"], res["infimum"]["den"])
            ok &= inf == proved and res["argmin"] == 0
        return Check(ok, 0.0, note="" if ok else f"scan {formula} not exact")

    return check


def _check_decompose(data: dict) -> Check:
    errs = [row["rel_error"] for row in data["rows"]]
    ok = data["failures"] == 0 and all(e < DECOMPOSE_GATE for e in errs)
    return Check(ok, max(errs), note="" if ok else "decompose-check gate missed")


def _identity_job(n: int, k: int, power: int, amps, rates, grid: np.ndarray) -> Job:
    profiles, seminorms = _mod("profiles"), _mod("seminorms")

    def prepare():
        vals = sum(a * np.exp(-b * grid**2) for a, b in zip(amps, rates))
        if np.max(np.abs(vals)) < 0.05:
            vals = vals + np.exp(-grid**2)
        return grid**power * vals

    def call(values):
        mode = profiles.make_mode(n, k)
        v = profiles.SampledProfile(grid, values)
        u = profiles.unreduce_profile(mode, v)
        return [
            (
                fid.value,
                seminorms.eval_mode_functional(fid, mode, u, seminorms.Form.RAW).value,
                seminorms.eval_mode_functional(fid, mode, v, seminorms.Form.REDUCED).value,
            )
            for fid in seminorms.BOTH_FORMS
        ]

    def check(_values, rows) -> Check:
        worst = 0.0
        for _fid, raw, red in rows:
            scale = max(abs(raw), abs(red))
            if scale >= IDENTITY_SCALE_FLOOR:
                worst = max(worst, abs(raw - red) / scale)
        ok = worst < IDENTITY_GATE
        return Check(ok, worst, payload=repr(rows), note="" if ok else "identity gate missed")

    return Job(f"identity N={n} k={k}", call, check, prepare)


def _mixture_job(degree: int, components) -> Job:
    profiles, quadrature = _mod("profiles"), _mod("quadrature")

    def call(_args):
        mix = profiles.MixtureProfile(
            tuple(
                profiles.AnalyticProfile("monomial_cutoff", amp, rate, power=float(degree))
                for amp, rate in components
            )
        )
        out = []
        for d, p in _MIXTURE_SEMINORMS:
            s = quadrature.WeightedSeminorm(d, p)
            out.append(
                (d, p, quadrature.integrate(mix, s, quadrature.CLOSED_FORM),
                 quadrature.integrate(mix, s, quadrature.DEFAULT_CONFIG))
            )
        return out

    def check(_args, rows) -> Check:
        worst = max(_rel(panel, exact) for _d, _p, exact, panel in rows if exact != 0.0)
        ok = worst < MIXTURE_GATE
        return Check(ok, worst, payload=repr(rows), note="" if ok else "mixture gate missed")

    return Job(f"mixture degree={degree}", call, check)


def certify_jobs(seed: int) -> list[Job]:
    """Thousands of short jobs through profiles, quadrature, seminorms,
    constants, extremals, cli and reports; minimize does no work here."""
    jobs = []
    for principle, lo in _VERIFY_MIN_DIMENSION.items():
        dims = range(lo, 11)
        argv = ["verify", principle, "--n", f"{lo}..10", "--beta", "0.25,1,4",
                "--mode", "both", "--seed", str(seed)]
        jobs.append(_cli_job(argv, _check_verify(principle, dims)))
    for formula in ("hup2_mode", "hyup2_mode"):
        argv = ["scan", formula, "--n", "2..50", "--k-max", "64", "--seed", str(seed)]
        jobs.append(_cli_job(argv, _check_scan(formula)))
    for n in (2, 3):
        for k in (0, 1, 2):
            argv = ["decompose-check", "--n", str(n), "--mode-k", str(k), "--seed", str(seed)]
            jobs.append(_cli_job(argv, _check_decompose))

    rng = np.random.default_rng([seed, 5])
    grid = np.linspace(*IDENTITY_GRID)
    for n in _IDENTITY_DIMS:
        for k in _IDENTITY_DEGREES:
            for _ in range(_IDENTITY_DRAWS):
                power = 2 * int(rng.integers(2, 4))
                amps = tuple(rng.uniform(-1.0, 1.0, 3).tolist())
                rates = tuple(rng.uniform(0.5, 1.2, 3).tolist())
                jobs.append(_identity_job(n, k, power, amps, rates, grid))

    rng = np.random.default_rng([seed, 6])
    for _ in range(_MIXTURE_JOBS):
        degree = int(rng.integers(0, 4))
        components = tuple(
            (float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])), float(rng.uniform(0.5, 1.5)))
            for _ in range(2)
        )
        jobs.append(_mixture_job(degree, components))
    return jobs


# ------------------------------------------------------------------ explore

# Acceptance criterion 11's settings with one restart instead of two: the
# noisy second restart never gives the reported minimum and doubles the
# time, which would not fit a run.
EXPLORE_FLAGS = ["--k-max", "3", "--ladder", "128,256,512", "--restarts", "1",
                 "--budget", "3500", "--trials", "100"]


def _check_conjecture(n: int):
    proved_radial = (n + 1) ** 2 / 4.0  # degree-0 mode = radial inequality, proved N >= 2

    def check(data: dict) -> Check:
        rep = data["report"]
        ok = len(rep["ladder"]) == 3 * 4 and "evidence" in rep["status"]  # rungs x degrees
        if n == 5:
            ok &= _rel(rep["estimated_infimum"], 9.0) < CALIBRATION_BAND
            ok &= rep["counterexample"] is None
        else:
            ok &= rep["counterexample"] is not None and rep["counterexample"]["degree"] == 1
        worst, below = 0.0, 0
        for entry in rep["ladder"]:
            if entry["degree"] != 0:
                continue
            for key in ("min_value", "eigen_value"):
                if key in entry:
                    worst = max(worst, _rel(entry[key], proved_radial))
                    below += _below(entry[key], proved_radial)
        combined = rep["combined_bound"]
        for row in combined["rows"]:
            worst = max(worst, _rel(row["min_value"], row["continuum"]))
            below += _below(row["min_value"], row["continuum"])
        worst = max(worst, _rel(combined["combined"], combined["exact_combined"]["float"]))
        return Check(ok, worst, below, note="" if ok else f"conjecture N={n} gate missed")

    return check


def explore_jobs(seed: int) -> list[Job]:
    """The conjecture explorer on one open (N = 3) and one proved (N = 5)
    dimension: projected descent on the 128/256/512 ladder dominates."""
    return [
        _cli_job(["conjecture", "--n", str(n), *EXPLORE_FLAGS, "--seed", str(seed)],
                 _check_conjecture(n))
        for n in (3, 5)
    ]


# ------------------------------------------------------------------ recover

RECOVER_PROBLEMS = (
    ("product_hup2", 2, 0),
    ("product_hup2", 3, 0),
    ("product_hup2", 3, 1),
    ("product_hup2", 5, 0),
    ("product_hyup2", 5, 0),
    ("product_hyup2", 5, 1),
    ("classic_hup", 3, 0),
    ("classic_hyup", 3, 0),
    ("mode_hyup2_full", 5, 0),
)
# 768 nodes and one restart keep a pass near 20 s with one BLAS thread (1024
# nodes take about 45 s). At 1024 nodes one and three restarts reported the
# same minima on all nine problems.
RECOVER_FLAGS = ["--m", "768", "--restarts", "1", "--budget", "6000"]


def _check_minimize(data: dict) -> Check:
    res, eigen = data["result"], data["eigen_crosscheck"]
    target = res["target"]
    if target is None or eigen is None:
        return Check(False, note="no proved target or no pencil value")
    values = (res["min_value"], eigen)
    ok = res["converged"] and all(_rel(v, target) < RECOVERY_BAND for v in values)
    return Check(
        ok,
        max(_rel(v, target) for v in values),
        sum(_below(v, target) for v in values),
        note="" if ok else f"{res['kind']} outside the recovery band",
    )


def recover_jobs(seed: int) -> list[Job]:
    """Variational recovery of proved constants at 768 nodes with the dense
    eigenvalue-pencil cross-check on (the pencil dominates)."""
    return [
        _cli_job(["minimize", kind, "--n", str(n), "--k", str(k), *RECOVER_FLAGS,
                  "--seed", str(seed)], _check_minimize)
        for kind, n, k in RECOVER_PROBLEMS
    ]


_BUILDERS = {"certify": certify_jobs, "explore": explore_jobs, "recover": recover_jobs}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list[Job]:
    return _BUILDERS[workload](seed)
