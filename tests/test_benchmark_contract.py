"""The benchmark's CLI jobs pass their own gates.

``perfbench/workloads.py`` reads the CLI's JSON reports; running its CLI
jobs here through their own ``prepare``/``call``/``check`` makes a change of
report schema fail the test suite before it fails the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
COMMANDS = {"verify", "scan", "minimize", "conjecture", "decompose-check"}


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module of the classes it decorates by name.
    sys.modules["workloads"] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["workloads"]
    return module


def test_benchmark_cli_jobs_pass_their_gates():
    wl = _workloads()
    jobs = [job for name in wl.WORKLOADS for job in wl.build(name, 3)
            if job.name.split()[0] in COMMANDS]
    assert len(jobs) == 25
    for job in jobs:
        args = job.prepare()
        outcome = job.check(args, job.call(args))
        assert outcome.ok, (job.name, outcome.note)
        assert outcome.below_proved == 0, job.name
