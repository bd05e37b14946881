"""The benchmark's jobs pass their own gates, and its tracer still fits.

``perfbench/workloads.py`` reads the CLI's JSON reports and calls library
functions by name (``quadrature.integrate`` with ``CLOSED_FORM`` and
``DEFAULT_CONFIG``, ``seminorms.eval_mode_functional``); running its jobs
here through their own ``prepare``/``call``/``check`` makes a change of
report schema or a rename fail the test suite before it fails the benchmark.
Likewise ``perfbench/tracing.py`` wraps functions by name and its hooks read
result fields; installing it around one job makes a rename of either fail
here.
"""

import functools
import importlib.util
import sys
from pathlib import Path

from upsharp.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COMMANDS = {"verify", "scan", "minimize", "conjecture", "decompose-check"}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module of the classes it decorates by name.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_benchmark_cli_jobs_pass_their_gates():
    wl = _load("workloads")
    jobs = [job for name in wl.WORKLOADS for job in wl.build(name, 3)
            if job.name.split()[0] in COMMANDS]
    assert len(jobs) == 25
    for job in jobs:
        args = job.prepare()
        outcome = job.check(args, job.call(args))
        assert outcome.ok, (job.name, outcome.note)
        assert outcome.below_proved == 0, job.name


def test_tracer_wraps_one_minimize_job(capsys):
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        rc = main(["minimize", "product_hup2", "--n", "3", "--m", "128"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    layers = tracer.per_layer()
    assert layers["minimize.descent.calls"] == 1
    assert layers["minimize.assemble.calls"] == 1


def test_tracer_counts_one_solve_per_explore_problem(capsys):
    # Explore's N = 5 job: 12 ladder rungs and 5 combined rows, of which the
    # degree-0 row reuses the finest degree-0 rung, all through the wrapped
    # entry points.
    wl = _load("workloads")
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        rc = main(["conjecture", "--n", "5", *wl.EXPLORE_FLAGS])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    layers = tracer.per_layer()
    assert layers["minimize.explore.calls"] == 1
    assert layers["minimize.combined.calls"] == 1
    assert layers["minimize.descent.calls"] == 16
    assert layers["minimize.assemble.calls"] == 16


@functools.cache
def _library_jobs():
    """Certify's first identity job of each (N, k) and first mixture job of
    each degree."""
    firsts = {}
    for job in _load("workloads").build("certify", 3):
        if job.name.split()[0] in ("identity", "mixture"):
            firsts.setdefault(job.name, job)
    return list(firsts.values())


def test_benchmark_library_jobs_pass_their_gates():
    jobs = _library_jobs()
    assert len(jobs) == 7 * 7 + 4
    for job in jobs:
        args = job.prepare()
        outcome = job.check(args, job.call(args))
        assert outcome.ok, (job.name, outcome.note)


def test_tracer_wraps_one_mixture_job():
    job = next(job for job in _library_jobs() if job.name.startswith("mixture"))
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        rows = job.call(job.prepare())
    finally:
        tracer.uninstall()
    assert job.check(None, rows).ok
    layers = tracer.per_layer()
    # Nine seminorms, each by the closed form and by the panel rule.
    assert layers["quadrature.integrate.calls"] == 2 * 9
    assert layers["quadrature.panel_integrate.calls"] == 9
