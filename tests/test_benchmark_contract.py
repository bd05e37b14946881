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
    # Each job runs twice: the benchmark compares runs by their reports with
    # the timestamp scrubbed, so the scrub must match the report's text and
    # leave two runs equal.
    wl = _load("workloads")
    jobs = [job for name in wl.WORKLOADS for job in wl.build(name, 3)
            if job.name.split()[0] in COMMANDS]
    assert len(jobs) == 25
    for job in jobs:
        args = job.prepare()
        first, second = (job.call(args) for _ in range(2))
        assert all(len(wl._TIMESTAMP.findall(out)) == 1 for _, out, _ in (first, second)), job.name
        outcome = job.check(args, first)
        assert outcome.ok, (job.name, outcome.note)
        assert outcome.below_proved == 0, job.name
        assert job.check(args, second).payload == outcome.payload, job.name


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


def test_tracer_wraps_the_sampled_profile_of_n2_identity_jobs():
    # The benchmark reads sampled profiles through two wrapped names: one
    # quadrature.integrate call per term row of either form, and one
    # derivative_values read of the node values for each functional with an
    # N = 2 origin condition: the Laplacian in both forms at k = 0, where raw
    # and reduced rows coincide, and the raw one at k = 1.
    from upsharp.profiles import make_mode
    from upsharp.seminorms import BOTH_FORMS, Form, _term_table

    for k in (0, 1):
        job = next(job for job in _library_jobs() if job.name == f"identity N=2 k={k}")
        tracer = _load("tracing").Tracer()
        tracer.install()
        try:
            rows = job.call(job.prepare())
        finally:
            tracer.uninstall()
        assert job.check(None, rows).ok
        mode = make_mode(2, k)
        term_rows = sum(len(_term_table(fid, form, mode)) for fid in BOTH_FORMS for form in Form)
        layers = tracer.per_layer()
        assert layers["quadrature.integrate.calls"] == term_rows, k
        assert layers["profiles.derivative_values.calls"] == (2 if k == 0 else 1), k
