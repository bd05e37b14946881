"""upsharp benchmark: one workload per run, closed loop, one job at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify|explore|recover \
        --seed N --seconds S --trace 0|1

The program is driven only from outside: through the ``upsharp`` CLI
(``upsharp.cli.main``, in-process) and exported library functions, imported
from the checkout's ``src``. Inputs are generated from ``--seed`` and the seed
is passed to every CLI call. Workloads and output gates are in
``workloads.py``; the traced run's spans are in ``tracing.py``.

``--trace 0`` runs passes over the workload's job list while another pass
fits in ``--seconds`` (at least one) and reports the end-to-end metrics:

* ``setup_s``: fresh interpreter to first job (``import upsharp`` plus input
  generation), median of six fresh interpreters, half launched before the
  passes and half after;
* ``wall_s``: summed job latency of one pass of the whole job list, median
  over passes (gate checks between jobs are excluded);
* ``peak_rss_mb``: peak resident memory of the workload process.

Each run also prints, by name and unit, figures that are not bounded
metrics: each is either 0 on some workload or, on a shared two-core host,
spreads across runs by more than any bound allows:

* ``job_p50_s`` and ``job_p99_s``, job latency percentiles over all passes,
  with their sample count. Certify's latencies are lumpy (cost grows with the
  mode degree), so its median jumps between clusters when the machine's speed
  shifts; only certify has ten samples beyond the 99th percentile.
* ``jobs_failed_ratio``: failed jobs / attempted jobs. A job fails on a
  nonzero CLI exit code, a raised ``UpsharpError`` or a missed gate. It is 0
  on a healthy run; ``failed`` and ``attempted`` are in the JSON result.
* ``max_rel_err``: worst relative error of any output against its reference
  (the proved constant, else the closed form, else the other assembly of the
  same identity). On certify it is the extreme of about 2000 seeded identity
  checks, so it spreads with the seed.
* ``below_proved``: reported values below their proved constant
  x (1 - 1e-9). It is 0 on certify.

``--trace 1`` runs one untraced and then one traced pass and reports the
per-layer metrics of the traced pass, with ``trace.overhead_s`` = traced
minus untraced ``wall_s``. Spans go to ``perfbench/results/``.

Every run writes its details (machine, inputs, job counts, the figures
above, the payload digest) to ``perfbench/results/``; the last line of
standard output is the JSON result. Two runs with the same seed must produce
the same payload digest, ``max_rel_err`` and ``below_proved``: a run compares
itself with an earlier run of the same code and seed in the same checkout,
and the passes of one run with each other.
"""

from __future__ import annotations

import os

# Single process, no thread pool, one BLAS thread, fixed before numpy loads:
# on two cores a second BLAS thread makes the dense pencil's time swing by a
# third between identical calls.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("UPSHARP_WORKERS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_SAMPLES = 6
EXIT_NO_PROGRAM = 2


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import upsharp from the checkout's src, or exit without a result."""
    if not (SRC / "upsharp" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no upsharp sources under {SRC}\n")
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import upsharp

    if SRC.resolve() not in Path(upsharp.__file__).resolve().parents:
        sys.stderr.write(f"benchmark: imported upsharp from {upsharp.__file__}, not {SRC}\n")
        sys.exit(EXIT_NO_PROGRAM)


def _setup_probe(args) -> None:
    """Child of a setup_s sample: import, generate inputs, print the time."""
    workloads.build(args.workload, args.seed)
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Seconds from launching a fresh interpreter until its inputs are ready.

    time.monotonic reads one system-wide clock, so the child's timestamp
    compares directly with the parent's launch time.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(count):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


class Pass:
    """Outcome of one pass over the job list."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.max_rel_err = 0.0
        self.below_proved = 0
        self.digest = hashlib.sha256()
        self.elapsed = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(jobs, tracer: tracing.Tracer | None = None) -> Pass:
    from upsharp.errors import UpsharpError

    out = Pass()
    start = time.perf_counter()
    for job_id, job in enumerate(jobs):
        args = job.prepare()
        if tracer is not None:
            tracer.job = job_id
        error = None
        t0 = time.perf_counter()
        try:
            result = job.call(args)
        except UpsharpError as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception:  # a job boundary: record the failure, run the rest
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        out.latencies.append(latency)
        if error is None:
            check = job.check(args, result)
            out.max_rel_err = max(out.max_rel_err, check.max_rel_err)
            out.below_proved += check.below_proved
            out.digest.update(check.payload.encode("utf-8"))
            if not check.ok:
                error = check.note or "gate missed"
        if error is not None:
            out.failures.append(f"{job.name}: {error}")
            out.digest.update(b"failed")
    out.elapsed = time.perf_counter() - start
    return out


def _p99(latencies: list[float]) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[98]


def _code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "upsharp").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def _cross_run_check(args, digest: str, max_rel_err: float, below: int) -> str | None:
    """Compare with an earlier run of the same code, workload and seed."""
    path = RESULTS / f"determinism-{args.workload}-seed{args.seed}-{_code_hash()}.json"
    record = {"digest": digest, "max_rel_err": max_rel_err, "below_proved": below}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != record:
            return f"same seed, different outputs: {earlier} vs {record}"
        return None
    path.write_text(json.dumps(record))
    return None


def main(args) -> int:
    RESULTS.mkdir(exist_ok=True)
    # Half the setup samples before the passes and half after, so that their
    # median spans the run rather than one stretch of the machine's load.
    setup = measure_setup(args.workload, args.seed, SETUP_SAMPLES // 2)
    jobs = workloads.build(args.workload, args.seed)

    passes: list[Pass] = []
    per_layer = None
    if args.trace:
        passes.append(run_pass(jobs))
        tracer = tracing.Tracer()
        try:
            tracer.install()
            passes.append(run_pass(jobs, tracer))
        finally:
            tracer.uninstall()
        per_layer = tracer.per_layer()
        per_layer["trace.overhead_s"] = passes[1].wall_s - passes[0].wall_s
        per_layer["minimize.below_proved"] = passes[1].below_proved
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        measured = 0.0
        while not passes or measured + passes[-1].elapsed <= args.seconds:
            passes.append(run_pass(jobs))
            measured += passes[-1].elapsed

    setup += measure_setup(args.workload, args.seed, SETUP_SAMPLES - len(setup))

    problems = [f for p in passes for f in p.failures]
    digests = {p.digest.hexdigest() for p in passes}
    if len(digests) > 1:
        problems.append("passes of one run disagree on their outputs")
    first = passes[0]
    cross = _cross_run_check(args, first.digest.hexdigest(), first.max_rel_err, first.below_proved)
    if cross:
        problems.append(cross)

    latencies = [lat for p in passes for lat in p.latencies]
    attempted = len(latencies)
    failed = sum(len(p.failures) for p in passes)
    if per_layer is not None:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "passes": len(passes),
        "job_latency_samples": attempted,
        "job_p50_s": statistics.median(latencies),
        "job_p99_s": _p99(latencies),
        "jobs_failed_ratio": failed / attempted,
        "below_proved": first.below_proved,
        "max_rel_err": first.max_rel_err,
        "setup_samples_s": setup,
        "pass_wall_s": [p.wall_s for p in passes],
        "payload_digest": first.digest.hexdigest(),
        "problems": problems[:20],
        "machine": machine.facts(),
        "metrics": metrics,
    }
    if per_layer is not None:
        details["layer_moves"] = tracing.LAYER_MOVES
    (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2)
    )

    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for key in ("workload", "seed", "jobs_per_pass", "passes", "job_latency_samples",
                "payload_digest"):
        print(f"{key}: {details[key]}")
    for key, unit in (("job_p50_s", "s"), ("job_p99_s", "s"), ("jobs_failed_ratio", "ratio"),
                      ("max_rel_err", "ratio"), ("below_proved", "count")):
        print(f"{key}: {details[key]!r} {unit}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    ARGS = _parse()
    _import_program()
    if ARGS.setup_probe:
        _setup_probe(ARGS)
        sys.exit(0)
    sys.exit(main(ARGS))
