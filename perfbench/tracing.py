"""Layer spans for the traced benchmark run.

The tracer wraps public functions of each upsharp module, plus two kernels
below ``minimize`` (the ``scipy.sparse`` matrix-vector product and
``scipy.linalg.eigh``), from the outside. Each wrapped call records a span
(name, start, end, parent span, job id) in flat in-memory arrays; the spans
are written out once, when the run ends. ``uninstall`` puts every original
back and checks that it did.

Per-layer metrics are derived from the spans: ``calls``, ``s`` (summed span
time) and ``self_s`` (span time minus the time of its direct child spans),
plus the counters named in ``LAYER_MOVES``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: Per-layer metric -> (end-to-end metric it should move, on which workloads).
#: Later changes cite these names when they claim a gain.
LAYER_MOVES = {
    "minimize.descent.*, kernel.sparse_matvec.*":
        "wall_s on explore most, on recover less, nothing on certify",
    "minimize.pencil.*, kernel.eigh.*":
        "wall_s on recover most, on explore little, nothing on certify",
    "minimize.assemble.*": "wall_s on recover and explore",
    "minimize.combined.*, minimize.explore.*": "wall_s on explore",
    "quadrature.integrate.*, quadrature.panel_integrate.*, "
    "seminorms.eval_mode_functional.*, profiles.derivative_values.*":
        "wall_s and job_p50_s on certify, nothing on explore or recover",
    "constants.scan_infimum.*, extremals.extremal_quotient.*": "wall_s on certify",
    "cli.main.*, reports.render_json.*":
        "job_p50_s on certify; a small share of wall_s on explore and recover",
    "minimize.below_proved": "max_rel_err (printed with every run) on explore and recover",
    "trace.overhead_s": "none (traced minus untraced wall_s)",
}

# span name -> (module or class path, attribute)
_TARGETS = (
    ("cli.main", "upsharp.cli", "main"),
    ("reports.render_json", "upsharp.reports", "render_json"),
    ("constants.scan_infimum", "upsharp.constants", "scan_infimum"),
    ("extremals.extremal_quotient", "upsharp.extremals", "extremal_quotient"),
    ("profiles.derivative_values", "upsharp.profiles:SampledProfile", "derivative_values"),
    ("quadrature.integrate", "upsharp.quadrature", "integrate"),
    ("quadrature.panel_integrate", "upsharp.quadrature", "panel_integrate"),
    ("seminorms.eval_mode_functional", "upsharp.seminorms", "eval_mode_functional"),
    ("minimize.assemble", "upsharp.minimize:VariationalProblem", "assemble"),
    ("minimize.descent", "upsharp.minimize", "minimize_quotient"),
    ("minimize.pencil", "upsharp.minimize", "eigen_crosscheck"),
    ("minimize.combined", "upsharp.minimize", "mode_combined_bound"),
    ("minimize.explore", "upsharp.minimize", "explore_conjecture"),
    ("kernel.sparse_matvec", "scipy.sparse:csr_array", "__matmul__"),
    ("kernel.eigh", "scipy.linalg", "eigh"),
)

_SPAN_METRICS = {  # span name -> which time sums to report
    "cli.main": ("self_s",),
    "reports.render_json": ("s",),
    "constants.scan_infimum": ("s",),
    "extremals.extremal_quotient": ("s",),
    "profiles.derivative_values": ("s",),
    "quadrature.integrate": ("s",),
    "quadrature.panel_integrate": ("s",),
    "seminorms.eval_mode_functional": ("self_s",),
    "minimize.assemble": ("s",),
    "minimize.descent": ("self_s",),
    "minimize.pencil": ("self_s",),
    "minimize.combined": ("self_s",),
    "minimize.explore": ("self_s",),
    "kernel.sparse_matvec": ("s",),
    "kernel.eigh": ("s",),
}

#: Counters the wrappers add up, beside the span sums.
_COUNTERS = (
    "minimize.descent.iterations",
    "minimize.descent.unconverged",
    "minimize.assemble.nodes",
    "kernel.sparse_matvec.bytes_computed",
    "kernel.eigh.flops_computed",
    "reports.render_json.bytes",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {}
for _name, _sums in _SPAN_METRICS.items():
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    for _which in _sums:
        PER_LAYER_UNITS[f"{_name}.{_which}"] = "s"
PER_LAYER_UNITS.update({
    "minimize.descent.iterations": "count",
    "minimize.descent.unconverged": "count",
    "minimize.assemble.nodes": "count",
    "minimize.assemble.repeat_ratio": "ratio",
    "kernel.sparse_matvec.bytes_computed": "B",
    "kernel.eigh.flops_computed": "flop",
    "reports.render_json.bytes": "B",
    "minimize.below_proved": "count",
    "trace.overhead_s": "s",
})


def _resolve(path: str):
    module_name, _, cls = path.partition(":")
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    return getattr(module, cls) if cls else module


class Tracer:
    def __init__(self) -> None:
        self.names = [name for name, _, _ in _TARGETS]
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack: list[int] = []
        self.job = -1
        self.counters = dict.fromkeys(_COUNTERS, 0.0)
        self.problems: set = set()
        self._patches: list = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name_id: int, fn, after=None, when=None):
        name_of, start, end, parent, job_of = (
            self.name_of, self.start, self.end, self.parent, self.job_of
        )
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hooks(self, name: str):
        c = self.counters
        if name == "kernel.sparse_matvec":
            def when(args):
                x = args[1] if len(args) > 1 else None
                return isinstance(x, np.ndarray) and x.ndim == 1

            def after(args, y):
                a, x = args[0], args[1]
                c["kernel.sparse_matvec.bytes_computed"] += (
                    a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + x.nbytes + y.nbytes
                )
            return after, when
        if name == "kernel.eigh":
            def after(args, _result):
                n = args[0].shape[0]
                # LAPACK op counts: Cholesky n^3/3 + sygst n^3 + sytrd 4n^3/3.
                c["kernel.eigh.flops_computed"] += 8.0 / 3.0 * n**3
            return after, None
        if name == "minimize.descent":
            def after(_args, res):
                c["minimize.descent.iterations"] += res.iterations
                c["minimize.descent.unconverged"] += 0 if res.converged else 1
            return after, None
        if name == "minimize.assemble":
            def after(args, _dq):
                c["minimize.assemble.nodes"] += args[0].grid.size
                self.problems.add((self.job, args[0]))
            return after, None
        if name == "reports.render_json":
            def after(_args, text):
                c["reports.render_json.bytes"] += len(text.encode("utf-8"))
            return after, None
        return None, None

    def install(self) -> None:
        for name_id, (name, path, attr) in enumerate(_TARGETS):
            owner = _resolve(path)
            original = getattr(owner, attr)
            after, when = self._hooks(name)
            wrapper = self._wrap(name_id, original, after, when)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, wrapper)
                continue
            # Module function: rebind every name that refers to it, in the
            # defining module, in upsharp modules that imported it, and in
            # the package namespace.
            holders = [owner] + [
                m for key, m in list(sys.modules.items())
                if m is not owner and (key == "upsharp" or key.startswith("upsharp."))
            ]
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, True))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for owner, attr, original, _ in self._patches:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"wrapper left on {owner!r}.{attr}")
        self._patches.clear()

    # ------------------------------------------------------------- metrics

    def per_layer(self) -> dict[str, float]:
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[f"{name}.calls"] = int(mask.sum())
            for which in _SPAN_METRICS[name]:
                values = dur if which == "s" else self_time
                out[f"{name}.{which}"] = float(values[mask].sum())
        out.update(self.counters)
        assemblies = out["minimize.assemble.calls"]
        out["minimize.assemble.repeat_ratio"] = (
            assemblies / len(self.problems) if self.problems else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        """Write every span to a compressed .npz: parallel arrays ``name``
        (index into ``names``), ``start``/``end`` (perf_counter seconds),
        ``parent`` (span index, -1 at the top) and ``job``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job_of, dtype=np.int32),
        )
