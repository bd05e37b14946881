"""Run manifests and deterministic JSON/CSV report emission.

Every CLI report embeds a manifest; with the same command, parameters and
seed the numeric payload is bit-identical between runs (only the timestamp
differs). ``render_json`` is the one place that knows the JSON format: a
dataclass is written as its fields, a ``Fraction`` as ``{num, den, float}``,
a mode as ``{N, k}`` and a profile as ``profile_to_json`` writes it; enums
are written as their values. Keys are sorted, floats shortest-roundtrip, and
a report is one line: without indentation ``json`` uses its C encoder.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

from .errors import UsageError
from .profiles import Mode, Profile, profile_to_json


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    seed: int
    versions: str
    timestamp: str

    @classmethod
    def create(cls, command: str, parameters: dict, seed: int) -> "RunManifest":
        from . import __version__

        versions = (
            f"upsharp {__version__} (numpy {np.__version__}, scipy {scipy.__version__})"
        )
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return cls(command, dict(parameters), seed, versions, stamp)


def _encode(obj):
    """JSON form of what ``json`` cannot write itself."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator, "float": float(obj)}
    if isinstance(obj, Mode):
        return {"N": obj.dimension, "k": obj.degree}
    if isinstance(obj, Profile):
        return profile_to_json(obj)
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=True, default=_encode)


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_report(text: str, out: str | Path | None) -> None:
    """Write to the given path, or stdout when no path is given; a path that
    cannot be written is a usage error."""
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write report: {exc}") from None
