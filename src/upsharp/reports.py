"""Run manifests and deterministic JSON/CSV report emission.

Every CLI report embeds a manifest; with the same command, parameters and
seed the numeric payload is bit-identical between runs (only the timestamp
differs). JSON is emitted with sorted keys and shortest-roundtrip floats.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy


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

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "versions": self.versions,
            "timestamp": self.timestamp,
        }


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_report(text: str, out: str | Path | None) -> None:
    """Write to the given path, or stdout when no path is given."""
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
