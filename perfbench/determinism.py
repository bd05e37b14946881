"""Determinism check for one workload.

Runs the benchmark twice with one seed and once with another, one pass each:

    python3 perfbench/determinism.py --workload certify --seed 3

The two same-seed runs must give identical report payloads (timestamps
excepted), ``max_rel_err`` and ``below_proved``; every run, the other seed's
too, must pass every gate. Exits 0 when all of that holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
FIELDS = ("payload_digest", "max_rel_err", "below_proved")


def _run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    fields = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
    result = json.loads(lines[-1]) if lines else {"correct": False}
    return {"correct": result["correct"] and done.returncode == 0,
            **{key: fields.get(key) for key in FIELDS}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=3)
    args = p.parse_args()
    first = _run(args.workload, args.seed)
    second = _run(args.workload, args.seed)
    other = _run(args.workload, args.seed + 1)
    same = all(first[key] == second[key] for key in FIELDS)
    ok = same and first["correct"] and second["correct"] and other["correct"]
    print(json.dumps({"same_seed_identical": same, "runs": [first, second, other], "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
