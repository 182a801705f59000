"""Benchmark entry point: runs one workload (or all) in a fresh process each.

    python3 bench/run.py --workload edge_regimes --seed 1 --seconds 20 --trace 0

The last line on standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
prints one such line per workload.  Set-up time is measured from just before
the workload's process is started, so it includes interpreter start-up and
the ``ustatkit`` import.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("edge_regimes", "motif_regimes", "finite_alphabet")

#: one run must end within 180 s; the child is stopped a little before that
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int) -> str:
    """Run one workload in a new interpreter; return its result line or exit."""
    argv = [sys.executable, str(BENCH_DIR / "session.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    spawned_at = time.monotonic()
    argv += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{name}: workload process exited with code {proc.returncode}")
    return lines[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        line = run_workload(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(name)
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
