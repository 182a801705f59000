"""One workload in one fresh process; started by `run.py`, not run by hand.

Imports ustatkit from the checkout's ``src``, builds the workload's inputs,
then runs whole rounds until ``--seconds`` have passed and checks the first
round's outputs.  The last line on standard output is the result object.
It exits with code 1 and a message when the package cannot be imported
from the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ustatkit
    except ImportError as exc:
        sys.exit(f"cannot import ustatkit from {ROOT / 'src'}: {exc}")
    where = Path(ustatkit.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        sys.exit(f"ustatkit was imported from {where}, not from this checkout")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the launcher just before it started this process")
    args = ap.parse_args(argv)

    _import_package()
    import tracing
    from workloads import WORKLOADS, Ledger, fingerprint

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        ledger = Ledger()
        first_op = time.monotonic()
        setup_s = first_op - args.spawned_at

        round_s = []
        first = None
        repeats = True
        while True:
            t0 = time.perf_counter()
            outputs = workload.run_round(ledger)
            round_s.append(time.perf_counter() - t0)
            if first is None:
                # the program's peak: set-up and one round, read before the
                # benchmark's own fingerprints and checks add to it
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                first = outputs
                first_print = fingerprint(outputs)
            elif fingerprint(outputs) != first_print:
                repeats = False
            if time.monotonic() - first_op >= args.seconds:
                break
        problems = workload.check(first)

    if not repeats:
        problems.append("a later round's outputs differ from the first round's")
    if tracer is not None:
        bad = tracer.nesting_violations()
        if bad:
            problems.append(f"{bad} spans are not covered by their parent span")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    # means over the whole run, not medians of a few rounds: the host's speed
    # wanders on a scale of seconds, and averaging over the run steadies it
    wall_s = sum(round_s) / len(round_s)
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "replicates_per_s": {"value": ledger.replicates / ledger.replicate_s,
                                 "unit": "1/s"},
            "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    else:
        metrics = tracing.layer_metrics(tracer, len(round_s))
        summary = {"workload": args.workload, "seed": args.seed, "rounds": len(round_s),
                   "wall_s": wall_s, "round_s": round_s}
        tracer.write(RUNS_DIR / f"{args.workload}-seed{args.seed}.trace.json.gz", summary)
        print(f"traced wall_s {wall_s:.4f} over {len(round_s)} rounds", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
