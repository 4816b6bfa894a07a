"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --self-check N [--seconds S]
    python3 perfbench/run.py --make-goldens

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it carry the raw (uncalibrated) twins of every timing,
the reference speed, and in traced runs the layer table.  A failed
output check prints ``correct: false`` and exits 1; a missing program
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import calib  # noqa: E402
from perfbench.paths import GOLDEN_DIR, SCRATCH, ProgramMissing, ensure_program  # noqa: E402

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

WORKLOADS = ("harden-86", "ballista-fig6", "service-warm")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import workloads

    if name == "harden-86":
        return workloads.harden(seed, seconds, trace)
    if name == "ballista-fig6":
        return workloads.ballista(seed, seconds, trace)
    return workloads.service_warm(seed, seconds, trace)


def result_line(outcome, trace: bool) -> dict:
    from perfbench.layers import PER_LAYER

    if trace:
        metrics = {k: {"value": outcome.layer_metrics[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": outcome.metrics[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": min(outcome.failed, outcome.attempted),
        "metrics": metrics,
    }


def self_check(name: str, runs: int, seconds: float) -> int:
    """Repeat a workload and print, per metric, the spread of the raw
    and the calibrated values, plus the reference unit's own spread."""
    rows = []
    for index in range(runs):
        outcome = run_workload(name, seed=index + 1, seconds=seconds, trace=False)
        rows.append(outcome)
        print(f"run {index + 1}: " + json.dumps({
            "calibrated": outcome.metrics, "raw": outcome.raw,
            "ref_ms": outcome.diagnostics["ref_ms_median"], "correct": not outcome.failures,
        }), flush=True)
    print(f"{'metric':14} {'raw spread':>11} {'calibrated':>11}")
    for metric in END_TO_END:
        raw = calib.spread([o.raw[metric] for o in rows])
        cal = calib.spread([o.metrics[metric] for o in rows])
        print(f"{metric:14} {raw:>11.3%} {cal:>11.3%}")
    refs = [o.diagnostics["ref_ms_median"] for o in rows]
    print(f"{'reference':14} {calib.spread(refs):>11.3%}   median {calib.median(refs):.4f} ms")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", type=int, metavar="RUNS", default=0)
    parser.add_argument("--make-goldens", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the children and the daemon it
    # started are stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        ensure_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.make_goldens:
        from perfbench import goldens

        goldens.make(GOLDEN_DIR)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.self_check:
            return self_check(args.workload, args.self_check, args.seconds)
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("raw: " + json.dumps(outcome.raw))
    print("diagnostics: " + json.dumps(outcome.diagnostics))
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}")
    if outcome.table_text:
        print(outcome.table_text)
    line = result_line(outcome, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
