"""Work processes of the benchmark: one harden pass, or the Figure 6
sweep process.  Started by ``run.py``; not meant to be run by hand.

Protocol on stdout: a ``READY <json>`` line once set-up is done (the
parent times process start to this line as set-up), then one
``RESULT <json>`` line, then exit (``--setup-only``: exit after
READY).  Each item is bracketed by reference measurements; the sweep
process sends raw timings for the parent to calibrate, the harden pass
also measures the reference inside each item and sends both raw and
calibrated seconds.

    python perfbench/child.py harden [--cpu N] [--trace] [--setup-only]
    python perfbench/child.py ballista --passes N [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.calib import Ticker, measure_reference  # noqa: E402

#: Host speed at process start, before the program is imported; set-up
#: is calibrated by this and the reference taken when set-up is done.
START_REF = measure_reference()

from perfbench import goldens  # noqa: E402
from perfbench.paths import GOLDEN_DIR, ensure_program  # noqa: E402


def _emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# harden-86: one pass per process
# ----------------------------------------------------------------------


def harden(args: argparse.Namespace) -> None:
    from repro.core.pipeline import HealersPipeline
    from repro.libc.catalog import BALLISTA_SET

    _emit("READY", {"refs": [START_REF, measure_reference()]})
    if args.setup_only:
        return

    tracer = None
    ticker = Ticker()
    if args.trace:
        from perfbench.layers import PASS_SPAN, REFERENCE_SPAN, Tracer

        tracer = Tracer().install()
        tracer.pass_id = 1

        class TracedTicker(Ticker):
            """Puts its measurements in spans of their own, so the layer
            table does not charge them to the layer they interrupted."""

            def _tick(self, signum, frame) -> None:
                token = tracer.open(REFERENCE_SPAN)
                super()._tick(signum, frame)
                tracer.close(token)

        ticker = TracedTicker()
    before = measure_reference()
    refs = [before]
    raw: list[float] = []
    calibrated: list[float] = []
    ticks = 0
    functions: dict[str, dict] = {}
    for spec in BALLISTA_SET:
        token = tracer.open(PASS_SPAN) if tracer else None
        with ticker:
            hardened = HealersPipeline(functions=[spec.name]).run()
        if tracer:
            tracer.close(token)
        after = measure_reference()
        work, scaled = ticker.calibrate(before, after)
        raw.append(work)
        calibrated.append(scaled)
        ticks += len(ticker.ticks)
        refs += [ref for _, _, ref in ticker.ticks] + [after]
        before = after
        report = hardened.reports[spec.name]
        declaration = hardened.declarations[spec.name]
        functions[spec.name] = {
            "xml": declaration.to_xml(),
            "unsafe": declaration.unsafe,
            "vectors": report.vectors_run,
            "calls": report.calls_made,
        }
    payload = {
        "raw": raw,
        "calibrated": calibrated,
        "refs": refs,
        "ticks": ticks,
        "functions": functions,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer:
        tracer.uninstall()
        payload["trace"] = _trace_payload(tracer)
    _emit("RESULT", payload)


# ----------------------------------------------------------------------
# ballista-fig6: one long-lived sweep process
# ----------------------------------------------------------------------


def ballista(args: argparse.Namespace) -> None:
    from repro.ballista import BallistaHarness

    tracer = None
    if args.trace:
        from perfbench.layers import PASS_SPAN, Tracer

        tracer = Tracer().install()
        token = tracer.open(PASS_SPAN)

    from repro.core.pipeline import HardenedLibrary
    from repro.declarations import apply_all_manual_edits

    class GroupHarness(BallistaHarness):
        """The global Figure 6 test list, run one group of functions at
        a time so each group's share of a configuration is timed between
        two reference measurements."""

        group: list = []

        def tests(self):
            return self.group

    declarations = goldens.load_declarations(GOLDEN_DIR)
    hardened = HardenedLibrary(declarations, apply_all_manual_edits(declarations))
    tests = BallistaHarness(total_target=goldens.FIG6_TESTS).tests()
    by_function: dict[str, list] = {}
    for test in tests:
        by_function.setdefault(test.function, []).append(test)
    names = list(by_function)
    groups = [
        [test for name in names[i:i + goldens.FIG6_GROUP] for test in by_function[name]]
        for i in range(0, len(names), goldens.FIG6_GROUP)
    ]
    wrappers = {
        "unwrapped": None,
        "full-auto": hardened.wrapper(),
        "semi-auto": hardened.wrapper(semi_auto=True),
    }
    harness = GroupHarness()
    if tracer:
        tracer.close(token)
        tracer.uninstall()
    _emit("READY", {"refs": [START_REF, measure_reference()]})
    if args.setup_only:
        return

    def one_pass() -> dict:
        refs = [measure_reference()]
        raw: list[float] = []
        configurations = {}
        for label, wrapper in wrappers.items():
            lines = []
            row = configurations[label] = {"tests": 0, "crashing": 0}
            for group in groups:
                harness.group = group
                started = time.perf_counter()
                token = tracer.open(PASS_SPAN) if tracer and tracer.installed else None
                report = harness.run(wrapper=wrapper, configuration=label)
                if token:
                    tracer.close(token)
                raw.append(time.perf_counter() - started)
                refs.append(measure_reference())
                lines.extend(f"{r.test.label}\t{r.status}" for r in report.records)
                row["tests"] += report.total
                row["crashing"] += len(report.crashing_functions())
            row["digest"] = goldens.fig6_digest(lines)
        return {"raw": raw, "refs": refs, "brackets": [1] * len(raw),
                "configurations": configurations}

    passes = []
    trace_payload = None
    if tracer:
        passes.append(one_pass())  # untraced, for the overhead ratio
        from perfbench.layers import report_counts

        before = report_counts(tracer)
        tracer.install()
        tracer.pass_id = 1
        passes.append(one_pass())
        tracer.uninstall()
        trace_payload = _trace_payload(tracer, since=before)
        trace_payload["counts"]["ballista.tests"] = sum(
            row["tests"] for row in passes[-1]["configurations"].values()
        )
    else:
        for _ in range(args.passes):
            passes.append(one_pass())
    payload = {"passes": passes, "peak_rss_mb": _peak_rss_mb()}
    if trace_payload is not None:
        payload["trace"] = trace_payload
    _emit("RESULT", payload)


def _trace_payload(tracer, since=None) -> dict:
    """Layer tables of the set-up (pass 0) and traced pass (pass 1),
    and the counts the per-layer metrics need."""
    from perfbench.layers import layer_table, pass_spans, report_counts

    counts = report_counts(tracer, since)
    return {
        "setup_table": layer_table(pass_spans(tracer.spans, 0)),
        "pass_table": layer_table(pass_spans(tracer.spans, 1)),
        "counts": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=["harden", "ballista"])
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    ensure_program()
    if args.mode == "harden":
        harden(args)
    else:
        ballista(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
