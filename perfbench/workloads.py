"""The three workloads.  Each returns an :class:`Outcome`: calibrated
end-to-end values, their raw twins, operation counts, and in a traced
run the per-layer metrics and the layer table.

* ``harden-86``      exhaustive phase 1 over the catalog, a fresh child
                     process per pass (cold lattice and plan caches,
                     as every ``repro harden`` invocation pays them);
* ``ballista-fig6``  the Figure 6 sweep, three configurations, in one
                     long-lived process over the golden declarations;
* ``service-warm``   the shipped daemon under a closed-loop client.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Optional

from perfbench import goldens, layers
from perfbench.calib import (
    calibrate,
    calibrate_brackets,
    median,
    percentile,
    samples_needed,
)
from perfbench.paths import GOLDEN_DIR, ROOT, child_env

#: Set-ups per run; ``setup_s`` is their median.  A daemon set-up
#: (start plus prefill) takes about 4 s, the others under half a second.
SETUP_REPEATS = 3
SERVICE_SETUPS = 2
#: Calibrated seconds of one pass at this commit.  A run makes
#: ``round(seconds / nominal)`` passes (see :func:`pass_count`), so
#: every run's samples have the same composition: a percentile over a
#: varying number of passes would move between functions' cost tiers.
NOMINAL_PASS_S = {
    "harden-86": 7.0,
    "ballista-fig6": 2.0,
    "service-warm": 2.5,
}
#: The percentile each workload reports as ``p99_ms``, fixed so that the
#: metric holds the same statistic at any ``--seconds``.  Only the
#: service has enough operations for a p99; the others report the
#: highest percentile their minimum pass count supports: 2 harden passes
#: of 86 functions, 3 Ballista passes of 24 function groups.
TAIL_PCT = {
    "harden-86": 90.0,
    "ballista-fig6": 80.0,
    "service-warm": 99.0,
}
#: Timed Ballista items per pass: three configurations of the catalog
#: in groups of ``goldens.FIG6_GROUP`` functions.
BALLISTA_ITEMS = 3 * -(-goldens.FUNCTIONS // goldens.FIG6_GROUP)


def pass_count(seconds: float, workload: str, per_pass: int) -> int:
    """Passes for a run of ``seconds``: at least one, and enough that
    ``per_pass`` latency samples each leave ten beyond the workload's
    tail percentile."""
    wanted = round(seconds / NOMINAL_PASS_S[workload])
    needed = -(-samples_needed(TAIL_PCT[workload]) // per_pass)
    return max(wanted, needed, 1)


#: A child that has not finished by then is killed (a whole run must
#: end within 180 s).
CHILD_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    """What one run of a workload measured."""

    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    diagnostics: dict = field(default_factory=dict)
    layer_metrics: dict[str, float] = field(default_factory=dict)
    table_text: str = ""


@dataclass
class Timings:
    """Per-run accumulator: set-ups, passes and operation latencies,
    each calibrated and raw."""

    setups: list[float] = field(default_factory=list)
    raw_setups: list[float] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    raw_passes: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)

    def add_pass(self, raw: list[float], refs: list[float], brackets: list[int],
                 latency_mask: Optional[list[bool]] = None) -> float:
        """A pass of items timed in reference brackets."""
        return self.add_calibrated(raw, calibrate_brackets(raw, refs, brackets), refs, latency_mask)

    def add_calibrated(self, raw: list[float], calibrated: list[float], refs: list[float],
                       latency_mask: Optional[list[bool]] = None) -> float:
        """A pass whose items were calibrated where they ran."""
        self.passes.append(sum(calibrated))
        self.raw_passes.append(sum(raw))
        self.refs.extend(refs)
        for keep, cal, seconds in zip(latency_mask or [True] * len(raw), calibrated, raw):
            if keep:
                self.latencies.append(cal)
                self.raw_latencies.append(seconds)
        return self.passes[-1]

    def fill(self, outcome: Outcome, tail: Optional[float]) -> None:
        """Medians and percentiles into ``outcome``.  ``percentile``
        raises when the samples cannot support ``tail``; traced runs,
        whose two passes are too few and whose result line carries no
        end-to-end metric, pass ``None`` and get no percentiles."""
        for target, setups, passes, latencies in (
            (outcome.metrics, self.setups, self.passes, self.latencies),
            (outcome.raw, self.raw_setups, self.raw_passes, self.raw_latencies),
        ):
            target["setup_s"] = median(setups)
            target["pass_s"] = median(passes)
            target["peak_rss_mb"] = median(self.rss)
            if tail is not None:
                target["p50_ms"] = 1000 * percentile(latencies, 50)
                target["p99_ms"] = 1000 * percentile(latencies, tail)
        outcome.diagnostics.update({
            "passes": len(self.passes),
            "setups": len(self.setups),
            "latency_samples": len(self.latencies),
            "p99_ms_percentile": tail,
            "ref_ms_median": 1000 * median(self.refs),
            "ref_ms_min": 1000 * min(self.refs),
            "ref_ms_max": 1000 * max(self.refs),
        })


class Child:
    """A benchmark work process speaking the READY/RESULT protocol."""

    def __init__(self, *args: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()

    def read(self, tag: str) -> dict:
        line = self.proc.stdout.readline()
        if not line.startswith(tag + " "):
            raise RuntimeError(f"child sent {line[:200]!r}, expected {tag}")
        return json.loads(line[len(tag) + 1:])

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None and self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdout.close()
        if exc[0] is None and self.proc.returncode != 0:
            raise RuntimeError(f"child exited with {self.proc.returncode}")


def _timed_child(timings: Timings, *args: str):
    """Start a child, time start-to-READY as one set-up, and return the
    open child."""
    started = time.perf_counter()
    child = Child(*args)
    try:
        ready = child.read("READY")
    except BaseException as exc:
        child.__exit__(type(exc), exc, exc.__traceback__)
        raise
    raw = time.perf_counter() - started
    timings.raw_setups.append(raw)
    timings.setups.append(calibrate(raw, *ready["refs"]))
    return child


def _failed_keys(failures: list[str]) -> set[str]:
    return {failure.split(":", 1)[0] for failure in failures}


# ----------------------------------------------------------------------
# harden-86
# ----------------------------------------------------------------------


def harden(seed: int, seconds: float, trace: bool) -> Outcome:
    del seed  # a deterministic enumeration
    workload = "harden-86"
    golden = goldens.read(GOLDEN_DIR, goldens.DECLARATIONS_FILE)
    outcome = Outcome()
    timings = Timings()
    trace_payload = None
    passes = 2 if trace else pass_count(seconds, workload, goldens.FUNCTIONS)

    # Set-up is timed alone, in children that stop when ready; the
    # passes run one per CPU at a time, which halves a run's length on
    # the 2-core host and needs no more
    # than per-core calibration: each child is pinned to its CPU and
    # times its reference units there.
    for _ in range(SETUP_REPEATS):
        with _timed_child(timings, "harden", "--setup-only"):
            pass
    cpus = sorted(os.sched_getaffinity(0))
    results = []
    for wave in range(0, passes, len(cpus)):
        with ExitStack() as stack:
            children = [
                stack.enter_context(Child(
                    "harden", "--cpu", str(cpus[index - wave]),
                    *(["--trace"] if trace and index == 1 else []),
                ))
                for index in range(wave, min(wave + len(cpus), passes))
            ]
            for child in children:
                child.read("READY")
            results += [child.read("RESULT") for child in children]
    for index, result in enumerate(results):
        traced = trace and index == 1
        timings.add_calibrated(result["raw"], result["calibrated"], result["refs"])
        timings.rss.append(result["peak_rss_mb"])
        outcome.diagnostics["ticks"] = outcome.diagnostics.get("ticks", 0) + result["ticks"]
        failures = goldens.check_harden(result["functions"], golden)
        outcome.failures += failures
        outcome.attempted += len(result["functions"])
        outcome.failed += len(_failed_keys(failures))
        if traced:
            trace_payload = result["trace"]
    timings.fill(outcome, None if trace else TAIL_PCT[workload])
    outcome.diagnostics["vectors_per_pass"] = sum(r["vectors"] for r in result["functions"].values())
    outcome.diagnostics["calls_per_pass"] = sum(r["calls"] for r in result["functions"].values())
    if trace_payload is not None:
        _finish_trace(outcome, timings, trace_payload)
    return outcome


# ----------------------------------------------------------------------
# ballista-fig6
# ----------------------------------------------------------------------


def ballista(seed: int, seconds: float, trace: bool) -> Outcome:
    del seed  # a deterministic enumeration
    golden = goldens.read(GOLDEN_DIR, goldens.FIG6_FILE)
    args = ["ballista"]
    outcome = Outcome()
    timings = Timings()
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            with _timed_child(timings, *args, "--setup-only"):
                pass
    passes = pass_count(seconds, "ballista-fig6", BALLISTA_ITEMS)
    run_args = [*args, "--passes", str(passes)] + (["--trace"] if trace else [])
    with _timed_child(timings, *run_args) as child:
        result = child.read("RESULT")
    for one in result["passes"]:
        timings.add_pass(one["raw"], one["refs"], one["brackets"])
        failures = goldens.check_fig6(one["configurations"], golden)
        outcome.failures += failures
        outcome.attempted += sum(row["tests"] for row in one["configurations"].values())
        outcome.failed += goldens.FIG6_TESTS * len(_failed_keys(failures))
    timings.rss.append(result["peak_rss_mb"])
    timings.fill(outcome, None if trace else TAIL_PCT["ballista-fig6"])
    if trace:
        _finish_trace(outcome, timings, result["trace"])
    return outcome


# ----------------------------------------------------------------------
# service-warm
# ----------------------------------------------------------------------


def service_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import service

    service.pin_to_one_cpu()
    functions = service.prefill_functions()
    expected = service.Expected(goldens.load_declarations(GOLDEN_DIR))
    script = service.build_script(seed, functions)
    for op, params in script + service.prefill_script(functions):
        expected.answer(op, params)  # every distinct answer, before timing
    session = _ServiceSession(service, service.run_dir_for(seed), functions, expected, script)
    try:
        if trace:
            session.run(passes=1)  # untraced, for the overhead ratio
            tracer = layers.Tracer()
            last, cache = session.run(passes=1, tracer=tracer)
        else:
            for _ in range(SERVICE_SETUPS - 1):
                session.run(passes=0)
            session.run(passes=pass_count(seconds, "service-warm", sum(session.mask)))
        session.timings.fill(session.outcome, None if trace else TAIL_PCT["service-warm"])
        if trace:
            daemon_data = json.loads(session.spans_file.read_text())
            _finish_service_trace(session.outcome, session.timings, tracer, last, daemon_data, cache)
    finally:
        shutil.rmtree(session.run_dir, ignore_errors=True)
    return session.outcome


class _ServiceSession:
    """Daemon set-ups and passes of one ``service-warm`` run."""

    def __init__(self, service, run_dir, functions, expected, script) -> None:
        self.service = service
        self.run_dir = run_dir
        self.spans_file = run_dir / "spans.json"
        self.functions = functions
        self.expected = expected
        self.script = script
        self.mask = [op == "declaration" for op, _ in script]
        self.timings = Timings()
        self.outcome = Outcome()

    def run(self, passes: int, tracer: Optional[layers.Tracer] = None):
        """Start and prefill a daemon (one set-up), run ``passes`` passes
        of the script, stop it; returns the last pass and, when traced,
        the daemon's cache counters."""
        service, outcome = self.service, self.outcome
        root = tracer.open(layers.PASS_SPAN) if tracer else None
        daemon, client, setup_s, raw_setup, failures = service.start_and_prefill(
            self.run_dir, self.functions, self.expected, self.spans_file if tracer else None
        )
        if tracer:
            tracer.close(root)
            tracer.pass_id = 1
        self.timings.setups.append(setup_s)
        self.timings.raw_setups.append(raw_setup)
        outcome.failures += failures
        last = cache = None
        try:
            for _ in range(passes):
                last = service.run_script(client, self.script, self.expected, tracer)
                self.timings.add_pass(last["raw"], last["refs"], last["brackets"], self.mask)
                outcome.failures += last["failures"]
                outcome.failed += len(last["failures"])
                outcome.attempted += len(self.script)
                outcome.diagnostics["retry_later"] = (
                    outcome.diagnostics.get("retry_later", 0) + last["retry_later"]
                )
            if tracer:
                cache = service.cache_counts(client)
            if passes:
                self.timings.rss.append(daemon.peak_rss_mb())
        finally:
            client.close()
            daemon.stop()
        return last, cache


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------


def _finish_trace(outcome: Outcome, timings: Timings, payload: dict) -> None:
    """Per-layer metrics and the layer table from a child's trace."""
    pass_table = payload["pass_table"]
    metrics = layers.layer_metrics(
        layers.merge_tables([payload["setup_table"], pass_table]), payload["counts"]
    )
    _bench_rows(outcome, timings, pass_table, metrics)


def _bench_rows(outcome: Outcome, timings: Timings, pass_table: dict, metrics: dict) -> None:
    traced_pass = pass_table.get(layers.PASS_SPAN, {"inclusive_s": 0.0})["inclusive_s"]
    unattributed = pass_table.get(layers.PASS_SPAN, {"self_s": 0.0})["self_s"]
    attributed = sum(row["self_s"] for name, row in pass_table.items() if name != layers.PASS_SPAN)
    metrics["bench.ref_ms"] = outcome.diagnostics["ref_ms_median"]
    metrics["bench.unattributed_s"] = unattributed
    # passes[0] ran untraced, passes[1] traced (calibrated seconds)
    metrics["bench.trace_overhead_ratio"] = timings.passes[1] / timings.passes[0] - 1
    for name in layers.PER_LAYER:
        metrics.setdefault(name, 0.0)
    outcome.layer_metrics = {name: metrics[name] for name in layers.PER_LAYER}
    outcome.diagnostics["traced_pass_raw_s"] = traced_pass
    outcome.diagnostics["layer_self_sum_s"] = attributed + unattributed
    outcome.table_text = layers.format_table(pass_table, traced_pass, "traced pass layer table")


def _finish_service_trace(outcome, timings, tracer, one, daemon_data, cache) -> None:
    """Merge the daemon's spans under the client spans that caused them."""
    offset = 10 ** 12
    daemon_spans = [
        (sid + offset, name, start, end, parent + offset if parent else 0, pass_id)
        for sid, name, start, end, parent, pass_id in daemon_data["spans"]
    ]
    handlers = [s for s in daemon_spans if s[1].startswith("service.handler.")]
    client_spans = [s for s in tracer.spans if s[1].startswith("service.client.")]
    setup_roots = [s for s in tracer.spans if s[1] == layers.PASS_SPAN and s[5] == 0]
    spans = layers.reparent_by_time(tracer.spans + daemon_spans, handlers + client_spans + setup_roots)
    pass_table = layers.pass_spans(spans, 1)
    setup_table = layers.pass_spans(spans, 0)
    table = layers.layer_table(pass_table)
    counts = dict(daemon_data["counts"])
    metrics = layers.layer_metrics(layers.merge_tables([table, layers.layer_table(setup_table)]), counts)
    metrics.update(layers.service_metrics(spans, cache, len(one["ops"]), one["retry_later"]))
    _bench_rows(outcome, timings, table, metrics)
