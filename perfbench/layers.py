"""Traced mode: spans around the calls into each ``repro`` layer.

:class:`Tracer` wraps public functions of the program *from outside*:
each wrapper is patched where callers look the function up (the class
attribute of a method, every ``repro`` module that imported a
function by name, the ``model`` field of each catalog spec, the
service's ``HANDLERS`` table), and :meth:`Tracer.uninstall` puts every
original back.  Untraced runs never construct a tracer.

A span is ``(id, name, start, end, parent, pass_id)``, kept in memory
and written when the run ends.  A span's self time is its duration
minus the part of it that its child spans cover, so per-layer self
times plus the passes' own self time (``bench.unattributed_s``) add
up to the traced pass exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional

#: The bench-owned root span: one per timed work item of a pass.
PASS_SPAN = "bench.pass"
#: Reference measurements taken inside a traced item (calib.Ticker).
REFERENCE_SPAN = "bench.reference"

#: Span name -> (count metric, time metric) of the per-layer table.
#: Span names not listed here (service handlers, ballista
#: configurations) derive their metrics in :func:`layer_metrics`.
LAYER_SPANS = {
    "typelattice.lattice": ("typelattice.lattice_calls", "typelattice.lattice_s"),
    "typelattice.robust": ("typelattice.robust_calls", "typelattice.robust_s"),
    "cdecl.parse": ("cdecl.parse_calls", "cdecl.parse_s"),
    "generators.materialize": ("generators.materialize_calls", "generators.materialize_s"),
    "injector.run": ("injector.functions", "injector.run_s"),
    "injector.plan": (None, "injector.plan_s"),
    "injector.ladder": ("injector.ladder_serves", "injector.ladder_s"),
    "sandbox.call": ("sandbox.calls", "sandbox.call_s"),
    "libc.fork": ("libc.forks", "libc.fork_s"),
    "libc.checkout": ("libc.checkouts", "libc.checkout_s"),
    "libc.model": (None, "libc.model_s"),
    "memory.fork": ("memory.forks", "memory.fork_s"),
    "memory.scan": ("memory.scans", "memory.scan_s"),
    "declarations.from_report": (None, "declarations.from_report_s"),
    "declarations.manual_edits": (None, "declarations.manual_edits_s"),
    "declarations.from_xml": (None, "declarations.from_xml_s"),
    "wrapper.load": (None, "wrapper.load_s"),
    "wrapper.call": ("wrapper.calls", "wrapper.call_s"),
    "wrapper.validate_many": (None, "wrapper.validate_many_s"),
    "wrapper.call_many": (None, "wrapper.call_many_s"),
    "ballista.enumerate": (None, "ballista.enumerate_s"),
    "campaign.digest": (None, "campaign.digest_s"),
    "campaign.store_get": ("campaign.store_gets", "campaign.store_get_s"),
    "campaign.store_put": ("campaign.store_puts", "campaign.store_put_s"),
    "campaign.decode": (None, "campaign.decode_s"),
    "campaign.encode": (None, "campaign.encode_s"),
}

#: Ballista configurations, each its own ``ballista.run`` span.
CONFIGURATIONS = ("unwrapped", "full-auto", "semi-auto")

#: Service ops the request script sends (per-op latency split).
SERVICE_OPS = ("declaration", "harden", "validate")

#: Every per-layer metric a traced run reports, with its unit (the
#: ``per_layer`` list of BENCHMARK.json, in the same order).
def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {}
    for count, seconds in LAYER_SPANS.values():
        if count is not None:
            units[count] = "count"
        units[seconds] = "s"
    units.update({
        "injector.vectors": "count",
        "injector.calls": "count",
        "injector.plan_compiles": "count",
        "injector.memo_lookups": "count",
        "injector.memo_hit_ratio": "ratio",
        "sandbox.crash_ratio": "ratio",
        "wrapper.check_s": "s",
        "wrapper.programs_compiled": "count",
        "wrapper.program_shares": "count",
        "wrapper.violation_ratio": "ratio",
        "wrapper.revalidate_hit_ratio": "ratio",
        "ballista.tests": "count",
    })
    for configuration in CONFIGURATIONS:
        units[f"ballista.run_s.{configuration}"] = "s"
    for op in SERVICE_OPS:
        for part in ("client", "handler", "transport"):
            units[f"service.{part}_ms.{op}"] = "ms"
    units.update({
        "service.cache_hit_ratio": "ratio",
        "service.retry_later_ratio": "ratio",
        "service.inject_s": "s",
        "bench.ref_ms": "ms",
        "bench.unattributed_s": "s",
        "bench.trace_overhead_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer()


class Tracer:
    """Spans and counts for one process; install, run, uninstall."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        #: objects the layer metrics read counters from at the end
        self.wrappers: list = []
        self.reports: list = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple:
        """Open a span on this thread; returns the token for :meth:`close`."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        return span_id, name, parent, self.clock()

    def close(self, token: tuple) -> None:
        end = self.clock()
        span_id, name, parent, start = token
        stack = self._stack()
        while stack and stack[-1][0] != span_id:
            stack.pop()
        if stack:
            stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.pass_id))

    def record(self, name: str, start: float, end: float, parent: int = 0) -> int:
        """Add a finished span measured by the caller."""
        span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, self.pass_id))
        return span_id

    def timed(
        self,
        name,
        fn: Callable,
        count: Optional[str] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span.  ``name`` is a string or a function
        of the call's arguments; a call nested directly in a span of the
        same name is folded into it.  ``count`` is bumped on every call,
        ``on_result(tracer, result, args, kwargs)`` sees every result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            if count is not None:
                tracer.counts[count] += 1
            stack = tracer._stack()
            if stack and stack[-1][1] == span_name:
                result = fn(*args, **kwargs)
            else:
                token = tracer.open(span_name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(token)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        return wrapper

    def timed_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine-function twin of :meth:`timed` (one request at a
        time runs on the loop thread, so the span stack stays nested)."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            token = tracer.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.close(token)

        return wrapper

    def counted(self, fn: Callable, on_result: Callable) -> Callable:
        """``fn`` with a result hook and no span (for calls too small
        to time without distorting them)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(tracer, result, args, kwargs)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def set_attr(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(owner, type) or inspect.ismodule(owner):
            setattr(owner, attr, value)
            self._undo.append(lambda: setattr(owner, attr, original))
        else:  # frozen dataclass instance
            object.__setattr__(owner, attr, value)
            self._undo.append(lambda: object.__setattr__(owner, attr, original))

    def patch_item(self, table: dict, key, value) -> None:
        original = table[key]
        table[key] = value
        self._undo.append(lambda: table.__setitem__(key, original))

    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.set_attr(cls, attr, classmethod(make(raw.__func__)))
        else:
            self.set_attr(cls, attr, make(raw))

    def patch_function(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module that
        holds the same object (callers that imported it by name)."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and mod is not None:
                if mod.__dict__.get(attr) is original:
                    self.set_attr(mod, attr, wrapped)

    def install(self) -> "Tracer":
        """Wrap every layer boundary listed in the module docstring."""
        _install_targets(self)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write spans and counts (the daemon launcher's output)."""
        path.write_text(json.dumps({"spans": self.spans, "counts": report_counts(self)}))


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------


def _memo_result(tracer, result, args, kwargs) -> None:
    tracer.counts["injector.memo_lookups"] += 1
    if result is not None:
        tracer.counts["injector.memo_hits"] += 1


def _sandbox_result(tracer, outcome, args, kwargs) -> None:
    if outcome.status.name != "RETURNED":
        tracer.counts["sandbox.failures"] += 1


def _report_result(tracer, report, args, kwargs) -> None:
    tracer.reports.append(report)


def _wrapper_init(tracer, result, args, kwargs) -> None:
    tracer.wrappers.append(args[0])


def _ballista_span(args, kwargs) -> str:
    configuration = kwargs.get("configuration", args[2] if len(args) > 2 else "unwrapped")
    return f"ballista.run.{configuration}"


def _install_targets(tracer: Tracer) -> None:
    from repro.ballista.harness import BallistaHarness
    from repro.campaign.store import OutcomeStore
    from repro.cdecl.parser import DeclarationParser
    from repro.declarations.model import FunctionDeclaration
    from repro.generators.base import TestCaseTemplate
    from repro.injector.injector import FaultInjector
    from repro.injector.plan import ChainMemo, SnapshotLadder
    from repro.libc.catalog import CATALOG
    from repro.libc.runtime import LibcRuntime, PreparedSnapshot
    from repro.memory.address_space import AddressSpace
    from repro.sandbox.sandbox import Sandbox
    from repro.service import handlers
    from repro.typelattice.lattice import Lattice
    from repro.wrapper.wrapper import WrapperLibrary

    def span(name, count=None, on_result=None):
        return lambda fn: tracer.timed(name, fn, count=count, on_result=on_result)

    tracer.patch_method(Lattice, "for_sizes", span("typelattice.lattice"))
    tracer.patch_function("repro.typelattice.robust", "compute_robust_type", span("typelattice.robust"))
    tracer.patch_method(DeclarationParser, "parse_prototype", span("cdecl.parse"))
    for cls in _subclasses(TestCaseTemplate):
        if "materialize" in cls.__dict__:
            tracer.patch_method(cls, "materialize", span("generators.materialize"))
    tracer.patch_method(FaultInjector, "run", span("injector.run", on_result=_report_result))
    tracer.patch_function("repro.injector.plan", "compile_plan", span("injector.plan", count="injector.plan_compiles"))
    tracer.patch_function("repro.injector.plan", "shared_plan", span("injector.plan"))
    tracer.patch_method(SnapshotLadder, "serve", span("injector.ladder"))
    tracer.patch_method(ChainMemo, "lookup", lambda fn: tracer.counted(fn, _memo_result))
    tracer.patch_method(Sandbox, "call", span("sandbox.call", on_result=_sandbox_result))
    tracer.patch_method(LibcRuntime, "fork", span("libc.fork"))
    tracer.patch_method(PreparedSnapshot, "checkout", span("libc.checkout"))
    for spec in CATALOG:
        tracer.set_attr(spec, "model", tracer.timed("libc.model", spec.model))
    tracer.patch_method(AddressSpace, "fork", span("memory.fork"))
    tracer.patch_method(AddressSpace, "scan_cstring", span("memory.scan"))
    tracer.patch_function("repro.declarations.model", "declaration_from_report", span("declarations.from_report"))
    tracer.patch_function("repro.declarations.manual_edits", "apply_all_manual_edits", span("declarations.manual_edits"))
    tracer.patch_method(FunctionDeclaration, "from_xml", span("declarations.from_xml"))
    tracer.patch_method(WrapperLibrary, "__init__", span("wrapper.load", on_result=_wrapper_init))
    tracer.patch_method(WrapperLibrary, "call", span("wrapper.call"))
    tracer.patch_method(WrapperLibrary, "validate_many", span("wrapper.validate_many"))
    tracer.patch_method(WrapperLibrary, "call_many", span("wrapper.call_many"))
    tracer.patch_method(BallistaHarness, "tests", span("ballista.enumerate"))
    tracer.patch_method(BallistaHarness, "run", span(_ballista_span))
    tracer.patch_function("repro.campaign.digest", "outcome_digest", span("campaign.digest"))
    tracer.patch_method(OutcomeStore, "get_payload", span("campaign.store_get"))
    tracer.patch_method(OutcomeStore, "put_payload", span("campaign.store_put"))
    tracer.patch_function("repro.campaign.store", "report_from_payload", span("campaign.decode"))
    tracer.patch_function("repro.campaign.store", "report_to_payload", span("campaign.encode"))
    for op in SERVICE_OPS:
        tracer.patch_item(handlers.HANDLERS, op, tracer.timed_async(f"service.handler.{op}", handlers.HANDLERS[op]))


def _subclasses(cls: type) -> Iterable[type]:
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(_subclasses(sub))
    return seen


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> self time: its duration minus the union of its
    children's intervals (clipped to it), so overlapping children are
    never counted twice."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for span_id, _, start, end, _, _ in spans:
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(span_id, ())]
        out[span_id] = (end - start) - covered_seconds(clipped)
    return out


def reparent_by_time(spans: list[tuple], hosts: Iterable[tuple]) -> list[tuple]:
    """Give each parentless span the innermost other host span whose
    interval contains it: a worker thread's work goes under the handler
    that waited for it, a daemon's handler under the client request
    that caused it.  ``hosts`` are full span tuples."""
    hosts = list(hosts)
    out = []
    for span in spans:
        span_id, name, start, end, parent, pass_id = span
        if not parent:
            best = None
            for host in hosts:
                if host[0] != span_id and host[2] <= start and end <= host[3]:
                    if best is None or host[3] - host[2] < best[3] - best[2]:
                        best = host
            if best is not None:
                span = (span_id, name, start, end, best[0], pass_id)
        out.append(span)
    return out


def pass_spans(spans: list[tuple], pass_id: int) -> list[tuple]:
    """The spans of one pass: descendants of its ``bench.pass`` roots."""
    by_parent: dict[int, list[tuple]] = defaultdict(list)
    roots = []
    for span in spans:
        if span[1] == PASS_SPAN and span[5] == pass_id:
            roots.append(span)
        else:
            by_parent[span[4]].append(span)
    out = list(roots)
    frontier = [root[0] for root in roots]
    while frontier:
        nxt = []
        for span_id in frontier:
            for child in by_parent.get(span_id, ()):
                out.append(child)
                nxt.append(child[0])
        frontier = nxt
    return out


def layer_table(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: count, inclusive seconds, self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, _ in spans:
        row = table.setdefault(name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["inclusive_s"] += end - start
        row["self_s"] += selfs[span_id]
    return table


def merge_tables(tables: Iterable[dict]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = out.setdefault(name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    return out


def report_counts(tracer: Tracer, since: Optional[dict] = None) -> dict[str, float]:
    """Counts read from what the traced calls returned or built.  The
    wrapper counters accumulate over a wrapper's life; ``since`` (an
    earlier result) turns the per-call ones into a delta."""
    counts = dict(tracer.counts)
    counts.update({
        "injector.vectors": sum(report.vectors_run for report in tracer.reports),
        "injector.calls": sum(report.calls_made for report in tracer.reports),
    })
    stats = [w.stats for w in tracer.wrappers]
    for key in ("programs_compiled", "program_shares"):
        counts[f"wrapper.stats_{key}"] = sum(getattr(s, key) for s in stats)
    per_call = {f"wrapper.stats_{key}": sum(getattr(s, key) for s in stats)
                for key in ("calls", "violations", "revalidate_hits", "revalidate_misses")}
    per_call["wrapper.check_s"] = sum(s.check_seconds for s in stats)
    for key, value in per_call.items():
        counts[key] = value - (since or {}).get(key, 0)
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(table: dict[str, dict[str, float]], counts: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics (names as in BENCHMARK.json) from a pass's
    layer table and counts; layers the workload never enters read 0."""
    metrics: dict[str, float] = {}
    for span_name, (count_name, time_name) in LAYER_SPANS.items():
        row = table.get(span_name, {"count": 0, "self_s": 0.0})
        if count_name is not None:
            metrics[count_name] = row["count"]
        metrics[time_name] = row["self_s"]
    for configuration in CONFIGURATIONS:
        row = table.get(f"ballista.run.{configuration}", {"self_s": 0.0})
        metrics[f"ballista.run_s.{configuration}"] = row["self_s"]
    c = counts.get
    metrics["ballista.tests"] = c("ballista.tests", 0)
    metrics["injector.vectors"] = c("injector.vectors", 0)
    metrics["injector.calls"] = c("injector.calls", 0)
    metrics["injector.plan_compiles"] = c("injector.plan_compiles", 0)
    metrics["injector.memo_lookups"] = c("injector.memo_lookups", 0)
    metrics["injector.memo_hit_ratio"] = _ratio(c("injector.memo_hits", 0), c("injector.memo_lookups", 0))
    metrics["sandbox.crash_ratio"] = _ratio(c("sandbox.failures", 0), metrics["sandbox.calls"])
    metrics["wrapper.check_s"] = c("wrapper.check_s", 0.0)
    metrics["wrapper.programs_compiled"] = c("wrapper.stats_programs_compiled", 0)
    metrics["wrapper.program_shares"] = c("wrapper.stats_program_shares", 0)
    metrics["wrapper.violation_ratio"] = _ratio(c("wrapper.stats_violations", 0), c("wrapper.stats_calls", 0))
    metrics["wrapper.revalidate_hit_ratio"] = _ratio(
        c("wrapper.stats_revalidate_hits", 0),
        c("wrapper.stats_revalidate_hits", 0) + c("wrapper.stats_revalidate_misses", 0),
    )
    return metrics


def format_table(table: dict[str, dict[str, float]], pass_s: float, title: str) -> str:
    """Human-readable layer table: count, inclusive, self, share of pass."""
    lines = [title, f"{'span':34} {'count':>9} {'incl_s':>9} {'self_s':>9} {'share':>7}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / pass_s if pass_s else 0.0
        lines.append(
            f"{name:34} {int(row['count']):>9} {row['inclusive_s']:>9.4f} "
            f"{row['self_s']:>9.4f} {share:>7.1%}"
        )
    total = sum(row["self_s"] for row in table.values())
    lines.append(f"{'sum of self (incl. bench.pass)':34} {'':>9} {'':>9} {total:>9.4f} "
                 f"{(total / pass_s if pass_s else 0.0):>7.1%}")
    return "\n".join(lines)


def service_metrics(spans: list[tuple], cache: dict[str, float], requests: int,
                    retry_later: int) -> dict[str, float]:
    """The service split per op: client round trip, daemon handler, and
    their difference (transport, queueing, encoding), as medians in ms
    over the traced pass; plus cache, refusal and prefill figures."""
    handler_of = {s[4]: s for s in spans if s[1].startswith("service.handler.")}
    metrics: dict[str, float] = {}
    for op in SERVICE_OPS:
        client, handler, transport = [], [], []
        for span in spans:
            if span[1] == f"service.client.{op}" and span[5] == 1:
                client.append(1000 * (span[3] - span[2]))
                inner = handler_of.get(span[0])
                if inner is not None:
                    handler.append(1000 * (inner[3] - inner[2]))
                    transport.append(client[-1] - handler[-1])
        metrics[f"service.client_ms.{op}"] = statistics.median(client) if client else 0.0
        metrics[f"service.handler_ms.{op}"] = statistics.median(handler) if handler else 0.0
        metrics[f"service.transport_ms.{op}"] = statistics.median(transport) if transport else 0.0
    metrics["service.cache_hit_ratio"] = _ratio(cache["hit"], cache["hit"] + cache["miss"])
    metrics["service.retry_later_ratio"] = _ratio(retry_later, requests)
    metrics["service.inject_s"] = covered_seconds(
        [(s[2], s[3]) for s in spans if s[1] == "injector.run"]
    )
    return metrics


def covered_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` (overlaps counted once)."""
    covered = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered
