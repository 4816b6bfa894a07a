"""Isolated execution of simulated C calls.

The paper's fault injector forks a child process for every test call so
that a segmentation fault in the function under test cannot take down
the injector (section 4.1: "a child process executes the actual
calls").  :class:`Sandbox` provides the same contract: it runs one call,
converts faults, hangs and aborts into a structured
:class:`~repro.sandbox.outcome.CallOutcome`.  The call acts on the
runtime it is given; callers that must discard its side effects (the
injector, the Ballista harness) hand it a forked runtime.

Every call is accounted per terminal status (:attr:`Sandbox.stats`)
and, when a live telemetry object is supplied, recorded as a
``sandbox.call`` span plus a ``sandbox.calls{status=...}`` counter.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.memory.faults import AccessKind, BusError, OutOfMemory, SegmentationFault
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sandbox.context import Abort, CallContext, Hang, InterruptibleContext
from repro.sandbox.outcome import CallOutcome, CallStatus

#: Default step budget: generous enough for every legitimate libc
#: model, small enough that a runaway loop is detected quickly.
DEFAULT_STEP_BUDGET = 1_000_000

LibcModel = Callable[..., Any]


class Sandbox:
    """Executes simulated C calls with fault containment.

    Args:
        step_budget: watchdog limit per call (see
            :class:`~repro.sandbox.context.Hang`).
        telemetry: a :class:`repro.obs.Telemetry` (or a scope of one);
            defaults to the inert no-op object.
    """

    def __init__(
        self,
        step_budget: int = DEFAULT_STEP_BUDGET,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.step_budget = step_budget
        self.telemetry = telemetry
        #: total sandboxed calls, exposed for the benches
        self.call_count = 0
        self._status_counts: dict[str, int] = {}
        # Instrument references held once so the per-call path skips
        # the registry lookup (the registry hands out stable objects).
        if telemetry.enabled:
            self._read_counter = telemetry.counter("memory.bytes_read")
            self._written_counter = telemetry.counter("memory.bytes_written")
            self._call_counters: dict[str, Any] = {}
            self._span_context = getattr(telemetry, "context", None)
            # Bound methods cached once: the per-call path below runs
            # hundreds of thousands of times per campaign.
            tracer = telemetry.tracer
            self._clock = tracer.clock
            self._leaf_span = tracer.leaf_span

    @property
    def stats(self) -> dict[str, int]:
        """Outcome counts by :class:`CallStatus` name, e.g.
        ``{"RETURNED": 118, "CRASHED": 4}``."""
        return dict(self._status_counts)

    def call(
        self, function: LibcModel, arguments: Sequence[Any], runtime: Any
    ) -> CallOutcome:
        """Run ``function(ctx, *arguments)`` against ``runtime``.

        Never raises for failures of the callee: every robustness
        failure becomes a :class:`CallOutcome`.  Programming errors in
        the harness itself (e.g. a model raising TypeError) propagate,
        since hiding those would mask reproduction bugs.
        """
        self.call_count += 1
        # errno is only reported when the callee writes it, so clear
        # the "was set" tracking per call via a fresh context.  A
        # runtime armed with a simulated signal (see repro.faults)
        # gets the interrupt-delivering context subclass; the single
        # getattr keeps the unarmed hot path untouched.
        plan = getattr(runtime, "pending_interrupt", None)
        if plan is None:
            ctx = CallContext(runtime, self.step_budget)
        else:
            ctx = InterruptibleContext(runtime, self.step_budget, plan)
        if not self.telemetry.enabled:
            # Hot path: with telemetry off, skip span/counter
            # construction entirely; only the local stats survive.
            outcome = self._execute(function, arguments, runtime, ctx)
            status = outcome.status.name
            self._status_counts[status] = self._status_counts.get(status, 0) + 1
            return outcome
        space = ctx.mem
        try:
            read_before = space.bytes_read
            written_before = space.bytes_written
        except AttributeError:
            read_before = written_before = 0
        started = self._clock()
        outcome = self._execute(function, arguments, runtime, ctx)
        status = outcome.status.name
        self._status_counts[status] = self._status_counts.get(status, 0) + 1
        counter = self._call_counters.get(status)
        if counter is None:
            counter = self._call_counters[status] = self.telemetry.counter(
                "sandbox.calls", status=status
            )
        counter.inc()
        try:
            self._read_counter.inc(space.bytes_read - read_before)
            self._written_counter.inc(space.bytes_written - written_before)
        except AttributeError:
            pass
        # Leaf span, recorded in one call: libc models emit no
        # telemetry, so nothing can need this span as a parent.
        self._leaf_span(
            "sandbox.call",
            started,
            {"status": status, "steps": outcome.steps},
            self._span_context,
        )
        return outcome

    @staticmethod
    def _execute(
        function: LibcModel, arguments: Sequence[Any], target: Any, ctx: CallContext
    ) -> CallOutcome:
        try:
            value = function(ctx, *arguments)
        except SegmentationFault as fault:
            # The traceback would pin the model's frames and buffers
            # (strncpy's ~1 MB padding) until the cyclic collector runs.
            return CallOutcome(
                CallStatus.CRASHED, fault=fault.with_traceback(None), detail=fault.reason,
                steps=ctx.steps,
            )
        except BusError as fault:
            synthetic = SegmentationFault(fault.address, access=AccessKind.READ)
            return CallOutcome(
                CallStatus.CRASHED, fault=synthetic, detail=str(fault), steps=ctx.steps
            )
        except OutOfMemory as oom:
            return CallOutcome(CallStatus.ABORTED, detail=str(oom), steps=ctx.steps)
        except Hang as hang:
            return CallOutcome(CallStatus.HUNG, detail=str(hang), steps=ctx.steps)
        except Abort as abort:
            return CallOutcome(CallStatus.ABORTED, detail=abort.reason, steps=ctx.steps)
        errno = target.errno if ctx.errno_set else None
        return CallOutcome(
            CallStatus.RETURNED, return_value=value, errno=errno, steps=ctx.steps
        )
