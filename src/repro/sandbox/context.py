"""Execution context handed to simulated C functions.

A libc model is a Python callable ``model(ctx, *argument_values)``.
The context gives it exactly what a real C function has: memory (the
address space and heap), the kernel (file descriptors, filesystem,
terminal state), ``errno``, and — because the simulation must detect
hangs — a step counter standing in for wall-clock time under the
injector's watchdog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class Hang(Exception):
    """The call exceeded its step budget.

    Models call :meth:`CallContext.step` from their loops; a model
    stuck in an unbounded loop (e.g. ``strlen`` over an unterminated
    cyclic buffer in real libc) trips the budget, which the sandbox
    reports as a HUNG outcome — the simulation of the paper's
    "hang for some predefined timeout period".
    """


class Abort(Exception):
    """Simulated SIGABRT (e.g. a glibc internal consistency check)."""

    def __init__(self, reason: str = "") -> None:
        self.reason = reason
        super().__init__(reason or "SIGABRT")


class CallContext:
    """Per-call view of a :class:`repro.libc.runtime.LibcRuntime`.

    Attributes:
        runtime: the runtime the call executes against (duck-typed; it
            must expose ``space``, ``heap``, ``kernel`` and ``errno``).
        mem: shortcut for ``runtime.space``.
        heap: shortcut for ``runtime.heap``.
        kernel: shortcut for ``runtime.kernel``.
        steps: simulated work performed so far in this call.
        errno_set: whether the callee wrote errno during this call.
        interrupt_at: the step count at which an armed simulated signal
            fires, or None; bulk readers stop short of it so its
            handler runs between the same two byte reads as it would
            under per-byte stepping.
    """

    interrupt_at: int | None = None

    def __init__(self, runtime: Any, step_budget: int = 1_000_000) -> None:
        self.runtime = runtime
        self.mem = runtime.space
        self.heap = runtime.heap
        self.step_budget = step_budget
        self.steps = 0
        self.errno_set = False

    @property
    def kernel(self) -> Any:
        # Resolved per access: the runtime's kernel fork is lazy, and
        # most calls (the whole string family) never touch it — an
        # eager shortcut here would materialize it on every call.
        return self.runtime.kernel

    def set_errno(self, code: int) -> None:
        """Record an errno write (thread-safe errno is a function in
        real glibc; here it is runtime state)."""
        self.runtime.errno = code
        self.errno_set = True

    @property
    def errno(self) -> int:
        return self.runtime.errno

    def step(self, count: int = 1) -> None:
        """Account ``count`` units of simulated work.

        Raises :class:`Hang` once the budget is exhausted; the budget
        plays the role of the injector's hang timeout.
        """
        self.steps += count
        if self.steps > self.step_budget:
            raise Hang(f"exceeded step budget of {self.step_budget}")

    def account(self, count: int) -> None:
        """Account ``count`` units exactly as ``count`` successive
        :meth:`step` calls would.

        The bulk fast paths (``repro.libc.common`` string helpers) use
        this instead of per-byte ``step()`` so a HUNG outcome records
        the same step count as the byte-at-a-time reference: the first
        increment past the budget raises with ``steps == budget + 1``,
        not ``steps + count``.
        """
        if count <= 0:
            return
        if self.steps + count > self.step_budget:
            self.steps = self.step_budget + 1
            raise Hang(f"exceeded step budget of {self.step_budget}")
        self.steps += count


@dataclass
class InterruptPlan:
    """A simulated asynchronous signal, armed on a runtime.

    ``fire`` runs once, in the interrupted call's context, the first
    time the step counter reaches ``offset`` — the reproduction of a
    signal handler preempting a libc call at an arbitrary instruction
    boundary.  The handler may clobber ``errno``, mutate libc state,
    or re-enter the interrupted function; whatever faults it causes
    propagate as the outcome of the interrupted call.
    """

    offset: int
    fire: Callable[["CallContext"], None]


class InterruptibleContext(CallContext):
    """A :class:`CallContext` that delivers one armed interrupt.

    Kept as a separate subclass so the baseline ``step``/``account``
    hot path (millions of calls per campaign) pays nothing for the
    feature; the sandbox selects this class only when the runtime
    carries a ``pending_interrupt``.
    """

    def __init__(self, runtime: Any, step_budget: int, plan: InterruptPlan) -> None:
        super().__init__(runtime, step_budget)
        self.interrupt = plan
        self.interrupted = False

    @property
    def interrupt_at(self) -> int | None:
        return None if self.interrupted else self.interrupt.offset

    def _maybe_fire(self) -> None:
        if not self.interrupted and self.steps >= self.interrupt.offset:
            # Flag first: a handler that re-enters the function (and
            # therefore steps again) must not be re-interrupted.
            self.interrupted = True
            self.interrupt.fire(self)

    def step(self, count: int = 1) -> None:
        super().step(count)
        self._maybe_fire()

    def account(self, count: int) -> None:
        super().account(count)
        self._maybe_fire()
