"""The executable robustness wrapper (paper section 5).

A :class:`WrapperLibrary` interposes between an application and the
simulated C library exactly like the generated shared library of the
paper: each wrapped function runs prefix checks derived from its
declaration, returns the declared error code (setting errno) on a
violation, and otherwise forwards to the original function.

The generator supports the paper's wrapper variety (section 2):

* ``ROBUST`` — reject invalid arguments with an error return;
* ``DEBUG`` — abort the application on a violation (debugging phase);
* ``LOGGING`` — like ROBUST, plus a violation log for diagnosis;
* ``MINIMAL`` — only the cheap NULL/invalid-pointer checks;
* ``MEASURE`` — no checks at all, just call counting and timing (the
  measurement wrapper used for Table 2).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.declarations.model import FunctionDeclaration
from repro.libc.catalog import BY_NAME, FunctionSpec
from repro.libc.errno_codes import EINVAL
from repro.libc.runtime import LibcRuntime
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sandbox import CallOutcome, CallStatus, Sandbox
from repro.wrapper.checks import CheckConfig
from repro.wrapper.program import CheckProgram, ProgramContext, program_for
from repro.wrapper.state import DEFAULT_LOG_CAP, WrapperState


class WrapperPolicy(enum.Enum):
    ROBUST = "robust"
    DEBUG = "debug"
    LOGGING = "logging"
    MINIMAL = "minimal"
    MEASURE = "measure"


@dataclass
class WrapperStats:
    """Counters for the performance evaluation (Table 2)."""

    calls: int = 0
    forwarded: int = 0
    violations: int = 0
    checks: int = 0
    check_seconds: float = 0.0
    library_seconds: float = 0.0
    per_function: dict[str, int] = field(default_factory=dict)
    #: compiled-checker economics (PR 9)
    programs_compiled: int = 0
    program_shares: int = 0
    revalidate_hits: int = 0
    revalidate_misses: int = 0
    batched_calls: int = 0

    def record_call(self, name: str) -> None:
        self.calls += 1
        self.per_function[name] = self.per_function.get(name, 0) + 1


class WrapperLibrary:
    """Phase-2 output: the robustness wrapper as a callable object."""

    def __init__(
        self,
        declarations: dict[str, FunctionDeclaration],
        policy: WrapperPolicy = WrapperPolicy.ROBUST,
        check_config: Optional[CheckConfig] = None,
        relational: bool = True,
        wrap_safe: bool = False,
        step_budget: int = 1_000_000,
        telemetry=NULL_TELEMETRY,
        max_log_entries: int = DEFAULT_LOG_CAP,
    ) -> None:
        self.declarations = declarations
        self.policy = policy
        self.check_config = check_config or CheckConfig()
        self.relational = relational
        self.wrap_safe = wrap_safe
        self.telemetry = telemetry
        self.state = WrapperState(max_log=max_log_entries)
        self.stats = WrapperStats()
        #: per-function compiled programs (shared process-wide through
        #: repro.wrapper.program's content-addressed cache)
        self._programs: dict[str, CheckProgram] = {}
        #: the reusable check context; its revalidation cache survives
        #: across calls while the runtime's mapping generation holds
        self._context = ProgramContext(self.state, self.check_config)
        self.sandbox = Sandbox(step_budget=step_budget, telemetry=telemetry)
        #: assertions enabled anywhere force state interception
        self.tracked_assertions: frozenset[str] = frozenset(
            name for decl in declarations.values() for name in decl.assertions
        )
        self._in_flag = False  # the Figure 5 recursion guard

    # ------------------------------------------------------------------
    def call(self, name: str, args: Sequence, runtime: LibcRuntime) -> CallOutcome:
        """Invoke ``name`` through the wrapper."""
        spec = BY_NAME[name]
        self.stats.record_call(name)
        self.telemetry.counter("wrapper.calls").inc()
        declaration = self.declarations.get(name)

        if self._in_flag:
            return self._forward(spec, args, runtime, name)
        self._in_flag = True
        try:
            return self._dispatch(spec, declaration, args, runtime, name)
        finally:
            self._in_flag = False

    def _dispatch(
        self,
        spec: FunctionSpec,
        declaration: Optional[FunctionDeclaration],
        args: Sequence,
        runtime: LibcRuntime,
        name: str,
    ) -> CallOutcome:
        if declaration is None or self.policy is WrapperPolicy.MEASURE:
            return self._forward(spec, args, runtime, name)
        if (
            not declaration.unsafe
            and not declaration.scenario_unsafe
            and not self.wrap_safe
        ):
            # "The wrapper generator creates robustness wrappers only
            # for unsafe functions ... it avoids the overhead of
            # unnecessary argument checks." (section 3.4)  A function
            # the fault-model sweep condemned (unsafe_scenarios) is
            # wrapped too: argument-robust but environment-fragile
            # still earns its prefix checks.
            return self._forward(spec, args, runtime, name)

        started = time.perf_counter()
        violation = self._check_arguments(declaration, args, runtime, name)
        elapsed = time.perf_counter() - started
        self.stats.check_seconds += elapsed
        if self.telemetry.enabled:
            self.telemetry.histogram("wrapper.check_ns", function=name).observe(
                elapsed * 1e9
            )
        if violation is not None:
            return self._reject(declaration, violation, name)
        return self._forward(spec, args, runtime, name)

    # ------------------------------------------------------------------
    # batched / check-only entry points (PR 9)
    # ------------------------------------------------------------------
    def validate(
        self, name: str, args: Sequence, runtime: LibcRuntime
    ) -> Optional[str]:
        """Run only the prefix checks for ``name``: the violation that
        would reject the call, or None when it would be forwarded.

        Never executes the library function, so it is safe to run
        against live state (no heap/file mutations) — the primitive
        behind the service's batch ``validate`` op.
        """
        declaration = self.declarations.get(name)
        if declaration is None or self.policy is WrapperPolicy.MEASURE:
            return None
        if (
            not declaration.unsafe
            and not declaration.scenario_unsafe
            and not self.wrap_safe
        ):
            return None
        started = time.perf_counter()
        try:
            return self._check_arguments(declaration, args, runtime, name)
        finally:
            self.stats.check_seconds += time.perf_counter() - started

    def validate_many(
        self, calls: Sequence[tuple[str, Sequence]], runtime: LibcRuntime
    ) -> list[Optional[str]]:
        """Check-only twin of :meth:`call_many`."""
        with self.telemetry.span("wrapper.validate_many", count=len(calls)):
            return [self.validate(name, args, runtime) for name, args in calls]

    def call_many(
        self, calls: Sequence[tuple[str, Sequence]], runtime: LibcRuntime
    ) -> list[CallOutcome]:
        """Invoke a batch of ``(name, args)`` calls through the wrapper.

        One entry point for many calls amortizes per-request costs all
        the way up the stack: the service's ``validate`` op admits a
        whole batch under a single admission ticket, and the compiled
        checker's revalidation cache stays warm across the batch.
        """
        self.stats.batched_calls += len(calls)
        self.telemetry.counter("wrapper.batch_calls").inc()
        with self.telemetry.span("wrapper.batch", count=len(calls)):
            return [self.call(name, args, runtime) for name, args in calls]

    # ------------------------------------------------------------------
    def _program_for(self, name: str, declaration: FunctionDeclaration) -> CheckProgram:
        program = self._programs.get(name)
        if program is None:
            program, shared = program_for(
                declaration,
                self.check_config,
                minimal=self.policy is WrapperPolicy.MINIMAL,
                relational=self.relational,
            )
            self._programs[name] = program
            if shared:
                self.stats.program_shares += 1
            else:
                self.stats.programs_compiled += 1
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "wrapper.programs", result="shared" if shared else "compiled"
                ).inc()
        return program

    def _check_arguments(
        self,
        declaration: FunctionDeclaration,
        args: Sequence,
        runtime: LibcRuntime,
        name: str,
    ) -> Optional[str]:
        """Run the function's compiled check program: the violation
        that rejects the call, or None."""
        program = self._program_for(name, declaration)
        ctx = self._context
        ctx.bind(runtime)
        ctx.checks_performed = 0
        ctx.revalidate_hits = 0
        ctx.revalidate_misses = 0
        try:
            return program.run(args, ctx)
        finally:
            self.stats.checks += ctx.checks_performed
            self.stats.revalidate_hits += ctx.revalidate_hits
            self.stats.revalidate_misses += ctx.revalidate_misses

    # ------------------------------------------------------------------
    def _reject(
        self, declaration: FunctionDeclaration, violation: str, name: str
    ) -> CallOutcome:
        """Prefix-code rejection: set errno, return the error code."""
        self.stats.violations += 1
        self.telemetry.counter("wrapper.violations", function=name).inc()
        self.telemetry.event("wrapper.violation", function=name, detail=violation)
        if self.policy in (WrapperPolicy.LOGGING, WrapperPolicy.DEBUG):
            self.state.record_violation(name, violation)
        if self.policy is WrapperPolicy.DEBUG:
            return CallOutcome(
                CallStatus.ABORTED, detail=f"wrapper abort: {name}: {violation}"
            )
        errno = declaration.errnos[0] if declaration.errnos else EINVAL
        return CallOutcome(
            CallStatus.RETURNED, return_value=declaration.error_value, errno=errno
        )

    def _forward(
        self, spec: FunctionSpec, args: Sequence, runtime: LibcRuntime, name: str
    ) -> CallOutcome:
        started = time.perf_counter()
        outcome = self.sandbox.call(spec.model, args, runtime)
        self.stats.library_seconds += time.perf_counter() - started
        self.stats.forwarded += 1
        if self.tracked_assertions:
            self.state.observe_call(name, tuple(args), outcome)
        return outcome
