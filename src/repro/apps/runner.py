"""Workload runner and the Table 2 metric computation.

For each application the paper reports four numbers:

* ``#wrapped func/sec`` — wrapped-call frequency, from the
  *measurement wrapper* (section 7);
* ``time in library``  — fraction of execution spent inside wrapped
  C functions (measurement wrapper);
* ``checking overhead`` — fraction of execution spent in the
  robustness wrapper's argument checks;
* ``execution overhead`` — wall-clock slowdown of the robust wrapper
  versus running unwrapped (including the per-process wrapper load
  cost, which is why 5-process gcc pays extra).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps.workloads import Application
from repro.declarations.model import FunctionDeclaration
from repro.libc.catalog import BY_NAME
from repro.libc.runtime import LibcRuntime, standard_runtime
from repro.obs.metrics import Counter, Timer
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sandbox import Sandbox
from repro.wrapper import CheckConfig, WrapperLibrary, WrapperPolicy


@dataclass
class RunMetrics:
    """Raw measurements of one application run."""

    wall_seconds: float
    libc_calls: int
    library_seconds: float
    check_seconds: float
    load_seconds: float = 0.0

    @property
    def calls_per_second(self) -> float:
        return self.libc_calls / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def library_fraction(self) -> float:
        return self.library_seconds / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def checking_fraction(self) -> float:
        return self.check_seconds / self.wall_seconds if self.wall_seconds else 0.0


@dataclass
class Table2Row:
    """One application's row of Table 2."""

    app: str
    wrapped_calls_per_sec: float
    time_in_library_pct: float
    checking_overhead_pct: float
    execution_overhead_pct: float

    def as_dict(self) -> dict[str, object]:
        return {
            "app": self.app,
            "wrapped_calls_per_sec": round(self.wrapped_calls_per_sec),
            "time_in_library_pct": round(self.time_in_library_pct, 2),
            "checking_overhead_pct": round(self.checking_overhead_pct, 4),
            "execution_overhead_pct": round(self.execution_overhead_pct, 2),
        }


def run_application(
    app: Application,
    declarations: Optional[dict[str, FunctionDeclaration]] = None,
    policy: WrapperPolicy = WrapperPolicy.ROBUST,
    wrapped: bool = True,
    runtime_factory: Callable[[], LibcRuntime] = standard_runtime,
    telemetry=NULL_TELEMETRY,
) -> RunMetrics:
    """Execute one application once, per its process profile.

    Timing is accumulated in per-run obs instruments (the measurement
    wrapper of section 7); the returned :class:`RunMetrics` is built
    from their totals, so its public shape is unchanged.
    """
    calls = Counter("app.libc_calls")
    library = Timer("app.library_seconds")
    checks = Timer("app.check_seconds")
    loads = Timer("app.load_seconds")
    wall = Timer("app.wall_seconds")
    with telemetry.span(
        "app.run", app=app.profile.name, policy=policy.value, wrapped=wrapped
    ) as span:
        with wall.time():
            for _ in range(app.profile.processes):
                runtime = runtime_factory()
                app.prepare(runtime)
                if wrapped and declarations is not None:
                    with loads.time():
                        wrapper = WrapperLibrary(
                            declarations,
                            policy=policy,
                            check_config=CheckConfig(),
                            telemetry=telemetry,
                        )

                    def call(name: str, *args):
                        outcome = wrapper.call(name, list(args), runtime)
                        return outcome.return_value

                    app.run(call, runtime)
                    calls.inc(wrapper.stats.calls)
                    library.observe(wrapper.stats.library_seconds)
                    checks.observe(wrapper.stats.check_seconds)
                else:
                    sandbox = Sandbox(telemetry=telemetry)

                    def call(name: str, *args):
                        calls.inc()
                        with library.time():
                            outcome = sandbox.call(
                                BY_NAME[name].model, list(args), runtime
                            )
                        return outcome.return_value

                    app.run(call, runtime)
        span.set(
            calls=calls.value,
            wall_seconds=round(wall.seconds, 6),
            library_seconds=round(library.seconds, 6),
            check_seconds=round(checks.seconds, 6),
        )
    return RunMetrics(
        wall.seconds, calls.value, library.seconds, checks.seconds, loads.seconds
    )


def table2_row(
    app: Application,
    declarations: dict[str, FunctionDeclaration],
    repeats: int = 3,
    telemetry=NULL_TELEMETRY,
) -> Table2Row:
    """Compute one application's Table 2 row (best-of-N timing)."""
    measures = [
        run_application(app, declarations, WrapperPolicy.MEASURE, telemetry=telemetry)
        for _ in range(repeats)
    ]
    robust = [
        run_application(app, declarations, WrapperPolicy.ROBUST, telemetry=telemetry)
        for _ in range(repeats)
    ]
    plain = [
        run_application(app, wrapped=False, telemetry=telemetry)
        for _ in range(repeats)
    ]

    measure = min(measures, key=lambda m: m.wall_seconds)
    protected = min(robust, key=lambda m: m.wall_seconds)
    baseline = min(plain, key=lambda m: m.wall_seconds)
    # Execution overhead is computed from the wrapper-attributable
    # components (argument checking, per-process wrapper loading, and
    # any extra time spent around library calls) over the unwrapped
    # wall clock.  Differencing raw wall clocks instead would drown
    # the small overheads in application-compute timing jitter.
    extra = (
        protected.check_seconds
        + protected.load_seconds
        + max(protected.library_seconds - baseline.library_seconds, 0.0)
    )
    overhead = extra / baseline.wall_seconds if baseline.wall_seconds else 0.0
    return Table2Row(
        app=app.profile.name,
        wrapped_calls_per_sec=measure.calls_per_second,
        time_in_library_pct=100 * measure.library_fraction,
        checking_overhead_pct=100 * protected.checking_fraction,
        execution_overhead_pct=100 * max(overhead, 0.0),
    )
