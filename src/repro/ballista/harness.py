"""The Ballista-style robustness test harness (paper section 6).

Re-creates the evaluation setup: for each of the 86 POSIX functions,
enumerate test cases from per-argument value pools, execute each in an
isolated runtime, and classify the outcome on the simplified CRASH
scale the paper's Figure 6 uses:

* **Crash** — segmentation fault, hang, or abort (the failures the
  wrapper must prevent);
* **Errno set** — the call returned and reported the problem;
* **Silent** — the call returned without signalling anything.

The same test list can be replayed three ways: direct calls
(unwrapped), through the fully automated wrapper, and through the
semi-automatically hardened wrapper.  Every sweep runs its tests one
function at a time through one path, in process or sharded over the
campaign scheduler's worker pool.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ballista.pools import PoolValue, pool_for
from repro.cdecl import DeclarationParser, typedef_table
from repro.injector import RunSpec
from repro.libc.catalog import BALLISTA_SET, BY_NAME, FunctionSpec
from repro.libc.runtime import LibcRuntime, standard_runtime
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sandbox import CallOutcome, CallStatus, Sandbox
from repro.wrapper.wrapper import WrapperLibrary

#: Per-function cap on enumerated tests; calibrated together with
#: ``total_target`` so the full 86-function sweep can be thinned to
#: exactly the paper's 11995 tests (cap 420 enumerates ~12k).
DEFAULT_TEST_CAP = 420


@dataclass(frozen=True)
class BallistaTest:
    """One test case: the function plus one pool value per argument."""

    __test__ = False  # not a pytest collection target

    function: str
    values: tuple[PoolValue, ...]

    @property
    def label(self) -> str:
        inner = ", ".join(v.label for v in self.values)
        return f"{self.function}({inner})"


@dataclass
class TestRecord:
    """Outcome of one executed test."""

    __test__ = False  # not a pytest collection target

    test: BallistaTest
    status: str  # "crash" | "errno" | "silent"
    detail: str = ""


@dataclass
class BallistaReport:
    """Aggregated results of one full sweep."""

    configuration: str
    records: list[TestRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    @property
    def crash_rate(self) -> float:
        return self.count("crash") / self.total if self.total else 0.0

    @property
    def errno_rate(self) -> float:
        return self.count("errno") / self.total if self.total else 0.0

    @property
    def silent_rate(self) -> float:
        return self.count("silent") / self.total if self.total else 0.0

    def crashing_functions(self) -> list[str]:
        return sorted({r.test.function for r in self.records if r.status == "crash"})

    def crashes_by_function(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            if record.status == "crash":
                out[record.test.function] = out.get(record.test.function, 0) + 1
        return out

    def summary_row(self) -> dict[str, object]:
        return {
            "configuration": self.configuration,
            "tests": self.total,
            "errno_set_pct": round(100 * self.errno_rate, 2),
            "silent_pct": round(100 * self.silent_rate, 2),
            "crash_pct": round(100 * self.crash_rate, 2),
            "crashing_functions": len(self.crashing_functions()),
        }


class BallistaHarness:
    """Enumerates and executes the Ballista test suite."""

    def __init__(
        self,
        functions: Optional[Sequence[FunctionSpec]] = None,
        test_cap: int = DEFAULT_TEST_CAP,
        total_target: Optional[int] = None,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.functions = list(functions or BALLISTA_SET)
        self.test_cap = test_cap
        self.total_target = total_target
        self.telemetry = telemetry
        self.parser = DeclarationParser(typedef_table())
        self._tests: Optional[list[BallistaTest]] = None

    # ------------------------------------------------------------------
    def tests(self) -> list[BallistaTest]:
        """The deterministic test list (cached)."""
        if self._tests is None:
            tests: list[BallistaTest] = []
            for spec in self.functions:
                tests.extend(self._tests_for(spec))
            if self.total_target is not None and len(tests) > self.total_target:
                tests = _thin(tests, self.total_target)
            self._tests = tests
        return self._tests

    def _tests_for(self, spec: FunctionSpec) -> list[BallistaTest]:
        prototype = self.parser.parse_prototype(spec.prototype)
        pools = []
        for parameter in prototype.ftype.parameters:
            resolved = self.parser.resolve(parameter.ctype)
            pools.append(pool_for(parameter, resolved, parameter.ctype))
        if not pools:
            return [BallistaTest(spec.name, ())]
        # The paper re-runs the tests "for which these functions
        # exhibit robustness violations": every test carries at least
        # one exceptional value.
        combos = [
            combo
            for combo in itertools.product(*pools)
            if any(value.exceptional for value in combo)
        ]
        if len(combos) > self.test_cap:
            stride = len(combos) / self.test_cap
            chosen = []
            next_pick = 0.0
            for index, combo in enumerate(combos):
                if index >= next_pick:
                    chosen.append(combo)
                    next_pick += stride
                if len(chosen) >= self.test_cap:
                    break
        else:
            chosen = combos
        return [BallistaTest(spec.name, tuple(combo)) for combo in chosen]

    # ------------------------------------------------------------------
    def run(
        self,
        wrapper: Optional[WrapperLibrary] = None,
        configuration: str = "unwrapped",
        jobs: int = 1,
        run: RunSpec = RunSpec(),
    ) -> BallistaReport:
        """Execute every test; each runs in a fork of a standard runtime.

        The tests are grouped by function and every group runs through
        :func:`_run_function`: in this process with one job, otherwise as
        one task per function on the campaign scheduler's worker pool.
        Either way the records are assembled function by function in
        test-list order, so a sharded report equals an in-process one.

        The run's fault models (see :mod:`repro.faults`) arm one scenario
        per test, cycling through each function's scenario list in
        deterministic test order — the environmental-fault variant of
        the sweep.  The cycle is per function, so sharding leaves it
        unchanged.
        """
        telemetry = self.telemetry.scope(configuration=configuration)
        report = BallistaReport(configuration)
        grouped: dict[str, list[BallistaTest]] = {}
        for test in self.tests():
            grouped.setdefault(test.function, []).append(test)
        status_counters = {
            status: telemetry.counter("ballista.tests", status=status)
            for status in ("crash", "errno", "silent")
        }
        with telemetry.span("campaign", kind="ballista", jobs=jobs) as campaign:
            shards = None
            if jobs > 1:
                shards = self._run_pool(list(grouped), wrapper, jobs, run, telemetry)
            else:
                models = run.models()
                sandbox = Sandbox(telemetry=telemetry)
                base = standard_runtime()
            for function, tests in grouped.items():
                if shards is not None:
                    outcomes = shards[function]
                else:
                    cycle = _scenario_cycle(BY_NAME[function], models, self.parser)
                    outcomes = _run_function(
                        tests, cycle, wrapper, sandbox, base, telemetry
                    )
                for test, (status, detail) in zip(tests, outcomes):
                    status_counters[status].inc()
                    report.records.append(TestRecord(test, status, detail))
            campaign.set(
                configuration=configuration,
                tests=report.total,
                crashes=report.count("crash"),
            )
        return report

    def _run_pool(
        self,
        functions: list[str],
        wrapper: Optional[WrapperLibrary],
        jobs: int,
        run: RunSpec,
        telemetry,
    ) -> dict[str, list]:
        """Each function's ``(status, detail)`` list, run on the pool."""
        from repro.campaign.scheduler import run_tasks

        env = {
            "functions": [spec.name for spec in self.functions],
            "test_cap": self.test_cap,
            "total_target": self.total_target,
            "run": run,
            "wrapper": None
            if wrapper is None
            else {
                "declarations": wrapper.declarations,
                "policy": wrapper.policy,
                "check_config": wrapper.check_config,
                "relational": wrapper.relational,
                "wrap_safe": wrapper.wrap_safe,
                "step_budget": wrapper.sandbox.step_budget,
            },
        }
        results = run_tasks(
            functions,
            functools.partial(_ballista_task, env=env),
            jobs=jobs,
            telemetry=telemetry,
        )
        failed = {n: r.error for n, r in results.items() if not r.ok}
        if failed:
            summary = "; ".join(
                f"{name}: {error.splitlines()[-1] if error else 'failed'}"
                for name, error in sorted(failed.items())
            )
            raise RuntimeError(f"ballista shard failures — {summary}")
        return {name: result.payload["statuses"] for name, result in results.items()}


def _scenario_cycle(spec: FunctionSpec, models, parser) -> tuple:
    """The flat ``(model, scenario)`` cycle an armed sweep steps through
    for one function (deterministic: models arrive sorted by name,
    scenario order is each model's enumeration order)."""
    if not models:
        return ()
    prototype = parser.parse_prototype(spec.prototype)
    return tuple(
        (model, scenario)
        for model in models
        for scenario in model.scenarios(spec, prototype)
    )


def _run_function(tests, cycle, wrapper, sandbox, base, telemetry):
    """Run one function's tests in order, yielding ``(status, detail)``
    per test; the one path of both the in-process and the pooled sweep.
    Test ``i`` is armed with ``cycle[i % len(cycle)]`` when the cycle
    is not empty."""
    for index, test in enumerate(tests):
        armed = cycle[index % len(cycle)] if cycle else None
        with telemetry.span("ballista.test", function=test.function) as test_span:
            status, detail = _execute_test(test, sandbox, base, wrapper, armed)
            test_span.set(status=status)
        yield status, detail


def _classify(outcome: CallOutcome) -> tuple[str, str]:
    if outcome.status is not CallStatus.RETURNED:
        return "crash", outcome.describe()
    if outcome.errno_was_set:
        return "errno", ""
    return "silent", ""


def _execute_test(
    test: BallistaTest,
    sandbox: Sandbox,
    base: LibcRuntime,
    wrapper: Optional[WrapperLibrary],
    armed: Optional[tuple] = None,
) -> tuple[str, str]:
    """Run one test in a fresh fork.

    ``armed`` is an optional ``(model, scenario)`` pair applied to the
    forked runtime (and possibly the argument list) before the call.
    """
    runtime = base.fork()
    if wrapper is not None:
        # Each test is a fresh forked process image; tracking tables
        # from previous tests refer to addresses that the fork re-uses,
        # so they must not leak across tests.
        wrapper.state.file_table.clear()
        wrapper.state.dir_table.clear()
    values = []
    for pool_value in test.values:
        value = pool_value.build(runtime)
        values.append(value)
        if wrapper is not None and pool_value.seed == "file":
            wrapper.state.seed_file(value)
        elif wrapper is not None and pool_value.seed == "dir":
            wrapper.state.seed_dir(value)
    spec = BY_NAME[test.function]
    if armed is not None:
        model, scenario = armed
        values = list(model.arm(scenario, runtime, values, spec))
    if wrapper is not None:
        outcome = wrapper.call(test.function, values, runtime)
    else:
        outcome = sandbox.call(spec.model, values, runtime)
    status, detail = _classify(outcome)
    if armed is not None and status == "crash":
        model, scenario = armed
        detail = f"[{model.name}:{scenario.label}] {detail}"
    return status, detail


#: Worker-process memo: one rebuilt (harness, grouped tests, wrapper,
#: sandbox, base runtime, models) per env object — the partial carrying
#: ``env`` is pickled once per worker, so identity is stable within a
#: worker.
_TASK_ENV_CACHE: dict[int, tuple] = {}


def _ballista_task(function: str, env: dict) -> dict:
    """Execute one function's share of the sweep inside a pool worker.

    Re-enumerates the *global* deterministic test list (thinning to
    ``total_target`` depends on every function, not just this one),
    rebuilds the wrapper from its declarations and options when the
    sweep is wrapped, and returns per-test (status, detail) pairs in
    enumeration order.
    """
    state = _TASK_ENV_CACHE.get(id(env))
    if state is None:
        harness = BallistaHarness(
            functions=[BY_NAME[name] for name in env["functions"]],
            test_cap=env["test_cap"],
            total_target=env["total_target"],
        )
        grouped: dict[str, list[BallistaTest]] = {}
        for test in harness.tests():
            grouped.setdefault(test.function, []).append(test)
        options = env["wrapper"]
        wrapper = None if options is None else WrapperLibrary(**options)
        models = env["run"].models()
        state = (harness, grouped, wrapper, Sandbox(), standard_runtime(), models)
        _TASK_ENV_CACHE[id(env)] = state
    harness, grouped, wrapper, sandbox, base, models = state
    cycle = _scenario_cycle(BY_NAME[function], models, harness.parser)
    outcomes = _run_function(
        grouped[function], cycle, wrapper, sandbox, base, NULL_TELEMETRY
    )
    return {"statuses": list(outcomes)}


def _thin(tests: list[BallistaTest], target: int) -> list[BallistaTest]:
    """Uniformly thin the test list to exactly ``target`` entries."""
    if len(tests) <= target:
        return tests
    stride = len(tests) / (len(tests) - target)
    drop: set[int] = set()
    mark = 0.0
    while len(drop) < len(tests) - target:
        drop.add(int(mark) % len(tests))
        mark += stride
    return [t for i, t in enumerate(tests) if i not in drop]
