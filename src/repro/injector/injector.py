"""The per-function fault injector (paper sections 3.3, 3.4, 4).

For each library function the injector:

1. selects test case generators per argument from the C type,
2. runs a sequence of test case vectors through the sandbox, each in a
   forked runtime (the paper's child process),
3. adaptively adjusts test cases on owned faults and retries ("until
   the violation disappears or another argument causes the
   violation"),
4. classifies the function's error-return-code behaviour (section 3.3),
5. determines the safe/unsafe attribute (section 3.4), and
6. computes the robust argument type of every argument (section 4.3).

Vector enumeration is the cross product of the per-argument test case
sequences, capped for high-arity functions by per-argument sweeps
against benign co-arguments plus a deterministic sample of the
remaining product — the reproduction's version of the paper's
test-case reduction.

Scheduling and execution are backed by the planning layer
(:mod:`repro.injector.plan`): the schedule is a compiled
:class:`~repro.injector.plan.InjectionPlan` shared across functions
with the same argument-matrix shape, consecutive vectors are served
from prepared prefix snapshots (COW forks), and outcome-equivalent
duplicate vectors replay a memoized record instead of re-entering the
sandbox.  Pass ``plan=None`` for the naive engine; both paths produce
bit-identical :class:`InjectionReport` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.cdecl import DeclarationParser, FunctionPrototype, typedef_table
from repro.faults.model import (
    FaultModelsSpec,
    ScenarioEvidence,
    canonical_fault_specs,
    faults_fingerprint,
    resolve_fault_models,
    scenario_sample,
)
from repro.generators.base import Materialized, TestCaseGenerator, TestCaseTemplate
from repro.generators.select import generators_for
from repro.libc.catalog import (
    CONSISTENT,
    FunctionSpec,
    INCONSISTENT,
    NONE_FOUND,
    VOID,
)
from repro.injector.plan import (
    ChainMemo,
    ChainRecord,
    SnapshotLadder,
    benign_index,
    compile_plan,
    plan_shape,
    shared_plan,
)
from repro.libc.runtime import LibcRuntime, standard_runtime
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sandbox import CallOutcome, CallStatus, Sandbox
from repro.typelattice import (
    AUTO_CHECKABLE,
    Lattice,
    RobustType,
    TestResult,
    VectorObservation,
    compute_robust_vector,
)

#: Cap on enumerated vectors per function; beyond it the injector
#: switches to sweeps + sampling.
MAX_VECTORS = 1200

#: Cap on adaptive retries of a single vector (generous enough for the
#: full growth schedule of one argument plus a few interleavings).
MAX_RETRIES = 96


@dataclass(frozen=True)
class RunSpec:
    """The run-dependent inputs of an injection: the vector cap and
    the armed fault models.

    Everything else an injection result depends on (the function, its
    generators, the lattice) is fixed per function; this is what one
    run chooses.  The digest and the injector both read the same
    object, so they cannot disagree.  Fault models are held
    as canonical spec strings (sorted by model name), which keeps the
    spec hashable and picklable; :meth:`models` resolves them.
    """

    max_vectors: int = MAX_VECTORS
    fault_models: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fault_models", canonical_fault_specs(self.fault_models)
        )

    @classmethod
    def parse(cls, fault_models: FaultModelsSpec) -> "RunSpec":
        """The run a ``--fault-models`` spec (or a request's
        ``fault_models``) asks for.  Raises ValueError with a printable
        message; each caller maps it to its own error."""
        try:
            return cls(fault_models=fault_models)
        except (KeyError, ValueError) as exc:
            # str(KeyError) wraps the message in quotes; unwrap it.
            raise ValueError(str(exc.args[0] if exc.args else exc)) from None

    def models(self) -> tuple:
        """The armed :class:`~repro.faults.FaultModel` instances."""
        return resolve_fault_models(self.fault_models)

    def digest_block(self) -> dict:
        """This run's keys of the outcome-digest document.  ``faults``
        is present only when models are armed, so unarmed digests stay
        byte-identical to those minted before fault models existed."""
        block: dict = {
            "caps": {"max_vectors": self.max_vectors, "max_retries": MAX_RETRIES}
        }
        if self.fault_models:
            block["faults"] = faults_fingerprint(self.fault_models)
        return block


@dataclass
class ErrnoClassification:
    """Section 3.3's four error-return-code classes."""

    kind: str
    error_value: Optional[object] = None
    errnos: frozenset[int] = frozenset()

    def describe(self) -> str:
        if self.kind == CONSISTENT:
            return f"consistent (returns {self.error_value!r})"
        return self.kind


@dataclass
class InjectionReport:
    """Everything the injector learned about one function."""

    name: str
    prototype: FunctionPrototype
    robust_types: list[RobustType]
    errno_class: ErrnoClassification
    unsafe: bool
    vectors_run: int
    calls_made: int
    retries: int
    crashes: int
    hangs: int
    observations: list[VectorObservation] = field(default_factory=list)
    #: per-scenario evidence from armed fault models (repro.faults);
    #: empty unless the injector ran with ``fault_models``.  Scenario
    #: evidence never feeds the baseline robust types or the
    #: ``unsafe`` attribute — it is a separate classification axis.
    fault_evidence: list[ScenarioEvidence] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return not self.unsafe

    @property
    def unsafe_scenarios(self) -> tuple[str, ...]:
        """Keys of the scenarios that crashed or hung this function
        beyond its baseline failures, sorted for stable output."""
        return tuple(sorted(e.key for e in self.fault_evidence if e.unsafe))

    def summary_row(
        self, head: Optional[dict] = None, tail: Optional[dict] = None
    ) -> dict[str, object]:
        """The JSON summary of ``repro inject --json`` and the service's
        ``inject`` op.  ``head`` keys follow ``function``, ``tail`` keys
        follow ``robust_types``; ``unsafe_scenarios`` comes last, and
        only when fault models were armed."""
        row: dict[str, object] = {
            "function": self.name,
            **(head or {}),
            "unsafe": self.unsafe,
            "vectors": self.vectors_run,
            "calls": self.calls_made,
            "retries": self.retries,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "errno_class": self.errno_class.describe(),
            "robust_types": [t.robust.render() for t in self.robust_types],
            **(tail or {}),
        }
        if self.fault_evidence:
            row["unsafe_scenarios"] = list(self.unsafe_scenarios)
        return row


def auto_checkable(instance) -> bool:
    """Checkability of the fully automated wrapper generator."""
    return instance.name in AUTO_CHECKABLE


class FaultInjector:
    """Adaptive fault injector for one catalog function."""

    def __init__(
        self,
        spec: FunctionSpec,
        parser: Optional[DeclarationParser] = None,
        runtime_factory: Callable[[], LibcRuntime] = standard_runtime,
        run: RunSpec = RunSpec(),
        checkable: Callable = auto_checkable,
        telemetry=NULL_TELEMETRY,
        plan: Optional[str] = "shared",
    ) -> None:
        if plan not in (None, "shared"):
            raise ValueError(f"unknown plan mode: {plan!r}")
        #: "shared" uses the process-global plan cache plus snapshot
        #: reuse and outcome memoization; None runs the naive engine
        #: (fresh fork + full materialization per call).
        self.plan = plan
        self.spec = spec
        self.parser = parser or DeclarationParser(typedef_table())
        self.prototype = self.parser.parse_prototype(spec.prototype)
        self.runtime_factory = runtime_factory
        self.max_vectors = run.max_vectors
        self.checkable = checkable
        #: armed fault-model instances; empty = baseline HEALERS
        #: behaviour, bit-identical to a build without the faults
        #: subsystem.
        self.fault_models = run.models()
        #: per-function telemetry scope: every metric/span recorded by
        #: this injector (and its sandbox) carries ``function=<name>``.
        self.telemetry = telemetry.scope(function=spec.name)
        self.generators: list[list[TestCaseGenerator]] = []
        for parameter in self.prototype.ftype.parameters:
            resolved = self.parser.resolve(parameter.ctype)
            self.generators.append(generators_for(parameter, resolved, parameter.ctype))

    # ------------------------------------------------------------------
    def run(self) -> InjectionReport:
        """Execute the full injection campaign for this function."""
        telemetry = self.telemetry
        #: Per-vector span construction is skipped entirely when
        #: telemetry is off — the hot loop must not pay for disabled
        #: observability (see benchmarks/test_bench_obs_overhead.py).
        live = telemetry.enabled
        if live:
            # Bound methods cached as locals: the loop below records
            # one span per vector, so attribute chains add up.
            tracer = telemetry.tracer
            clock = tracer.clock
            open_span = tracer.open_span
            close_span = tracer.close_span
            span_context = getattr(telemetry, "context", None)
        templates_per_arg = [
            [t for g in gens for t in g.templates()] for gens in self.generators
        ]
        sandbox = Sandbox(telemetry=telemetry)
        base_runtime = self.runtime_factory()
        observations: list[VectorObservation] = []
        benign_vectors: list[tuple[TestCaseTemplate, ...]] = []
        calls = retries = crashes = hangs = 0
        errno_returns: list[tuple[object, int]] = []
        retry_counter = telemetry.counter("injector.retries")

        with telemetry.span("injector.function") as function_span:
            if self.plan is None:
                plan = None
                ladder = memo = None
                vectors = list(self._enumerate_vectors(templates_per_arg))
            else:
                plan = shared_plan(plan_shape(templates_per_arg), self.max_vectors)
                vectors = plan.bind(templates_per_arg)
                ladder = SnapshotLadder(base_runtime)
                memo = ChainMemo()
            for index, vector in enumerate(vectors):
                record = key = None
                if memo is not None:
                    key = memo.key(vector)
                    record = memo.lookup(key)
                if record is not None:
                    # Outcome-equivalent duplicate: replay the recorded
                    # run (including its adaptive state evolution); the
                    # observations below are the recorded ones, so the
                    # report stays bit-identical to the naive path.
                    memo.replay(record, vector)
                else:
                    extend_to = plan.reuse[index] if plan is not None else 0
                    if live:
                        # Hot-loop span protocol: one attrs dict, no
                        # context-manager machinery (see Tracer).
                        started = clock()
                        vector_id = open_span()
                        record = self._execute_vector(
                            sandbox, base_runtime, vector, ladder, extend_to, key
                        )
                        close_span(
                            vector_id,
                            "injector.vector",
                            started,
                            {
                                "index": index,
                                "status": record.status_name,
                                "retries": record.retries,
                            },
                            span_context,
                        )
                    else:
                        record = self._execute_vector(
                            sandbox, base_runtime, vector, ladder, extend_to, key
                        )
                    if memo is not None:
                        memo.store(key, record)
                calls += 1 + record.retries
                retries += record.retries
                retry_counter.inc(record.retries)
                # Adjusted-away attempts are part of the generator's test
                # case sequence ("a posteriori we know the sequence") and
                # enter the robust type computation as crashes.
                observations.extend(record.intermediate)
                crashes += len(record.intermediate)
                if record.observation.result is TestResult.FAILURE:
                    if record.hung:
                        hangs += 1
                    else:
                        crashes += 1
                else:
                    if record.errno_was_set:
                        errno_returns.append((record.return_value, record.errno))
                    # Candidate pool for the scenario sweep: vectors
                    # that completed without a robustness failure, so
                    # a scenario crash is attributable to the fault.
                    benign_vectors.append(vector)
                observations.append(record.observation)

            fault_evidence = self._run_fault_scenarios(
                sandbox, base_runtime, vectors, benign_vectors
            )
            errno_class = self._classify_errno(errno_returns)
            unsafe = crashes + hangs > 0
            robust_types = self._compute_robust_types(observations)
            function_span.set(
                vectors=len(vectors),
                calls=calls,
                retries=retries,
                crashes=crashes,
                hangs=hangs,
                unsafe=unsafe,
            )
            if plan is not None:
                function_span.set(
                    plan_digest=plan.digest,
                    memo_hits=memo.hits,
                    snapshot_hits=ladder.hits,
                    snapshot_rebuilds=ladder.rebuilds,
                )
        telemetry.counter("injector.functions").inc()
        telemetry.counter(
            "injector.verdicts", verdict="unsafe" if unsafe else "safe"
        ).inc()
        return InjectionReport(
            name=self.spec.name,
            prototype=self.prototype,
            robust_types=robust_types,
            errno_class=errno_class,
            unsafe=unsafe,
            vectors_run=len(vectors),
            calls_made=calls,
            retries=retries,
            crashes=crashes,
            hangs=hangs,
            observations=observations,
            fault_evidence=fault_evidence,
        )

    # ------------------------------------------------------------------
    def _enumerate_vectors(
        self, templates_per_arg: Sequence[Sequence[TestCaseTemplate]]
    ) -> list[tuple[TestCaseTemplate, ...]]:
        """Cross product when small; sweeps plus a deterministic
        sample when the product explodes.

        Compiled in index space with stable ``(argument, template
        index)`` dedup coordinates — the same code path that backs
        shared plans — then bound to the concrete templates.
        """
        plan = compile_plan(plan_shape(templates_per_arg), self.max_vectors)
        return plan.bind(templates_per_arg)

    @staticmethod
    def _benign_template(templates: Sequence[TestCaseTemplate]) -> TestCaseTemplate:
        """The template most likely to be a valid argument; used to
        hold co-arguments steady during sweeps."""
        return templates[benign_index([t.label for t in templates])]

    # ------------------------------------------------------------------
    def _run_fault_scenarios(
        self,
        sandbox: Sandbox,
        base_runtime: LibcRuntime,
        vectors: Sequence[tuple[TestCaseTemplate, ...]],
        benign_vectors: Sequence[tuple[TestCaseTemplate, ...]],
    ) -> list[ScenarioEvidence]:
        """Re-run a sampled vector subset under every armed scenario.

        Runs strictly after the baseline loop, on the naive path
        (fresh fork + full re-materialization per call): templates are
        in their final post-campaign states, which are deterministic
        because baseline reports are bit-identical across plan modes.
        Preference goes to vectors that completed cleanly, so any new
        crash is the scenario's; when no vector was benign, the
        sampled vectors are re-run once unarmed to establish the
        baseline-failure floor the evidence discounts.
        """
        if not self.fault_models:
            return []
        pool = list(benign_vectors) if benign_vectors else list(vectors)
        sample = scenario_sample(pool)
        baseline_failures = 0
        if not benign_vectors:
            for vector in sample:
                outcome = self._scenario_call(sandbox, base_runtime, vector, None, None)
                if outcome.robustness_failure:
                    baseline_failures += 1
        evidence: list[ScenarioEvidence] = []
        telemetry = self.telemetry
        for model in self.fault_models:
            armed_counter = telemetry.counter("faults.scenarios_armed", model=model.name)
            crash_counter = telemetry.counter("faults.scenario_crashes", model=model.name)
            for scenario in model.scenarios(self.spec, self.prototype):
                armed_counter.inc()
                crashes = hangs = 0
                for vector in sample:
                    outcome = self._scenario_call(
                        sandbox, base_runtime, vector, model, scenario
                    )
                    if outcome.status is CallStatus.HUNG:
                        hangs += 1
                    elif outcome.robustness_failure:
                        crashes += 1
                crash_counter.inc(crashes + hangs)
                evidence.append(
                    ScenarioEvidence(
                        model=model.name,
                        scenario=scenario.label,
                        vectors=len(sample),
                        crashes=crashes,
                        hangs=hangs,
                        baseline_failures=baseline_failures,
                    )
                )
        return evidence

    def _scenario_call(
        self,
        sandbox: Sandbox,
        base_runtime: LibcRuntime,
        vector: tuple[TestCaseTemplate, ...],
        model,
        scenario,
    ) -> CallOutcome:
        runtime = base_runtime.fork()
        materialized = [t.materialize(runtime) for t in vector]
        args: list = [m.value for m in materialized]
        if model is not None:
            args = model.arm(scenario, runtime, args, self.spec)
        return sandbox.call(self.spec.model, args, runtime)

    # ------------------------------------------------------------------
    def _execute_vector(
        self,
        sandbox: Sandbox,
        base_runtime: LibcRuntime,
        vector: tuple[TestCaseTemplate, ...],
        ladder: Optional[SnapshotLadder],
        extend_to: int,
        key: Optional[tuple] = None,
    ) -> ChainRecord:
        """Run one vector and distill everything the campaign
        accounting (and the outcome memo) needs from it."""
        outcome, materialized, blamed, vector_retries, intermediate = self._run_vector(
            sandbox, base_runtime, vector, ladder, extend_to, key
        )
        fundamentals = tuple(m.fundamental for m in materialized)
        result = self._classify_outcome(outcome)
        return ChainRecord(
            observation=VectorObservation(fundamentals, result, blamed),
            intermediate=tuple(intermediate),
            retries=vector_retries,
            status_name=outcome.status.name,
            hung=outcome.status is CallStatus.HUNG,
            return_value=outcome.return_value,
            errno_was_set=outcome.errno_was_set,
            errno=outcome.errno,
            post_states=tuple(t.state() for t in vector),
        )

    def _run_vector(
        self,
        sandbox: Sandbox,
        base_runtime: LibcRuntime,
        vector: tuple[TestCaseTemplate, ...],
        ladder: Optional[SnapshotLadder] = None,
        extend_to: int = 0,
        key: Optional[tuple] = None,
    ) -> tuple[
        CallOutcome,
        list[Materialized],
        Optional[int],
        int,
        list[VectorObservation],
    ]:
        """Run one vector with the adaptive retry loop.

        Returns the final outcome plus the observations for every
        adjusted-away intermediate attempt (each was a real crashing
        test case of the generator's sequence).

        With a ladder, the runtime is served from the deepest prepared
        prefix snapshot (an adjusted template invalidates its rung, so
        retries re-serve correctly); without one, every attempt forks
        the base runtime and materializes the whole vector.
        """
        retries = 0
        intermediate: list[VectorObservation] = []
        while True:
            if ladder is None:
                runtime = base_runtime.fork()
                materialized = [t.materialize(runtime) for t in vector]
            else:
                # The caller's precomputed key chain describes the
                # pre-attempt states, so it is only valid for the
                # first attempt; adjusted retries recompute.
                runtime, materialized = ladder.serve(
                    vector, extend_to, keys=key if retries == 0 else None
                )
            outcome = sandbox.call(
                self.spec.model, [m.value for m in materialized], runtime
            )
            if outcome.status is not CallStatus.CRASHED:
                return outcome, materialized, None, retries, intermediate
            blamed = self._attribute(materialized, outcome.fault_address)
            if blamed is None:
                return outcome, materialized, None, retries, intermediate
            template = vector[blamed]
            if retries >= MAX_RETRIES or not template.adjustable:
                return outcome, materialized, blamed, retries, intermediate
            if not template.adjust(outcome.fault, materialized[blamed]):
                return outcome, materialized, blamed, retries, intermediate
            intermediate.append(
                VectorObservation(
                    tuple(m.fundamental for m in materialized),
                    TestResult.FAILURE,
                    blamed,
                )
            )
            retries += 1

    @staticmethod
    def _attribute(
        materialized: Sequence[Materialized], fault_address: Optional[int]
    ) -> Optional[int]:
        """Which argument's test case owns the fault address?  "For at
        most one of the generators this test will be true"; with equal
        garbage patterns several can match, in which case the first
        match wins deterministically."""
        if fault_address is None:
            return None
        for index, case in enumerate(materialized):
            if case.owns(fault_address):
                return index
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _classify_outcome(outcome: CallOutcome) -> TestResult:
        if outcome.robustness_failure:
            return TestResult.FAILURE
        if outcome.errno_was_set:
            return TestResult.ERROR
        return TestResult.SUCCESS

    def _classify_errno(
        self, errno_returns: list[tuple[object, int]]
    ) -> ErrnoClassification:
        """Section 3.3's classification, discovered from observations."""
        if self.prototype.ftype.return_type.is_void:
            return ErrnoClassification(VOID)
        if not errno_returns:
            return ErrnoClassification(NONE_FOUND)
        values = {value for value, _ in errno_returns}
        errnos = frozenset(code for _, code in errno_returns)
        if len(values) == 1:
            return ErrnoClassification(CONSISTENT, next(iter(values)), errnos)
        return ErrnoClassification(INCONSISTENT, errnos=errnos)

    def _compute_robust_types(
        self, observations: list[VectorObservation]
    ) -> list[RobustType]:
        if not self.prototype.ftype.parameters:
            return []
        sizes: set[int] = {1}
        for obs in observations:
            for fundamental in obs.fundamentals:
                if fundamental.param is not None:
                    sizes.add(fundamental.param)
        lattice = Lattice.for_sizes(sizes)
        lattices = [lattice] * self.prototype.ftype.arity
        return compute_robust_vector(
            observations, lattices=lattices, checkable=self.checkable
        )


def inject_function(
    name: str,
    runtime_factory: Callable[[], LibcRuntime] = standard_runtime,
    run: RunSpec = RunSpec(),
    checkable: Callable = auto_checkable,
    telemetry=NULL_TELEMETRY,
    plan: Optional[str] = "shared",
) -> InjectionReport:
    """Convenience: build and run the injector for a catalog function."""
    from repro.libc.catalog import BY_NAME

    injector = FaultInjector(
        BY_NAME[name],
        runtime_factory=runtime_factory,
        run=run,
        checkable=checkable,
        telemetry=telemetry,
        plan=plan,
    )
    return injector.run()
