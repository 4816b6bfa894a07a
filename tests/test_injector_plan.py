"""The injector planning layer: compiled plans, snapshot ladders,
outcome memoization — and the golden equivalence guarantee.

The load-bearing property is at the bottom: for every function the
planned engine (shared plans + prepared snapshots + chain memo) must
produce an :class:`~repro.injector.InjectionReport` *equal* to the
naive engine's (fresh fork + full materialization per call), across
both enumeration regimes (full cross product and the capped
sweeps-plus-sample schedule).
"""

from __future__ import annotations

import random

from repro.generators.select import generators_for
from repro.injector import (
    FaultInjector,
    RunSpec,
    SnapshotLadder,
    clear_plan_cache,
    compile_plan,
    inject_function,
    plan_shape,
    shared_plan,
)
from repro.libc.catalog import BY_NAME
from repro.libc.runtime import LibcRuntime
from repro.obs import Telemetry


def _templates_for(name: str):
    """The injector's per-argument template matrix for a function."""
    injector = FaultInjector(BY_NAME[name])
    return [
        [t for g in gens for t in g.templates()] for gens in injector.generators
    ]


# ---------------------------------------------------------------- plans


class TestPlanCompilation:
    def test_uncapped_plan_is_full_cross_product(self):
        plan = compile_plan((("A", "B"), ("X", "Y", "Z")), max_vectors=10)
        assert not plan.capped
        assert plan.vectors == (
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        )
        # reuse = shared prefix with the *next* vector: itertools
        # ordering varies the last slot fastest.
        assert plan.reuse == (1, 1, 0, 1, 1, 0)

    def test_capped_plan_sweeps_cover_every_template(self):
        shape = (tuple(f"a{i}" for i in range(8)), tuple(f"b{i}" for i in range(8)))
        plan = compile_plan(shape, max_vectors=20)
        assert plan.capped
        assert len(plan.vectors) <= 20
        # Every template index appears in some vector (the sweeps).
        for slot in (0, 1):
            covered = {vector[slot] for vector in plan.vectors}
            assert covered == set(range(8))
        # Stable index-space dedup: no vector appears twice.
        assert len(set(plan.vectors)) == len(plan.vectors)

    def test_empty_shape_runs_one_empty_vector(self):
        plan = compile_plan((), max_vectors=5)
        assert plan.vectors == ((),)
        assert plan.reuse == (0,)

    def test_digest_is_stable_and_content_sensitive(self):
        shape = (("NULL", "STRING_RW"), ("NULL", "STRING_RW"))
        assert (
            compile_plan(shape, 100).digest == compile_plan(shape, 100).digest
        )
        assert compile_plan(shape, 100).digest != compile_plan(shape, 99).digest
        other = (("NULL", "STRING_RO"), ("NULL", "STRING_RW"))
        assert compile_plan(shape, 100).digest != compile_plan(other, 100).digest

    def test_shared_plan_is_one_object_across_equal_shapes(self):
        clear_plan_cache()
        strcpy = _templates_for("strcpy")
        strcat = _templates_for("strcat")
        assert plan_shape(strcpy) == plan_shape(strcat)  # same prototype shape
        first = shared_plan(plan_shape(strcpy), 1200)
        second = shared_plan(plan_shape(strcat), 1200)
        assert first is second

    def test_enumeration_goes_through_index_space(self):
        """_enumerate_vectors binds a compiled plan: same templates in,
        identical object schedule out, with index-stable dedup."""
        injector = FaultInjector(BY_NAME["strcmp"])
        templates = _templates_for("strcmp")
        first = injector._enumerate_vectors(templates)
        second = injector._enumerate_vectors(templates)
        assert first == second
        product = len(templates[0]) * len(templates[1])
        assert len(first) == product


# ------------------------------------------------------------- ladder


class TestSnapshotLadder:
    def _snapshot(self, runtime: LibcRuntime):
        regions = tuple(
            (r.base, r.size, r.prot.value, r.freed, bytes(r.data))
            for r in runtime.space.regions()
        )
        return regions, runtime.strtok_state, runtime.errno

    def test_served_runtime_matches_fresh_materialization(self):
        injector = FaultInjector(BY_NAME["strcpy"])
        templates = _templates_for("strcpy")
        vectors = injector._enumerate_vectors(templates)[:40]
        base = injector.runtime_factory()
        ladder = SnapshotLadder(base)
        for index, vector in enumerate(vectors):
            extend = 1 if index + 1 < len(vectors) else 0
            served_runtime, served_cases = ladder.serve(vector, extend_to=extend)
            fresh_runtime = base.fork()
            fresh_cases = [t.materialize(fresh_runtime) for t in vector]
            assert [c.value for c in served_cases] == [c.value for c in fresh_cases]
            assert [c.fundamental for c in served_cases] == [
                c.fundamental for c in fresh_cases
            ]
            assert [c.owned_ranges for c in served_cases] == [
                c.owned_ranges for c in fresh_cases
            ]
            assert self._snapshot(served_runtime) == self._snapshot(fresh_runtime)
        assert ladder.hits > 0  # consecutive vectors shared prefixes

    def test_state_change_truncates_stale_rungs(self):
        injector = FaultInjector(BY_NAME["memcpy"])
        templates = _templates_for("memcpy")
        adaptive = next(
            t for t in templates[0] if t.state() is not None
        )
        vector = tuple(
            adaptive if slot == 0 else injector._benign_template(ts)
            for slot, ts in enumerate(templates)
        )
        base = injector.runtime_factory()
        ladder = SnapshotLadder(base)
        ladder.serve(vector, extend_to=len(vector))
        before = adaptive.state()
        adaptive.restore((before[0] + 4, before[1]))  # the growth step
        served_runtime, served_cases = ladder.serve(vector, extend_to=len(vector))
        fresh_runtime = base.fork()
        fresh_cases = [t.materialize(fresh_runtime) for t in vector]
        assert ladder.rebuilds == 1
        assert [c.value for c in served_cases] == [c.value for c in fresh_cases]
        assert self._snapshot(served_runtime) == self._snapshot(fresh_runtime)


# ------------------------------------------------- golden equivalence

#: Mixed regimes: duplicate NULL/INVALID chains (memo hits), adaptive
#: arrays (retry loops + state), FILE*/DIR* materialization (kernel
#: side effects), a funcptr consumer, and capped high-arity schedules.
GOLDEN_FUNCTIONS = (
    "strcpy",
    "strncmp",
    "strtok",
    "memcpy",
    "asctime",
    "fopen",
    "qsort",
    "fwrite",
)


class TestGoldenEquivalence:
    def test_planned_reports_equal_naive_reports(self):
        for name in GOLDEN_FUNCTIONS:
            naive = inject_function(name, plan=None)
            planned = inject_function(name, plan="shared")
            assert planned == naive, f"planned != naive for {name}"

    def test_capped_schedules_fuzz(self):
        """Seeded sweep over high-arity functions and random caps, so
        the sweeps+sample regime (and its dedup) is exercised at many
        boundary sizes."""
        rng = random.Random("injector-plan:capped-fuzz")
        for _ in range(6):
            name = rng.choice(["fwrite", "qsort", "fopen", "strtok"])
            max_vectors = rng.choice([17, 60, 150, 333])
            run = RunSpec(max_vectors=max_vectors)
            naive = inject_function(name, plan=None, run=run)
            # A freshly compiled shared plan, not one cached by an
            # earlier test at the same shape and cap.
            clear_plan_cache()
            planned = inject_function(name, plan="shared", run=run)
            assert planned == naive, f"{name} max_vectors={max_vectors}"
            # The sweeps are never truncated (every template must run
            # at least once); only the sample honours the cap, so a
            # tiny cap may still be exceeded by the sweep floor.
            sweep_floor = sum(
                len(arg) for arg in _templates_for(name)
            )
            assert naive.vectors_run <= max(max_vectors, sweep_floor)

    def test_memo_and_ladder_engage_and_are_observable(self):
        """Duplicate NULL/INVALID chains must actually hit the memo,
        snapshots must actually serve, and both show up as attributes
        on the injector.function span."""
        telemetry = Telemetry()
        report = FaultInjector(
            BY_NAME["strcpy"], telemetry=telemetry, plan="shared"
        ).run()
        spans = [
            r
            for r in telemetry.tracer.records()
            if r["type"] == "span" and r["name"] == "injector.function"
        ]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["memo_hits"] > 0
        assert attrs["snapshot_hits"] > 0
        assert attrs["plan_digest"]
        # Memo hits still count as executed vectors in the report.
        assert report.vectors_run == attrs["vectors"]
        assert len(report.observations) >= report.vectors_run
