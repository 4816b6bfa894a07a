"""Compiled CheckPrograms vs the interpreted reference walk.

The contract under test: compiling a declaration into a
:class:`~repro.wrapper.program.CheckProgram` changes *cost*, never
*decisions*.  The golden sweep drives the wrapper and the reference
walk in ``wrapper_reference.py`` through the full 86-function Ballista
catalog under every ``CheckConfig`` ablation and asserts bit-identical
outcomes — status, return value, errno, detail — plus identical check
accounting.
"""

import dataclasses

import pytest

from repro.ballista.harness import BallistaHarness
from repro.libc.catalog import BY_NAME
from repro.libc.errno_codes import EINVAL
from repro.libc.runtime import standard_runtime
from repro.memory import Protection, SegmentationFault
from repro.sandbox import CallStatus
from repro.wrapper import (
    CheckConfig,
    WrapperLibrary,
    WrapperPolicy,
    WrapperState,
    compile_program,
    program_for,
)
from repro.wrapper.program import ProgramContext
from tests.wrapper_reference import CONFIGS, ReferenceWrapper

#: Per-function cap for the golden sweeps: enough combos to hit every
#: pool value class (every test carries >= 1 exceptional value) while
#: keeping 86 functions x 2 wrappers x N configs inside the tier-1
#: time budget.
GOLDEN_CAP = 8


def _run_one(test, wrapper, base):
    """Mirror of BallistaHarness._execute_test for one wrapper.

    Returns a comparable outcome key.  Under the page-granular
    ablation the checker itself can fault while inspecting a FILE
    struct whose page probe passed (shared code in both
    implementations); the escape must match bit-for-bit too, so it is
    captured as part of the key rather than crashing the sweep.
    """
    runtime = base.fork()
    wrapper.state.file_table.clear()
    wrapper.state.dir_table.clear()
    values = []
    for pool_value in test.values:
        value = pool_value.build(runtime)
        values.append(value)
        if pool_value.seed == "file":
            wrapper.state.seed_file(value)
        elif pool_value.seed == "dir":
            wrapper.state.seed_dir(value)
    try:
        outcome = wrapper.call(test.function, values, runtime)
    except SegmentationFault as fault:
        return ("check-fault", str(fault), None, "")
    return (outcome.status, outcome.return_value, outcome.errno, outcome.detail)


def _assert_golden(declarations, policy, config, cap=GOLDEN_CAP):
    harness = BallistaHarness(test_cap=cap)
    interpreted = ReferenceWrapper(declarations, policy, config)
    compiled = WrapperLibrary(declarations, policy, config)
    base_interpreted = standard_runtime()
    base_compiled = standard_runtime()
    rejections = 0
    for test in harness.tests():
        golden = _run_one(test, interpreted, base_interpreted)
        candidate = _run_one(test, compiled, base_compiled)
        assert golden == candidate, (
            f"{test.label} diverged under {policy.value}"
        )
        rejections += 1 if interpreted.stats.violations else 0
    assert interpreted.stats.checks == compiled.stats.checks
    assert interpreted.stats.violations == compiled.stats.violations
    assert interpreted.stats.calls == compiled.stats.calls
    # The sweep must actually exercise the reject path to mean anything.
    assert compiled.stats.violations > 0
    return compiled


class TestGoldenEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_robust_all_configs(self, declarations86, config_name):
        _assert_golden(
            declarations86, WrapperPolicy.ROBUST, CONFIGS[config_name]
        )

    def test_minimal_policy(self, declarations86):
        _assert_golden(declarations86, WrapperPolicy.MINIMAL, CheckConfig())

    def test_debug_policy_details_match(self, declarations86):
        # DEBUG aborts carry the violation text in outcome.detail, so
        # this config proves the compiled violation strings are
        # byte-identical, not just the accept/reject bit.
        wrapper = _assert_golden(
            declarations86, WrapperPolicy.DEBUG, CheckConfig()
        )
        assert wrapper.stats.violations > 0

    def test_scenario_unsafe_functions_keep_checks(self, declarations86):
        # A function the argument sweep found safe but a fault model
        # condemned (unsafe_scenarios) is still wrapped; compiled and
        # interpreted must agree on that gate and its decisions.
        declaration = dataclasses.replace(
            declarations86["strcpy"],
            attribute="safe",
            unsafe_scenarios=("resource:malloc-null",),
        )
        assert not declaration.unsafe and declaration.scenario_unsafe
        declarations = {"strcpy": declaration}
        runtime = standard_runtime()
        dst = runtime.space.map_region(16).base
        src = runtime.space.alloc_cstring(b"x" * 64).base
        for wrapper_class in (ReferenceWrapper, WrapperLibrary):
            wrapper = wrapper_class(declarations)
            outcome = wrapper.call("strcpy", [dst, src], runtime.fork())
            assert outcome.status is CallStatus.RETURNED
            assert outcome.errno == EINVAL
            assert wrapper.stats.violations == 1

    def test_truncated_argument_lists_match(self, declarations86):
        # zip semantics: declared arguments beyond the args actually
        # passed are silently skipped by the reference's zip; the
        # compiled per-argument steps carry an arity bound for parity.
        runtime = standard_runtime()
        interpreted = ReferenceWrapper(declarations86)
        compiled = WrapperLibrary(declarations86)

        def key(wrapper, name, args):
            # Relational plans legitimately escape with IndexError on
            # truncated argument lists (shared code); the escape has
            # to match too.
            try:
                return ("ok", wrapper.validate(name, args, runtime))
            except Exception as exc:  # noqa: BLE001 - parity capture
                return ("raise", type(exc).__name__, str(exc))

        for name in ("strcpy", "memcpy", "snprintf", "strlen"):
            args = [0]  # fewer args than the declared arity
            assert key(interpreted, name, args) == key(compiled, name, args), name
        assert interpreted.stats.checks == compiled.stats.checks


class TestProgramSharing:
    def test_same_shape_prototypes_share_one_program(self, declarations86):
        config = CheckConfig()
        program_isalpha, _ = program_for(
            declarations86["isalpha"], config, minimal=False, relational=True
        )
        program_isdigit, shared = program_for(
            declarations86["isdigit"], config, minimal=False, relational=True
        )
        # Same shape (one CHAR_RANGE argument, no assertions, no
        # relational plans) -> the identical program object.
        assert program_isdigit is program_isalpha
        assert shared is True

    def test_relational_plans_key_the_program(self, declarations86):
        config = CheckConfig()
        program_strcpy, _ = program_for(
            declarations86["strcpy"], config, minimal=False, relational=True
        )
        program_strcat, _ = program_for(
            declarations86["strcat"], config, minimal=False, relational=True
        )
        # strcpy and strcat share an argument shape but have different
        # BUFFER_PLANS entries; sharing them would cross-wire bounds.
        assert program_strcpy is not program_strcat

    def test_digest_is_stable_and_config_sensitive(self, declarations86):
        declaration = declarations86["strlen"]
        one = compile_program(
            declaration, CheckConfig(), minimal=False, relational=True
        )
        two = compile_program(
            declaration, CheckConfig(), minimal=False, relational=True
        )
        ablated = compile_program(
            declaration, CheckConfig(stateful=False), minimal=False,
            relational=True,
        )
        assert one.digest == two.digest
        assert one.digest != ablated.digest

    def test_wrapper_counts_program_economics(self, declarations86):
        wrapper = WrapperLibrary(declarations86)
        runtime = standard_runtime()
        pointer = runtime.space.alloc_cstring(b"hi").base
        wrapper.call("strlen", [pointer], runtime)
        wrapper.call("strlen", [pointer], runtime)
        assert wrapper.stats.programs_compiled + wrapper.stats.program_shares == 1


class TestRevalidationCache:
    def _context(self, runtime):
        ctx = ProgramContext(WrapperState(), CheckConfig())
        ctx.bind(runtime)
        return ctx

    def test_repeat_validation_hits(self):
        runtime = standard_runtime()
        pointer = runtime.heap.malloc(64)
        ctx = self._context(runtime)
        assert ctx.memory_ok(pointer, 64, True, True)
        assert ctx.memory_ok(pointer, 64, True, True)
        assert ctx.revalidate_hits == 1
        assert ctx.revalidate_misses == 1

    def test_free_invalidates(self):
        runtime = standard_runtime()
        pointer = runtime.heap.malloc(64)
        ctx = self._context(runtime)
        assert ctx.memory_ok(pointer, 64, True, True)
        runtime.heap.free(pointer)
        ctx.bind(runtime)  # generation changed -> cache cleared
        assert not ctx.memory_ok(pointer, 64, True, True)

    def test_protect_invalidates(self):
        runtime = standard_runtime()
        region = runtime.space.map_region(64)
        ctx = self._context(runtime)
        assert ctx.memory_ok(region.base, 64, False, True)
        runtime.space.protect(region, Protection.READ)
        ctx.bind(runtime)
        assert not ctx.memory_ok(region.base, 64, False, True)

    def test_unmap_invalidates(self):
        runtime = standard_runtime()
        region = runtime.space.map_region(64)
        ctx = self._context(runtime)
        assert ctx.memory_ok(region.base, 64, True, False)
        runtime.space.unmap(region)
        ctx.bind(runtime)
        assert not ctx.memory_ok(region.base, 64, True, False)

    def test_runtime_switch_invalidates(self):
        runtime = standard_runtime()
        pointer = runtime.heap.malloc(32)
        ctx = self._context(runtime)
        assert ctx.memory_ok(pointer, 32, True, False)
        fork = runtime.fork()
        fork.heap.free(pointer)
        ctx.bind(fork)  # different space object -> cache dropped
        assert not ctx.memory_ok(pointer, 32, True, False)

    def test_cache_cap_bounds_memory(self):
        runtime = standard_runtime()
        ctx = ProgramContext(WrapperState(), CheckConfig(), cache_cap=4)
        ctx.bind(runtime)
        pointer = runtime.heap.malloc(4096)
        for offset in range(16):
            ctx.memory_ok(pointer + offset, 1, True, False)
        assert len(ctx._mem_cache) <= 4

    def test_wrapper_hits_across_calls(self, declarations86):
        wrapper = WrapperLibrary(declarations86)
        runtime = standard_runtime()
        source = runtime.space.alloc_cstring(b"hello").base
        buffer = runtime.space.map_region(64).base
        # memset validates the same (pointer, size) window every call;
        # the mapping generation is untouched between calls.
        wrapper.call("memset", [buffer, 0, 64], runtime)
        wrapper.call("memset", [buffer, 0, 64], runtime)
        assert wrapper.stats.revalidate_hits > 0
        assert source  # keep the string alive for symmetry


class TestBoundedViolationLog:
    def test_ring_drops_oldest(self):
        state = WrapperState(max_log=3)
        for index in range(5):
            state.record_violation("strcpy", f"violation {index}")
        assert state.log == [
            "strcpy: violation 2",
            "strcpy: violation 3",
            "strcpy: violation 4",
        ]
        assert state.log_dropped == 2

    def test_zero_cap_is_unbounded(self):
        state = WrapperState(max_log=0)
        for index in range(2000):
            state.record_violation("f", str(index))
        assert len(state.log) == 2000
        assert state.log_dropped == 0

    def test_wrapper_threads_the_cap(self, declarations86):
        wrapper = WrapperLibrary(
            declarations86, WrapperPolicy.LOGGING, max_log_entries=2
        )
        runtime = standard_runtime()
        for _ in range(5):
            wrapper.call("strlen", [0], runtime)
        assert len(wrapper.state.log) == 2
        assert wrapper.state.log_dropped == 3


class TestBatchEntryPoints:
    def test_call_many_matches_singles(self, declarations86):
        source = standard_runtime()
        calls = []
        runtime_batch = source.fork()
        runtime_single = source.fork()
        text = runtime_batch.space.alloc_cstring(b"abc").base
        text_single = runtime_single.space.alloc_cstring(b"abc").base
        batch_wrapper = WrapperLibrary(declarations86)
        single_wrapper = WrapperLibrary(declarations86)
        batched = batch_wrapper.call_many(
            [("strlen", [text]), ("strlen", [0]), ("toupper", [97])],
            runtime_batch,
        )
        singles = [
            single_wrapper.call("strlen", [text_single], runtime_single),
            single_wrapper.call("strlen", [0], runtime_single),
            single_wrapper.call("toupper", [97], runtime_single),
        ]
        for got, want in zip(batched, singles):
            assert (got.status, got.return_value, got.errno) == (
                want.status,
                want.return_value,
                want.errno,
            )
        assert batch_wrapper.stats.batched_calls == 3
        assert single_wrapper.stats.batched_calls == 0

    def test_validate_reports_violation_without_executing(self, declarations86):
        wrapper = WrapperLibrary(declarations86)
        runtime = standard_runtime()
        live = runtime.space.alloc_cstring(b"ok").base
        assert wrapper.validate("strlen", [live], runtime) is None
        violation = wrapper.validate("strlen", [0], runtime)
        assert violation is not None and "arg 0" in violation
        # Nothing was forwarded: validate is check-only.
        assert wrapper.stats.forwarded == 0

    def test_validate_skips_safe_functions(self, declarations86):
        wrapper = WrapperLibrary(declarations86)
        runtime = standard_runtime()
        safe = [
            name
            for name, declaration in declarations86.items()
            if not declaration.unsafe and not declaration.scenario_unsafe
        ]
        if safe:  # forwarded-without-checks is a pass by definition
            assert wrapper.validate(safe[0], [0], runtime) is None

    def test_validate_many_orders_results(self, declarations86):
        wrapper = WrapperLibrary(declarations86)
        runtime = standard_runtime()
        live = runtime.space.alloc_cstring(b"ok").base
        results = wrapper.validate_many(
            [("strlen", [0]), ("strlen", [live])], runtime
        )
        assert results[0] is not None
        assert results[1] is None

