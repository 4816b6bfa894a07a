"""Edge-case coverage: recursion guard, string-scan bounds, outcome
store keying, codegen corner cases, pool/harness details."""

import pytest

from repro.core import HealersPipeline
from repro.libc import standard_runtime
from repro.memory import NULL, Protection
from repro.typelattice import registry as R
from repro.wrapper import (
    CheckLibrary,
    MAX_STRING_SCAN,
    WrapperLibrary,
    WrapperState,
)


@pytest.fixture(scope="module")
def hardened():
    return HealersPipeline(functions=["asctime", "strlen", "abs"]).run()


class TestRecursionGuard:
    def test_in_flag_skips_checks_on_reentrancy(self, hardened):
        """The Figure 5 ``in_flag``: a wrapped call made while another
        wrapped call is in flight forwards directly (no re-checking),
        preventing resolution-time recursion."""
        runtime = standard_runtime()
        wrapper = WrapperLibrary(hardened.declarations)
        wrapper._in_flag = True
        try:
            outcome = wrapper.call("strlen", [NULL], runtime)
            # Forwarded unchecked: the NULL dereference reaches libc.
            assert outcome.crashed
        finally:
            wrapper._in_flag = False
        protected = wrapper.call("strlen", [NULL], runtime)
        assert protected.returned  # guard released: checks active again

    def test_guard_resets_after_violation(self, hardened):
        runtime = standard_runtime()
        wrapper = WrapperLibrary(hardened.declarations)
        wrapper.call("strlen", [NULL], runtime)
        assert wrapper._in_flag is False


class TestStringScanBounds:
    def test_scan_gives_up_past_limit(self):
        runtime = standard_runtime()
        checks = CheckLibrary(runtime, WrapperState())
        # A massive region with no terminator inside the scan window.
        region = runtime.space.map_region(MAX_STRING_SCAN + 4096)
        region.poke(region.base, b"\xa5" * region.size)
        assert checks.string_length(region.base) is None

    def test_terminator_at_scan_boundary(self):
        runtime = standard_runtime()
        checks = CheckLibrary(runtime, WrapperState())
        region = runtime.space.map_region(MAX_STRING_SCAN)
        region.poke(region.base, b"x" * (MAX_STRING_SCAN - 1) + b"\x00")
        assert checks.string_length(region.base) == MAX_STRING_SCAN - 1

    def test_heap_string_bounded_by_block(self):
        runtime = standard_runtime()
        checks = CheckLibrary(runtime, WrapperState())
        pointer = runtime.heap.malloc(16)
        runtime.space.store(pointer, b"short\x00" + b"\xa5" * 10)
        assert checks.string_length(pointer) == 5
        assert checks.string_length(pointer + 6) is None  # no NUL to block end


class TestOutcomeStoreKeying:
    def test_changed_run_misses_the_store(self, tmp_path):
        """The store is keyed by content: arming a fault model moves
        the digest, so phase 1 re-runs instead of serving the unarmed
        outcome."""
        from repro.campaign import CampaignConfig, OutcomeStore
        from repro.injector import RunSpec

        HealersPipeline(
            functions=["abs"], config=CampaignConfig(cache_dir=tmp_path)
        ).run()
        HealersPipeline(
            functions=["abs"],
            config=CampaignConfig(
                cache_dir=tmp_path, run=RunSpec.parse("callback")
            ),
        ).run()
        assert len(OutcomeStore(tmp_path).entries()) == 2

    def test_store_subset_filtering(self, tmp_path):
        from repro.campaign import CampaignConfig

        config = CampaignConfig(cache_dir=tmp_path)
        HealersPipeline(functions=["asctime", "abs"], config=config).run()
        subset = HealersPipeline(functions=["abs"], config=config).run()
        assert set(subset.declarations) == {"abs"}


class TestCodegenCorners:
    def test_function_pointer_parameter_renders(self):
        from repro.declarations import declaration_from_report
        from repro.injector import inject_function
        from repro.wrapper import generate_wrapper_function

        code = generate_wrapper_function(
            declaration_from_report(inject_function("qsort"))
        )
        first_line = code.splitlines()[0]
        assert "int (*)(const void *, const void *)" in first_line
        assert "(*libc_qsort) (a1, a2, a3, a4)" in code

    def test_zero_argument_function(self):
        from repro.declarations import declaration_from_report
        from repro.injector import inject_function
        from repro.wrapper import generate_wrapper_function

        report = inject_function("rand")
        code = generate_wrapper_function(declaration_from_report(report))
        assert "(void)" in code.splitlines()[0]


class TestWrapperStatsAccounting:
    def test_library_time_only_counts_forwarded_calls(self, hardened):
        import time

        runtime = standard_runtime()
        wrapper = WrapperLibrary(hardened.declarations)
        wrapper.call("strlen", [NULL], runtime)  # rejected: not forwarded
        assert wrapper.stats.forwarded == 0
        assert wrapper.stats.violations == 1
        s = runtime.space.alloc_cstring("abc").base
        wrapper.call("strlen", [s], runtime)
        assert wrapper.stats.forwarded == 1
        assert wrapper.stats.library_seconds > 0

    def test_check_seconds_accumulate(self, hardened):
        runtime = standard_runtime()
        wrapper = WrapperLibrary(hardened.declarations)
        s = runtime.space.alloc_cstring("abc").base
        for _ in range(5):
            wrapper.call("strlen", [s], runtime)
        assert wrapper.stats.check_seconds > 0
        assert wrapper.stats.calls == 5


class TestRuntimeStatics:
    def test_static_buffers_are_disjoint(self):
        runtime = standard_runtime()
        statics = {runtime.asctime_buffer, runtime.static_tm, runtime.tmpnam_buffer}
        assert len(statics) == 3

    def test_env_pointer_stability(self):
        """getenv returns the same pointer for an unchanged variable —
        applications cache these pointers."""
        from repro.libc import BY_NAME
        from repro.sandbox import Sandbox

        runtime = standard_runtime()
        sandbox = Sandbox()
        name = runtime.space.alloc_cstring("HOME").base
        first = sandbox.call(BY_NAME["getenv"].model, (name,), runtime).return_value
        second = sandbox.call(BY_NAME["getenv"].model, (name,), runtime).return_value
        assert first == second

    def test_mode_string_check_rejects_overlong(self):
        runtime = standard_runtime()
        checks = CheckLibrary(runtime, WrapperState())
        weird = runtime.space.alloc_cstring("r+++++bbbb")
        assert checks.check(R.MODE_STRING, weird.base)  # long but legal chars
        illegal = runtime.space.alloc_cstring("rw")  # 'w' not a modifier
        assert not checks.check(R.MODE_STRING, illegal.base)
