"""Unit tests for the sandbox (child-process semantics)."""

import pytest

from repro.libc.runtime import LibcRuntime
from repro.libc.strings import libc_strncpy
from repro.memory import SegmentationFault, AccessKind
from repro.sandbox import Abort, CallStatus, Hang, Sandbox


def returns_42(ctx):
    return 42


def sets_errno(ctx):
    ctx.set_errno(22)
    return -1


def crashes(ctx):
    ctx.mem.load(0, 1)


def hangs(ctx):
    while True:
        ctx.step(1000)


def aborts(ctx):
    raise Abort("assertion failed")


def stores(ctx, address, payload_byte):
    ctx.mem.store(address, bytes([payload_byte]))
    return 0


class TestOutcomes:
    def test_plain_return(self):
        outcome = Sandbox().call(returns_42, (), LibcRuntime())
        assert outcome.status is CallStatus.RETURNED
        assert outcome.return_value == 42
        assert not outcome.errno_was_set

    def test_errno_reported_only_when_set(self):
        runtime = LibcRuntime()
        outcome = Sandbox().call(sets_errno, (), runtime)
        assert outcome.errno == 22
        again = Sandbox().call(returns_42, (), runtime)
        # errno persists in the runtime but was not set by this call.
        assert not again.errno_was_set

    def test_crash_contained_with_fault_address(self):
        outcome = Sandbox().call(crashes, (), LibcRuntime())
        assert outcome.status is CallStatus.CRASHED
        assert outcome.fault_address == 0
        assert outcome.robustness_failure

    def test_crash_outcome_holds_no_traceback(self):
        # A traceback would pin strncpy's frame and its padding buffer.
        runtime = LibcRuntime()
        src = runtime.space.alloc_cstring(b"abc")
        outcome = Sandbox().call(libc_strncpy, (0, src.base, 100_000), runtime)
        assert outcome.status is CallStatus.CRASHED
        assert outcome.fault.__traceback__ is None

    def test_hang_detected_by_step_budget(self):
        outcome = Sandbox(step_budget=10_000).call(hangs, (), LibcRuntime())
        assert outcome.status is CallStatus.HUNG

    def test_abort_contained(self):
        outcome = Sandbox().call(aborts, (), LibcRuntime())
        assert outcome.status is CallStatus.ABORTED
        assert "assertion failed" in outcome.detail

    def test_programming_errors_propagate(self):
        def broken(ctx):
            raise TypeError("harness bug")

        with pytest.raises(TypeError):
            Sandbox().call(broken, (), LibcRuntime())

    def test_call_counter(self):
        sandbox = Sandbox()
        runtime = LibcRuntime()
        for _ in range(3):
            sandbox.call(returns_42, (), runtime)
        assert sandbox.call_count == 3


class TestIsolation:
    def test_non_isolated_calls_do_mutate(self):
        # The sandbox acts on the runtime it is given; callers fork it
        # themselves when the side effects must not stick.
        runtime = LibcRuntime()
        region = runtime.space.map_region(8)
        Sandbox().call(stores, (region.base, 0x41), runtime)
        assert runtime.space.load(region.base, 1) == b"A"


class TestOutcomeDescribe:
    def test_describe_formats(self):
        runtime = LibcRuntime()
        assert "returned 42" in Sandbox().call(returns_42, (), runtime).describe()
        assert "crashed at 0x0" in Sandbox().call(crashes, (), runtime).describe()

    def test_fault_carries_access_kind(self):
        outcome = Sandbox().call(crashes, (), LibcRuntime())
        assert outcome.fault.access is AccessKind.READ


class TestRuntimeFork:
    def test_fork_copies_libc_statics(self):
        runtime = LibcRuntime()
        runtime.strtok_state = 1234
        clone = runtime.fork()
        assert clone.strtok_state == 1234
        clone.strtok_state = 5678
        assert runtime.strtok_state == 1234

    def test_fork_preserves_static_buffers(self):
        runtime = LibcRuntime()
        runtime.space.write_cstring(runtime.asctime_buffer, b"test")
        clone = runtime.fork()
        assert clone.space.read_cstring(clone.asctime_buffer) == b"test"
        assert clone.asctime_buffer == runtime.asctime_buffer

    def test_fork_copies_heap_table(self):
        runtime = LibcRuntime()
        pointer = runtime.heap.malloc(32)
        clone = runtime.fork()
        assert clone.heap.block_containing(pointer) is not None
        clone.heap.free(pointer)
        assert runtime.heap.block_containing(pointer) is not None

    def test_fork_copies_kernel_descriptors(self):
        from repro.libc.kernel import READ
        from repro.libc.runtime import standard_runtime

        runtime = standard_runtime()
        fd = runtime.kernel.open("/tmp/input.txt", READ)
        clone = runtime.fork()
        assert clone.kernel.read(fd, 5) == b"hello"
        # offset advanced only in the clone
        assert runtime.kernel.read(fd, 5) == b"hello"


class TestStats:
    def test_per_status_counts(self):
        sandbox = Sandbox(step_budget=10_000)
        sandbox.call(returns_42, (), LibcRuntime())
        sandbox.call(returns_42, (), LibcRuntime())
        sandbox.call(crashes, (), LibcRuntime())
        sandbox.call(hangs, (), LibcRuntime())
        sandbox.call(aborts, (), LibcRuntime())
        assert sandbox.stats == {
            "RETURNED": 2,
            "CRASHED": 1,
            "HUNG": 1,
            "ABORTED": 1,
        }
        assert sandbox.call_count == 5

    def test_stats_snapshot_is_a_copy(self):
        sandbox = Sandbox()
        sandbox.call(returns_42, (), LibcRuntime())
        snapshot = sandbox.stats
        snapshot["RETURNED"] = 99
        assert sandbox.stats == {"RETURNED": 1}

    def test_stats_feed_telemetry_registry(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        sandbox = Sandbox(telemetry=telemetry)
        sandbox.call(returns_42, (), LibcRuntime())
        sandbox.call(crashes, (), LibcRuntime())
        registry = telemetry.registry
        assert registry.value("sandbox.calls", status="RETURNED") == 1
        assert registry.value("sandbox.calls", status="CRASHED") == 1
        names = [r["name"] for r in telemetry.tracer.records()]
        assert names == ["sandbox.call", "sandbox.call"]
