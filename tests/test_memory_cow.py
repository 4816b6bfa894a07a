"""Copy-on-write fork and bulk fast-path equivalence tests.

Three layers of proof that the memory hot-path optimizations are pure
performance work:

* **COW aliasing** — writes on either side of a fork are never visible
  to the other side, for any interleaving of fork and write;
* **region lookup** — a lookup never serves a stale region across
  ``map``/``unmap``/``protect``;
* **fuzz equivalence** — the slice-based C-string scans and the
  single-pass accessibility probe produce byte-for-byte the outcomes
  (payloads, memory states, fault addresses and reasons, watchdog step
  counts) of the per-byte reference implementations kept in
  ``tests/memory_reference.py``, including a full fault-injection run
  over the string-function catalog under both implementations.
"""

from __future__ import annotations

import random

import pytest

from repro.libc import common
from repro.libc.catalog import BY_NAME
from repro.libc.runtime import standard_runtime
from repro.memory import (
    AccessKind,
    AddressSpace,
    NULL,
    Protection,
    SegmentationFault,
)
from repro.memory.address_space import INVALID_POINTER
from repro.sandbox.context import CallContext, Hang
from tests import memory_reference as reference


def fault_key(fault):
    if fault is None:
        return None
    return (fault.address, fault.access, fault.reason)


def space_snapshot(space: AddressSpace) -> list[tuple[int, bytes]]:
    return [(r.base, bytes(r.data)) for r in space.regions()]


# ----------------------------------------------------------------------
# COW aliasing proofs
# ----------------------------------------------------------------------


class TestCowAliasing:
    def test_child_writes_invisible_to_parent(self):
        space = AddressSpace()
        region = space.alloc_bytes(b"parent--")
        child = space.fork()
        child.store(region.base, b"CHILD")
        assert space.load(region.base, 8) == b"parent--"
        assert child.load(region.base, 5) == b"CHILD"

    def test_parent_writes_after_fork_invisible_to_child(self):
        space = AddressSpace()
        region = space.alloc_bytes(b"original")
        child = space.fork()
        space.store(region.base, b"MUTATED!")
        assert child.load(region.base, 8) == b"original"
        assert space.load(region.base, 8) == b"MUTATED!"

    def test_siblings_are_mutually_isolated(self):
        space = AddressSpace()
        region = space.alloc_bytes(b"\x00" * 4)
        forks = [space.fork() for _ in range(4)]
        for index, fork in enumerate(forks):
            fork.store(region.base, bytes([index + 1]) * 4)
        assert space.load(region.base, 4) == b"\x00" * 4
        for index, fork in enumerate(forks):
            assert fork.load(region.base, 4) == bytes([index + 1]) * 4

    def test_grandchild_fork_chain(self):
        space = AddressSpace()
        region = space.alloc_bytes(b"aa")
        child = space.fork()
        child.store(region.base, b"bb")
        grandchild = child.fork()
        grandchild.store(region.base, b"cc")
        assert space.load(region.base, 2) == b"aa"
        assert child.load(region.base, 2) == b"bb"
        assert grandchild.load(region.base, 2) == b"cc"

    def test_poke_respects_cow(self):
        space = AddressSpace()
        region = space.alloc_bytes(b"xyz", prot=Protection.READ)
        child = space.fork()
        child_region = child.region_at(region.base)
        child_region.poke(region.base, b"ABC")
        assert space.load(region.base, 3) == b"xyz"
        assert child.load(region.base, 3) == b"ABC"

    def test_runtime_fork_is_isolated(self):
        runtime = standard_runtime()
        pointer = runtime.heap.malloc(16)
        runtime.space.store(pointer, b"heap state")
        child = runtime.fork()
        child.space.store(pointer, b"CHILDHEAP!")
        assert runtime.space.load(pointer, 10) == b"heap state"
        child.heap.free(pointer)
        assert runtime.heap.block_containing(pointer) is not None
        assert child.heap.block_containing(pointer) is None

    def test_fork_cost_does_not_scale_with_bytes(self):
        # O(region count), not O(total bytes): forking shares buffers,
        # so the big mapping must not be copied until someone writes.
        space = AddressSpace()
        region = space.map_region(1 << 20)
        child = space.fork()
        child_region = child.region_at(region.base)
        assert child_region.data is region.data  # aliased until a write
        child.store(region.base, b"x")
        assert child.region_at(region.base).data is not region.data

    def test_write_before_fork_then_after(self):
        space = AddressSpace()
        region = space.map_region(8)
        space.store(region.base, b"11111111")
        child = space.fork()
        space.store(region.base, b"22222222")
        child.store(region.base + 4, b"9999")
        assert space.load(region.base, 8) == b"22222222"
        assert child.load(region.base, 8) == b"11119999"


# ----------------------------------------------------------------------
# region lookup across mapping changes
# ----------------------------------------------------------------------


class TestLookupCache:
    """Every lookup sees the mapping table as it is now: a region that
    was found once is not served again after ``unmap`` or ``protect``,
    and a fork's lookups return its own clones."""

    def test_lookup_populates_cache(self):
        space = AddressSpace()
        region = space.map_region(64)
        assert space.region_at(region.base + 3) is region

    def test_map_invalidates_cache(self):
        space = AddressSpace()
        region = space.map_region(64)
        space.region_at(region.base)
        other = space.map_region(64)
        assert space.region_at(region.base) is region
        assert space.region_at(other.base) is other

    def test_unmap_invalidates_cache(self):
        space = AddressSpace()
        region = space.map_region(64)
        space.region_at(region.base)
        space.unmap(region)
        assert space.region_at(region.base) is None
        with pytest.raises(SegmentationFault):
            space.load(region.base, 1)

    def test_protect_invalidates_cache(self):
        space = AddressSpace()
        region = space.map_region(64)
        space.region_at(region.base)
        space.protect(region, Protection.READ)
        with pytest.raises(SegmentationFault):
            space.store(region.base, b"x")

    def test_fork_starts_with_cold_cache(self):
        space = AddressSpace()
        region = space.map_region(16)
        space.region_at(region.base)
        child = space.fork()
        # the child's lookups never alias parent regions
        assert child.region_at(region.base) is not region

    def test_cached_hits_stay_correct_across_unmap(self):
        space = AddressSpace()
        a = space.map_region(32)
        b = space.map_region(32)
        assert space.region_at(a.base) is a
        space.unmap(a)
        assert space.region_at(a.base) is None
        assert space.region_at(b.base) is b


# ----------------------------------------------------------------------
# fuzz equivalence: fast paths vs per-byte reference
# ----------------------------------------------------------------------


def build_fuzz_space(rng: random.Random) -> AddressSpace:
    """A randomized landscape of regions: mixed sizes, protections,
    freed flags, and payloads with NULs sprinkled or absent."""
    space = AddressSpace()
    for _ in range(rng.randint(3, 9)):
        size = rng.choice([0, 1, 2, 7, 16, 63, 256, 1024])
        prot = rng.choice(
            [Protection.RW, Protection.RW, Protection.READ, Protection.WRITE,
             Protection.NONE]
        )
        region = space.map_region(size, Protection.RW)
        if size:
            payload = bytes(
                rng.choice([0, rng.randint(1, 255), rng.randint(1, 255)])
                for _ in range(size)
            )
            if rng.random() < 0.4:  # force an unterminated tail
                payload = payload.rstrip(b"\x00") or b"\x01"
                payload += b"\x02" * (size - len(payload))
            region.poke(region.base, payload[:size])
        region.prot = prot
        if rng.random() < 0.15:
            region.freed = True
    return space


def fuzz_addresses(space: AddressSpace, rng: random.Random) -> list[int]:
    addresses = [NULL, INVALID_POINTER]
    for region in space.regions():
        addresses.extend(
            [region.base, region.end - 1 if region.size else region.base,
             region.end, region.base + rng.randint(0, max(region.size, 1))]
        )
    return addresses


class TestFuzzEquivalence:
    def test_scan_cstring_matches_reference(self):
        rng = random.Random(1234)
        for round_ in range(30):
            space = build_fuzz_space(rng)
            for address in fuzz_addresses(space, rng):
                for limit in (None, 0, 1, 5, 4096):
                    fast = space.scan_cstring(address, limit)
                    ref = reference.scan_cstring_ref(space, address, limit)
                    assert fast[0] == ref[0], (round_, address, limit)
                    assert fast[1] == ref[1], (round_, address, limit)
                    assert fault_key(fast[2]) == fault_key(ref[2]), (
                        round_, address, limit,
                    )

    def test_read_cstring_raises_identically(self):
        rng = random.Random(99)
        for _ in range(20):
            space = build_fuzz_space(rng)
            for address in fuzz_addresses(space, rng):
                try:
                    fast = ("ok", space.read_cstring(address))
                except SegmentationFault as fault:
                    fast = ("fault", fault_key(fault))
                try:
                    ref = ("ok", reference.read_cstring_ref(space, address))
                except SegmentationFault as fault:
                    ref = ("fault", fault_key(fault))
                assert fast == ref

    def test_write_cstring_matches_reference_including_partial_writes(self):
        rng = random.Random(4321)
        for round_ in range(30):
            space = build_fuzz_space(rng)
            fast_space = space.fork()
            ref_space = space.fork()
            for address in fuzz_addresses(space, rng):
                value = bytes(
                    rng.randint(1, 255) for _ in range(rng.choice([0, 1, 7, 40]))
                )
                try:
                    fast = ("ok", fast_space.write_cstring(address, value))
                except SegmentationFault as fault:
                    fast = ("fault", fault_key(fault))
                try:
                    ref = ("ok", reference.write_cstring_ref(ref_space, address, value))
                except SegmentationFault as fault:
                    ref = ("fault", fault_key(fault))
                assert fast == ref, (round_, address, value)
            # identical observable memory after every write, partial or not
            assert space_snapshot(fast_space) == space_snapshot(ref_space)

    def test_is_accessible_matches_reference(self):
        rng = random.Random(777)
        for _ in range(30):
            space = build_fuzz_space(rng)
            for address in fuzz_addresses(space, rng):
                for count in (0, 1, 2, 15, 64, 4096):
                    for access in (AccessKind.READ, AccessKind.WRITE):
                        assert space.is_accessible(address, count, access) == (
                            reference.is_accessible_ref(space, address, count, access)
                        ), (address, count, access)


# ----------------------------------------------------------------------
# ctx-level equivalence: libc helpers with step accounting
# ----------------------------------------------------------------------


def read_cstring_per_byte(ctx, address, limit=None):
    """The original byte-at-a-time libc helper (reference)."""
    out = bytearray()
    cursor = address
    while limit is None or len(out) < limit:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        out.append(byte)
        cursor += 1
    return bytes(out)


def write_cstring_per_byte(ctx, address, value):
    cursor = address
    for byte in value:
        common.write_byte(ctx, cursor, byte)
        cursor += 1
    common.write_byte(ctx, cursor, 0)


def run_helper(helper, runtime, budget, *args):
    """Execute ``helper(ctx, *args)`` and normalize the outcome."""
    ctx = CallContext(runtime, step_budget=budget)
    try:
        value = helper(ctx, *args)
        return ("ok", value, ctx.steps)
    except SegmentationFault as fault:
        return ("fault", fault_key(fault), ctx.steps)
    except Hang:
        return ("hang", None, ctx.steps)


class TestCtxEquivalence:
    @pytest.mark.parametrize("budget", [3, 5, 9, 1_000_000])
    def test_read_cstring_steps_and_faults_match(self, budget):
        rng = random.Random(31337)
        for _ in range(15):
            space = build_fuzz_space(rng)
            runtime = _SpaceRuntime(space)
            for address in fuzz_addresses(space, rng):
                for limit in (None, 0, 4):
                    fast = run_helper(
                        common.read_cstring, runtime, budget, address, limit
                    )
                    ref = run_helper(
                        read_cstring_per_byte, runtime, budget, address, limit
                    )
                    assert fast == ref, (address, limit, budget)

    @pytest.mark.parametrize("budget", [1, 4, 8, 1_000_000])
    def test_write_cstring_steps_faults_and_memory_match(self, budget):
        rng = random.Random(271828)
        for _ in range(15):
            space = build_fuzz_space(rng)
            fast_space = space.fork()
            ref_space = space.fork()
            for address in fuzz_addresses(space, rng):
                value = bytes(rng.randint(1, 255) for _ in range(rng.choice([0, 2, 6])))
                fast = run_helper(
                    common.write_cstring, _SpaceRuntime(fast_space), budget,
                    address, value,
                )
                ref = run_helper(
                    write_cstring_per_byte, _SpaceRuntime(ref_space), budget,
                    address, value,
                )
                assert fast == ref, (address, value, budget)
            assert space_snapshot(fast_space) == space_snapshot(ref_space)


class _SpaceRuntime:
    """Minimal duck-typed runtime for driving libc helpers directly."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self.heap = None
        self.kernel = None
        self.errno = 0


# ----------------------------------------------------------------------
# catalog-level equivalence: full injection runs under both substrates
# ----------------------------------------------------------------------

#: The string family exercises every fast path: cstring generators,
#: strlen-style scans, strcpy-style writes, and per-call forks.
CATALOG_SAMPLE = ["strcpy", "strncat", "strcmp", "strlen", "strpbrk", "strtok"]


def _reference_substrate(monkeypatch):
    """Swap every optimized primitive for its per-byte/eager twin."""
    monkeypatch.setattr(AddressSpace, "fork", reference.eager_fork)
    monkeypatch.setattr(
        AddressSpace, "is_accessible",
        lambda self, address, count, access: reference.is_accessible_ref(
            self, address, count, access
        ),
    )
    monkeypatch.setattr(
        AddressSpace, "read_cstring",
        lambda self, address, limit=None: reference.read_cstring_ref(
            self, address, limit
        ),
    )
    monkeypatch.setattr(
        AddressSpace, "write_cstring",
        lambda self, address, value: reference.write_cstring_ref(
            self, address, value
        ),
    )
    monkeypatch.setattr(common, "read_cstring", read_cstring_per_byte)
    monkeypatch.setattr(common, "write_cstring", write_cstring_per_byte)


@pytest.mark.parametrize("name", CATALOG_SAMPLE)
def test_injection_reports_identical_under_reference_semantics(name):
    from repro.injector import FaultInjector

    fast_report = FaultInjector(BY_NAME[name]).run()

    with pytest.MonkeyPatch.context() as patch:
        _reference_substrate(patch)
        ref_report = FaultInjector(BY_NAME[name]).run()

    assert fast_report == ref_report
