"""Unit tests for the simulated address space."""

import pytest

from repro.memory import (
    AccessKind,
    AddressSpace,
    NULL,
    OutOfMemory,
    PAGE_SIZE,
    Protection,
    RegionKind,
    SegmentationFault,
    round_up_to_page,
)


@pytest.fixture()
def space():
    return AddressSpace()


def map_at_end_of_page(space, size):
    """Map a region whose *end* coincides with a page boundary: the
    classic fault-injection trick of placing a buffer flush against
    the end of a page so the very first byte past it faults."""
    region = space.map_region(round_up_to_page(max(size, 1)))
    excess = region.size - size
    region.base += excess
    region.size = size
    region.data = region.data[excess:] if size else bytearray()
    space._bases[space._regions.index(region)] = region.base
    return region


class TestMapping:
    def test_regions_do_not_overlap(self, space):
        regions = [space.map_region(100) for _ in range(10)]
        for a in regions:
            for b in regions:
                if a is not b:
                    assert not a.overlaps(b.base, b.size)

    def test_guard_gap_between_regions(self, space):
        first = space.map_region(10)
        space.map_region(10)
        # The byte immediately after a region is never mapped.
        assert space.region_at(first.end) is None

    def test_zero_size_region_is_legal_but_inaccessible(self, space):
        region = space.map_region(0)
        with pytest.raises(SegmentationFault):
            space.load(region.base, 1)

    def test_unmap_makes_addresses_fault(self, space):
        region = space.map_region(32)
        space.store(region.base, b"x")
        space.unmap(region)
        with pytest.raises(SegmentationFault):
            space.load(region.base, 1)

    def test_unmap_unknown_region_rejected(self, space):
        region = space.map_region(8)
        space.unmap(region)
        with pytest.raises(ValueError):
            space.unmap(region)

    def test_out_of_memory(self, space):
        with pytest.raises(OutOfMemory):
            space.map_region(2**60)

    def test_map_at_end_of_page_alignment(self, space):
        region = map_at_end_of_page(space, 100)
        assert region.end % PAGE_SIZE == 0
        space.store(region.base, b"a" * 100)
        with pytest.raises(SegmentationFault):
            space.load(region.end, 1)


class TestAccessChecks:
    def test_null_dereference_faults_with_address_zero(self, space):
        with pytest.raises(SegmentationFault) as exc:
            space.load(NULL, 1)
        assert exc.value.address == 0
        assert exc.value.access is AccessKind.READ

    def test_unmapped_access_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.load(0xDEAD0000, 4)

    def test_read_past_end_reports_first_bad_address(self, space):
        region = space.map_region(10)
        with pytest.raises(SegmentationFault) as exc:
            space.load(region.base + 8, 8)
        assert exc.value.address == region.base + 10

    def test_write_to_read_only_faults(self, space):
        region = space.map_region(10, Protection.READ)
        with pytest.raises(SegmentationFault) as exc:
            space.store(region.base, b"x")
        assert exc.value.access is AccessKind.WRITE

    def test_read_from_write_only_faults(self, space):
        region = space.map_region(10, Protection.WRITE)
        with pytest.raises(SegmentationFault) as exc:
            space.load(region.base, 1)
        assert exc.value.access is AccessKind.READ

    def test_freed_region_faults(self, space):
        region = space.map_region(10)
        region.freed = True
        with pytest.raises(SegmentationFault):
            space.load(region.base, 1)

    def test_zero_length_access_never_faults(self, space):
        assert space.load(0xDEAD0000, 0) == b""
        space.store(0xDEAD0000, b"")

    def test_protect_changes_permissions(self, space):
        region = space.map_region(10)
        space.store(region.base, b"x")
        space.protect(region, Protection.READ)
        with pytest.raises(SegmentationFault):
            space.store(region.base, b"y")
        assert space.load(region.base, 1) == b"x"

    def test_is_readable_and_writable_probes(self, space):
        region = space.map_region(10, Protection.READ)
        assert space.is_readable(region.base, 10)
        assert not space.is_readable(region.base, 11)
        assert not space.is_writable(region.base, 1)
        assert not space.is_readable(NULL, 1)


class TestTypedAccess:
    def test_u32_round_trip(self, space):
        region = space.map_region(16)
        space.store_u32(region.base, 0xDEADBEEF)
        assert space.load_u32(region.base) == 0xDEADBEEF

    def test_i32_negative_round_trip(self, space):
        region = space.map_region(16)
        space.store_i32(region.base, -12345)
        assert space.load_i32(region.base) == -12345

    def test_i64_round_trip(self, space):
        region = space.map_region(16)
        space.store_i64(region.base, -(2**62))
        assert space.load_i64(region.base) == -(2**62)

    def test_u64_wraps_modulo(self, space):
        region = space.map_region(16)
        space.store_u64(region.base, 2**64 + 5)
        assert space.load_u64(region.base) == 5

    def test_pointer_round_trip(self, space):
        region = space.map_region(16)
        space.store_u64(region.base, region.base)
        assert space.load_u64(region.base) == region.base

    def test_little_endian_layout(self, space):
        region = space.map_region(8)
        space.store_u32(region.base, 0x01020304)
        assert space.load(region.base, 4) == b"\x04\x03\x02\x01"


class TestCStrings:
    def test_write_and_read_cstring(self, space):
        region = space.map_region(32)
        space.write_cstring(region.base, b"hello")
        assert space.read_cstring(region.base) == b"hello"

    def test_unterminated_string_faults_at_region_end(self, space):
        region = space.alloc_bytes(b"\xa5" * 8)
        with pytest.raises(SegmentationFault) as exc:
            space.read_cstring(region.base)
        assert exc.value.address == region.end

    def test_alloc_cstring_appends_nul(self, space):
        region = space.alloc_cstring("abc")
        assert region.size == 4
        assert space.read_cstring(region.base) == b"abc"

    def test_read_cstring_respects_limit(self, space):
        region = space.alloc_cstring("abcdef")
        assert space.read_cstring(region.base, limit=3) == b"abc"


class TestFork:
    def test_fork_preserves_content(self, space):
        region = space.alloc_cstring("data")
        clone = space.fork()
        assert clone.read_cstring(region.base) == b"data"

    def test_fork_isolates_writes(self, space):
        region = space.map_region(8)
        clone = space.fork()
        clone.store(region.base, b"x")
        assert space.load(region.base, 1) == b"\x00"

    def test_fork_preserves_layout_cursor(self, space):
        space.map_region(8)
        clone = space.fork()
        a = space.map_region(8)
        b = clone.map_region(8)
        assert a.base == b.base  # deterministic layout across forks
