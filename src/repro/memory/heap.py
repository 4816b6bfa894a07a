"""A simulated heap with an allocation table.

The wrapper's *stateful checking* (paper section 5.1) works by
intercepting ``malloc``/``free`` and recording every live block in an
internal table; later, when a C function is about to write through a
pointer, the wrapper looks the pointer up in the table and bounds-checks
the write without touching memory.  This module provides both halves:
the allocator used by the simulated libc and the queryable table the
wrapper consults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.address_space import NULL, AddressSpace
from repro.memory.faults import AccessKind, OutOfMemory, SegmentationFault
from repro.memory.region import Protection, Region, RegionKind


@dataclass(frozen=True)
class HeapBlock:
    """One live heap allocation as seen by the allocation table."""

    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class Heap:
    """malloc/free/realloc over an :class:`AddressSpace`.

    Every block gets its own region, so overruns into the inter-region
    guard gap fault immediately.  The allocation table additionally
    enables the wrapper to detect *same-page* overflows, which the
    paper points out cannot be caught by signal-handler probing alone
    (section 8).
    """

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self._blocks: dict[int, Region] = {}
        #: statistics for the benches
        self.malloc_count = 0
        self.free_count = 0
        #: Resource-exhaustion budget (see repro.faults.resource):
        #: None means unlimited; an integer allows that many further
        #: successful allocations, after which malloc returns NULL —
        #: the deterministic stand-in for memory pressure.
        self.exhaust_after: Optional[int] = None

    # ------------------------------------------------------------------
    # allocator entry points (the simulated libc calls these)
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns NULL for ``size < 0``.

        ``malloc(0)`` returns a unique pointer to a zero-size block, as
        glibc does; any dereference of it faults.
        """
        if size < 0:
            return NULL
        if self.exhaust_after is not None:
            if self.exhaust_after <= 0:
                return NULL
            self.exhaust_after -= 1
        try:
            region = self.space.map_region(
                size, Protection.RW, RegionKind.HEAP, label=f"malloc({size})"
            )
        except OutOfMemory:
            return NULL  # like real malloc under memory pressure
        self._blocks[region.base] = region
        self.malloc_count += 1
        return region.base

    def calloc(self, count: int, size: int) -> int:
        if count < 0 or size < 0:
            return NULL
        total = count * size
        return self.malloc(total)

    def free(self, pointer: int) -> None:
        """Release a block; ``free(NULL)`` is a no-op.

        Freeing a pointer that is not a live block base is undefined
        behaviour in C; the simulation makes it deterministic by
        raising a fault, matching how glibc typically aborts.
        """
        if pointer == NULL:
            return
        region = self._blocks.pop(pointer, None)
        if region is None:
            raise SegmentationFault(pointer, AccessKind.FREE, "invalid free")
        region.freed = True
        # Freed blocks flip accessibility without touching the mapping
        # list, so bump the space generation by hand for the wrapper's
        # revalidation cache.
        self.space.generation += 1
        self.free_count += 1

    def realloc(self, pointer: int, size: int) -> int:
        if pointer == NULL:
            return self.malloc(size)
        region = self._blocks.get(pointer)
        if region is None:
            raise SegmentationFault(pointer, AccessKind.FREE, "realloc of bad pointer")
        new_pointer = self.malloc(size)
        if new_pointer != NULL:
            preserved = min(region.size, size)
            payload = region.peek(region.base, preserved)
            new_region = self._blocks[new_pointer]
            new_region.poke(new_pointer, payload)
            self.free(pointer)
        return new_pointer

    # ------------------------------------------------------------------
    # allocation table queries (the wrapper calls these)
    # ------------------------------------------------------------------
    def block_containing(self, address: int) -> Optional[HeapBlock]:
        """Find the live block containing ``address``, if any.

        This is the lookup the stateful wrapper performs before letting
        a libc function write to a heap buffer.
        """
        region = self.space.region_at(address)
        if region is None or region.kind is not RegionKind.HEAP or region.freed:
            return None
        if region.base not in self._blocks:
            return None
        return HeapBlock(region.base, region.size)

    def remaining_from(self, address: int) -> Optional[int]:
        """Bytes from ``address`` to the end of its heap block.

        Returns None when the address is not inside a live heap block.
        The wrapper uses this to bound destination buffers for
        ``strcpy``-style functions — the heap-smashing defence of [4].
        """
        block = self.block_containing(address)
        if block is None:
            return None
        return block.end - address

    @property
    def live_block_count(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    # fork support
    # ------------------------------------------------------------------
    def fork_into(self, space: AddressSpace) -> "Heap":
        """A heap over ``space`` (a fork of this heap's space) whose
        allocation table points at the forked twins of this heap's
        live blocks.

        O(live blocks · log regions): rebinds only the bases this heap
        actually tracks instead of scanning every region in the forked
        space.  Statistics carry over, matching process-fork semantics.
        """
        clone = Heap(space)
        for base in self._blocks:
            region = space.region_at(base)
            if region is not None and not region.freed:
                clone._blocks[base] = region
        clone.malloc_count = self.malloc_count
        clone.free_count = self.free_count
        clone.exhaust_after = self.exhaust_after
        return clone
