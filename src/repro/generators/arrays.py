"""The fixed-size array test case generator (paper section 4.2).

Defines the five fundamental types of Figure 3: NULL, INVALID and the
three ``*_FIXED[s]`` buffer families.  The buffer cases are *adaptive*:
each starts as a zero-size array and is enlarged whenever the function
under test faults just past its end — "the array is iteratively
enlarged until no more segmentation faults occur (or, we run out of
memory)".

Buffers are filled with deterministic non-NUL garbage, which keeps
their value sets disjoint from the string/FILE/DIR fundamentals (the
paper's redefinition rule for overlapping hierarchies) and makes
content-derived wild pointers attributable.
"""

from __future__ import annotations

from repro.generators.base import (
    GARBAGE_BYTE,
    GARBAGE_POINTER,
    Materialized,
    OWNERSHIP_SLACK,
    TestCaseGenerator,
    TestCaseTemplate,
    ValueTemplate,
)
from repro.libc.runtime import LibcRuntime
from repro.memory import INVALID_POINTER, NULL, Protection, RegionKind
from repro.typelattice import registry

#: Growth schedule bounds: additive steps resolve exact small sizes
#: (44 for asctime, 144 for struct stat), doubling covers large
#: buffers, the cap is the generator's "out of memory" point.
ADDITIVE_LIMIT = 256
GROWTH_STEP = 4
MAX_ARRAY_SIZE = 16384


class AdaptiveArrayTemplate(TestCaseTemplate):
    """One ``*_FIXED[s]`` case that grows under fault feedback."""

    def __init__(self, prot: Protection, initial_size: int = 0) -> None:
        self.prot = prot
        self.size = initial_size
        self.gave_up = False
        self._last_base: int | None = None

    @property
    def label(self) -> str:  # type: ignore[override]
        return f"{self._template_name()}[{self.size}]"

    def _template_name(self) -> str:
        if self.prot == Protection.READ:
            return "RONLY_FIXED"
        if self.prot == Protection.WRITE:
            return "WONLY_FIXED"
        return "RW_FIXED"

    def _fundamental(self):
        name = self._template_name()
        factory = {
            "RONLY_FIXED": registry.RONLY_FIXED,
            "WONLY_FIXED": registry.WONLY_FIXED,
            "RW_FIXED": registry.RW_FIXED,
        }[name]
        return factory(self.size)

    def materialize(self, runtime: LibcRuntime) -> Materialized:
        region = runtime.space.map_region(
            self.size, Protection.RW, RegionKind.TEST, label=self.label
        )
        if self.size:
            region.poke(region.base, bytes([GARBAGE_BYTE]) * self.size)
        runtime.space.protect(region, self.prot)
        self._last_base = region.base
        ranges = (
            (region.base, region.base + self.size + OWNERSHIP_SLACK),
            (GARBAGE_POINTER, GARBAGE_POINTER + OWNERSHIP_SLACK),
        )
        return Materialized(region.base, self._fundamental(), ranges)

    def identity(self) -> tuple:
        return (type(self).__module__, type(self).__qualname__, self.prot.value)

    def state(self):
        # _last_base is excluded: it is an attribution detail derived
        # from the materialization, not part of the case's meaning.
        return (self.size, self.gave_up)

    def restore(self, state) -> None:
        self.size, self.gave_up = state

    @property
    def adjustable(self) -> bool:
        return not self.gave_up

    def adjust(self, fault, materialized: Materialized) -> bool:
        """Enlarge past the fault.  Growth cannot fix two situations,
        which end the case as a failure: a content-derived wild
        pointer (garbage stays garbage at any size), and a
        wrong-direction protection fault (a write into a read-only
        buffer faults at its base no matter how large it grows).
        """
        from repro.memory import AccessKind

        if self.gave_up:
            return False
        fault_address = fault.address
        if GARBAGE_POINTER <= fault_address < GARBAGE_POINTER + OWNERSHIP_SLACK:
            self.gave_up = True
            return False
        base = self._last_base if self._last_base is not None else 0
        inside = base <= fault_address < base + self.size
        wrong_protection = (
            fault.access is AccessKind.WRITE and not (self.prot & Protection.WRITE)
        ) or (fault.access is AccessKind.READ and not (self.prot & Protection.READ))
        if wrong_protection and (inside or self.size == 0):
            # Growth cannot change the protection, but the paper's
            # enlarge-until-out-of-memory loop still ends with a crash
            # at the maximum size — evidence the robust computation
            # needs (R_ARRAY[s] must not swallow a write-only access
            # pattern just because the read-only case stopped small).
            if self.size < MAX_ARRAY_SIZE:
                self.size = MAX_ARRAY_SIZE
                return True
            self.gave_up = True
            return False
        if fault.access is AccessKind.FREE:
            self.gave_up = True  # a heap-table fault; size is irrelevant
            return False
        # Strictly incremental growth ("the array is iteratively
        # enlarged"): every intermediate size is actually tested, so
        # its failure enters the robust type computation — without
        # that evidence the weakest-type selection could not
        # distinguish W_ARRAY[4] from W_ARRAY[52].
        if self.size < ADDITIVE_LIMIT:
            new_size = self.size + GROWTH_STEP
        else:
            new_size = self.size * 2
        if new_size > MAX_ARRAY_SIZE:
            self.gave_up = True  # the paper's out-of-memory arm
            return False
        self.size = new_size
        return True


class FixedArrayGenerator(TestCaseGenerator):
    """Figure 3's generator: NULL, INVALID and three adaptive buffers."""

    name = "fixed_array"

    def __init__(self) -> None:
        self._templates = [
            ValueTemplate(
                NULL, registry.NULL, "NULL", owned_ranges=((0, OWNERSHIP_SLACK),)
            ),
            ValueTemplate(
                INVALID_POINTER,
                registry.INVALID,
                "INVALID",
                owned_ranges=((INVALID_POINTER, INVALID_POINTER + OWNERSHIP_SLACK),),
            ),
            AdaptiveArrayTemplate(Protection.READ),
            AdaptiveArrayTemplate(Protection.RW),
            AdaptiveArrayTemplate(Protection.WRITE),
        ]

    def templates(self):
        return self._templates
