"""The wrapper's checking functions (paper sections 5.1 and 5.2).

One checking function per unified type — ``check_R_ARRAY_NULL`` and
friends from the generated wrapper code (Figure 5) — implemented
against the simulated runtime.

Memory validation follows the paper's two-tier strategy:

* **stateful** — pointers into the tracked heap are bounds-checked
  against the allocation table, which catches *same-page* overflows a
  probe cannot see (section 8);
* **stateless** — other memory is probed "one byte per page" at page
  granularity, the signal-handler technique of [2].

Both tiers are switchable so the ablation benches can measure each in
isolation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.libc.fileio import OFF_FD, OFF_FLAGS
from repro.libc.runtime import LibcRuntime
from repro.memory import NULL, PAGE_SIZE, page_of
from repro.typelattice.instances import TypeInstance
from repro.typelattice.registry import DIR_SIZE, FILE_SIZE
from repro.wrapper.state import WrapperState

#: Upper bound for NUL-terminator scans (CSTRING checks).
MAX_STRING_SCAN = 65536

_MODE_RE = re.compile(rb"^[rwa][b+]*$")


@dataclass
class CheckConfig:
    """Feature switches for the check library (ablation knobs).

    Attributes:
        stateful: consult the heap allocation table first.
        page_probe: probe one byte per page for non-heap memory (the
            paper's default); when False the probe touches every byte
            (the slow exhaustive alternative the ablation compares).
        page_granularity: model real-MMU page granularity for probes —
            an accessible byte validates its whole page.  False (the
            default) matches our electric-fence memory model, where
            every mapping ends exactly at its last byte; True emulates
            the shared-page reality in which stateless probing misses
            same-page overflows (the paper's section 8 comparison) and
            exists for the ablation bench.
    """

    stateful: bool = True
    page_probe: bool = True
    page_granularity: bool = False


class CheckLibrary:
    """Evaluates robust-type membership for concrete argument values."""

    def __init__(
        self,
        runtime: LibcRuntime,
        state: WrapperState,
        config: CheckConfig | None = None,
    ) -> None:
        self.runtime = runtime
        self.state = state
        self.config = config or CheckConfig()
        #: assertion names active for the function being checked; set
        #: by the wrapper before dispatching.
        self.active_assertions: tuple[str, ...] = ()
        #: counters for the overhead benches
        self.checks_performed = 0
        self.probe_bytes = 0

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def check(self, instance: TypeInstance, value) -> bool:
        """Does ``value`` belong to ``V(instance)``?

        Only unified (checkable) types are supported; the wrapper
        generator never emits checks for bare fundamentals except NULL
        and the open-structure types.
        """
        self.checks_performed += 1
        handler = getattr(self, f"_check_{instance.name}", None)
        if handler is None:
            raise KeyError(f"no checking function for type {instance.render()}")
        return handler(instance, value)

    # ------------------------------------------------------------------
    # memory validation primitives
    # ------------------------------------------------------------------
    def memory_ok(self, pointer: int, size: int, read: bool, write: bool) -> bool:
        """Validate that ``size`` bytes at ``pointer`` are accessible."""
        if pointer == NULL:
            return False
        if size == 0:
            size = 1
        if self.config.stateful:
            remaining = self.runtime.heap.remaining_from(pointer)
            if remaining is not None:
                # Heap block: exact bounds from the allocation table.
                return remaining >= size
        return self._probe(pointer, size, read, write)

    def _probe(self, pointer: int, size: int, read: bool, write: bool) -> bool:
        """Stateless accessibility probe."""
        space = self.runtime.space
        if self.config.page_probe:
            # Lazy iteration: the first inaccessible probe exits, so
            # absurd sizes fail after a handful of probes instead of
            # enumerating billions of pages.
            def points():
                for address in range(pointer, pointer + size, PAGE_SIZE):
                    yield address
                if size > 1 and (pointer + size - 1 - pointer) % PAGE_SIZE != 0:
                    yield pointer + size - 1

            probe_points = points()
        else:
            probe_points = iter(range(pointer, pointer + size))
        for address in probe_points:
            self.probe_bytes += 1
            if self.config.page_granularity:
                if not self._page_accessible(address, read, write):
                    return False
            else:
                if read and not space.is_readable(address, 1):
                    return False
                if write and not space.is_writable(address, 1):
                    return False
        return True

    def _page_accessible(self, address: int, read: bool, write: bool) -> bool:
        """Page-granular accessibility: any mapping on the page with
        the required permissions validates the whole page (this is
        exactly why probing misses same-page overflows)."""
        space = self.runtime.space
        page_start = page_of(address) * PAGE_SIZE
        page_end = page_start + PAGE_SIZE
        probe = max(address, page_start)
        # Find a region overlapping this page.
        region = space.region_at(probe)
        if region is None:
            # Scan the page for any region starting within it.
            for candidate in space.regions():
                if candidate.base < page_end and candidate.end > page_start:
                    region = candidate
                    break
        if region is None or region.freed:
            return False
        if read and not space.is_readable(region.base, 1):
            return False
        if write and not space.is_writable(region.base, min(1, region.size) or 1):
            return False
        return True

    def string_length(self, pointer: int) -> int | None:
        """Length of the NUL-terminated string at ``pointer``, or None
        when no terminator lies within accessible memory."""
        space = self.runtime.space
        if pointer == NULL:
            return None
        if self.config.stateful:
            remaining = self.runtime.heap.remaining_from(pointer)
            if remaining is not None:
                limit = min(remaining, MAX_STRING_SCAN)
                data = space.load(pointer, limit) if limit else b""
                index = data.find(b"\x00")
                return index if index >= 0 else None
        # Non-heap memory: bulk NUL scan over whole region slices (the
        # PR-4 fast path) instead of one bounds-checked load per byte.
        # ``terminated`` is non-empty only when a NUL was actually read
        # before the cap / a fault, so misses (unreadable byte, string
        # longer than MAX_STRING_SCAN) return None exactly as the
        # byte-at-a-time loop did.
        payload, terminated, _fault = space.scan_cstring(pointer, MAX_STRING_SCAN)
        return len(payload) if terminated else None

    # ------------------------------------------------------------------
    # pointer / array checks (Figure 3 types)
    # ------------------------------------------------------------------
    def _check_UNCONSTRAINED(self, instance, value) -> bool:
        return True

    def _check_NULL(self, instance, value) -> bool:
        return value == NULL

    def _check_R_ARRAY(self, instance, value) -> bool:
        return self.memory_ok(value, instance.param or 1, True, False)

    def _check_W_ARRAY(self, instance, value) -> bool:
        return self.memory_ok(value, instance.param or 1, False, True)

    def _check_RW_ARRAY(self, instance, value) -> bool:
        return self.memory_ok(value, instance.param or 1, True, True)

    def _check_R_ARRAY_NULL(self, instance, value) -> bool:
        return value == NULL or self._check_R_ARRAY(instance, value)

    def _check_W_ARRAY_NULL(self, instance, value) -> bool:
        return value == NULL or self._check_W_ARRAY(instance, value)

    def _check_RW_ARRAY_NULL(self, instance, value) -> bool:
        return value == NULL or self._check_RW_ARRAY(instance, value)

    # ------------------------------------------------------------------
    # string checks
    # ------------------------------------------------------------------
    def _check_CSTRING(self, instance, value) -> bool:
        return self.string_length(value) is not None

    def _check_CSTRING_NULL(self, instance, value) -> bool:
        return value == NULL or self._check_CSTRING(instance, value)

    def _check_WRITABLE_STRING(self, instance, value) -> bool:
        length = self.string_length(value)
        if length is None:
            return False
        return self.memory_ok(value, length + 1, True, True)

    def _check_WRITABLE_STRING_NULL(self, instance, value) -> bool:
        return value == NULL or self._check_WRITABLE_STRING(instance, value)

    def _check_MODE_STRING(self, instance, value) -> bool:
        length = self.string_length(value)
        if length is None:
            return False
        content = self.runtime.space.load(value, length)
        return bool(_MODE_RE.match(content))

    def _check_FORMAT_STRING(self, instance, value) -> bool:
        """Directive-free formats only: every '%' must be '%%'.  This
        conservatively blocks argument-consuming directives and the
        %n write primitive used by format-string attacks."""
        length = self.string_length(value)
        if length is None:
            return False
        content = self.runtime.space.load(value, length)
        index = 0
        while index < len(content):
            if content[index] == ord("%"):
                if index + 1 >= len(content) or content[index + 1] != ord("%"):
                    return False
                index += 2
            else:
                index += 1
        return True

    # ------------------------------------------------------------------
    # FILE / DIR checks
    # ------------------------------------------------------------------
    def _file_struct_ok(self, value: int, need_read: bool, need_write: bool) -> bool:
        """The paper's FILE validation: accessible FILE-sized memory,
        then fileno + fstat on the embedded descriptor.  "In theory,
        this is not a complete test" — corrupted structures with live
        descriptors pass, exactly as in the paper."""
        if not self.memory_ok(value, FILE_SIZE, True, True):
            return False
        fd = self.runtime.space.load_i32(value + OFF_FD)
        mode = self.runtime.kernel.fd_mode(fd)
        if mode is None:
            return False
        readable, writable = mode
        flags = self.runtime.space.load_u32(value + OFF_FLAGS)
        if need_read and not (readable or flags & 1):
            return False
        if need_write and not (writable or flags & 2):
            return False
        return True

    def _check_OPEN_FILE(self, instance, value) -> bool:
        if "track_file" in getattr(self, "active_assertions", ()):
            if not self.state.assert_tracked_file(value):
                return False
        return self._file_struct_ok(value, False, False)

    def _check_OPEN_FILE_NULL(self, instance, value) -> bool:
        return value == NULL or self._check_OPEN_FILE(instance, value)

    def _check_R_FILE(self, instance, value) -> bool:
        return self._file_struct_ok(value, True, False)

    def _check_W_FILE(self, instance, value) -> bool:
        return self._file_struct_ok(value, False, True)

    def _check_OPEN_DIR(self, instance, value) -> bool:
        """Only checkable via the stateful DIR table (section 5.2)."""
        return self.state.assert_tracked_dir(value)

    def _check_OPEN_DIR_NULL(self, instance, value) -> bool:
        return value == NULL or self._check_OPEN_DIR(instance, value)

    # ------------------------------------------------------------------
    # scalar checks
    # ------------------------------------------------------------------
    def _check_ANY_INT(self, instance, value) -> bool:
        return True

    def _check_CHAR_RANGE(self, instance, value) -> bool:
        return -128 <= value <= 255

    def _check_INT_NONNEG(self, instance, value) -> bool:
        return value >= 0

    def _check_INT_NONPOS(self, instance, value) -> bool:
        return value <= 0

    def _check_ANY_SIZE(self, instance, value) -> bool:
        return True

    def _check_REASONABLE_SIZE(self, instance, value) -> bool:
        return 0 <= value < 2**31

    def _check_ANY_REAL(self, instance, value) -> bool:
        return True

    def _check_FINITE_REAL(self, instance, value) -> bool:
        return math.isfinite(value)

    def _check_ANY_FD(self, instance, value) -> bool:
        return True

    def _check_OPEN_FD(self, instance, value) -> bool:
        return self.runtime.kernel.fd_mode(value) is not None

    def _check_READABLE_FD(self, instance, value) -> bool:
        mode = self.runtime.kernel.fd_mode(value)
        return mode is not None and mode[0]

    def _check_WRITABLE_FD(self, instance, value) -> bool:
        mode = self.runtime.kernel.fd_mode(value)
        return mode is not None and mode[1]

    # ------------------------------------------------------------------
    # function pointer checks
    # ------------------------------------------------------------------
    def _check_FUNCPTR(self, instance, value) -> bool:
        return value in self.runtime.funcptrs

    def _check_FUNCPTR_NULL(self, instance, value) -> bool:
        return value == NULL or self._check_FUNCPTR(instance, value)
