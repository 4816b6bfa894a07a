"""The simulated C library runtime.

Bundles everything a libc call touches: the address space, the heap,
the kernel, ``errno``, and libc-private static state (``asctime``'s
static buffer, ``strtok``'s save pointer, ...).  One runtime is one
"process image"; :meth:`LibcRuntime.fork` copies it (observationally a
deep copy; memory and kernel are copy-on-write), which is how
the sandbox gives each fault-injection call child-process isolation.
"""

from __future__ import annotations

from typing import Optional

from repro.memory import AddressSpace, Heap, Protection, RegionKind
from repro.libc.kernel import Kernel

#: glibc 2.2-era sizes our structures mimic (see cdecl.typedefs too).
ASCTIME_BUFFER_SIZE = 26
TM_SIZE = 44
TMPNAM_BUFFER_SIZE = 20


class LibcRuntime:
    """One simulated process: memory + kernel + libc static state."""

    def __init__(
        self, space: Optional[AddressSpace] = None, kernel: Optional[Kernel] = None
    ) -> None:
        self.space = space or AddressSpace()
        self.heap = Heap(self.space)
        self._kernel = kernel or Kernel()
        #: When True, ``_kernel`` is a frozen image shared with other
        #: runtimes; the :attr:`kernel` property forks a private copy
        #: on first touch (copy-on-write at fork granularity).
        self._kernel_shared = False
        self.errno = 0
        # libc-internal static regions (mapped once per process).
        self._asctime_buffer = self.space.map_region(
            ASCTIME_BUFFER_SIZE, Protection.RW, RegionKind.LIBC, "asctime static"
        )
        self._tm_buffer = self.space.map_region(
            TM_SIZE, Protection.RW, RegionKind.LIBC, "gmtime static"
        )
        self._tmpnam_buffer = self.space.map_region(
            TMPNAM_BUFFER_SIZE, Protection.RW, RegionKind.LIBC, "tmpnam static"
        )
        #: strtok's saved scan position (a pointer value, NULL = none).
        self.strtok_state: int = 0
        #: monotonically increasing suffix for tmpnam/tmpfile names.
        self.tmp_counter: int = 0
        #: addresses of the in-memory environment value strings.
        self.environment_block: dict[bytes, int] = {}
        #: registered function pointers: code address -> Python callable.
        self.funcptrs: dict[int, object] = {}
        self.rand_state: int = 1
        self.umask_value: int = 0o022
        self.pid: int = 4711
        #: lazily mapped ctype classification table base address.
        self.ctype_table_base: int | None = None
        #: lazily mapped fopen mode jump table base address.
        self.fopen_mode_table_base: int | None = None
        #: armed simulated-signal plan (see repro.faults.signals);
        #: the sandbox delivers it via InterruptibleContext.
        self.pending_interrupt = None

    @property
    def kernel(self) -> Kernel:
        """The runtime's private kernel, materialized on demand.

        After :meth:`fork`, parent and child share one frozen kernel
        image; whichever side next touches ``kernel`` pays for a
        :meth:`Kernel.fork`, which copies the inode and descriptor
        tables and shares every filesystem node until it is written.
        Most injection vectors never reach the kernel, so string-family
        sweeps skip even that.
        """
        if self._kernel_shared:
            self._kernel = self._kernel.fork()
            self._kernel_shared = False
        return self._kernel

    # Addresses of the static buffers (models return these). ------------
    @property
    def asctime_buffer(self) -> int:
        return self._asctime_buffer.base

    @property
    def static_tm(self) -> int:
        return self._tm_buffer.base

    @property
    def tmpnam_buffer(self) -> int:
        return self._tmpnam_buffer.base

    def fork(self) -> "LibcRuntime":
        """Child-process semantics: observationally a deep copy, but
        memory is copy-on-write (:meth:`AddressSpace.fork`) and the
        copy-on-write kernel fork is deferred until first touch, so
        the per-call fork the sandbox performs costs O(region count)."""
        clone = LibcRuntime.__new__(LibcRuntime)
        clone.space = self.space.fork()
        clone.heap = self.heap.fork_into(clone.space)
        # Kernel fork is lazy: both sides now share ``_kernel`` as a
        # frozen image and materialize a private fork on first touch
        # (via the ``kernel`` property).  Re-sharing an already-shared
        # image is sound — it stays frozen until someone touches it.
        self._kernel_shared = True
        clone._kernel = self._kernel
        clone._kernel_shared = True
        clone.errno = self.errno
        clone._asctime_buffer = clone.space.region_at(self._asctime_buffer.base)
        clone._tm_buffer = clone.space.region_at(self._tm_buffer.base)
        clone._tmpnam_buffer = clone.space.region_at(self._tmpnam_buffer.base)
        clone.strtok_state = self.strtok_state
        clone.tmp_counter = self.tmp_counter
        clone.environment_block = dict(self.environment_block)
        clone.funcptrs = dict(self.funcptrs)
        clone.rand_state = self.rand_state
        clone.umask_value = self.umask_value
        clone.pid = self.pid
        clone.ctype_table_base = self.ctype_table_base
        clone.fopen_mode_table_base = self.fopen_mode_table_base
        clone.pending_interrupt = self.pending_interrupt
        return clone

    def snapshot(self) -> "PreparedSnapshot":
        """Freeze the current state as a reusable prepared image.

        The injector's planning layer snapshots a runtime after
        materializing a vector prefix and serves every vector sharing
        that prefix from a fresh :meth:`PreparedSnapshot.checkout`
        fork, so only the varying suffix is re-materialized per call.
        """
        return PreparedSnapshot.capture(self)

    def register_funcptr(self, target) -> int:
        """Map a tiny code region and bind ``target`` (a Python
        callable ``fn(ctx, *args) -> int``) to its address, so libc
        models can "call" it via :func:`repro.libc.stdlib_fns.call_funcptr`."""
        from repro.memory import Protection, RegionKind

        region = self.space.map_region(
            16, Protection.READ, RegionKind.LIBC, "code stub"
        )
        self.funcptrs[region.base] = target
        return region.base


class PreparedSnapshot:
    """An immutable prepared runtime image served via COW forks.

    Because :meth:`LibcRuntime.fork` is observationally a deep copy,
    a checkout is state-identical to re-running, from scratch, every
    operation that produced the image — the property the planner's
    golden equivalence tests pin down.  The wrapped image is private:
    nothing mutates it after capture, so checkouts are O(region
    count) forever.
    """

    __slots__ = ("_image",)

    def __init__(self, image: LibcRuntime) -> None:
        #: Callers of the constructor relinquish ``image``; use
        #: :meth:`capture` to snapshot a runtime that stays live.
        self._image = image

    @classmethod
    def capture(cls, runtime: LibcRuntime) -> "PreparedSnapshot":
        return cls(runtime.fork())

    def checkout(self) -> LibcRuntime:
        """A private, mutable fork of the prepared image."""
        return self._image.fork()


def standard_runtime() -> LibcRuntime:
    """A runtime with a populated filesystem, ready for testing.

    Provides the files and directories the Ballista-style harness and
    the example applications expect.
    """
    runtime = LibcRuntime()
    kernel = runtime.kernel
    kernel.add_file("/etc/passwd", b"root:x:0:0:root:/root:/bin/sh\n", read_only=True)
    kernel.add_file("/etc/hosts", b"127.0.0.1 localhost\n", read_only=True)
    kernel.add_directory("/tmp")
    kernel.add_file("/tmp/input.txt", b"hello simulated world\nline two\n")
    kernel.add_file("/tmp/data.bin", bytes(range(256)))
    kernel.add_directory("/home/user")
    kernel.add_file("/home/user/notes.txt", b"note\n")
    kernel.setenv(b"HOME", b"/home/user")
    kernel.setenv(b"PATH", b"/bin:/usr/bin")
    kernel.setenv(b"TZ", b"UTC")
    return runtime
