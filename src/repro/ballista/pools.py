"""Ballista-style test value pools.

Ballista tests a function by drawing each argument from a pool of
exceptional and ordinary values determined by the argument's type
[Kropp et al., FTCS'98].  These pools mirror that design against the
simulated runtime: wild pointers, undersized/read-only/freed buffers,
unterminated strings, corrupted and stale FILE/DIR structures,
boundary integers, absurd sizes, format-string attacks.

Valid FILE/DIR values are *seeded* into the wrapper's tracking tables
when a wrapper is under test — modelling streams that the application
opened through the wrapper earlier in its life.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cdecl.ctypes_model import BaseType, CType, FunctionType, Parameter, PointerType
from repro.generators.base import GARBAGE_BYTE
from repro.generators.files_gen import CORRUPT_POINTER, STALE_FD
from repro.libc import fileio
from repro.libc.dirent_fns import OFF_ENTRIES, alloc_dir
from repro.libc.kernel import CREATE, READ, TRUNC, WRITE
from repro.libc.runtime import LibcRuntime
from repro.memory import INVALID_POINTER, NULL, Protection, RegionKind
from repro.sandbox.context import CallContext

GARBAGE = bytes([GARBAGE_BYTE])


@dataclass(frozen=True)
class PoolValue:
    """One test value: a label and a builder materializing it."""

    label: str
    build: Callable[[LibcRuntime], int | float]
    seed: Optional[str] = None  # "file" | "dir" — register with wrapper state
    exceptional: bool = True


def _const(label: str, value: int | float, exceptional: bool = True) -> PoolValue:
    return PoolValue(label, lambda runtime: value, exceptional=exceptional)


def _region(
    label: str, size: int, prot: Protection, fill: bytes = GARBAGE
) -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        region = runtime.space.map_region(size, Protection.RW, RegionKind.TEST, label)
        if size:
            region.poke(region.base, (fill * size)[:size])
        runtime.space.protect(region, prot)
        return region.base

    return PoolValue(label, build)


def _string(label: str, content: bytes, prot: Protection, exceptional: bool) -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        region = runtime.space.map_region(
            len(content) + 1, Protection.RW, RegionKind.TEST, label
        )
        region.poke(region.base, content + b"\x00")
        runtime.space.protect(region, prot)
        return region.base

    return PoolValue(label, build, exceptional=exceptional)


def _freed_block(label: str, size: int) -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        pointer = runtime.heap.malloc(size)
        runtime.heap.free(pointer)
        return pointer

    return PoolValue(label, build)


def _heap_buffer(label: str, size: int, exceptional: bool = False) -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        pointer = runtime.heap.malloc(size)
        if size:
            runtime.space.store(pointer, (GARBAGE * size)[:size])
        return pointer

    return PoolValue(label, build, exceptional=exceptional)


def _ctx(runtime: LibcRuntime) -> CallContext:
    return CallContext(runtime, step_budget=10_000_000)


def _valid_file(label: str, mode: str) -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        flags = {"r": READ, "w": WRITE | CREATE | TRUNC, "r+": READ | WRITE | CREATE}[mode]
        path = "/tmp/input.txt" if mode == "r" else "/tmp/ballista_out"
        fd = runtime.kernel.open(path, flags)
        return fileio.alloc_file(_ctx(runtime), fd, bool(flags & READ), bool(flags & WRITE))

    return PoolValue(label, build, seed="file", exceptional=False)


def _corrupt_file() -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        fd = runtime.kernel.open("/tmp/input.txt", READ)
        fp = fileio.alloc_file(_ctx(runtime), fd, True, True)
        runtime.space.store_u64(fp + fileio.OFF_BUF, CORRUPT_POINTER)
        return fp

    # Deliberately NOT seeded: a corrupted stream is not something the
    # wrapper saw being opened.
    return PoolValue("FILE:corrupt-buffer", build)


def _stale_file() -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        return fileio.alloc_file(_ctx(runtime), STALE_FD, True, True)

    return PoolValue("FILE:stale-fd", build)


def _closed_file() -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        fd = runtime.kernel.open("/tmp/input.txt", READ)
        fp = fileio.alloc_file(_ctx(runtime), fd, True, False)
        fileio.libc_fclose(_ctx(runtime), fp)  # dangling stream
        return fp

    return PoolValue("FILE:use-after-close", build)


def _valid_dir(label: str = "DIR:valid") -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        names = [".", ".."] + runtime.kernel.list_directory("/tmp")
        fd = runtime.kernel.open("/tmp", READ)
        return alloc_dir(_ctx(runtime), names, fd)

    return PoolValue(label, build, seed="dir", exceptional=False)


def _corrupt_dir() -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        fd = runtime.kernel.open("/tmp", READ)
        dirp = alloc_dir(_ctx(runtime), ["."], fd)
        runtime.space.store_u64(dirp + OFF_ENTRIES, CORRUPT_POINTER)
        return dirp

    return PoolValue("DIR:corrupt-entries", build)


def _stale_dir() -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        return alloc_dir(_ctx(runtime), ["."], STALE_FD + 1)

    return PoolValue("DIR:stale-fd", build)


def _valid_funcptr() -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        def compare_bytes(ctx, a: int, b: int) -> int:
            left = ctx.mem.load(a, 1)[0]
            right = ctx.mem.load(b, 1)[0]
            return (left > right) - (left < right)

        return runtime.register_funcptr(compare_bytes)

    return PoolValue("funcptr:valid", build, exceptional=False)


def _open_fd(mode: str) -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        flags = {"r": READ, "w": WRITE | CREATE}[mode]
        path = "/tmp/input.txt" if mode == "r" else "/tmp/ballista_fd"
        return runtime.kernel.open(path, flags)

    return PoolValue(f"fd:open-{mode}", build, exceptional=False)


def _closed_fd() -> PoolValue:
    def build(runtime: LibcRuntime) -> int:
        fd = runtime.kernel.open("/tmp/input.txt", READ)
        runtime.kernel.close(fd)
        return fd

    return PoolValue("fd:closed", build)


# ----------------------------------------------------------------------
# per-type pools
# ----------------------------------------------------------------------

#: Pool for ``const char*`` arguments (the function only reads).
STRING_POOL: tuple[PoolValue, ...] = (
    _const("str:NULL", NULL),
    _const("str:INVALID", INVALID_POINTER),
    _freed_block("str:freed", 32),
    _string("str:empty", b"", Protection.READ, exceptional=True),
    _string("str:plain", b"hello world", Protection.READ, exceptional=False),
    _string("str:words", b"alpha beta gamma", Protection.READ, exceptional=False),
    _string("str:digits", b"12345", Protection.READ, exceptional=False),
    _string("str:rw", b"mutable text", Protection.RW, exceptional=False),
    _string("str:path", b"/tmp/input.txt", Protection.READ, exceptional=False),
    _string("str:dir", b"/tmp", Protection.READ, exceptional=False),
    _string("str:badpath", b"/no/such/file", Protection.READ, exceptional=True),
    _string("str:mode-r", b"r", Protection.READ, exceptional=False),
    _string("str:mode-w+", b"w+", Protection.READ, exceptional=False),
    _string("str:badmode", b"qqq", Protection.READ, exceptional=True),
    _string("str:format-attack", b"%n%s%x", Protection.READ, exceptional=True),
    _string("str:huge", b"Z" * 2048, Protection.READ, exceptional=True),
)

#: Pool for mutable ``char*`` arguments (potential write targets).
WRITABLE_STRING_POOL: tuple[PoolValue, ...] = (
    _const("buf:NULL", NULL),
    _const("buf:INVALID", INVALID_POINTER),
    _freed_block("buf:freed", 64),
    _string("buf:ro-string", b"read only", Protection.READ, exceptional=True),
    _string("buf:rw-string", b"mutable text here", Protection.RW, exceptional=False),
    _string("buf:rw-tokens", b"one,two;three four", Protection.RW, exceptional=False),
    _region("buf:rw-8", 8, Protection.RW),
    _region("buf:rw-64", 64, Protection.RW),
    _region("buf:rw-512", 512, Protection.RW),
    _heap_buffer("buf:heap-64", 64),
    _heap_buffer("buf:heap-4096", 4096),
    _region("buf:tiny", 2, Protection.RW),
)

POINTER_POOL: tuple[PoolValue, ...] = (
    _const("ptr:NULL", NULL),
    _const("ptr:INVALID", INVALID_POINTER),
    _const("ptr:misaligned-wild", 0x3),
    _region("ptr:empty", 0, Protection.RW),
    _region("ptr:tiny-rw", 8, Protection.RW),
    _region("ptr:rw-64", 64, Protection.RW),
    _region("ptr:page-rw", 4096, Protection.RW),
    _region("ptr:tiny-ro", 8, Protection.READ),
    _region("ptr:ro-64", 64, Protection.READ),
    _region("ptr:big-ro", 4096, Protection.READ),
    _region("ptr:wo-64", 64, Protection.WRITE),
    _heap_buffer("ptr:heap-64", 64),
    _heap_buffer("ptr:heap-4096", 4096),
    _freed_block("ptr:freed", 64),
)

FILE_POOL: tuple[PoolValue, ...] = (
    _const("FILE:NULL", NULL),
    _const("FILE:INVALID", INVALID_POINTER),
    _region("FILE:garbage", 216, Protection.RW),
    _region("FILE:undersized", 32, Protection.RW),
    _corrupt_file(),
    _stale_file(),
    _closed_file(),
    _valid_file("FILE:ro", "r"),
    _valid_file("FILE:rw", "r+"),
    _valid_file("FILE:rw2", "r+"),
    _valid_file("FILE:wo", "w"),
    _valid_file("FILE:ro2", "r"),
)

DIR_POOL: tuple[PoolValue, ...] = (
    _const("DIR:NULL", NULL),
    _const("DIR:INVALID", INVALID_POINTER),
    _region("DIR:garbage", 72, Protection.RW),
    _corrupt_dir(),
    _stale_dir(),
    _valid_dir(),
    _valid_dir("DIR:valid2"),
)

INT_POOL: tuple[PoolValue, ...] = (
    _const("int:INT_MIN", -(2**31)),
    _const("int:-1", -1),
    _const("int:0", 0, exceptional=False),
    _const("int:1", 1, exceptional=False),
    _const("int:2", 2, exceptional=False),
    _const("int:64", 64, exceptional=False),
    _const("int:255", 255, exceptional=False),
    _const("int:65536", 65536),
    _const("int:INT_MAX", 2**31 - 1),
)

FD_POOL: tuple[PoolValue, ...] = (
    _const("fd:-1", -1),
    _const("fd:0-tty", 0, exceptional=False),
    _open_fd("r"),
    _open_fd("w"),
    _closed_fd(),
    _const("fd:9999", 9999),
)

SIZE_POOL: tuple[PoolValue, ...] = (
    _const("size:0", 0, exceptional=False),
    _const("size:1", 1, exceptional=False),
    _const("size:16", 16, exceptional=False),
    _const("size:64", 64, exceptional=False),
    _const("size:2^16", 2**16),
    _const("size:2^31", 2**31),
    _const("size:2^40", 2**40),
)

REAL_POOL: tuple[PoolValue, ...] = (
    _const("real:-1.5", -1.5, exceptional=False),
    _const("real:0", 0.0, exceptional=False),
    _const("real:pi", 3.14159, exceptional=False),
    _const("real:nan", float("nan")),
    _const("real:inf", float("inf")),
)

FUNCPTR_POOL: tuple[PoolValue, ...] = (
    _const("funcptr:NULL", NULL),
    _const("funcptr:INVALID", INVALID_POINTER),
    _heap_buffer("funcptr:data-pointer", 16),
    _valid_funcptr(),
)


def pool_for(parameter: Parameter, resolved: CType, declared: CType) -> tuple[PoolValue, ...]:
    """Select the Ballista pool for one argument (same dispatch logic
    as the fault injector's generator selection)."""
    spelled = ""
    if isinstance(declared, PointerType) and isinstance(declared.pointee, BaseType):
        spelled = declared.pointee.name
    if isinstance(resolved, PointerType):
        if isinstance(resolved.pointee, FunctionType):
            return FUNCPTR_POOL
        if spelled in ("FILE", "struct _IO_FILE"):
            return FILE_POOL
        if spelled in ("DIR", "struct __dirstream"):
            return DIR_POOL
        pointee = resolved.pointee
        if isinstance(pointee, BaseType) and pointee.name in ("char", "signed char"):
            return STRING_POOL if pointee.const else WRITABLE_STRING_POOL
        return POINTER_POOL
    if isinstance(resolved, BaseType):
        if resolved.is_floating:
            return REAL_POOL
        name = parameter.name.lower()
        if name in ("fd", "fildes", "filedes", "filedesc"):
            return FD_POOL
        if resolved.name == "unsigned long":
            return SIZE_POOL
        return INT_POOL
    return POINTER_POOL
