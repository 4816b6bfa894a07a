"""Executable specification of the format, mode-string and qsort reads.

The per-byte forms that the bulk reads in ``libc.timefns``,
``libc.fileio`` and ``libc.stdlib_fns`` must agree with: every format
and mode byte is one ``read_byte`` (one watchdog step, one region
lookup), and every qsort element is its own ``load``.  Slow on purpose
— ``test_format_reads_differential.py`` compares the models against
this module on generated layouts, formats and arrays.

Only the reading loops are restated here; the rest of each model
(``struct tm`` loads, FILE handling, the comparator call) is the
shipped code, imported.
"""

from __future__ import annotations

import functools

from repro.libc import common
from repro.libc.common import EOF
from repro.libc.errno_codes import EINVAL
from repro.libc.fileio import (
    FLAG_READ,
    FLAG_WRITE,
    OFF_FD,
    OFF_FLAGS,
    OFF_MAGIC,
    _mode_table_base,
    _ModeRejected,
    alloc_file,
    file_fd,
    touch_buffer,
)
from repro.libc.kernel import APPEND, CREATE, KernelError, READ, TRUNC, WRITE
from repro.libc.stdlib_fns import call_funcptr
from repro.libc.timefns import _DAYS, _MONTHS, _read_tm
from repro.memory import INVALID_POINTER, NULL
from repro.sandbox.context import CallContext


def read_until(ctx: CallContext, address: int, stop: int) -> tuple[bytes, int]:
    """``common.read_until`` as a ``read_byte`` loop."""
    out = bytearray()
    while True:
        byte = common.read_byte(ctx, address + len(out))
        if byte == 0 or byte == stop:
            return bytes(out), byte
        out.append(byte)


def libc_strftime(ctx: CallContext, s: int, maxsize: int, fmt: int, tm: int) -> int:
    fields = _read_tm(ctx, tm)
    out = bytearray()
    cursor = fmt
    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        cursor += 1
        if byte != ord("%"):
            out.append(byte)
            continue
        spec = common.read_byte(ctx, cursor)
        cursor += 1
        if spec == ord("Y"):
            out += str(1900 + fields["year"]).encode()
        elif spec == ord("m"):
            out += f"{(fields['mon'] % 12) + 1:02d}".encode()
        elif spec == ord("d"):
            out += f"{fields['mday'] % 100:02d}".encode()
        elif spec == ord("H"):
            out += f"{fields['hour'] % 100:02d}".encode()
        elif spec == ord("M"):
            out += f"{fields['min'] % 100:02d}".encode()
        elif spec == ord("S"):
            out += f"{fields['sec'] % 100:02d}".encode()
        elif spec == ord("a"):
            out += _DAYS[fields["wday"] % 7].encode()
        elif spec == ord("b"):
            out += _MONTHS[fields["mon"] % 12].encode()
        elif spec == ord("%"):
            out.append(ord("%"))
        elif spec == 0:
            break
        else:
            ctx.set_errno(EINVAL)
            return 0
    if len(out) + 1 > maxsize:
        return 0
    common.write_cstring(ctx, s, bytes(out))
    return len(out)


def _parse_mode(ctx: CallContext, mode: int) -> int:
    first = common.read_byte(ctx, mode)
    letter = chr(first) if first else ""
    if letter not in ("r", "w", "a"):
        table = _mode_table_base(ctx)
        ctx.mem.load(table + first * 8, 8)
        ctx.set_errno(EINVAL)
        raise _ModeRejected()
    flags = {"r": READ, "w": WRITE | CREATE | TRUNC, "a": WRITE | CREATE | APPEND}[letter]
    cursor = mode + 1
    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        if byte == ord("+"):
            flags |= READ | WRITE
        cursor += 1
    return flags


def libc_fopen(ctx: CallContext, path: int, mode: int) -> int:
    pathname = common.read_cstring(ctx, path).decode("latin-1")
    try:
        flags = _parse_mode(ctx, mode)
    except _ModeRejected:
        return NULL
    try:
        fd = ctx.kernel.open(pathname, flags)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return NULL
    return alloc_file(ctx, fd, bool(flags & READ), bool(flags & WRITE))


def libc_freopen(ctx: CallContext, path: int, mode: int, fp: int) -> int:
    if path == NULL:
        ctx.set_errno(EINVAL)
        ctx.mem.load_u32(fp + OFF_MAGIC)
        return fp
    pathname = common.read_cstring(ctx, path).decode("latin-1")
    try:
        flags = _parse_mode(ctx, mode)
    except _ModeRejected:
        return NULL
    old_fd = file_fd(ctx, fp)
    try:
        ctx.kernel.close(old_fd)
    except KernelError:
        pass
    try:
        fd = ctx.kernel.open(pathname, flags)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return NULL
    ctx.mem.store_i32(fp + OFF_FD, fd)
    new_flags = (FLAG_READ if flags & READ else 0) | (FLAG_WRITE if flags & WRITE else 0)
    ctx.mem.store_u32(fp + OFF_FLAGS, new_flags)
    return fp


def _format(ctx: CallContext, fmt: int, args: tuple) -> bytes:
    out = bytearray()
    cursor = fmt
    arg_index = 0

    def next_arg() -> int:
        nonlocal arg_index
        value = args[arg_index] if arg_index < len(args) else INVALID_POINTER
        arg_index += 1
        return value

    def padded(piece: bytes, width: int) -> bytes:
        if width <= len(piece):
            return piece
        ctx.account(width - len(piece))
        return b" " * (width - len(piece)) + piece

    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        cursor += 1
        if byte != ord("%"):
            out.append(byte)
            continue
        spec = common.read_byte(ctx, cursor)
        cursor += 1
        width = 0
        while ord("0") <= spec <= ord("9"):
            width = width * 10 + (spec - ord("0"))
            spec = common.read_byte(ctx, cursor)
            cursor += 1
        if spec == ord("%"):
            out.append(ord("%"))
        elif spec == ord("s"):
            out += padded(common.read_cstring(ctx, next_arg()), width)
        elif spec in (ord("d"), ord("i")):
            out += padded(str(common.to_int64(next_arg())).encode(), width)
        elif spec == ord("u"):
            out += padded(str(common.to_uint64(next_arg())).encode(), width)
        elif spec == ord("x"):
            out += padded(format(common.to_uint64(next_arg()), "x").encode(), width)
        elif spec == ord("c"):
            out += padded(bytes([next_arg() & 0xFF]), width)
        elif spec == ord("n"):
            ctx.mem.store_i32(next_arg(), len(out))
        elif spec == 0:
            break
        else:
            out.append(ord("%"))
            if width:
                out += str(width).encode()
            out.append(spec)
    return bytes(out)


def libc_fprintf(ctx: CallContext, fp: int, fmt: int, *args: int) -> int:
    payload = _format(ctx, fmt, args)
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    try:
        ctx.kernel.write(fd, payload)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return -1
    return len(payload)


def libc_fscanf(ctx: CallContext, fp: int, fmt: int, *args: int) -> int:
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    arg_index = 0
    converted = 0
    cursor = fmt

    def next_arg() -> int:
        nonlocal arg_index
        value = args[arg_index] if arg_index < len(args) else INVALID_POINTER
        arg_index += 1
        return value

    def read_token() -> bytes:
        token = bytearray()
        while True:
            try:
                data = ctx.kernel.read(fd, 1)
            except KernelError as err:
                ctx.set_errno(err.errno)
                return bytes(token)
            if not data or data[0] in b" \t\n":
                break
            token += data
            ctx.step()
        return bytes(token)

    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            break
        cursor += 1
        if byte != ord("%"):
            continue
        spec = common.read_byte(ctx, cursor)
        cursor += 1
        token = read_token()
        if not token:
            break
        if spec == ord("d"):
            try:
                value = int(token)
            except ValueError:
                break
            ctx.mem.store_i32(next_arg(), value)
            converted += 1
        elif spec == ord("s"):
            common.write_cstring(ctx, next_arg(), token)
            converted += 1
        else:
            break
    return converted if converted else EOF


def libc_qsort(ctx: CallContext, base: int, nmemb: int, size: int, compar: int) -> None:
    if nmemb == 0 or size == 0:
        return
    elements = [ctx.mem.load(base + i * size, size) for i in range(nmemb)]
    ctx.step(nmemb * size)
    scratch = ctx.heap.malloc(2 * size)

    def compare(a: bytes, b: bytes) -> int:
        ctx.mem.store(scratch, a)
        ctx.mem.store(scratch + size, b)
        return call_funcptr(ctx, compar, scratch, scratch + size)

    try:
        elements.sort(key=functools.cmp_to_key(compare))
    finally:
        ctx.heap.free(scratch)
    for index, payload in enumerate(elements):
        ctx.mem.store(base + index * size, payload)
    ctx.step(nmemb * size)


#: model name -> reference, for the models whose reads went bulk.
REFERENCE_MODELS = {
    "strftime": libc_strftime,
    "fopen": libc_fopen,
    "freopen": libc_freopen,
    "fprintf": libc_fprintf,
    "fscanf": libc_fscanf,
    "qsort": libc_qsort,
}
