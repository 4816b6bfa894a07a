"""Simulated stdio: the FILE structure and its functions.

The FILE structure is materialized in simulated memory exactly the way
glibc's ``struct _IO_FILE`` is: a heap block holding a magic word, a
pointer to a separately allocated I/O buffer, the file descriptor and
flag words.  Crucially, the models *trust* the structure the way glibc
does — they dereference the buffer pointer and use the fd field without
validation.  A pointer to garbage therefore crashes inside the model
(buffer dereference or invalid free), while a structurally valid FILE
with a dead descriptor fails gracefully with ``EBADF`` — reproducing
both failure modes Ballista exposes.

Layout (within ``FILE_SIZE`` = 216 bytes):

====== ======================================================
offset field
====== ======================================================
0      u32 magic (``0xFBAD2084``)
8      u64 buffer base pointer (heap block)
16     u64 buffer end pointer
32     i32 file descriptor
36     u32 flags (1=readable, 2=writable, 4=eof, 8=error)
40     i32 ungetc slot (-1 = empty)
====== ======================================================
"""

from __future__ import annotations

from repro.libc import common
from repro.libc.common import EOF
from repro.libc.errno_codes import EBADF, EINVAL, ENOTTY
from repro.libc.kernel import APPEND, CREATE, KernelError, READ, TRUNC, WRITE
from repro.memory import NULL
from repro.sandbox.context import CallContext
from repro.typelattice.registry import FILE_SIZE

FILE_MAGIC = 0xFBAD2084
OFF_MAGIC = 0
OFF_BUF = 8
OFF_BUF_END = 16
OFF_FD = 32
OFF_FLAGS = 36
OFF_UNGET = 40

FLAG_READ = 1
FLAG_WRITE = 2
FLAG_EOF = 4
FLAG_ERR = 8

BUFFER_SIZE = 128

#: The simulated libc's fopen mode jump table: 3 entries (r, w, a).
#: An invalid first mode character indexes far outside it — the
#: mechanism behind "fopen and freopen crash when the mode string is
#: invalid" (paper section 6).
_MODE_TABLE_SLOTS = 3


class _ModeRejected(Exception):
    """Internal: an invalid mode byte landed inside the jump table and
    dispatched to the graceful-EINVAL stub."""


def _mode_table_base(ctx: CallContext) -> int:
    """Map (once per runtime) and return the mode jump table.

    The base lives on the runtime itself (like ``ctype_table_base``)
    so forked children inherit it with their copy of the region.  A
    module-level cache keyed by ``id(runtime)`` is not sound here:
    per-call runtimes are garbage-collected and a later fork can
    reuse the id, making the jump-table probe — and therefore fault
    addresses and blame attribution — depend on allocator reuse.
    """
    base = ctx.runtime.fopen_mode_table_base
    if base is not None and ctx.mem.region_at(base) is not None:
        return base
    region = ctx.mem.map_region(_MODE_TABLE_SLOTS * 8, label="fopen mode table")
    ctx.runtime.fopen_mode_table_base = region.base
    return region.base


def alloc_file(ctx: CallContext, fd: int, readable: bool, writable: bool) -> int:
    """Allocate and initialize a FILE structure plus its I/O buffer."""
    fp = ctx.heap.malloc(FILE_SIZE)
    buf = ctx.heap.malloc(BUFFER_SIZE)
    ctx.mem.store_u32(fp + OFF_MAGIC, FILE_MAGIC)
    ctx.mem.store_u64(fp + OFF_BUF, buf)
    ctx.mem.store_u64(fp + OFF_BUF_END, buf + BUFFER_SIZE)
    ctx.mem.store_i32(fp + OFF_FD, fd)
    flags = (FLAG_READ if readable else 0) | (FLAG_WRITE if writable else 0)
    ctx.mem.store_u32(fp + OFF_FLAGS, flags)
    ctx.mem.store_i32(fp + OFF_UNGET, -1)
    return fp


def file_fd(ctx: CallContext, fp: int) -> int:
    """Load the descriptor field — an unchecked memory read."""
    return ctx.mem.load_i32(fp + OFF_FD)


def touch_buffer(ctx: CallContext, fp: int) -> int:
    """Dereference the FILE's buffer pointer, as real stdio does on
    every buffered operation.  This is where corrupted FILE structures
    crash even though the FILE block itself is accessible memory."""
    buf = ctx.mem.load_u64(fp + OFF_BUF)
    ctx.mem.load(buf, 1)
    return buf


def _parse_mode(ctx: CallContext, mode: int) -> int:
    """Parse an fopen mode string into kernel open flags.

    The first character indexes the simulated jump table, so invalid
    mode content segfaults (matching the paper's observation) while a
    valid prefix with trailing modifiers parses leniently.
    """
    first = common.read_byte(ctx, mode)
    letter = chr(first) if first else ""
    if letter not in ("r", "w", "a"):
        # Unchecked jump-table lookup: most invalid mode bytes index
        # far outside the 3-slot table and fault; the few that land
        # inside it dispatch to the EINVAL stub, so a handful of
        # invalid modes are rejected gracefully instead of crashing.
        table = _mode_table_base(ctx)
        ctx.mem.load(table + first * 8, 8)
        ctx.set_errno(EINVAL)
        raise _ModeRejected()
    flags = {"r": READ, "w": WRITE | CREATE | TRUNC, "a": WRITE | CREATE | APPEND}[letter]
    if b"+" in common.read_cstring(ctx, mode + 1):
        flags |= READ | WRITE
    return flags


def libc_fopen(ctx: CallContext, path: int, mode: int) -> int:
    """``FILE *fopen(const char *path, const char *mode)``"""
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
    """``FILE *freopen(const char *path, const char *mode, FILE *fp)``

    Sets errno *inconsistently*: with a NULL path (the standard way to
    change a stream's mode) it sets EINVAL yet returns the stream —
    one of the paper's two inconsistent-errno functions (Table 1).
    """
    if path == NULL:
        ctx.set_errno(EINVAL)
        ctx.mem.load_u32(fp + OFF_MAGIC)  # still dereferences the stream
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
        pass  # glibc ignores close failures in freopen
    try:
        fd = ctx.kernel.open(pathname, flags)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return NULL
    ctx.mem.store_i32(fp + OFF_FD, fd)
    new_flags = (FLAG_READ if flags & READ else 0) | (FLAG_WRITE if flags & WRITE else 0)
    ctx.mem.store_u32(fp + OFF_FLAGS, new_flags)
    return fp


def libc_fdopen(ctx: CallContext, fd: int, mode: int) -> int:
    """``FILE *fdopen(int fd, const char *mode)``

    The second inconsistent-errno function: for a terminal descriptor
    it spuriously sets ENOTTY while still returning a valid stream.
    """
    try:
        flags = _parse_mode(ctx, mode)
    except _ModeRejected:
        return NULL
    state = ctx.kernel.fd_mode(fd)
    if state is None:
        ctx.set_errno(EBADF)
        return NULL
    try:
        if ctx.kernel.isatty(fd):
            ctx.set_errno(ENOTTY)
    except KernelError:
        pass
    return alloc_file(ctx, fd, bool(flags & READ), bool(flags & WRITE))


def libc_fclose(ctx: CallContext, fp: int) -> int:
    """``int fclose(FILE *fp)`` — frees the buffer and the stream,
    trusting both pointers (garbage streams crash in ``free``)."""
    buf = ctx.mem.load_u64(fp + OFF_BUF)
    fd = file_fd(ctx, fp)
    ctx.heap.free(buf)
    ctx.heap.free(fp)
    try:
        ctx.kernel.close(fd)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return EOF
    return 0


def libc_fflush(ctx: CallContext, fp: int) -> int:
    """``int fflush(FILE *fp)``

    ``fflush(NULL)`` flushes every stream and succeeds.  On a write
    failure it returns EOF but — like the glibc build the paper
    measured — *fails to set errno*, making it the one function in
    the no-error-code-found class that is supposed to set it.
    """
    if fp == NULL:
        return 0
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    if ctx.kernel.fd_mode(fd) is None:
        return EOF  # errno deliberately not set (paper section 6)
    return 0


def libc_fread(ctx: CallContext, ptr: int, size: int, nmemb: int, fp: int) -> int:
    """``size_t fread(void *ptr, size_t size, size_t nmemb, FILE *fp)``"""
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    total = size * nmemb
    if total == 0:
        return 0
    try:
        data = ctx.kernel.read(fd, total)
    except KernelError as err:
        ctx.set_errno(err.errno)
        ctx.mem.store_u32(fp + OFF_FLAGS, ctx.mem.load_u32(fp + OFF_FLAGS) | FLAG_ERR)
        return 0
    ctx.mem.store(ptr, data)
    ctx.step(len(data))
    if len(data) < total:
        ctx.mem.store_u32(fp + OFF_FLAGS, ctx.mem.load_u32(fp + OFF_FLAGS) | FLAG_EOF)
    return len(data) // size if size else 0


def libc_fwrite(ctx: CallContext, ptr: int, size: int, nmemb: int, fp: int) -> int:
    """``size_t fwrite(const void *ptr, size_t size, size_t nmemb, FILE *fp)``"""
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    total = size * nmemb
    if total == 0:
        return 0
    payload = ctx.mem.load(ptr, total)
    ctx.step(total)
    try:
        ctx.kernel.write(fd, payload)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return 0
    return nmemb


def libc_fgets(ctx: CallContext, s: int, n: int, fp: int) -> int:
    """``char *fgets(char *s, int n, FILE *fp)``"""
    touch_buffer(ctx, fp)
    if n <= 0:
        ctx.set_errno(EINVAL)
        return NULL
    fd = file_fd(ctx, fp)
    if n == 1:
        # C semantics: room only for the terminator — written and
        # returned without any read.
        common.write_byte(ctx, s, 0)
        return s
    written = 0
    cursor = s
    while written < n - 1:
        try:
            data = ctx.kernel.read(fd, 1)
        except KernelError as err:
            ctx.set_errno(err.errno)
            return NULL
        if not data:
            break
        common.write_byte(ctx, cursor, data[0])
        cursor += 1
        written += 1
        if data[0] == ord("\n"):
            break
    if written == 0:
        return NULL  # EOF before any character
    common.write_byte(ctx, cursor, 0)
    return s


def libc_fputs(ctx: CallContext, s: int, fp: int) -> int:
    """``int fputs(const char *s, FILE *fp)``"""
    payload = common.read_cstring(ctx, s)
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    try:
        ctx.kernel.write(fd, payload)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return EOF
    return len(payload)


def libc_fgetc(ctx: CallContext, fp: int) -> int:
    """``int fgetc(FILE *fp)``"""
    touch_buffer(ctx, fp)
    unget = ctx.mem.load_i32(fp + OFF_UNGET)
    if unget != -1:
        ctx.mem.store_i32(fp + OFF_UNGET, -1)
        return unget
    fd = file_fd(ctx, fp)
    try:
        data = ctx.kernel.read(fd, 1)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return EOF
    if not data:
        ctx.mem.store_u32(fp + OFF_FLAGS, ctx.mem.load_u32(fp + OFF_FLAGS) | FLAG_EOF)
        return EOF
    return data[0]


def libc_fputc(ctx: CallContext, c: int, fp: int) -> int:
    """``int fputc(int c, FILE *fp)``"""
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    try:
        ctx.kernel.write(fd, bytes([c & 0xFF]))
    except KernelError as err:
        ctx.set_errno(err.errno)
        return EOF
    return c & 0xFF


def libc_ungetc(ctx: CallContext, c: int, fp: int) -> int:
    """``int ungetc(int c, FILE *fp)`` — EOF pushback is rejected with
    EINVAL; the slot write needs the stream to be writable memory."""
    if c == EOF:
        ctx.set_errno(EINVAL)
        return EOF
    ctx.mem.load_u32(fp + OFF_MAGIC)
    ctx.mem.store_i32(fp + OFF_UNGET, c & 0xFF)
    return c & 0xFF


def libc_fseek(ctx: CallContext, fp: int, offset: int, whence: int) -> int:
    """``int fseek(FILE *fp, long offset, int whence)``"""
    touch_buffer(ctx, fp)
    fd = file_fd(ctx, fp)
    try:
        ctx.kernel.seek(fd, offset, whence)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return -1
    flags = ctx.mem.load_u32(fp + OFF_FLAGS)
    ctx.mem.store_u32(fp + OFF_FLAGS, flags & ~FLAG_EOF)
    return 0


def libc_ftell(ctx: CallContext, fp: int) -> int:
    """``long ftell(FILE *fp)``"""
    fd = file_fd(ctx, fp)
    ctx.mem.load_u64(fp + OFF_BUF)
    try:
        return ctx.kernel.seek(fd, 0, 1)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return -1


def libc_rewind(ctx: CallContext, fp: int) -> None:
    """``void rewind(FILE *fp)``"""
    libc_fseek(ctx, fp, 0, 0)


def libc_setbuf(ctx: CallContext, fp: int, buf: int) -> None:
    """``void setbuf(FILE *fp, char *buf)`` — stores the caller's
    buffer pointer without validation (a classic latent hazard)."""
    ctx.mem.load_u32(fp + OFF_MAGIC)
    if buf == NULL:
        return
    ctx.mem.store_u64(fp + OFF_BUF, buf)
    ctx.mem.store_u64(fp + OFF_BUF_END, buf + BUFFER_SIZE)


def libc_setvbuf(ctx: CallContext, fp: int, buf: int, mode: int, size: int) -> int:
    """``int setvbuf(FILE *fp, char *buf, int mode, size_t size)``"""
    ctx.mem.load_u32(fp + OFF_MAGIC)
    if mode not in (0, 1, 2):  # _IOFBF, _IOLBF, _IONBF
        ctx.set_errno(EINVAL)
        return -1
    if buf != NULL:
        ctx.mem.store_u64(fp + OFF_BUF, buf)
        ctx.mem.store_u64(fp + OFF_BUF_END, buf + size)
    return 0


def libc_feof(ctx: CallContext, fp: int) -> int:
    """``int feof(FILE *fp)``"""
    return 1 if ctx.mem.load_u32(fp + OFF_FLAGS) & FLAG_EOF else 0


def libc_ferror(ctx: CallContext, fp: int) -> int:
    """``int ferror(FILE *fp)``"""
    return 1 if ctx.mem.load_u32(fp + OFF_FLAGS) & FLAG_ERR else 0


def libc_clearerr(ctx: CallContext, fp: int) -> None:
    """``void clearerr(FILE *fp)``"""
    flags = ctx.mem.load_u32(fp + OFF_FLAGS)
    ctx.mem.store_u32(fp + OFF_FLAGS, flags & ~(FLAG_EOF | FLAG_ERR))


def libc_fileno(ctx: CallContext, fp: int) -> int:
    """``int fileno(FILE *fp)`` — validates the descriptor against the
    kernel (as musl does), giving a consistent EBADF error path."""
    fd = file_fd(ctx, fp)
    if ctx.kernel.fd_mode(fd) is None:
        ctx.set_errno(EBADF)
        return -1
    return fd


def libc_puts(ctx: CallContext, s: int) -> int:
    """``int puts(const char *s)``"""
    payload = common.read_cstring(ctx, s)
    try:
        ctx.kernel.write(1, payload + b"\n")
    except KernelError:
        return EOF
    return len(payload) + 1


def libc_tmpfile(ctx: CallContext) -> int:
    """``FILE *tmpfile(void)``"""
    ctx.runtime.tmp_counter += 1
    path = f"/tmp/tmpf{ctx.runtime.tmp_counter:05d}"
    try:
        fd = ctx.kernel.open(path, READ | WRITE | CREATE | TRUNC)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return NULL
    return alloc_file(ctx, fd, True, True)


def libc_tmpnam(ctx: CallContext, s: int) -> int:
    """``char *tmpnam(char *s)`` — writes up to L_tmpnam (20) bytes
    into the caller's buffer, or uses the static buffer for NULL."""
    ctx.runtime.tmp_counter += 1
    name = f"/tmp/tmp{ctx.runtime.tmp_counter:08d}".encode()
    target = s if s != NULL else ctx.runtime.tmpnam_buffer
    common.write_cstring(ctx, target, name)
    return target


def libc_remove(ctx: CallContext, path: int) -> int:
    """``int remove(const char *path)``"""
    pathname = common.read_cstring(ctx, path).decode("latin-1")
    try:
        ctx.kernel.unlink(pathname)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return -1
    return 0


def libc_rename(ctx: CallContext, old: int, new: int) -> int:
    """``int rename(const char *old, const char *new)``"""
    old_name = common.read_cstring(ctx, old).decode("latin-1")
    new_name = common.read_cstring(ctx, new).decode("latin-1")
    try:
        ctx.kernel.rename(old_name, new_name)
    except KernelError as err:
        ctx.set_errno(err.errno)
        return -1
    return 0


def _format(ctx: CallContext, fmt: int, args: tuple) -> bytes:
    """Minimal printf engine: %s %d %u %c %x %% and the dangerous %n,
    with field widths.

    A %s whose argument is missing consumes an invalid pointer —
    exactly how a real varargs printf walks off the register save
    area — so under-supplied format strings crash realistically.
    Width padding is accounted byte-for-byte against the step budget,
    so a width bomb like ``%999999999d`` hangs instead of silently
    producing gigabytes — the behaviour the injector's format fault
    scenarios pin down.
    """
    from repro.memory import INVALID_POINTER

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
        # Each run is read after the previous conversion ran, so a %n
        # store into the format is seen, as it is byte by byte.
        literal, end = common.read_until(ctx, cursor, ord("%"))
        out += literal
        if end == 0:
            break
        cursor += len(literal) + 1
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
            # Writes the byte count through the next pointer argument:
            # the format-string attack vector the wrapper's
            # FORMAT_STRING check exists to stop.
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
    """``int fprintf(FILE *fp, const char *format, ...)``"""
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
    """``int fscanf(FILE *fp, const char *format, ...)`` — supports
    %d/%s conversions, writing through the pointer arguments."""
    from repro.memory import INVALID_POINTER

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
        literal, end = common.read_until(ctx, cursor, ord("%"))
        if end == 0:
            break
        cursor += len(literal) + 1
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
