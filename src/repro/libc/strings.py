"""Simulated string.h: byte-exact models of the classic unsafe string
functions.

None of these validate their arguments — like their glibc originals
they run until a NUL terminator or a count is exhausted, so invalid
pointers, unterminated strings and undersized destination buffers
crash with a fault at the precise overrun address.  None of them ever
set errno (they form the bulk of Table 1's "no error return code
found" class).

The scanning loops are executed as bulk slice operations over the
address space (:meth:`~repro.memory.AddressSpace.scan_cstring` /
``scan_window`` / ``copy_in_cstring``) while reproducing the per-byte
reference semantics bit for bit: the same return values, the same
memory mutations (a faulting copy leaves exactly the prefix the
per-byte loop wrote), the same fault addresses, and the same watchdog
step counts — including the Hang-before-fault ordering when the step
budget runs out mid-loop.  The original per-byte loops are preserved
in ``tests/strings_reference.py`` and the equivalence is enforced by
``tests/test_strings_equivalence.py`` over every budget cutoff.

The step arithmetic below leans on one invariant of the reference
loops: every simulated byte access is one ``step()`` followed by one
load/store, so the k-th access is "event k" and a loop's outcome is
fully determined by the index of its first failing event.  Each model
computes the event index of every candidate terminal (read fault,
write fault, successful return), charges the smallest via
``ctx.account`` (which raises :class:`Hang` first when the budget cuts
in earlier), and raises or returns accordingly.
"""

from __future__ import annotations

from repro.libc import common
from repro.libc.errno_codes import ENOMEM
from repro.memory import NULL
from repro.memory.faults import SegmentationFault
from repro.sandbox.context import CallContext


def _charge(ctx: CallContext, events: int, fault: SegmentationFault | None = None):
    """Charge ``events`` watchdog steps, then raise ``fault`` if any.

    ``ctx.account`` reproduces per-byte stepping exactly: if the budget
    is exhausted before ``events`` accrue, it raises :class:`Hang` with
    ``steps == budget + 1`` — pre-empting the fault, just as the
    reference loop's ``step()`` precedes the faulting access.
    """
    ctx.account(events)
    if fault is not None:
        raise fault


def _membership_table(members: bytes) -> bytes:
    """A 256-entry translation table: 1 for bytes in ``members``."""
    table = bytearray(256)
    for byte in members:
        table[byte] = 1
    return bytes(table)


def _first_mismatch(a: bytes, b: bytes) -> int:
    """Index of the first differing byte of two equal-length strings
    known to differ, found via one big-endian integer XOR."""
    m = len(a)
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return m - (x.bit_length() + 7) // 8


def _copy_cstring(ctx: CallContext, dst: int, src: int) -> None:
    """The strcpy inner loop: interleaved read (event ``2k+1``) and
    write (event ``2k+2``) per byte, through the terminating NUL."""
    payload, terminated, read_fault = ctx.mem.scan_cstring(src)
    length = len(payload)
    attempt = payload + b"\x00" if terminated else payload
    # A write the reference never reached (hang cuts in first) must not
    # land: write k happens at event 2k+2, so at most remaining//2 do.
    cap = max(0, (ctx.step_budget - ctx.steps) // 2)
    written, write_fault = ctx.mem.copy_in_cstring(
        dst, attempt if cap >= len(attempt) else attempt[:cap]
    )
    if write_fault is not None and (terminated or 2 * written + 2 < 2 * length + 1):
        _charge(ctx, 2 * written + 2, write_fault)
    if not terminated:
        _charge(ctx, 2 * length + 1, read_fault)
    _charge(ctx, 2 * len(attempt))


def libc_strcpy(ctx: CallContext, dst: int, src: int) -> int:
    """``char *strcpy(char *dst, const char *src)``"""
    _copy_cstring(ctx, dst, src)
    return dst


def libc_strncpy(ctx: CallContext, dst: int, src: int, n: int) -> int:
    """``char *strncpy(char *dst, const char *src, size_t n)`` —
    always writes exactly ``n`` bytes (NUL padding), the behaviour
    that makes a huge ``n`` run off any destination."""
    if n <= 0:
        return dst
    payload, terminated, read_fault = ctx.mem.scan_cstring(src, n)
    length = len(payload)
    if terminated:
        reads = length + 1  # positions 0..length read (incl. the NUL)
        intended_length = n  # payload, its NUL, then zero padding
    elif length == n:
        reads = n  # count exhausted before a NUL or fault
        intended_length = n
    else:
        reads = length + 1  # the read at position `length` faults
        intended_length = length

    def write_event(k: int) -> int:
        # Positions below `reads` pair a read with their write; the
        # padding region beyond is write-only, one event per byte.
        return 2 * k + 2 if k < reads else reads + k + 1

    remaining = ctx.step_budget - ctx.steps
    cap = min(reads, max(0, remaining // 2))
    if cap == reads and intended_length > reads:
        cap += min(intended_length - reads, max(0, remaining - 2 * reads))
    bound = min(intended_length, cap)
    intended = payload[:bound] + b"\x00" * (bound - min(bound, length))
    written, write_fault = ctx.mem.copy_in_cstring(dst, intended)
    if write_fault is not None and (read_fault is None or written < length):
        _charge(ctx, write_event(written), write_fault)
    if read_fault is not None:
        _charge(ctx, 2 * length + 1, read_fault)
    _charge(ctx, write_event(n - 1))
    return dst


def libc_strcat(ctx: CallContext, dst: int, src: int) -> int:
    """``char *strcat(char *dst, const char *src)``"""
    head, _, head_fault = ctx.mem.scan_cstring(dst)
    _charge(ctx, len(head) + 1, head_fault)
    _copy_cstring(ctx, dst + len(head), src)
    return dst


def libc_strncat(ctx: CallContext, dst: int, src: int, n: int) -> int:
    """``char *strncat(char *dst, const char *src, size_t n)``"""
    head, _, head_fault = ctx.mem.scan_cstring(dst)
    _charge(ctx, len(head) + 1, head_fault)
    end = dst + len(head)
    if n <= 0:
        common.write_byte(ctx, end, 0)
        return dst
    payload, terminated, read_fault = ctx.mem.scan_cstring(src, n)
    length = len(payload)
    if terminated:
        nul_event = 2 * length + 2  # after reading the source NUL
        intended = payload + b"\x00"
    elif length == n:
        nul_event = 2 * n + 1  # loop left by count, no final read
        intended = payload + b"\x00"
    else:
        nul_event = None  # the read at position `length` faults first
        intended = payload

    remaining = ctx.step_budget - ctx.steps
    cap = min(length, max(0, remaining // 2))
    if cap == length and nul_event is not None and nul_event <= remaining:
        cap = len(intended)
    written, write_fault = ctx.mem.copy_in_cstring(
        end, intended if cap >= len(intended) else intended[:cap]
    )
    if write_fault is not None and (read_fault is None or written < length):
        event = nul_event if written == length else 2 * written + 2
        _charge(ctx, event, write_fault)
    if read_fault is not None:
        _charge(ctx, 2 * length + 1, read_fault)
    _charge(ctx, nul_event)
    return dst


def _compare_scans(ctx, pa, ta, fa, pb, tb, fb, limit=None) -> int:
    """Shared strcmp/strncmp tail over two completed scans; events
    alternate read-a (``2k+1``) and read-b (``2k+2``) per position."""
    la, lb = len(pa), len(pb)
    m = min(la, lb)
    if pa[:m] != pb[:m]:
        d = _first_mismatch(pa[:m], pb[:m])
        _charge(ctx, 2 * d + 2)
        return 1 if pa[d] > pb[d] else -1
    if limit is not None and m == limit:
        _charge(ctx, 2 * limit)
        return 0
    if la < lb:
        if not ta:
            _charge(ctx, 2 * m + 1, fa)
        _charge(ctx, 2 * m + 2)  # a's NUL vs b's non-NUL at position m
        return -1
    if lb < la:
        if not tb:
            _charge(ctx, 2 * m + 2, fb)
        _charge(ctx, 2 * m + 2)
        return 1
    if not ta:
        _charge(ctx, 2 * m + 1, fa)
    if not tb:
        _charge(ctx, 2 * m + 2, fb)
    _charge(ctx, 2 * m + 2)  # both read their NUL
    return 0


def libc_strcmp(ctx: CallContext, a: int, b: int) -> int:
    """``int strcmp(const char *a, const char *b)``"""
    pa, ta, fa = ctx.mem.scan_cstring(a)
    pb, tb, fb = ctx.mem.scan_cstring(b)
    return _compare_scans(ctx, pa, ta, fa, pb, tb, fb)


def libc_strncmp(ctx: CallContext, a: int, b: int, n: int) -> int:
    """``int strncmp(const char *a, const char *b, size_t n)``"""
    if n <= 0:
        return 0
    pa, ta, fa = ctx.mem.scan_cstring(a, n)
    pb, tb, fb = ctx.mem.scan_cstring(b, n)
    return _compare_scans(ctx, pa, ta, fa, pb, tb, fb, limit=n)


def libc_strlen(ctx: CallContext, s: int) -> int:
    """``size_t strlen(const char *s)``"""
    return len(common.read_cstring(ctx, s))


def libc_strchr(ctx: CallContext, s: int, c: int) -> int:
    """``char *strchr(const char *s, int c)``"""
    target = c & 0xFF
    payload, _, fault = ctx.mem.scan_cstring(s)
    index = payload.find(target) if target else -1
    if index >= 0:
        _charge(ctx, index + 1)
        return s + index
    _charge(ctx, len(payload) + 1, fault)
    # The target test precedes the NUL test, so searching for '\0'
    # finds the terminator itself.
    return s + len(payload) if target == 0 else NULL


def libc_strrchr(ctx: CallContext, s: int, c: int) -> int:
    """``char *strrchr(const char *s, int c)`` — always scans to the
    terminator, whatever it finds on the way."""
    target = c & 0xFF
    payload, _, fault = ctx.mem.scan_cstring(s)
    _charge(ctx, len(payload) + 1, fault)
    if target == 0:
        return s + len(payload)
    index = payload.rfind(target)
    return s + index if index >= 0 else NULL


def libc_strstr(ctx: CallContext, haystack: int, needle: int) -> int:
    """``char *strstr(const char *haystack, const char *needle)``"""
    needle_bytes = common.read_cstring(ctx, needle)
    if not needle_bytes:
        return haystack
    hay = common.read_cstring(ctx, haystack)
    index = hay.find(needle_bytes)
    return haystack + index if index >= 0 else NULL


def libc_strspn(ctx: CallContext, s: int, accept: int) -> int:
    """``size_t strspn(const char *s, const char *accept)``"""
    accept_bytes = common.read_cstring(ctx, accept)
    payload, _, fault = ctx.mem.scan_cstring(s)
    stop = payload.translate(_membership_table(accept_bytes)).find(0)
    if stop >= 0:
        _charge(ctx, stop + 1)
        return stop
    _charge(ctx, len(payload) + 1, fault)
    return len(payload)


def libc_strcspn(ctx: CallContext, s: int, reject: int) -> int:
    """``size_t strcspn(const char *s, const char *reject)``"""
    reject_bytes = common.read_cstring(ctx, reject)
    payload, _, fault = ctx.mem.scan_cstring(s)
    stop = payload.translate(_membership_table(reject_bytes)).find(1)
    if stop >= 0:
        _charge(ctx, stop + 1)
        return stop
    _charge(ctx, len(payload) + 1, fault)
    return len(payload)


def libc_strpbrk(ctx: CallContext, s: int, accept: int) -> int:
    """``char *strpbrk(const char *s, const char *accept)``"""
    accept_bytes = common.read_cstring(ctx, accept)
    payload, _, fault = ctx.mem.scan_cstring(s)
    stop = payload.translate(_membership_table(accept_bytes)).find(1)
    if stop >= 0:
        _charge(ctx, stop + 1)
        return s + stop
    _charge(ctx, len(payload) + 1, fault)
    return NULL


def libc_strtok(ctx: CallContext, s: int, delim: int) -> int:
    """``char *strtok(char *s, const char *delim)`` — the stateful
    classic.  With ``s == NULL`` it resumes from the saved pointer; a
    first call with NULL dereferences the NULL save state and crashes,
    exactly like glibc.

    Two reference phases: skip leading delimiters (reads positions
    ``0..start``), then scan the token (re-reads ``start``, so the
    token's first byte is read twice)."""
    delim_bytes = common.read_cstring(ctx, delim)
    cursor = s if s != NULL else ctx.runtime.strtok_state
    payload, _, fault = ctx.mem.scan_cstring(cursor)
    marks = payload.translate(_membership_table(delim_bytes))
    start = marks.find(0)
    if start < 0:  # nothing but delimiters before the NUL (or fault)
        _charge(ctx, len(payload) + 1, fault)
        ctx.runtime.strtok_state = cursor + len(payload)
        return NULL
    end = marks.find(1, start + 1)
    if end < 0:  # token runs to the terminator (or fault)
        _charge(ctx, len(payload) + 2, fault)
        ctx.runtime.strtok_state = cursor + len(payload)
        return cursor + start
    _charge(ctx, end + 2)
    common.write_byte(ctx, cursor + end, 0)
    ctx.runtime.strtok_state = cursor + end + 1
    return cursor + start


def libc_strdup(ctx: CallContext, s: int) -> int:
    """``char *strdup(const char *s)``"""
    payload = common.read_cstring(ctx, s)
    copy = ctx.heap.malloc(len(payload) + 1)
    if copy == NULL:
        ctx.set_errno(ENOMEM)
        return NULL
    common.write_cstring(ctx, copy, payload)
    return copy


def libc_memcpy(ctx: CallContext, dst: int, src: int, n: int) -> int:
    """``void *memcpy(void *dst, const void *src, size_t n)``"""
    common.copy_bytes(ctx, dst, src, n)
    return dst


def libc_memmove(ctx: CallContext, dst: int, src: int, n: int) -> int:
    """``void *memmove(void *dst, const void *src, size_t n)`` —
    overlap-safe but just as unchecked as memcpy."""
    if n == 0:
        return dst
    payload = ctx.mem.load(src, n)
    ctx.step(n)
    ctx.mem.store(dst, payload)
    ctx.step(n)
    return dst


def libc_memset(ctx: CallContext, dst: int, c: int, n: int) -> int:
    """``void *memset(void *dst, int c, size_t n)``"""
    common.fill_bytes(ctx, dst, c, n)
    return dst


def libc_memcmp(ctx: CallContext, a: int, b: int, n: int) -> int:
    """``int memcmp(const void *a, const void *b, size_t n)``"""
    if n <= 0:
        return 0
    pa, fa = ctx.mem.scan_window(a, n)
    pb, fb = ctx.mem.scan_window(b, n)
    la, lb = len(pa), len(pb)
    m = min(la, lb)
    if pa[:m] != pb[:m]:
        d = _first_mismatch(pa[:m], pb[:m])
        _charge(ctx, 2 * d + 2)
        return 1 if pa[d] > pb[d] else -1
    if m == n:
        _charge(ctx, 2 * n)
        return 0
    if la <= lb:
        _charge(ctx, 2 * la + 1, fa)
    _charge(ctx, 2 * lb + 2, fb)
    raise AssertionError("unreachable: a truncated scan carries a fault")


def libc_memchr(ctx: CallContext, s: int, c: int, n: int) -> int:
    """``void *memchr(const void *s, int c, size_t n)``"""
    if n <= 0:
        return NULL
    target = c & 0xFF
    payload, fault = ctx.mem.scan_window(s, n)
    index = payload.find(target)
    if index >= 0:
        _charge(ctx, index + 1)
        return s + index
    if len(payload) == n:
        _charge(ctx, n)
        return NULL
    _charge(ctx, len(payload) + 1, fault)
    raise AssertionError("unreachable: a truncated scan carries a fault")
