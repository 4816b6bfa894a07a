"""Simulated stdlib.h: conversions, allocation, environment, sorting.

The conversion functions parse simulated memory byte-by-byte (invalid
pointers crash); the allocator functions expose the heap's strictness
(``free``/``realloc`` of a non-block crash, as glibc typically does);
``qsort``/``bsearch`` *call through* their comparator argument, so a
non-function pointer takes a simulated NX fault at the jump target.
"""

from __future__ import annotations

import functools

from repro.libc import common
from repro.libc.common import LONG_MAX, LONG_MIN, ULONG_MAX
from repro.libc.errno_codes import EINVAL, ENOMEM, ERANGE
from repro.memory import NULL, AccessKind, Protection, RegionKind, SegmentationFault
from repro.sandbox.context import CallContext

#: Allocation sizes above this are refused with ENOMEM, mirroring a
#: 32-bit-era glibc limit.
MALLOC_LIMIT = 2**31


def call_funcptr(ctx: CallContext, pointer: int, *args: int) -> int:
    """Simulate an indirect call through ``pointer``.

    Registered function pointers dispatch to their Python callables;
    anything else is an attempt to execute a non-code address: the
    instruction fetch faults (data pages are NX), carrying ``pointer``
    as the fault address so attribution works.
    """
    target = ctx.runtime.funcptrs.get(pointer)
    if target is None:
        ctx.mem.load(pointer, 1)  # faults for NULL/unmapped pointers
        raise SegmentationFault(pointer, AccessKind.READ, "jump to non-code address")
    ctx.step(4)
    return target(ctx, *args)


# ----------------------------------------------------------------------
# numeric conversions
# ----------------------------------------------------------------------

def _skip_spaces(ctx: CallContext, cursor: int) -> int:
    while chr(common.read_byte(ctx, cursor)) in " \t\n\r\v\f":
        cursor += 1
    return cursor


def _parse_integer(
    ctx: CallContext, nptr: int, base: int
) -> tuple[int, int, bool]:
    """Shared strtol/strtoul scanner.

    Returns (value, end_address, any_digits).  Faults propagate from
    the byte reads; no range clamping happens here.
    """
    cursor = _skip_spaces(ctx, nptr)
    sign = 1
    byte = common.read_byte(ctx, cursor)
    if byte in (ord("+"), ord("-")):
        sign = -1 if byte == ord("-") else 1
        cursor += 1
    if base == 0:
        if common.read_byte(ctx, cursor) == ord("0"):
            nxt = common.read_byte(ctx, cursor + 1)
            if nxt in (ord("x"), ord("X")):
                base = 16
                cursor += 2
            else:
                base = 8
                cursor += 1
        else:
            base = 10
    elif base == 16 and common.read_byte(ctx, cursor) == ord("0"):
        nxt = common.read_byte(ctx, cursor + 1)
        if nxt in (ord("x"), ord("X")):
            cursor += 2
    value = 0
    digits = False
    start = cursor
    while True:
        byte = common.read_byte(ctx, cursor)
        char = chr(byte).lower()
        if char.isdigit():
            digit = ord(char) - ord("0")
        elif "a" <= char <= "z":
            digit = ord(char) - ord("a") + 10
        else:
            break
        if digit >= base:
            break
        value = value * base + digit
        digits = True
        cursor += 1
    end = cursor if digits else start
    return sign * value, end, digits


def libc_strtol(ctx: CallContext, nptr: int, endptr: int, base: int) -> int:
    """``long strtol(const char *nptr, char **endptr, int base)``

    An unsupported base yields 0 *without* setting errno (like the
    glibc the paper measured: EINVAL for strtol is optional in POSIX),
    so ERANGE/LONG_MAX is the function's one consistent error signal.
    """
    if base != 0 and not 2 <= base <= 36:
        return 0
    value, end, digits = _parse_integer(ctx, nptr, base)
    if endptr != NULL:
        ctx.mem.store_u64(endptr, end if digits else nptr)
    if value > LONG_MAX:
        ctx.set_errno(ERANGE)
        return LONG_MAX
    if value < LONG_MIN:
        ctx.set_errno(ERANGE)
        return LONG_MIN
    return value


def libc_strtoul(ctx: CallContext, nptr: int, endptr: int, base: int) -> int:
    """``unsigned long strtoul(const char *nptr, char **endptr, int base)``"""
    if base != 0 and not 2 <= base <= 36:
        return 0  # no errno, matching strtol
    value, end, digits = _parse_integer(ctx, nptr, base)
    if endptr != NULL:
        ctx.mem.store_u64(endptr, end if digits else nptr)
    magnitude = abs(value)
    if magnitude > ULONG_MAX:
        ctx.set_errno(ERANGE)
        return ULONG_MAX
    return magnitude if value >= 0 else (ULONG_MAX + 1 - magnitude) % (ULONG_MAX + 1)


def libc_strtod(ctx: CallContext, nptr: int, endptr: int) -> float:
    """``double strtod(const char *nptr, char **endptr)``"""
    cursor = _skip_spaces(ctx, nptr)
    text = bytearray()
    probe = cursor
    while True:
        byte = common.read_byte(ctx, probe)
        if chr(byte) not in "+-0123456789.eE":
            break
        text.append(byte)
        probe += 1
    value = 0.0
    end = cursor
    for length in range(len(text), 0, -1):
        try:
            value = float(text[:length].decode())
        except ValueError:
            continue
        end = cursor + length
        break
    if endptr != NULL:
        ctx.mem.store_u64(endptr, end)
    return value


def libc_atoi(ctx: CallContext, nptr: int) -> int:
    """``int atoi(const char *nptr)`` — no errno, ever."""
    value, _, _ = _parse_integer(ctx, nptr, 10)
    return common.to_int32(value)


def libc_atol(ctx: CallContext, nptr: int) -> int:
    """``long atol(const char *nptr)``"""
    value, _, _ = _parse_integer(ctx, nptr, 10)
    return common.to_int64(value)


def libc_atof(ctx: CallContext, nptr: int) -> float:
    """``double atof(const char *nptr)``"""
    return libc_strtod(ctx, nptr, NULL)


# ----------------------------------------------------------------------
# allocation
# ----------------------------------------------------------------------

def libc_malloc(ctx: CallContext, size: int) -> int:
    """``void *malloc(size_t size)`` — never crashes; absurd sizes are
    refused with ENOMEM (one of the nine never-crash functions)."""
    if size > MALLOC_LIMIT:
        ctx.set_errno(ENOMEM)
        return NULL
    ctx.step(8)
    return ctx.heap.malloc(size)


def libc_calloc(ctx: CallContext, count: int, size: int) -> int:
    """``void *calloc(size_t nmemb, size_t size)``"""
    total = count * size
    if total > MALLOC_LIMIT:
        ctx.set_errno(ENOMEM)
        return NULL
    ctx.step(8)
    return ctx.heap.calloc(count, size)


def libc_realloc(ctx: CallContext, pointer: int, size: int) -> int:
    """``void *realloc(void *ptr, size_t size)`` — crashes on a
    pointer that is not a live heap block, as glibc's arena walk
    does."""
    if size > MALLOC_LIMIT:
        ctx.set_errno(ENOMEM)
        return NULL
    ctx.step(8)
    return ctx.heap.realloc(pointer, size)


def libc_free(ctx: CallContext, pointer: int) -> None:
    """``void free(void *ptr)``"""
    ctx.step(2)
    ctx.heap.free(pointer)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def _publish_env_value(ctx: CallContext, name: bytes, value: bytes) -> int:
    """Place (or refresh) the in-memory copy of an environment value
    and return its address — getenv hands out pointers into the
    simulated environment block, like the real environ."""
    cached = ctx.runtime.environment_block.get(name)
    if cached is not None:
        region = ctx.mem.region_at(cached)
        if region is not None and ctx.mem.read_cstring(cached) == value:
            return cached
    region = ctx.mem.map_region(
        len(value) + 1, Protection.RW, RegionKind.STATIC, f"env {name.decode()}"
    )
    ctx.mem.write_cstring(region.base, value)
    ctx.runtime.environment_block[name] = region.base
    return region.base


def libc_getenv(ctx: CallContext, name: int) -> int:
    """``char *getenv(const char *name)``"""
    key = common.read_cstring(ctx, name)
    value = ctx.kernel.getenv(key)
    if value is None:
        return NULL
    return _publish_env_value(ctx, key, value)


def libc_setenv(ctx: CallContext, name: int, value: int, overwrite: int) -> int:
    """``int setenv(const char *name, const char *value, int overwrite)``"""
    key = common.read_cstring(ctx, name)
    val = common.read_cstring(ctx, value)
    if not key or b"=" in key:
        ctx.set_errno(EINVAL)
        return -1
    if not overwrite and ctx.kernel.getenv(key) is not None:
        return 0
    ctx.kernel.setenv(key, val)
    _publish_env_value(ctx, key, val)
    return 0


def libc_putenv(ctx: CallContext, string: int) -> int:
    """``int putenv(char *string)`` — the caller's buffer becomes part
    of the environment (the pointer is retained, a classic hazard)."""
    payload = common.read_cstring(ctx, string)
    if b"=" not in payload:
        ctx.set_errno(EINVAL)
        return -1
    key, _, value = payload.partition(b"=")
    ctx.kernel.setenv(key, value)
    ctx.runtime.environment_block[key] = string + len(key) + 1
    return 0


# ----------------------------------------------------------------------
# sorting and searching
# ----------------------------------------------------------------------

def libc_qsort(ctx: CallContext, base: int, nmemb: int, size: int, compar: int) -> None:
    """``void qsort(void *base, size_t nmemb, size_t size,
    int (*compar)(const void *, const void *))``"""
    if nmemb == 0 or size == 0:
        return
    # Read every element up front — undersized arrays fault here with
    # the overrun address.  The whole elements inside the first
    # element's region load as one slice; the rest load one by one, so
    # the first bad element faults where it would on its own.
    whole = 0
    if size > 0 and ctx.mem.is_readable(base, size):
        whole = min(nmemb, (ctx.mem.region_at(base).end - base) // size)
    block = ctx.mem.load(base, whole * size)
    elements = [block[i * size : (i + 1) * size] for i in range(whole)]
    elements += [ctx.mem.load(base + i * size, size) for i in range(whole, nmemb)]
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


def libc_bsearch(
    ctx: CallContext, key: int, base: int, nmemb: int, size: int, compar: int
) -> int:
    """``void *bsearch(const void *key, const void *base, size_t nmemb,
    size_t size, int (*compar)(const void *, const void *))``"""
    low, high = 0, nmemb
    while low < high:
        mid = (low + high) // 2
        address = base + mid * size
        ctx.mem.load(address, size)
        verdict = call_funcptr(ctx, compar, key, address)
        ctx.step(2)
        if verdict == 0:
            return address
        if verdict < 0:
            high = mid
        else:
            low = mid + 1
    return NULL


# ----------------------------------------------------------------------
# trivial numeric functions (the never-crash set)
# ----------------------------------------------------------------------

def libc_abs(ctx: CallContext, j: int) -> int:
    """``int abs(int j)``"""
    return abs(common.to_int32(j))


def libc_labs(ctx: CallContext, j: int) -> int:
    """``long labs(long j)``"""
    return abs(common.to_int64(j))


def libc_rand(ctx: CallContext) -> int:
    """``int rand(void)`` — glibc's old linear congruential generator."""
    state = (ctx.runtime.rand_state * 1103515245 + 12345) % (2**31)
    ctx.runtime.rand_state = state
    return state


def libc_srand(ctx: CallContext, seed: int) -> None:
    """``void srand(unsigned int seed)``"""
    ctx.runtime.rand_state = seed % (2**32)
