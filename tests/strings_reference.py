"""Reference per-byte models of the hot string.h loops.

These are the seed implementations of the functions
:mod:`repro.libc.strings` now serves through bulk slice scans: one
``read_byte``/``write_byte`` per simulated byte, every byte paying a
region lookup, a bounds/protection check and a watchdog step.  They
define the observable semantics the fast paths must reproduce bit for
bit — outcome status, return value, fault address, memory mutations,
``strtok`` save state and the exact step count (including the
Hang-before-fault ordering at the step budget).

``test_strings_equivalence.py`` proves the equivalence across
seeded scenarios and across every step-budget cutoff;
``benchmarks/test_bench_injector_plan.py`` runs whole injection
campaigns against these models as the measured baseline.
"""

from __future__ import annotations

from repro.libc import common
from repro.memory import NULL
from repro.sandbox.context import CallContext


def libc_strcpy(ctx: CallContext, dst: int, src: int) -> int:
    cursor = 0
    while True:
        byte = common.read_byte(ctx, src + cursor)
        common.write_byte(ctx, dst + cursor, byte)
        if byte == 0:
            return dst
        cursor += 1


def libc_strncpy(ctx: CallContext, dst: int, src: int, n: int) -> int:
    cursor = 0
    terminated = False
    while cursor < n:
        if terminated:
            common.write_byte(ctx, dst + cursor, 0)
        else:
            byte = common.read_byte(ctx, src + cursor)
            common.write_byte(ctx, dst + cursor, byte)
            terminated = byte == 0
        cursor += 1
    return dst


def libc_strcat(ctx: CallContext, dst: int, src: int) -> int:
    end = dst
    while common.read_byte(ctx, end) != 0:
        end += 1
    cursor = 0
    while True:
        byte = common.read_byte(ctx, src + cursor)
        common.write_byte(ctx, end + cursor, byte)
        if byte == 0:
            return dst
        cursor += 1


def libc_strncat(ctx: CallContext, dst: int, src: int, n: int) -> int:
    end = dst
    while common.read_byte(ctx, end) != 0:
        end += 1
    copied = 0
    while copied < n:
        byte = common.read_byte(ctx, src + copied)
        if byte == 0:
            break
        common.write_byte(ctx, end + copied, byte)
        copied += 1
    common.write_byte(ctx, end + copied, 0)
    return dst


def libc_strcmp(ctx: CallContext, a: int, b: int) -> int:
    cursor = 0
    while True:
        byte_a = common.read_byte(ctx, a + cursor)
        byte_b = common.read_byte(ctx, b + cursor)
        if byte_a != byte_b:
            return 1 if byte_a > byte_b else -1
        if byte_a == 0:
            return 0
        cursor += 1


def libc_strncmp(ctx: CallContext, a: int, b: int, n: int) -> int:
    for cursor in range(n):
        byte_a = common.read_byte(ctx, a + cursor)
        byte_b = common.read_byte(ctx, b + cursor)
        if byte_a != byte_b:
            return 1 if byte_a > byte_b else -1
        if byte_a == 0:
            return 0
    return 0


def libc_strlen(ctx: CallContext, s: int) -> int:
    length = 0
    while common.read_byte(ctx, s + length) != 0:
        length += 1
    return length


def libc_strchr(ctx: CallContext, s: int, c: int) -> int:
    target = c & 0xFF
    cursor = s
    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == target:
            return cursor
        if byte == 0:
            return NULL
        cursor += 1


def libc_strrchr(ctx: CallContext, s: int, c: int) -> int:
    target = c & 0xFF
    found = NULL
    cursor = s
    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == target:
            found = cursor
        if byte == 0:
            return found
        cursor += 1


def libc_strspn(ctx: CallContext, s: int, accept: int) -> int:
    accept_set = set(common.read_cstring(ctx, accept))
    count = 0
    while True:
        byte = common.read_byte(ctx, s + count)
        if byte == 0 or byte not in accept_set:
            return count
        count += 1


def libc_strcspn(ctx: CallContext, s: int, reject: int) -> int:
    reject_set = set(common.read_cstring(ctx, reject))
    count = 0
    while True:
        byte = common.read_byte(ctx, s + count)
        if byte == 0 or byte in reject_set:
            return count
        count += 1


def libc_strpbrk(ctx: CallContext, s: int, accept: int) -> int:
    accept_set = set(common.read_cstring(ctx, accept))
    cursor = s
    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            return NULL
        if byte in accept_set:
            return cursor
        cursor += 1


def libc_strtok(ctx: CallContext, s: int, delim: int) -> int:
    delim_set = set(common.read_cstring(ctx, delim))
    cursor = s if s != NULL else ctx.runtime.strtok_state
    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            ctx.runtime.strtok_state = cursor
            return NULL
        if byte not in delim_set:
            break
        cursor += 1
    token_start = cursor
    while True:
        byte = common.read_byte(ctx, cursor)
        if byte == 0:
            ctx.runtime.strtok_state = cursor
            return token_start
        if byte in delim_set:
            common.write_byte(ctx, cursor, 0)
            ctx.runtime.strtok_state = cursor + 1
            return token_start
        cursor += 1


def libc_memcmp(ctx: CallContext, a: int, b: int, n: int) -> int:
    for cursor in range(n):
        byte_a = common.read_byte(ctx, a + cursor)
        byte_b = common.read_byte(ctx, b + cursor)
        if byte_a != byte_b:
            return 1 if byte_a > byte_b else -1
    return 0


def libc_memchr(ctx: CallContext, s: int, c: int, n: int) -> int:
    target = c & 0xFF
    for cursor in range(n):
        if common.read_byte(ctx, s + cursor) == target:
            return s + cursor
    return NULL


#: Fast model name -> reference model, for benches and equivalence
#: tests that pin the catalog back to the per-byte baseline.
REFERENCE_MODELS = {
    "strcpy": libc_strcpy,
    "strncpy": libc_strncpy,
    "strcat": libc_strcat,
    "strncat": libc_strncat,
    "strcmp": libc_strcmp,
    "strncmp": libc_strncmp,
    "strlen": libc_strlen,
    "strchr": libc_strchr,
    "strrchr": libc_strrchr,
    "strspn": libc_strspn,
    "strcspn": libc_strcspn,
    "strpbrk": libc_strpbrk,
    "strtok": libc_strtok,
    "memcmp": libc_memcmp,
    "memchr": libc_memchr,
}
