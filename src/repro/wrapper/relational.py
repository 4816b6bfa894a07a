"""Relational buffer checks (paper section 5.1).

Per-argument robust types cannot express "the destination must hold
``strlen(src) + 1`` bytes" — the property whose violation is a buffer
overflow.  The paper's wrapper performs these cross-argument bounds
checks using the heap allocation table ("this technique can detect and
prevent heap buffer overflows successfully", citing the authors' heap
fault-containment work [4] and Libsafe [1]).

This module is the reproduction's version of that machinery: a small
plan language giving, per libc function, the buffer argument, the
required capacity expression, and the access direction.  Plans exist
only for the string/stdio/qsort family — the functions whose semantics
the wrapper knows the same way Libsafe knows its string functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence


@dataclass(frozen=True)
class BufferPlan:
    """One relational requirement: argument ``buffer_index`` must be
    accessible for ``capacity(args, strlen)`` bytes.  A capacity of
    None means the requirement cannot be computed (a prior
    per-argument check must already have failed)."""

    buffer_index: int
    capacity: Callable[[Sequence[int], Callable[[int], Optional[int]]], Optional[int]]
    write: bool = True
    description: str = ""


def _len_plus_1(src_index: int):
    def capacity(args, strlen):
        length = strlen(args[src_index])
        return None if length is None else length + 1

    return capacity


def _cat_capacity(dst_index: int, src_index: int, bound_index: int | None = None):
    def capacity(args, strlen):
        dst_len = strlen(args[dst_index])
        src_len = strlen(args[src_index])
        if dst_len is None or src_len is None:
            return None
        if bound_index is not None:
            src_len = min(src_len, args[bound_index])
        return dst_len + src_len + 1

    return capacity


def _arg(index: int):
    def capacity(args, strlen):
        return args[index]

    return capacity


def _product(a_index: int, b_index: int):
    def capacity(args, strlen):
        return args[a_index] * args[b_index]

    return capacity


#: function name -> relational plans applied before forwarding.
BUFFER_PLANS: dict[str, tuple[BufferPlan, ...]] = {
    "strcpy": (BufferPlan(0, _len_plus_1(1), True, "dst >= strlen(src)+1"),),
    "strncpy": (BufferPlan(0, _arg(2), True, "dst >= n"),),
    "strcat": (BufferPlan(0, _cat_capacity(0, 1), True, "dst >= strlen(dst)+strlen(src)+1"),),
    "strncat": (
        BufferPlan(0, _cat_capacity(0, 1, 2), True, "dst >= strlen(dst)+min(n,strlen(src))+1"),
    ),
    "memcpy": (
        BufferPlan(0, _arg(2), True, "dst >= n"),
        BufferPlan(1, _arg(2), False, "src >= n"),
    ),
    "memmove": (
        BufferPlan(0, _arg(2), True, "dst >= n"),
        BufferPlan(1, _arg(2), False, "src >= n"),
    ),
    "memset": (BufferPlan(0, _arg(2), True, "s >= n"),),
    "memcmp": (
        BufferPlan(0, _arg(2), False, "s1 >= n"),
        BufferPlan(1, _arg(2), False, "s2 >= n"),
    ),
    "memchr": (BufferPlan(0, _arg(2), False, "s >= n"),),
    "strncmp": (),  # bounded by NUL or n; per-arg CSTRING suffices
    "fread": (BufferPlan(0, _product(1, 2), True, "ptr >= size*nmemb"),),
    "fwrite": (BufferPlan(0, _product(1, 2), False, "ptr >= size*nmemb"),),
    "fgets": (BufferPlan(0, _arg(1), True, "s >= n"),),
    "strftime": (BufferPlan(0, _arg(1), True, "s >= max"),),
    "qsort": (BufferPlan(0, _product(1, 2), True, "base >= nmemb*size"),),
    "bsearch": (BufferPlan(1, _product(2, 3), False, "base >= nmemb*size"),),
    "read": (BufferPlan(1, _arg(2), True, "buf >= count"),),
    "write": (BufferPlan(1, _arg(2), False, "buf >= count"),),
    "snprintf": (BufferPlan(0, _arg(1), True, "str >= size"),),
    "getcwd": (),  # size/ERANGE handled inside; NULL buf is legal
}

