"""Bench: the simulated-memory hot paths (COW fork + bulk C strings).

Measures the three optimizations ISSUE 4 ships and exports the numbers
to ``BENCH_memory.json`` so the perf trajectory is archived by CI, not
asserted from memory:

* **fork cost vs region bytes** — copy-on-write ``AddressSpace.fork``
  against the original eager deep copy, on a 64-region space.  COW is
  O(region count); the eager copy is O(total mapped bytes).  Floor
  (asserted, holds on any host): >= 10x.
* **cstring throughput** — slice-based ``read_cstring`` of a 64 KiB
  string against the per-byte reference scan.  Floor (asserted):
  >= 10x.
* **end-to-end injector speedup** — a real ``FaultInjector.run()``
  over a string-family sample, fast substrate vs the reference
  substrate (eager forks + per-byte scans), recorded so the e2e win
  is measured; floor is advisory-only because small hosts add noise.

The reference implementations live in ``tests/memory_reference.py``
and are proven observationally identical in tests/test_memory_cow.py;
this file only measures them.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.injector import FaultInjector
from repro.libc import common
from repro.libc.catalog import BY_NAME
from repro.memory import AddressSpace
from repro.obs import export_bench_json
from tests import memory_reference as reference

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_memory.json"

#: Floors from the ISSUE, chosen to hold on any host: the compared
#: implementations run in the same process on the same data, so the
#: ratio is host-independent modulo noise far below 10x.
MIN_FORK_SPEEDUP = 10.0
MIN_CSTRING_SPEEDUP = 10.0

FORK_REGIONS = 64
FORK_REGION_BYTES = 64 * 1024
CSTRING_BYTES = 64 * 1024

E2E_FUNCTIONS = ["strcpy", "strcmp", "strlen"]


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_memory_hotpath_bench():
    payload: dict = {}

    # ---------------------------------------------------- fork cost
    space = AddressSpace()
    for index in range(FORK_REGIONS):
        region = space.map_region(FORK_REGION_BYTES)
        region.poke(region.base, bytes([index % 251 + 1]) * FORK_REGION_BYTES)

    cow_seconds = _best_of(5, lambda: space.fork())
    eager_seconds = _best_of(5, lambda: reference.eager_fork(space))
    fork_speedup = eager_seconds / cow_seconds if cow_seconds else float("inf")
    payload["fork"] = {
        "regions": FORK_REGIONS,
        "total_bytes": FORK_REGIONS * FORK_REGION_BYTES,
        "cow_seconds": round(cow_seconds, 6),
        "eager_seconds": round(eager_seconds, 6),
        "speedup": round(fork_speedup, 1),
        "min_speedup": MIN_FORK_SPEEDUP,
    }

    # semantic sanity: the cheap fork still isolates writes
    child = space.fork()
    probe = next(iter(space.regions()))
    child.store(probe.base, b"Z")
    assert space.load(probe.base, 1) != b"Z"

    # ---------------------------------------------------- cstring scan
    scan_space = AddressSpace()
    string_region = scan_space.alloc_cstring(b"s" * CSTRING_BYTES)
    base = string_region.base

    fast_seconds = _best_of(5, lambda: scan_space.read_cstring(base))
    ref_seconds = _best_of(3, lambda: reference.read_cstring_ref(scan_space, base))
    cstring_speedup = ref_seconds / fast_seconds if fast_seconds else float("inf")
    assert scan_space.read_cstring(base) == reference.read_cstring_ref(scan_space, base)
    payload["cstring"] = {
        "string_bytes": CSTRING_BYTES,
        "fast_seconds": round(fast_seconds, 6),
        "per_byte_seconds": round(ref_seconds, 6),
        "fast_mb_per_s": round(CSTRING_BYTES / fast_seconds / 1e6, 1)
        if fast_seconds else None,
        "speedup": round(cstring_speedup, 1),
        "min_speedup": MIN_CSTRING_SPEEDUP,
    }

    # ---------------------------------------------------- end to end
    def run_catalog() -> None:
        for name in E2E_FUNCTIONS:
            FaultInjector(BY_NAME[name]).run()

    # Warm every cache both legs share (lattice memo, import side
    # effects) so the comparison isolates the memory substrate instead
    # of charging cold-start costs to whichever leg runs first.
    run_catalog()

    started = time.perf_counter()
    run_catalog()
    fast_e2e = time.perf_counter() - started

    with pytest.MonkeyPatch.context() as patch:
        _reference_substrate(patch)
        started = time.perf_counter()
        run_catalog()
        ref_e2e = time.perf_counter() - started

    payload["injector_e2e"] = {
        "functions": E2E_FUNCTIONS,
        "fast_seconds": round(fast_e2e, 3),
        "reference_seconds": round(ref_e2e, 3),
        "speedup": round(ref_e2e / fast_e2e, 2) if fast_e2e else None,
    }

    export_bench_json("memory_hotpath", payload, path=BENCH_PATH)
    print(f"\n=== memory hotpath ===\n  {payload}")

    assert fork_speedup >= MIN_FORK_SPEEDUP, (
        f"COW fork only {fork_speedup:.1f}x over eager deep copy "
        f"(cow {cow_seconds:.6f}s vs eager {eager_seconds:.6f}s); "
        f"floor is {MIN_FORK_SPEEDUP:.0f}x"
    )
    assert cstring_speedup >= MIN_CSTRING_SPEEDUP, (
        f"bulk cstring scan only {cstring_speedup:.1f}x over per-byte "
        f"(fast {fast_seconds:.6f}s vs per-byte {ref_seconds:.6f}s); "
        f"floor is {MIN_CSTRING_SPEEDUP:.0f}x"
    )


def _reference_substrate(patch: pytest.MonkeyPatch) -> None:
    """Pin the whole substrate back to the unoptimized semantics."""
    patch.setattr(AddressSpace, "fork", reference.eager_fork)
    patch.setattr(
        AddressSpace, "is_accessible",
        lambda self, address, count, access: reference.is_accessible_ref(
            self, address, count, access
        ),
    )
    patch.setattr(
        AddressSpace, "read_cstring",
        lambda self, address, limit=None: reference.read_cstring_ref(
            self, address, limit
        ),
    )
    patch.setattr(
        AddressSpace, "write_cstring",
        lambda self, address, value: reference.write_cstring_ref(self, address, value),
    )
    patch.setattr(common, "read_byte", _read_byte_seed)
    patch.setattr(common, "write_byte", _write_byte_seed)
    patch.setattr(common, "read_cstring", _read_cstring_per_byte)
    patch.setattr(common, "write_cstring", _write_cstring_per_byte)


def _read_byte_seed(ctx, address):
    # The seed implementation: a one-byte ``bytes`` allocation per load.
    ctx.step()
    return ctx.mem.load(address, 1)[0]


def _write_byte_seed(ctx, address, value):
    ctx.step()
    ctx.mem.store(address, bytes([value & 0xFF]))


def _read_cstring_per_byte(ctx, address, limit=None):
    out = bytearray()
    cursor = address
    while limit is None or len(out) < limit:
        byte = _read_byte_seed(ctx, cursor)
        if byte == 0:
            break
        out.append(byte)
        cursor += 1
    return bytes(out)


def _write_cstring_per_byte(ctx, address, value):
    cursor = address
    for byte in value:
        _write_byte_seed(ctx, cursor, byte)
        cursor += 1
    _write_byte_seed(ctx, cursor, 0)
