"""Bench: the injector vector-planning and snapshot-reuse engine.

Times the 20-function string/memory campaign three ways and exports
the ratios to ``BENCH_injector.json`` (archived by the CI
``injector-bench`` job):

* **seed** — per-byte reference models
  (``tests/strings_reference.py``) through the naive engine
  (``plan=None``): the state of the pipeline before this change;
* **naive** — current bulk models, naive engine: isolates the model
  conversion win;
* **planned** — current bulk models through shared plans, prepared
  snapshots, and the chain memo: the shipped configuration.

Two properties are asserted, not just recorded:

* all three legs produce *equal* :class:`InjectionReport` lists — the
  golden equivalence guarantee, end to end, on the full bench
  catalog;
* ``serial_speedup`` (seed wall clock / planned wall clock) meets the
  2x acceptance floor.  The compared legs run in-process on the same
  data, so the ratio is host-independent modulo noise.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import pytest

from repro.injector import FaultInjector, clear_plan_cache
from repro.libc.catalog import BY_NAME
from repro.obs import export_bench_json
from tests import strings_reference

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_injector.json"

#: The campaign-scaling bench catalog: every converted string/memory
#: model plus asctime (adaptive-array heavy).
BENCH_FUNCTIONS = [
    "strcpy", "strncpy", "strcat", "strncat", "strcmp", "strncmp",
    "strlen", "strchr", "strrchr", "strspn", "strcspn", "strpbrk",
    "strstr", "strtok", "strdup", "memcpy", "memmove", "memchr",
    "memcmp", "asctime",
]

#: Acceptance floor from the ISSUE: seed vs planned, serial.
MIN_SERIAL_SPEEDUP = 2.0


def _run_campaign(plan) -> tuple[float, list]:
    reports = []
    started = time.perf_counter()
    for name in BENCH_FUNCTIONS:
        reports.append(FaultInjector(BY_NAME[name], plan=plan).run())
    return time.perf_counter() - started, reports


def _seed_models(patch: pytest.MonkeyPatch) -> None:
    """Pin every converted model back to its per-byte reference."""
    for name, reference in strings_reference.REFERENCE_MODELS.items():
        patch.setitem(
            BY_NAME, name, dataclasses.replace(BY_NAME[name], model=reference)
        )


def test_injector_plan_bench():
    # Warm shared caches (parser tables, lattice memo, imports) so no
    # leg is charged cold-start costs.
    for name in ("strcpy", "memcmp"):
        FaultInjector(BY_NAME[name]).run()

    with pytest.MonkeyPatch.context() as patch:
        _seed_models(patch)
        seed_seconds, seed_reports = _run_campaign(plan=None)

    naive_seconds, naive_reports = _run_campaign(plan=None)

    clear_plan_cache()  # charge plan compilation to the planned leg
    planned_seconds, planned_reports = _run_campaign(plan="shared")

    # Golden equivalence across all three legs, full reports.
    for seed, naive, planned in zip(seed_reports, naive_reports, planned_reports):
        assert naive == seed, f"bulk model diverged for {seed.name}"
        assert planned == naive, f"planned engine diverged for {seed.name}"

    serial_speedup = seed_seconds / planned_seconds if planned_seconds else None
    payload = {
        "functions": BENCH_FUNCTIONS,
        "seed_seconds": round(seed_seconds, 3),
        "naive_seconds": round(naive_seconds, 3),
        "planned_seconds": round(planned_seconds, 3),
        "model_speedup": round(seed_seconds / naive_seconds, 2),
        "plan_speedup": round(naive_seconds / planned_seconds, 2),
        "serial_speedup": round(serial_speedup, 2),
        "min_serial_speedup": MIN_SERIAL_SPEEDUP,
        "vectors_run": sum(r.vectors_run for r in planned_reports),
        "calls_made": sum(r.calls_made for r in planned_reports),
        "reports_equal": True,
    }
    export_bench_json("injector_plan", payload, path=BENCH_PATH)
    print(f"\n=== injector planning ===\n  {payload}")

    assert serial_speedup >= MIN_SERIAL_SPEEDUP, (
        f"planned engine only {serial_speedup:.2f}x over the seed "
        f"(seed {seed_seconds:.2f}s vs planned {planned_seconds:.2f}s); "
        f"floor is {MIN_SERIAL_SPEEDUP:.1f}x"
    )
