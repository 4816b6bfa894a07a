"""Bench: campaign engine scaling — serial vs the process pool vs warm cache.

Runs a 20-function injection campaign three ways — serial, on the
``processes`` fleet mode (the supervised pool ``--jobs N`` also uses),
and again over a warm content-addressed cache — and records every wall
clock to ``BENCH_campaign.json`` so CI archives the trajectory.

Honesty rules:

* every timing row records its ``fleet_mode``, so different
  experiments never alias in the ledger;
* the >=2x speedup bar is asserted against **process mode**, and only
  when the machine actually has the cores to show it (CI runners do;
  a single-core container cannot speed up CPU-bound work and only
  records its numbers).

Hard guarantees asserted everywhere: every mode's reports are
bit-identical to serial, in catalog order, and the warm re-run is
100% cache hits with zero injections.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner, effective_jobs
from repro.obs import export_bench_json

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_campaign.json"

#: Twenty mid-cost functions: the string scanners dominate (hundreds
#: of sandboxed calls each), so the campaign is long enough for pool
#: overhead to amortize.
BENCH_FUNCTIONS = [
    "strcpy", "strncpy", "strcat", "strncat", "strcmp", "strncmp",
    "strlen", "strchr", "strrchr", "strspn", "strcspn", "strpbrk",
    "strstr", "strtok", "strdup", "memcpy", "memmove", "memchr",
    "memcmp", "asctime",
]

PARALLEL_JOBS = 4

#: Acceptance bar from the ISSUE, asserted on process mode when the
#: host has the cores.
MIN_SPEEDUP = 2.0


def _timed_campaign(config: CampaignConfig):
    started = time.perf_counter()
    result = CampaignRunner(BENCH_FUNCTIONS, config).run()
    return result, time.perf_counter() - started


def test_campaign_scaling(tmp_path):
    # Warm up imports, parser tables and allocator pools so the serial
    # leg does not pay first-run costs the parallel legs skip.
    CampaignRunner(["abs"], CampaignConfig()).run()

    serial, serial_seconds = _timed_campaign(CampaignConfig())
    assert serial.ran == len(BENCH_FUNCTIONS)

    cache_dir = tmp_path / "campaign-cache"
    processes, process_seconds = _timed_campaign(
        CampaignConfig(jobs=PARALLEL_JOBS, cache_dir=cache_dir)
    )
    assert processes.ran == len(BENCH_FUNCTIONS)
    assert processes.failed == {}
    # Bit-identical semantics: fleet execution reproduces the serial
    # reports exactly, in catalog order.
    assert list(processes.reports) == BENCH_FUNCTIONS
    assert processes.reports == serial.reports

    warm, warm_seconds = _timed_campaign(
        CampaignConfig(jobs=PARALLEL_JOBS, cache_dir=cache_dir)
    )
    assert warm.cache_hits == len(BENCH_FUNCTIONS)
    assert warm.ran == 0
    assert warm.reports == serial.reports

    cores = os.cpu_count() or 1
    process_jobs = effective_jobs(PARALLEL_JOBS, len(BENCH_FUNCTIONS))
    process_speedup = (
        serial_seconds / process_seconds if process_seconds else 0.0
    )
    payload = {
        "functions": len(BENCH_FUNCTIONS),
        "jobs": PARALLEL_JOBS,
        "cpu_count": cores,
        "min_speedup": MIN_SPEEDUP,
        "speedup_asserted": cores >= PARALLEL_JOBS,
        "warm_cache_seconds": round(warm_seconds, 3),
        "warm_cache_hits": warm.cache_hits,
        "modes": [
            {
                "fleet_mode": "serial",
                "workers": 1,
                "seconds": round(serial_seconds, 3),
                "speedup": 1.0,
            },
            {
                "fleet_mode": "processes",
                "workers": processes.workers,
                "effective_jobs": process_jobs,
                "seconds": round(process_seconds, 3),
                "speedup": round(process_speedup, 3),
                # One effective job means the fleet degenerated to a
                # serial run (single core / tiny function set): the
                # "speedup" is noise, not a measurement — label it so
                # the ledger never gates on it.
                **({"baseline_only": True} if process_jobs == 1 else {}),
            },
        ],
    }
    export_bench_json("campaign_scaling", payload, path=BENCH_PATH)
    print(f"\n=== campaign scaling ===\n  {payload}")

    assert warm_seconds < serial_seconds, "warm cache slower than injection"
    if cores >= PARALLEL_JOBS:
        assert process_speedup >= MIN_SPEEDUP, (
            f"--jobs {PARALLEL_JOBS} gave "
            f"{process_speedup:.2f}x (serial {serial_seconds:.1f}s vs "
            f"process fleet {process_seconds:.1f}s); bar is "
            f"{MIN_SPEEDUP:.1f}x"
        )
