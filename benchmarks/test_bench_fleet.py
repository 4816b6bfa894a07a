"""Bench: the local process pool — bit-identity with serial, chaos
recovery, and the pool's speedup bar.

Four experiments, all archived in ``BENCH_fleet.json``:

1. **Baseline** — a 5-function campaign runs serial and on the
   process pool.  The pool must reproduce the serial reports
   bit-identically, in catalog order.
2. **Chaos** — the same campaign with ``REPRO_FLEET_CHAOS=kill-after:1``:
   every worker SIGKILLs itself after one completed function.  The
   campaign must still finish bit-identically and without a failed
   function, with the deaths and respawns proven through the fleet
   telemetry counters.
3. **Speedup** — a heavier 12-function campaign on the process fleet
   with 4 workers; the >=2x bar from the acceptance criteria is
   asserted when the host has >=4 cores (CI does; a 1-core container
   records its numbers without pretending to parallelism).
4. **Warm cache** — the process fleet over its own warm outcome store
   is pure cache hits.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner
from repro.obs import export_bench_json
from repro.obs.telemetry import Telemetry

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

#: The 5-function baseline campaign from the acceptance criteria.
BASELINE_FUNCTIONS = ["abs", "labs", "atoi", "strlen", "strcpy"]

#: Heavier scanners for the speedup leg — long enough for process
#: startup to amortize.
SPEEDUP_FUNCTIONS = [
    "strcpy", "strncpy", "strcat", "strncat", "strcmp", "strncmp",
    "strlen", "strchr", "strrchr", "strspn", "strcspn", "strstr",
]

SPEEDUP_WORKERS = 4
MIN_SPEEDUP = 2.0
CHAOS_ENV = "REPRO_FLEET_CHAOS"


def _timed(functions, config, telemetry=None):
    runner = (
        CampaignRunner(functions, config, telemetry=telemetry)
        if telemetry is not None
        else CampaignRunner(functions, config)
    )
    started = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - started


def _assert_identical(result, serial, functions):
    assert result.failed == {}
    assert list(result.reports) == functions
    assert result.reports == serial.reports


def test_fleet_bench(tmp_path, monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    # Warm up imports and parser tables before anything is timed.
    CampaignRunner(["abs"], CampaignConfig()).run()

    serial, serial_seconds = _timed(BASELINE_FUNCTIONS, CampaignConfig())
    assert serial.ran == len(BASELINE_FUNCTIONS)

    processes, process_seconds = _timed(
        BASELINE_FUNCTIONS,
        CampaignConfig(jobs=2, cache_dir=tmp_path / "proc"),
    )
    _assert_identical(processes, serial, BASELINE_FUNCTIONS)

    # ------------------------------------------------------ chaos leg
    # Every worker kills itself (SIGKILL, no cleanup) after one
    # completed function; the pool must replace the dead and retry
    # their way to a bit-identical campaign.
    monkeypatch.setenv(CHAOS_ENV, "kill-after:1")
    chaos_telemetry = Telemetry()
    chaos, chaos_seconds = _timed(
        BASELINE_FUNCTIONS,
        CampaignConfig(jobs=2),
        telemetry=chaos_telemetry,
    )
    monkeypatch.delenv(CHAOS_ENV)
    _assert_identical(chaos, serial, BASELINE_FUNCTIONS)
    spawned = chaos_telemetry.counter("fleet.workers_spawned").value
    deaths = chaos_telemetry.counter("fleet.worker_deaths").value
    assert deaths >= 1, "no worker died under the chaos policy"
    assert spawned > chaos.workers, (
        f"chaos run spawned {spawned} workers for {chaos.workers} slots — "
        "no worker death was recovered from"
    )
    assert all(o.status == "ran" for o in chaos.outcomes.values())

    # ---------------------------------------------------- speedup leg
    speedup_serial, speedup_serial_seconds = _timed(
        SPEEDUP_FUNCTIONS, CampaignConfig()
    )
    fleet_cache = tmp_path / "speedup"
    speedup_fleet, speedup_fleet_seconds = _timed(
        SPEEDUP_FUNCTIONS,
        CampaignConfig(jobs=SPEEDUP_WORKERS, cache_dir=fleet_cache),
    )
    _assert_identical(speedup_fleet, speedup_serial, SPEEDUP_FUNCTIONS)
    speedup = (
        speedup_serial_seconds / speedup_fleet_seconds
        if speedup_fleet_seconds
        else 0.0
    )

    # ------------------------------------------------- warm cache leg
    warm, warm_seconds = _timed(
        SPEEDUP_FUNCTIONS,
        CampaignConfig(jobs=SPEEDUP_WORKERS, cache_dir=fleet_cache),
    )
    assert warm.cache_hits == len(SPEEDUP_FUNCTIONS)
    assert warm.ran == 0

    cores = os.cpu_count() or 1
    payload = {
        "functions": len(BASELINE_FUNCTIONS),
        "cpu_count": cores,
        "min_speedup": MIN_SPEEDUP,
        "speedup_asserted": cores >= SPEEDUP_WORKERS,
        "modes": [
            {
                "fleet_mode": "serial",
                "workers": 1,
                "seconds": round(serial_seconds, 3),
            },
            {
                "fleet_mode": "processes",
                "workers": processes.workers,
                "seconds": round(process_seconds, 3),
            },
        ],
        "chaos": {
            "policy": "kill-after:1",
            "workers": chaos.workers,
            "workers_spawned": spawned,
            "worker_deaths": deaths,
            "seconds": round(chaos_seconds, 3),
        },
        "speedup_leg": {
            "functions": len(SPEEDUP_FUNCTIONS),
            "workers": SPEEDUP_WORKERS,
            "serial_seconds": round(speedup_serial_seconds, 3),
            "fleet_seconds": round(speedup_fleet_seconds, 3),
            "speedup": round(speedup, 3),
            "warm_cache_seconds": round(warm_seconds, 3),
        },
    }
    export_bench_json("fleet", payload, path=BENCH_PATH)
    print(f"\n=== fleet bench ===\n  {payload}")

    if cores >= SPEEDUP_WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"process fleet with {SPEEDUP_WORKERS} workers gave "
            f"{speedup:.2f}x (serial {speedup_serial_seconds:.1f}s vs "
            f"fleet {speedup_fleet_seconds:.1f}s); bar is {MIN_SPEEDUP:.1f}x"
        )
