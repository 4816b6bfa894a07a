"""Heartbeat policing in the supervised pool: a worker that is alive
but silent (SIGSTOPped, so its heartbeat thread stops too) is killed
and its task failed, even with no per-task deadline."""

import time

from repro.campaign import run_tasks
from repro.obs.telemetry import Telemetry
from tests.campaign_workers import freeze


def test_frozen_worker_is_killed_and_sibling_finishes():
    telemetry = Telemetry()
    started = time.monotonic()
    results = run_tasks(
        ["freeze1", "ok1"], freeze, jobs=2, timeout=None, task_retries=0,
        heartbeat_timeout=1.5, telemetry=telemetry,
    )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"wedged worker held the pool for {elapsed:.1f}s"
    assert results["ok1"].ok
    frozen = results["freeze1"]
    assert frozen.status == "failed"
    assert "no heartbeats" in frozen.error
    assert frozen.attempts == 1
    wedged = [
        r for r in telemetry.tracer.records()
        if r["name"] == "fleet.worker_wedged"
    ]
    assert wedged, "no fleet.worker_wedged event recorded"
