"""The thread fleet: the honest GIL-bound baseline.

Threads cannot speed up the CPU-bound injection loop — the GIL
serializes it — and this module does not pretend otherwise.  It exists
so the scaling bench can *measure and label* the thread number next to
the process number instead of aliasing the two, and as the lightest
fleet mode for I/O-heavy or mostly-cached campaigns where process
spawn cost dominates.

Same shard wire format, same per-function reseeding, same catalog-
order merge: output is bit-identical to serial and to every other
fleet mode.  Failure model is the thin one threads allow: in-thread
retries (bounded by ``task_retries``) but **no preemptive deadlines**
— a Python thread cannot be killed, so a truly hung function hangs
the shard.  Campaigns needing hang isolation should run the process
fleet.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

from repro.campaign.scheduler import (
    DEFAULT_TASK_RETRIES,
    TaskResult,
)
from repro.fleet.worker import execute_function
from repro.obs.telemetry import NULL_TELEMETRY


def run_thread_fleet(
    names: Sequence[str],
    digests: dict[str, str],
    *,
    campaign: str,
    workers: int,
    seed: int = 0,
    max_vectors: int,
    timeout: Optional[float] = None,  # accepted for interface parity; unused
    task_retries: int = DEFAULT_TASK_RETRIES,
    telemetry=NULL_TELEMETRY,
    on_result: Optional[Callable[[TaskResult], None]] = None,
    fault_models: Sequence[str] = (),
) -> dict[str, TaskResult]:
    """Execute every function on a thread pool, one task per shard."""
    from repro.fleet import build_shards
    from repro.fleet.process import task_result_from

    if not names:
        return {}
    shards = build_shards(
        names, digests, workers, campaign=campaign, seed=seed,
        max_vectors=max_vectors, fault_models=fault_models,
    )
    results: dict[str, TaskResult] = {}
    lock = threading.Lock()

    def finalize(result: TaskResult) -> None:
        with lock:
            telemetry.counter("campaign.tasks", status=result.status).inc()
            results[result.name] = result
            if on_result is not None:
                on_result(result)

    def run_shard(shard) -> None:
        worker = f"thread-{threading.get_ident()}"
        for name, digest in zip(shard.functions, shard.digests):
            for attempt in range(1, task_retries + 2):
                result = execute_function(
                    name, digest, shard.seed, shard.max_vectors, attempt,
                    worker=worker, fault_models=shard.fault_models,
                )
                if result.ok or attempt > task_retries:
                    finalize(task_result_from(result))
                    break
                telemetry.counter("fleet.task_retries").inc()

    telemetry.gauge("fleet.workers_alive").set(len(shards))
    started = time.monotonic()
    with ThreadPoolExecutor(
        max_workers=len(shards), thread_name_prefix="fleet-thread"
    ) as pool:
        for future in [pool.submit(run_shard, s) for s in shards]:
            future.result()
    telemetry.gauge("fleet.workers_alive").set(0)
    telemetry.event(
        "fleet.threads_done", campaign=campaign, shards=len(shards),
        seconds=round(time.monotonic() - started, 3),
    )
    return results
