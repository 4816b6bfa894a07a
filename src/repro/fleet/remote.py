"""The remote fleet: campaign shards over the service protocol.

The coordinator submits shards to a hardening daemon's
:class:`~repro.fleet.broker.ShardBroker` (``fleet.submit``), workers
anywhere on the network lease them (``worker.lease``) and stream
per-function results back (``worker.result``), and the coordinator
tails the result log (``fleet.collect``) into the campaign runner —
all over the same line-delimited JSON v1 protocol the daemon already
speaks.

Two deployment shapes, one code path:

* **Self-hosted** (``address=None``): the coordinator boots a loopback
  daemon in-thread (sharing the campaign's outcome-store directory and
  telemetry) and spawns ``workers`` local worker processes that exit
  once the broker drains.  This is what ``campaign run --fleet remote``
  does with no ``--connect``.
* **Attached** (``address="host:port"``): the coordinator submits to an
  already-running daemon and brings no workers of its own — whatever
  fleet is registered there does the work, and its outcome store
  dedups across every campaign that daemon has ever served.

Failure model: worker death is *only* detected as lease expiry — a
worker that stops heartbeating loses its leases and the unreported
functions requeue with bumped attempts (bounded by ``task_retries``).
The coordinator additionally respawns its own dead local workers
(budgeted) to keep throughput, but correctness never depends on it.
Per-function deadlines are therefore lease-granular in this mode; use
the ``processes`` mode for tight per-task deadlines.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Callable, Optional, Sequence

from repro.campaign.scheduler import DEFAULT_TASK_RETRIES, TaskResult
from repro.fleet.wire import FunctionResult
from repro.fleet.worker import remote_worker_main
from repro.injector import RunSpec
from repro.obs.telemetry import NULL_TELEMETRY

#: How often the coordinator tails ``fleet.collect`` (seconds).
COLLECT_INTERVAL = 0.05

#: Local worker respawns allowed per fleet, as a multiple of the
#: worker count — throughput insurance, not a correctness mechanism.
RESPAWN_BUDGET = 3


def task_result_from(result: FunctionResult) -> TaskResult:
    """The scheduler-compatible view of one wire-format result."""
    if result.ok:
        return TaskResult(
            result.function, "ok", payload=result.payload,
            elapsed=result.elapsed, attempts=result.attempt,
        )
    return TaskResult(
        result.function, "failed", error=result.error,
        elapsed=result.elapsed, attempts=result.attempt,
    )


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; raises ValueError."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"fleet address must look like HOST:PORT, got {address!r}"
        )
    return host, int(port)


def run_remote_fleet(
    names: Sequence[str],
    digests: dict[str, str],
    *,
    campaign: str,
    workers: int,
    run: RunSpec,
    timeout: Optional[float] = None,   # lease-granular in remote mode
    task_retries: int = DEFAULT_TASK_RETRIES,
    telemetry=NULL_TELEMETRY,
    on_result: Optional[Callable[[TaskResult], None]] = None,
    cache_dir=None,
    address: Optional[str] = None,
) -> dict[str, TaskResult]:
    """Run the campaign through a shard broker; see the module doc."""
    from repro.fleet import build_shards
    from repro.service.client import ServiceClient

    if not names:
        return {}

    handle = None
    spawn_local = address is None
    if spawn_local:
        from pathlib import Path

        from repro.service.server import ServiceConfig, serve_in_thread

        handle = serve_in_thread(
            ServiceConfig(
                cache_dir=Path(cache_dir) if cache_dir is not None else None,
            ),
            telemetry=telemetry,
        )
        host, port = handle.address
    else:
        host, port = parse_address(address)

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    procs: list = []

    def spawn_worker(index: int) -> None:
        process = ctx.Process(
            target=remote_worker_main,
            args=(host, port),
            kwargs={"name": f"{campaign}-local-{index}", "exit_when_idle": True},
            daemon=True,
        )
        process.start()
        telemetry.counter("fleet.workers_spawned").inc()
        procs.append(process)

    results: dict[str, TaskResult] = {}
    client = ServiceClient(host, port, retries=4)
    try:
        shards = build_shards(
            names, digests, workers, campaign=campaign, run=run
        )
        submitted = client.fleet_submit(
            [s.encode() for s in shards], task_retries=task_retries
        )
        telemetry.event(
            "fleet.submitted", campaign=campaign,
            shards=submitted.get("queued", 0),
            cached=submitted.get("cached", 0),
            deduped=bool(submitted.get("deduped")),
        )
        if spawn_local:
            for index in range(workers):
                spawn_worker(index)

        respawns = 0
        seq = 0
        while True:
            collected = client.fleet_collect(campaign, after=seq)
            seq = collected["seq"]
            for document in collected["results"]:
                result = task_result_from(FunctionResult.decode(document))
                if result.name in results:
                    continue
                telemetry.counter(
                    "campaign.tasks", status=result.status
                ).inc()
                results[result.name] = result
                if on_result is not None:
                    on_result(result)
            if collected["done"]:
                break
            if spawn_local:
                for index, process in enumerate(list(procs)):
                    if process.is_alive():
                        continue
                    procs.remove(process)
                    if respawns < workers * RESPAWN_BUDGET:
                        respawns += 1
                        telemetry.event(
                            "fleet.worker_respawned", campaign=campaign,
                            exitcode=process.exitcode,
                        )
                        spawn_worker(workers + respawns)
            if not collected["results"]:
                time.sleep(COLLECT_INTERVAL)
        client.fleet_forget(campaign)
    finally:
        client.close()
        for process in procs:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        if handle is not None:
            handle.stop()
    return results
