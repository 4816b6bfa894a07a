"""The remote fleet: campaign shards over the service protocol.

The coordinator submits shards to an already-running hardening
daemon's :class:`~repro.fleet.broker.ShardBroker` (``fleet.submit``),
workers anywhere on the network lease them (``worker.lease``) and
stream per-function results back (``worker.result``), and the
coordinator tails the result log (``fleet.collect``) into the campaign
runner — all over the same line-delimited JSON v1 protocol the daemon
already speaks.  The coordinator brings no workers of its own:
whatever fleet is registered with the daemon (``repro fleet worker
--connect HOST:PORT``) does the work, and the daemon's outcome store
dedups across every campaign it has ever served.
``campaign run --connect HOST:PORT`` is this path.

Failure model: worker death is *only* detected as lease expiry — a
worker that stops heartbeating loses its leases and the unreported
functions requeue with bumped attempts (bounded by the pool's
:data:`~repro.campaign.scheduler.DEFAULT_TASK_RETRIES`).
Per-function deadlines are therefore lease-granular here; the local
pool (``--jobs N``) polices tight per-task deadlines.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.campaign.scheduler import DEFAULT_TASK_RETRIES, TaskResult
from repro.fleet.wire import FunctionResult
from repro.injector import RunSpec
from repro.obs.telemetry import NULL_TELEMETRY

#: How often the coordinator tails ``fleet.collect`` (seconds).
COLLECT_INTERVAL = 0.05


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
    address: str,
    names: Sequence[str],
    digests: dict[str, str],
    *,
    campaign: str,
    shards: int,
    run: RunSpec,
    telemetry=NULL_TELEMETRY,
    on_result: Optional[Callable[[TaskResult], None]] = None,
) -> dict[str, TaskResult]:
    """Submit the named functions as up to ``shards`` shards to the
    daemon at ``address`` and return ``{name: TaskResult}`` once its
    workers have reported every one; see the module doc.  An
    unreachable daemon raises :class:`OSError`."""
    from repro.fleet import build_shards
    from repro.service.client import ServiceClient

    if not names:
        return {}
    host, port = parse_address(address)
    results: dict[str, TaskResult] = {}
    client = ServiceClient(host, port, retries=4)
    try:
        specs = build_shards(names, digests, shards, campaign=campaign, run=run)
        submitted = client.fleet_submit(
            [s.encode() for s in specs], task_retries=DEFAULT_TASK_RETRIES
        )
        telemetry.event(
            "fleet.submitted", campaign=campaign,
            shards=submitted.get("queued", 0),
            cached=submitted.get("cached", 0),
            deduped=bool(submitted.get("deduped")),
        )
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
            if not collected["results"]:
                time.sleep(COLLECT_INTERVAL)
        client.fleet_forget(campaign)
    finally:
        client.close()
    return results
