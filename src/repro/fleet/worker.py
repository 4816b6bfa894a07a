"""What a fleet worker actually runs, regardless of transport.

:func:`execute_function` is the execution path the two out-of-process
fleet modes share: run the injector and serialize the report
worker-side so only a JSON-able payload crosses the process or network
boundary.  :func:`run_function` adapts it to the supervised pool of
:func:`~repro.campaign.scheduler.run_tasks` (``processes``);
:func:`execute_shard` runs it over a leased shard (``remote``).  The
``serial`` mode runs the same injector in the campaign's own process
(:meth:`~repro.campaign.runner.CampaignRunner.run`) and keeps the
report as it is; the store encoding is lossless, so every mode yields
reports that compare equal.

:func:`remote_worker_main` is the long-lived loop of a remote worker:
register with the daemon (fingerprint-checked), lease shards, stream
per-function results back, heartbeat from a side thread so a lease
held through a long injection never expires under a live worker.  It
is spawn-safe: module-level, takes only picklable arguments.

The ``REPRO_FLEET_CHAOS`` hook (:data:`CHAOS_ENV`,
:func:`maybe_chaos_exit`) lives next to the pool in
:mod:`repro.campaign.scheduler`; remote workers honour it too.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Optional

from repro.campaign.scheduler import (  # noqa: F401 - CHAOS_ENV re-exported
    CHAOS_ENV,
    current_attempt,
    maybe_chaos_exit,
)
from repro.fleet.wire import FunctionResult, ShardSpec, fleet_fingerprints
from repro.injector import RunSpec

#: How often an idle remote worker re-polls for work (seconds).
DEFAULT_POLL_INTERVAL = 0.2


def default_worker_name() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def execute_function(
    name: str,
    digest: str,
    run: RunSpec,
    attempt: int = 1,
    worker: str = "",
) -> FunctionResult:
    """Run one function's injector and return its wire-encoded outcome
    (never raises).  The run's fault models travel as canonical spec
    strings and are resolved to model instances here, in the worker."""
    import traceback

    started = time.perf_counter()
    try:
        from repro.campaign.store import report_to_payload
        from repro.injector import FaultInjector
        from repro.libc.catalog import BY_NAME

        spec = BY_NAME[name]
        report = FaultInjector(spec, run=run).run()
        payload = report_to_payload(report, spec.prototype)
    except BaseException:
        return FunctionResult(
            function=name,
            digest=digest,
            status="failed",
            attempt=attempt,
            elapsed=time.perf_counter() - started,
            error=traceback.format_exc(limit=20),
            worker=worker,
        )
    return FunctionResult(
        function=name,
        digest=digest,
        status="ok",
        attempt=attempt,
        elapsed=time.perf_counter() - started,
        payload=payload,
        worker=worker,
    )


def run_function(
    name: str,
    *,
    digests: dict[str, str],
    run: RunSpec,
) -> dict:
    """The :func:`~repro.campaign.scheduler.run_tasks` worker: one
    function through :func:`execute_function`, returning its payload.
    A failed result raises, so the pool retries it within its budget."""
    result = execute_function(
        name, digests[name], run, attempt=current_attempt()
    )
    if not result.ok:
        raise RuntimeError(result.error)
    return result.payload


def execute_shard(
    shard: ShardSpec,
    worker: str = "",
    on_result: Optional[Callable[[FunctionResult], None]] = None,
    completed_before: int = 0,
) -> list[FunctionResult]:
    """Run every function of one shard in order, reporting each result
    as it lands; returns the full list.  ``completed_before`` threads
    the worker-lifetime completion count into the chaos hook."""
    shard.verify_local()
    results: list[FunctionResult] = []
    for name, digest, attempt in zip(
        shard.functions, shard.digests, shard.attempts
    ):
        result = execute_function(
            name, digest, shard.run, attempt=attempt, worker=worker
        )
        results.append(result)
        if on_result is not None:
            on_result(result)
        maybe_chaos_exit(completed_before + len(results))
    return results


# ----------------------------------------------------------------------
# the remote worker loop (spawn-safe module-level entry point)
# ----------------------------------------------------------------------


def remote_worker_main(
    host: str,
    port: int,
    name: Optional[str] = None,
    exit_when_idle: bool = False,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    max_shards: Optional[int] = None,
) -> int:
    """Connect to a hardening daemon, lease shards, stream results.

    ``exit_when_idle`` makes the worker return once the broker has no
    queued work *and* no campaign in flight (so one started before any
    campaign is submitted returns at once); otherwise it keeps polling
    until killed.
    Returns a process exit code.
    """
    from repro.service.client import ServiceClient

    worker_name = name or default_worker_name()
    client = ServiceClient(host, port, retries=4)
    registration = client.worker_register(worker_name, fleet_fingerprints())
    worker_id = str(registration["worker_id"])
    lease_ttl = float(registration["lease_ttl"])

    stop_heartbeat = threading.Event()

    def heartbeat_loop() -> None:
        # A dedicated connection: the main connection is busy with
        # lease/result traffic and injections hold it for a while.
        hb = ServiceClient(host, port, retries=2)
        try:
            while not stop_heartbeat.wait(max(0.1, lease_ttl / 3.0)):
                try:
                    hb.worker_heartbeat(worker_id)
                except Exception:
                    # A dead daemon ends the worker via the main loop.
                    return
        finally:
            hb.close()

    beat = threading.Thread(
        target=heartbeat_loop, name=f"fleet-hb-{worker_id}", daemon=True
    )
    beat.start()

    completed = 0
    shards_done = 0
    try:
        while True:
            leased = client.worker_lease(worker_id)
            shard_doc = leased.get("shard")
            if shard_doc is None:
                if exit_when_idle and leased.get("drained", False):
                    return 0
                time.sleep(poll_interval)
                continue
            shard = ShardSpec.decode(shard_doc)

            def stream(result: FunctionResult) -> None:
                client.worker_result(
                    worker_id, shard.campaign, shard.shard_id, result.encode()
                )

            execute_shard(
                shard, worker=worker_name, on_result=stream,
                completed_before=completed,
            )
            completed += len(shard.functions)
            shards_done += 1
            client.worker_complete(worker_id, shard.shard_id)
            if max_shards is not None and shards_done >= max_shards:
                return 0
    except (ConnectionError, OSError):
        # Daemon gone: a worker without a broker has nothing to do.
        return 1
    finally:
        stop_heartbeat.set()
        client.close()
