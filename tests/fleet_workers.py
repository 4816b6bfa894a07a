"""Drive the remote fleet end to end from one test process.

A campaign submits to a running daemon from a background thread; once
the broker holds its shards, local ``remote_worker_main(...,
exit_when_idle=True)`` processes lease and run them, then exit when
the broker drains.  This is ``campaign run --connect HOST:PORT`` with
``repro fleet worker --exit-when-idle`` processes beside it.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

from repro.fleet.worker import remote_worker_main
from repro.service import ServiceClient


def run_attached(address, coordinate, workers=2, timeout=120.0):
    """Return ``coordinate()``, a campaign that submits to the daemon at
    ``address`` and waits for its results, run on a thread while
    ``workers`` fleet workers drain its shards.  The workers start only
    once shards are queued: an exit-when-idle worker that finds the
    broker empty returns at once.  Whatever ``coordinate`` raised is
    raised here."""
    host, port = address
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = coordinate()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, name="coordinator", daemon=True)
    thread.start()
    deadline = time.monotonic() + timeout
    with ServiceClient(host, port) as client:
        while thread.is_alive() and not client.fleet_status()["shards_queued"]:
            if time.monotonic() > deadline:
                raise TimeoutError("the campaign queued no shards")
            time.sleep(0.02)

    procs = []
    if thread.is_alive():
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        procs = [
            ctx.Process(
                target=remote_worker_main,
                args=(host, port),
                kwargs={"name": f"test-worker-{index}", "exit_when_idle": True},
                daemon=True,
            )
            for index in range(workers)
        ]
        for process in procs:
            process.start()
    thread.join(max(0.0, deadline - time.monotonic()))
    for process in procs:
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.terminate()
            process.join(1.0)
    if thread.is_alive():
        raise TimeoutError("the campaign did not finish")
    if "error" in outcome:
        raise outcome["error"]
    assert all(process.exitcode == 0 for process in procs), [
        process.exitcode for process in procs
    ]
    return outcome["value"]
