"""The process fleet: campaign shards in true OS processes.

Where the legacy :mod:`~repro.campaign.scheduler` pool dispatches one
function at a time, the process fleet ships whole *shards* (the
:mod:`~repro.fleet.wire` format) to spawn-safe ``multiprocessing``
workers and supervises them with the full fleet failure model:

* **Heartbeats** — every worker beats from a side thread each
  :data:`HEARTBEAT_INTERVAL`; a worker whose beats stop while its
  process is wedged (alive but silent past ``heartbeat_timeout``) is
  killed and its work resharded, the same path as outright death.
* **Per-task deadlines** — the parent timestamps each function start;
  exceeding ``timeout`` kills the worker and retries the function on a
  fresh one (bounded by ``task_retries``).
* **Worker death → reshard-and-retry** — death surfaces as EOF on the
  worker's pipe (``kill -9`` included).  The function it was running
  retries with its attempt bumped; the rest of its shard requeues as a
  fresh shard (``fleet.reshard_count``), so one dead worker costs one
  function attempt, never a shard.
* **Deterministic merge** — every function re-seeds from the campaign
  seed and its own name, so results are bit-identical to serial no
  matter which worker ran what; the campaign runner assembles catalog
  order as always.

Results stream back per function over one pipe per worker (sends are
synchronous; death cannot lose a delivered result, and needs no
liveness polling to detect).
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Callable, Optional, Sequence

from repro.campaign.scheduler import (
    DEFAULT_TASK_RETRIES,
    DEFAULT_TASK_TIMEOUT,
    TaskResult,
)
from repro.fleet.wire import FunctionResult, ShardSpec
from repro.fleet.worker import execute_function, maybe_chaos_exit
from repro.obs.telemetry import NULL_TELEMETRY

#: Worker heartbeat period (seconds).
HEARTBEAT_INTERVAL = 0.5

#: Parent-side silence budget: a worker alive but silent this long is
#: treated as wedged and resharded.  Generous — heartbeats flow from a
#: side thread even during CPU-bound injection.
DEFAULT_HEARTBEAT_TIMEOUT = 60.0

#: Parent poll interval while waiting on worker messages (seconds).
_POLL = 0.05

#: All workers idle + tasks outstanding for this long means a shard was
#: lost in the dispatch window; the remainder is requeued with bumped
#: attempts (bounded by the retry budget), not waited on forever.
_STALL_LIMIT = 30.0


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


# ----------------------------------------------------------------------
# worker side (module-level: spawn-safe)
# ----------------------------------------------------------------------


def _process_worker_main(worker_id: int, task_q, conn) -> None:
    """Worker loop: lease, execute function by function, report.

    All sends share one lock because the heartbeat thread writes the
    same pipe.  Never raises.
    """
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            conn.send(message)

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            try:
                send(("hb", worker_id, time.monotonic()))
            except (OSError, ValueError):
                return

    threading.Thread(
        target=beat, name=f"fleet-hb-{worker_id}", daemon=True
    ).start()

    completed = 0
    try:
        while True:
            item = task_q.get()
            if item is None:
                break
            shard = ShardSpec.decode(item)
            send(("lease", worker_id, shard.shard_id))
            shard.verify_local()
            for name, digest, attempt in zip(
                shard.functions, shard.digests, shard.attempts
            ):
                send(("start", worker_id, shard.shard_id, name, attempt))
                result = execute_function(
                    name, digest, shard.seed, shard.max_vectors, attempt,
                    worker=f"proc-{worker_id}",
                    fault_models=shard.fault_models,
                )
                completed += 1
                send(("fn", worker_id, shard.shard_id, result.encode()))
                maybe_chaos_exit(completed)
            send(("done", worker_id, shard.shard_id))
    except (BrokenPipeError, EOFError, KeyboardInterrupt):
        pass
    finally:
        stop.set()
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class _Slot:
    """Parent-side view of one fleet worker process."""

    __slots__ = (
        "process", "conn", "shard_id", "current", "started_at", "last_beat"
    )

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.shard_id: Optional[str] = None
        self.current: Optional[tuple[str, int]] = None   # (function, attempt)
        self.started_at = 0.0
        self.last_beat = time.monotonic()


def run_process_fleet(
    names: Sequence[str],
    digests: dict[str, str],
    *,
    campaign: str,
    workers: int,
    seed: int = 0,
    max_vectors: int,
    timeout: Optional[float] = DEFAULT_TASK_TIMEOUT,
    task_retries: int = DEFAULT_TASK_RETRIES,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    telemetry=NULL_TELEMETRY,
    on_result: Optional[Callable[[TaskResult], None]] = None,
    fault_models: Sequence[str] = (),
) -> dict[str, TaskResult]:
    """Execute every function through a supervised process fleet."""
    from repro.fleet import build_shards

    if not names:
        return {}
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    task_q = ctx.Queue()

    shards = build_shards(
        names, digests, workers, campaign=campaign, seed=seed,
        max_vectors=max_vectors, fault_models=fault_models,
    )
    width = len(shards)
    shards_by_id: dict[str, ShardSpec] = {s.shard_id: s for s in shards}
    # Remaining (not-yet-terminal) functions of each shard, with the
    # attempt each would requeue as.
    shard_remaining: dict[str, dict[str, int]] = {
        s.shard_id: dict(zip(s.functions, s.attempts)) for s in shards
    }
    reshard_seq = 0
    results: dict[str, TaskResult] = {}
    last_activity = time.monotonic()

    def finalize(result: TaskResult) -> None:
        telemetry.counter("campaign.tasks", status=result.status).inc()
        results[result.name] = result
        if on_result is not None:
            on_result(result)

    def submit(shard: ShardSpec) -> None:
        shards_by_id[shard.shard_id] = shard
        shard_remaining[shard.shard_id] = dict(
            zip(shard.functions, shard.attempts)
        )
        task_q.put(shard.encode())

    def reshard(pairs: list[tuple[str, int]], template: ShardSpec) -> None:
        """Requeue (function, attempt) pairs as a fresh shard; pairs
        past the retry budget fail instead."""
        nonlocal reshard_seq
        retry: list[tuple[str, int]] = []
        for name, attempt in pairs:
            if name in results:
                continue
            if attempt > task_retries + 1:
                finalize(
                    TaskResult(
                        name, "failed",
                        error="worker died and the retry budget is spent",
                        attempts=attempt - 1,
                    )
                )
            else:
                retry.append((name, attempt))
        if not retry:
            return
        reshard_seq += 1
        shard = ShardSpec.build(
            shard_id=f"{campaign}/r{reshard_seq}",
            campaign=campaign,
            seed=seed,
            max_vectors=max_vectors,
            functions=[n for n, _ in retry],
            digests=[digests[n] for n, _ in retry],
            attempts=[a for _, a in retry],
            fingerprints=dict(template.fingerprints),
            fault_models=template.fault_models,
        )
        submit(shard)
        telemetry.counter("fleet.reshard_count").inc()
        telemetry.event(
            "fleet.reshard", campaign=campaign, shard=shard.shard_id,
            functions=len(retry),
        )

    for shard in shards:
        task_q.put(shard.encode())

    def spawn(worker_id: int) -> _Slot:
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_process_worker_main,
            args=(worker_id, task_q, sender),
            daemon=True,
        )
        process.start()
        sender.close()
        telemetry.counter("fleet.workers_spawned").inc()
        return _Slot(process, receiver)

    slots: dict[int, _Slot] = {i: spawn(i) for i in range(width)}
    conn_to_id = {slot.conn: wid for wid, slot in slots.items()}
    next_worker_id = width

    def update_gauges() -> None:
        telemetry.gauge("fleet.workers_alive").set(
            sum(1 for s in slots.values() if s.process.is_alive())
        )
        telemetry.gauge("fleet.shards_leased").set(
            sum(1 for s in slots.values() if s.shard_id is not None)
        )

    update_gauges()

    def drop_slot(worker_id: int) -> None:
        slot = slots.pop(worker_id)
        conn_to_id.pop(slot.conn, None)
        slot.conn.close()
        slot.process.join(timeout=1.0)
        if slot.process.is_alive():
            slot.process.kill()
            slot.process.join(timeout=1.0)

    def respawn() -> None:
        nonlocal next_worker_id
        if len(results) < len(names):
            slot = spawn(next_worker_id)
            slots[next_worker_id] = slot
            conn_to_id[slot.conn] = next_worker_id
            next_worker_id += 1

    def handle_death(worker_id: int, reason: str) -> None:
        """The reshard-and-retry path shared by EOF, deadline kills,
        and wedged-worker kills."""
        slot = slots[worker_id]
        shard_id, current = slot.shard_id, slot.current
        drop_slot(worker_id)
        if shard_id is not None:
            remaining = shard_remaining.pop(shard_id, {})
            template = shards_by_id[shard_id]
            pairs: list[tuple[str, int]] = []
            for name, attempt in remaining.items():
                if name in results:
                    continue
                if current is not None and name == current[0]:
                    # The in-flight function consumed this attempt.
                    pairs.append((name, current[1] + 1))
                else:
                    pairs.append((name, attempt))
            if current is not None:
                telemetry.event(
                    "fleet.worker_crash", function=current[0], reason=reason
                )
            if pairs:
                reshard(pairs, template)
        respawn()
        update_gauges()

    try:
        while len(results) < len(names):
            if slots:
                ready = mp_connection.wait(list(conn_to_id), timeout=_POLL)
            else:
                ready = []
                time.sleep(_POLL)
            now = time.monotonic()
            for conn in ready:
                worker_id = conn_to_id.get(conn)
                if worker_id is None:
                    continue
                slot = slots[worker_id]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    exitcode = slot.process.exitcode
                    handle_death(worker_id, f"worker died (exitcode {exitcode})")
                    last_activity = now
                    continue
                slot.last_beat = now
                kind = message[0]
                if kind == "hb":
                    continue
                last_activity = now
                if kind == "lease":
                    slot.shard_id = message[2]
                elif kind == "start":
                    slot.current = (message[3], message[4])
                    slot.started_at = now
                elif kind == "fn":
                    slot.current = None
                    _, _, shard_id, doc = message
                    result = task_result_from(FunctionResult.decode(doc))
                    shard_remaining.get(shard_id, {}).pop(result.name, None)
                    if result.name in results:
                        continue
                    if result.ok or result.attempts > task_retries:
                        finalize(result)
                    else:
                        # Failed with retry budget left: requeue alone.
                        telemetry.counter("fleet.task_retries").inc()
                        reshard(
                            [(result.name, result.attempts + 1)],
                            shards_by_id[shard_id],
                        )
                elif kind == "done":
                    slot.shard_id = None
                    slot.current = None
                    update_gauges()

            # Deadline policing for hung functions.
            if timeout is not None:
                for worker_id, slot in list(slots.items()):
                    if slot.current is None:
                        continue
                    if now - slot.started_at <= timeout:
                        continue
                    telemetry.event(
                        "fleet.task_timeout", function=slot.current[0]
                    )
                    slot.process.terminate()
                    handle_death(
                        worker_id,
                        f"function timed out after {timeout:.1f}s",
                    )
                    last_activity = now

            # Wedged-worker policing: alive but silent (not even beats).
            for worker_id, slot in list(slots.items()):
                if now - slot.last_beat <= heartbeat_timeout:
                    continue
                telemetry.event("fleet.worker_wedged", worker=worker_id)
                slot.process.kill()
                handle_death(worker_id, "worker went silent (no heartbeats)")
                last_activity = now

            # Stall guard: shard lost between dequeue and its lease
            # report (the worker died in the dispatch window).
            all_idle = all(s.shard_id is None for s in slots.values())
            if all_idle and now - last_activity > _STALL_LIMIT:
                last_activity = now
                lost = [
                    (name, attempt + 1)
                    for shard_id, remaining in list(shard_remaining.items())
                    for name, attempt in remaining.items()
                    if name not in results
                ]
                if lost:
                    template = next(iter(shards_by_id.values()))
                    shard_remaining.clear()
                    reshard(lost, template)
    finally:
        for _ in range(len(slots) + 1):
            task_q.put(None)
        deadline = time.monotonic() + 2.0
        for slot in slots.values():
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            slot.conn.close()
        task_q.cancel_join_thread()
        task_q.close()
        update_gauges()
    return results
