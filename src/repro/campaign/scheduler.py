"""The one supervised worker pool.

The scheduler turns a list of task names into a set of
:class:`TaskResult`\\ s by fanning out over a ``multiprocessing`` pool
it supervises itself.  Every local parallel path runs here:
``campaign run --jobs N`` and the sharded Ballista sweep.  A campaign
of width one never comes here: the campaign runner injects it in its
own process.

* **Deterministic results** — tasks are queued in the order given and
  workers *steal* from the shared queue for load balance; because no
  code under ``src/`` draws from the global ``random`` module
  (``tests/test_no_global_random.py`` scans for it), results are
  bit-identical no matter which worker executes a task or in what
  order tasks finish.
* **Per-task timeout** — the parent timestamps every task start; a
  worker that exceeds the deadline is killed, the task retried on a
  fresh worker (bounded by ``task_retries``) or marked ``failed``.
* **Heartbeats** — every worker beats from a side thread each
  :data:`HEARTBEAT_INTERVAL`; a worker alive but silent past
  ``heartbeat_timeout`` (stopped, or wedged outside the interpreter)
  is killed and its task retried, even when ``timeout`` is None.
* **Graceful degradation** — a crashed worker (raised, killed, or
  died outright) fails only its current task; the pool respawns a
  replacement and the campaign continues.  Dispatch is per task, so a
  dead worker strands nothing but the task it was running.

Results travel over one ``Pipe`` per worker rather than a shared
``multiprocessing.Queue``: ``Connection.send`` writes synchronously
(no feeder thread), so a worker that dies right after reporting can
not lose the report, and worker death itself surfaces as EOF on its
pipe instead of needing liveness polling.

Chaos hook
----------

``REPRO_FLEET_CHAOS=kill-after:N`` makes a pool worker ``SIGKILL``
itself after completing N tasks — the deterministic stand-in for
``kill -9`` that the recovery tests and the CI pool job use to prove
retry-on-death without racing a real signal against the pool.  The
hook is read once per completion and does nothing when the variable
is unset.

The worker callable must be picklable (a module-level function or a
``functools.partial`` of one) and return a JSON-able payload dict.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.obs.telemetry import NULL_TELEMETRY

#: Default per-task wall-clock limit (seconds) under a parallel pool.
DEFAULT_TASK_TIMEOUT = 300.0

#: Extra attempts granted to a task whose worker crashed or hung.
DEFAULT_TASK_RETRIES = 1

#: Worker heartbeat period (seconds).
HEARTBEAT_INTERVAL = 0.5

#: Parent-side silence budget: a worker alive but silent this long is
#: treated as wedged and killed.  Generous — heartbeats flow from a
#: side thread even during CPU-bound injection.
DEFAULT_HEARTBEAT_TIMEOUT = 60.0

#: Environment variable holding the chaos policy (``kill-after:N``).
CHAOS_ENV = "REPRO_FLEET_CHAOS"

#: Parent poll interval while waiting on worker messages (seconds).
_POLL = 0.05

#: All workers idle + dispatched work unclaimed for this long means a
#: task was lost in the dispatch window (worker died between dequeue
#: and its ``start`` report); the remainder is failed, not waited on.
_STALL_LIMIT = 30.0


@dataclass
class TaskResult:
    """Terminal state of one scheduled task."""

    __test__ = False  # not a pytest collection target

    name: str
    status: str  # "ok" | "failed"
    payload: Optional[dict] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def effective_jobs(jobs: int, task_count: int | None = None) -> int:
    """Pool width actually worth running: clamped to the host CPU count
    — oversubscribing cores never speeds up CPU-bound injection work,
    it only adds scheduling noise (a 4-worker pool on a 1-core host
    benches *slower* than serial) — and to the task count when known
    (a worker with no task to run is pure spawn cost).  Benches record
    this value."""
    width = min(max(1, jobs), os.cpu_count() or 1)
    if task_count is not None:
        width = max(1, min(width, task_count))
    return width


def clamp_jobs(jobs: int, task_count: int, telemetry=NULL_TELEMETRY) -> int:
    """:func:`effective_jobs` plus the audit trail: whenever the clamp
    changes the requested width, a ``campaign.jobs_clamped`` event
    records the decision, so a bench or operator can always see why
    fewer workers ran than were asked for."""
    width = effective_jobs(jobs, task_count)
    if width != max(1, jobs):
        telemetry.event(
            "campaign.jobs_clamped",
            requested=jobs,
            effective=width,
            task_count=task_count,
            cpu_count=os.cpu_count() or 1,
        )
    return width


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def maybe_chaos_exit(completed: int) -> None:
    """Honour ``REPRO_FLEET_CHAOS=kill-after:N``: after N completed
    tasks the worker SIGKILLs itself (no cleanup, no goodbye —
    exactly what a kernel OOM kill or a ``kill -9`` looks like)."""
    policy = os.environ.get(CHAOS_ENV, "")
    if not policy.startswith("kill-after:"):
        return
    try:
        threshold = int(policy.split(":", 1)[1])
    except ValueError:
        return
    if completed >= threshold:
        os.kill(os.getpid(), signal.SIGKILL)


def _pool_worker(worker, task_q, conn):
    """Worker loop: announce, execute, report; never raises.

    All sends share one lock because the heartbeat thread writes the
    same pipe.
    """
    import traceback

    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            conn.send(message)

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            try:
                send(("hb",))
            except (OSError, ValueError):
                return

    threading.Thread(target=beat, name="pool-heartbeat", daemon=True).start()
    completed = 0
    try:
        while True:
            item = task_q.get()
            if item is None:
                break
            attempt, name = item
            send(("start", name, attempt))
            started = time.perf_counter()
            try:
                payload = worker(name)
            except BaseException:
                send(("err", name, attempt, traceback.format_exc(limit=20)))
            else:
                send(
                    ("ok", name, attempt, payload, time.perf_counter() - started)
                )
            completed += 1
            maybe_chaos_exit(completed)
    except (BrokenPipeError, EOFError, KeyboardInterrupt):
        pass
    finally:
        stop.set()
        with send_lock:
            conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class _WorkerSlot:
    """Parent-side view of one pool process."""

    __slots__ = ("process", "conn", "current", "started_at", "last_beat")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.current: Optional[tuple[str, int]] = None  # (name, attempt)
        self.started_at = 0.0
        self.last_beat = time.perf_counter()


def run_tasks(
    names: Sequence[str],
    worker: Callable[[str], dict],
    jobs: int = 1,
    timeout: Optional[float] = DEFAULT_TASK_TIMEOUT,
    task_retries: int = DEFAULT_TASK_RETRIES,
    telemetry=NULL_TELEMETRY,
    on_result: Optional[Callable[[TaskResult], None]] = None,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
) -> dict[str, TaskResult]:
    """Execute ``worker(name)`` for every name; returns name→result.

    ``timeout`` bounds one task's wall clock (None: unbounded) and
    ``heartbeat_timeout`` bounds a pool worker's silence; either kill
    retries the task within ``task_retries``.  ``on_result`` fires in
    completion order; callers needing deterministic output must iterate
    their own task order (the campaign runner assembles in catalog
    order).
    """
    if not names:
        return {}
    if len(set(names)) != len(names):
        raise ValueError("duplicate task names")

    # Imported here, not at module level: a width-1 campaign imports
    # this module but never starts a pool.
    import multiprocessing as mp
    from multiprocessing import connection as mp_connection

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    task_q = ctx.Queue()
    # Clamp the pool to the host's cores; a supervised pool is kept
    # even at width 1 so timeout policing and crash containment still
    # apply.
    width = clamp_jobs(jobs, len(names), telemetry=telemetry)

    def spawn() -> _WorkerSlot:
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_pool_worker,
            args=(worker, task_q, sender),
            daemon=True,
        )
        process.start()
        sender.close()  # parent keeps only the read end
        telemetry.counter("fleet.workers_spawned").inc()
        return _WorkerSlot(process, receiver)

    for name in names:
        task_q.put((1, name))

    slots: dict[int, _WorkerSlot] = {i: spawn() for i in range(width)}
    conn_to_id = {slot.conn: wid for wid, slot in slots.items()}
    next_worker_id = width
    results: dict[str, TaskResult] = {}
    attempts_used: dict[str, int] = {}
    last_activity = time.perf_counter()

    def finalize(result: TaskResult) -> None:
        telemetry.counter("campaign.tasks", status=result.status).inc()
        results[result.name] = result
        if on_result is not None:
            on_result(result)

    def retry_or_fail(name: str, attempt: int, error: str) -> None:
        attempts_used[name] = attempt
        if name in results:
            return
        if attempt <= task_retries:
            task_q.put((attempt + 1, name))
            telemetry.counter("fleet.task_retries").inc()
        else:
            finalize(TaskResult(name, "failed", error=error, attempts=attempt))

    def retire(worker_id: int, reason: Optional[str] = None) -> None:
        """Kill and reap one worker, retry or fail the task it was
        running, and spawn its replacement.  ``reason=None`` means the
        worker died on its own (EOF on its pipe)."""
        nonlocal next_worker_id
        slot = slots.pop(worker_id)
        conn_to_id.pop(slot.conn, None)
        slot.conn.close()
        slot.process.kill()
        slot.process.join(timeout=1.0)
        if reason is None:
            telemetry.counter("fleet.worker_deaths").inc()
            reason = f"worker died (exitcode {slot.process.exitcode})"
        if slot.current is not None:
            name, attempt = slot.current
            telemetry.event("fleet.worker_crash", function=name, reason=reason)
            retry_or_fail(
                name, attempt, f"{reason} and the retry budget is spent"
            )
        if len(results) < len(names):
            replacement = spawn()
            slots[next_worker_id] = replacement
            conn_to_id[replacement.conn] = next_worker_id
            next_worker_id += 1

    try:
        while len(results) < len(names):
            if slots:
                ready = mp_connection.wait(list(conn_to_id), timeout=_POLL)
            else:
                ready = []
                time.sleep(_POLL)
            now = time.perf_counter()
            for conn in ready:
                worker_id = conn_to_id.get(conn)
                if worker_id is None:
                    continue
                slot = slots[worker_id]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    retire(worker_id)
                    last_activity = now
                    continue
                slot.last_beat = now
                kind = message[0]
                if kind == "hb":
                    continue
                last_activity = now
                if kind == "start":
                    slot.current = (message[1], message[2])
                    slot.started_at = now
                elif kind == "ok":
                    slot.current = None
                    _, name, attempt, payload, elapsed = message
                    if name not in results:
                        finalize(
                            TaskResult(
                                name, "ok", payload=payload,
                                elapsed=elapsed, attempts=attempt,
                            )
                        )
                elif kind == "err":
                    slot.current = None
                    _, name, attempt, error = message
                    retry_or_fail(name, attempt, error)

            for worker_id, slot in list(slots.items()):
                if (
                    timeout is not None
                    and slot.current is not None
                    and now - slot.started_at > timeout
                ):
                    # Deadline policing for hung tasks.
                    telemetry.event(
                        "fleet.task_timeout", function=slot.current[0]
                    )
                    retire(worker_id, f"timed out after {timeout:.1f}s")
                    last_activity = now
                elif now - slot.last_beat > heartbeat_timeout:
                    # Wedge policing: alive but silent, not even beats.
                    telemetry.event("fleet.worker_wedged", worker=worker_id)
                    retire(worker_id, "worker went silent (no heartbeats)")
                    last_activity = now

            # Stall guard for the start-report race (worker died between
            # dequeue and announce): all workers idle, nothing arriving,
            # yet tasks outstanding.
            all_idle = all(slot.current is None for slot in slots.values())
            if all_idle and now - last_activity > _STALL_LIMIT:
                for name in names:
                    if name not in results:
                        finalize(
                            TaskResult(
                                name, "failed", error="task lost by the pool",
                                attempts=attempts_used.get(name, 0) + 1,
                            )
                        )
    finally:
        for _ in slots:
            task_q.put(None)
        deadline = time.perf_counter() + 2.0
        for slot in slots.values():
            slot.process.join(timeout=max(0.0, deadline - time.perf_counter()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            slot.conn.close()
        task_q.cancel_join_thread()
        task_q.close()
    return results
