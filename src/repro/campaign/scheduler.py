"""The one supervised worker pool.

The scheduler turns a list of task names into a set of
:class:`TaskResult`\\ s by fanning out over a ``multiprocessing`` pool
it supervises itself.  Every local parallel path runs here:
``campaign run --jobs N`` and the sharded Ballista sweep.  A campaign
of width one never comes here: the campaign runner injects it in its
own process.

* **Parent-side dispatch** — each worker owns one duplex ``Pipe``.
  The parent keeps the pending tasks in the order given and sends a
  worker its next ``(attempt, name)`` when it spawns and after each
  result it reports, so the parent always knows which task every
  worker holds and no task can be lost.  Because no code under
  ``src/`` draws from the global ``random`` module
  (``tests/test_no_global_random.py`` scans for it), results are
  bit-identical no matter which worker executes a task or in what
  order tasks finish.
* **Per-task timeout** — a worker reports ``start`` when it picks a
  task up and the parent times the task from there; a worker that
  exceeds the deadline is killed, the task retried on a fresh worker
  (bounded by ``task_retries``) or marked ``failed``.
* **Heartbeats** — every worker beats from a side thread each
  :data:`HEARTBEAT_INTERVAL`; a worker alive but silent past
  ``heartbeat_timeout`` (stopped, or wedged outside the interpreter)
  is killed and its task retried, even when ``timeout`` is None.
* **Graceful degradation** — a crashed worker (raised, killed, or
  died outright) fails only its current task; the pool respawns a
  replacement and the campaign continues.  A task sent to a worker
  that dies before reporting ``start`` goes back to the front of the
  pending tasks at the same attempt: the task never ran.

``Connection.send`` writes synchronously (no feeder thread), so a
worker that dies right after reporting cannot lose the report, and
worker death itself surfaces as EOF on its pipe instead of needing
liveness polling.

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
from collections import deque
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


def _pool_worker(worker, conn):
    """Worker loop: receive a task, announce, execute, report; never
    raises.  ``None`` from the parent means no more work.

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
            item = conn.recv()
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
    except (OSError, EOFError, KeyboardInterrupt):
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
        #: the (attempt, name) this worker holds, if any
        self.current: Optional[tuple[int, str]] = None
        #: when the worker reported ``start`` for it (None: not yet)
        self.started_at: Optional[float] = None
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
    # Clamp the pool to the host's cores; a supervised pool is kept
    # even at width 1 so timeout policing and crash containment still
    # apply.
    width = clamp_jobs(jobs, len(names), telemetry=telemetry)
    pending: deque[tuple[int, str]] = deque((1, name) for name in names)
    slots: dict[int, _WorkerSlot] = {}
    conn_to_id: dict = {}
    next_worker_id = 0
    results: dict[str, TaskResult] = {}

    def dispatch(slot: _WorkerSlot) -> None:
        """Hand ``slot`` the next pending task, if there is one.  A
        send that fails (the worker is dead) puts the task back; EOF on
        the pipe then retires the worker."""
        slot.current = slot.started_at = None
        if not pending:
            return
        task = pending.popleft()
        try:
            slot.conn.send(task)
        except OSError:
            pending.appendleft(task)
        else:
            slot.current = task

    def spawn() -> None:
        nonlocal next_worker_id
        conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_pool_worker, args=(worker, child_conn), daemon=True
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        telemetry.counter("fleet.workers_spawned").inc()
        slot = slots[next_worker_id] = _WorkerSlot(process, conn)
        conn_to_id[conn] = next_worker_id
        next_worker_id += 1
        dispatch(slot)

    def finalize(result: TaskResult) -> None:
        telemetry.counter("campaign.tasks", status=result.status).inc()
        results[result.name] = result
        if on_result is not None:
            on_result(result)

    def retry_or_fail(name: str, attempt: int, error: str) -> None:
        if attempt <= task_retries:
            pending.append((attempt + 1, name))
            telemetry.counter("fleet.task_retries").inc()
        else:
            finalize(TaskResult(name, "failed", error=error, attempts=attempt))

    def retire(worker_id: int, reason: Optional[str] = None) -> None:
        """Kill and reap one worker, retry or fail the task it was
        running (or re-queue one it never started), and spawn a
        replacement while tasks wait.  ``reason=None`` means the worker
        died on its own (EOF on its pipe)."""
        slot = slots.pop(worker_id)
        del conn_to_id[slot.conn]
        slot.conn.close()
        slot.process.kill()
        slot.process.join(timeout=1.0)
        if reason is None:
            telemetry.counter("fleet.worker_deaths").inc()
            reason = f"worker died (exitcode {slot.process.exitcode})"
        if slot.current is not None:
            attempt, name = slot.current
            if slot.started_at is None:
                pending.appendleft(slot.current)
            else:
                telemetry.event("fleet.worker_crash", function=name, reason=reason)
                retry_or_fail(
                    name, attempt, f"{reason} and the retry budget is spent"
                )
        if pending:
            spawn()

    try:
        for _ in range(width):
            spawn()
        while len(results) < len(names):
            ready = mp_connection.wait(list(conn_to_id), timeout=_POLL)
            now = time.perf_counter()
            for conn in ready:
                worker_id = conn_to_id[conn]
                slot = slots[worker_id]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    retire(worker_id)
                    continue
                slot.last_beat = now
                kind = message[0]
                if kind == "start":
                    slot.started_at = now
                elif kind == "ok":
                    _, name, attempt, payload, elapsed = message
                    finalize(
                        TaskResult(
                            name, "ok", payload=payload,
                            elapsed=elapsed, attempts=attempt,
                        )
                    )
                    dispatch(slot)
                elif kind == "err":
                    _, name, attempt, error = message
                    retry_or_fail(name, attempt, error)
                    dispatch(slot)

            for worker_id, slot in list(slots.items()):
                if (
                    timeout is not None
                    and slot.started_at is not None
                    and now - slot.started_at > timeout
                ):
                    # Deadline policing for hung tasks.
                    telemetry.event("fleet.task_timeout", function=slot.current[1])
                    retire(worker_id, f"timed out after {timeout:.1f}s")
                elif now - slot.last_beat > heartbeat_timeout:
                    # Wedge policing: alive but silent, not even beats.
                    telemetry.event("fleet.worker_wedged", worker=worker_id)
                    retire(worker_id, "worker went silent (no heartbeats)")
    finally:
        for slot in slots.values():
            try:
                slot.conn.send(None)
            except OSError:
                pass
        deadline = time.perf_counter() + 2.0
        for slot in slots.values():
            slot.process.join(timeout=max(0.0, deadline - time.perf_counter()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            slot.conn.close()
    return results
