"""The shard broker: lease-based work distribution for remote fleets.

One :class:`ShardBroker` lives inside a service daemon
(:class:`~repro.service.handlers.ServiceState`) and mediates between a
campaign coordinator (``fleet.submit`` / ``fleet.collect``) and any
number of remote workers (``worker.register`` / ``worker.lease`` /
``worker.result`` / ``worker.complete``):

* **Leases, not assignments.**  A worker *leases* a shard for
  ``lease_ttl`` seconds and renews by heartbeating.  A worker that
  dies, hangs, or partitions simply stops renewing; on expiry every
  function it had not yet reported returns to the queue as a fresh
  shard with its attempt count bumped — the remote failure model needs
  no worker-death detection beyond the absence of heartbeats.
* **At-least-once, first-report-wins.**  An expired worker may still
  be running; if its late results arrive after a retry was queued they
  are accepted iff the function is not already terminal.  Because
  every attempt is deterministic (bit-identical results), which
  report lands first does not change campaign output.
* **Bounded retries.**  Each function carries its attempt number in
  the shard; once attempts exceed ``task_retries + 1`` the function is
  failed with a lease-expiry error instead of crash-looping a poison
  function through the fleet forever.
* **Result streaming.**  Reported results append to a per-campaign
  ordered log; ``collect(after=seq)`` returns the suffix, so the
  coordinator checkpoints incrementally instead of waiting for the
  whole campaign.

All state is in-memory and lock-protected; the clock is injectable so
lease-expiry tests run on a fake clock instead of sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.fleet.wire import (
    FunctionResult,
    ShardSpec,
    verify_fingerprints,
)
from repro.obs.telemetry import NULL_TELEMETRY

#: Default shard lease duration; also the worker heartbeat contract
#: (workers renew every ttl/3).
DEFAULT_LEASE_TTL = 30.0

#: Finished campaigns kept for late ``fleet.collect`` calls.
MAX_FINISHED_JOBS = 8


class BrokerError(ValueError):
    """An operation against unknown workers, campaigns, or shards."""


@dataclass
class _Lease:
    worker_id: str
    shard: ShardSpec
    expires_at: float
    reported: set[str] = field(default_factory=set)


@dataclass
class _Function:
    digest: str
    status: str = "pending"        # pending | leased | ok | failed
    attempt: int = 1


class _Job:
    """All broker state of one submitted campaign."""

    def __init__(self, campaign: str, task_retries: int) -> None:
        self.campaign = campaign
        self.task_retries = task_retries
        self.queue: deque[ShardSpec] = deque()
        self.functions: dict[str, _Function] = {}
        self.results: list[dict] = []   # encoded FunctionResults, arrival order
        self.next_reshard = 0

    @property
    def done(self) -> bool:
        return all(f.status in ("ok", "failed") for f in self.functions.values())

    def mint_shard_id(self) -> str:
        self.next_reshard += 1
        return f"{self.campaign}/r{self.next_reshard}"


class ShardBroker:
    """Thread-safe lease queue keyed by campaign."""

    def __init__(
        self,
        telemetry=NULL_TELEMETRY,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.telemetry = telemetry
        self.lease_ttl = lease_ttl
        self._clock = clock
        self._lock = threading.RLock()
        self._jobs: dict[str, _Job] = {}
        self._leases: dict[str, _Lease] = {}        # shard_id -> lease
        self._workers: dict[str, dict] = {}         # worker_id -> info
        self._next_worker = 0
        self.lease_expiries = 0
        self.reshard_count = 0

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def register(self, name: str, fingerprints: dict) -> dict:
        """Admit one worker; fingerprint skew is refused up front."""
        verify_fingerprints(fingerprints)
        with self._lock:
            self._next_worker += 1
            worker_id = f"w{self._next_worker}"
            self._workers[worker_id] = {
                "name": str(name),
                "registered_at": self._clock(),
                "last_seen": self._clock(),
                "shards_done": 0,
                "results": 0,
            }
            self.telemetry.counter("fleet.workers_registered").inc()
            self._update_gauges()
            return {"worker_id": worker_id, "lease_ttl": self.lease_ttl}

    def _touch(self, worker_id: str) -> dict:
        worker = self._workers.get(worker_id)
        if worker is None:
            raise BrokerError(f"unknown worker {worker_id!r} (register first)")
        worker["last_seen"] = self._clock()
        return worker

    def lease(self, worker_id: str) -> Optional[ShardSpec]:
        """Hand the next queued shard to ``worker_id``, or None."""
        with self._lock:
            self._touch(worker_id)
            self._expire_locked()
            for job in self._jobs.values():
                if job.queue:
                    shard = job.queue.popleft()
                    self._leases[shard.shard_id] = _Lease(
                        worker_id=worker_id,
                        shard=shard,
                        expires_at=self._clock() + self.lease_ttl,
                    )
                    for name in shard.functions:
                        job.functions[name].status = "leased"
                    self.telemetry.counter("fleet.shards_leased_total").inc()
                    self._update_gauges()
                    return shard
            return None

    def heartbeat(self, worker_id: str) -> dict:
        """Renew every lease the worker holds; liveness bookkeeping."""
        with self._lock:
            self._touch(worker_id)
            renewed = 0
            for lease in self._leases.values():
                if lease.worker_id == worker_id:
                    lease.expires_at = self._clock() + self.lease_ttl
                    renewed += 1
            return {"renewed": renewed, "lease_ttl": self.lease_ttl}

    def record_result(
        self, campaign: str, result: FunctionResult, worker_id: Optional[str] = None
    ) -> bool:
        """Accept one function result; returns False for duplicates
        (the function already reached a terminal state)."""
        with self._lock:
            if worker_id is not None:
                self._touch(worker_id)
                self._workers[worker_id]["results"] += 1
            job = self._job(campaign)
            entry = job.functions.get(result.function)
            if entry is None:
                raise BrokerError(
                    f"function {result.function!r} is not part of "
                    f"campaign {campaign!r}"
                )
            if entry.status in ("ok", "failed"):
                self.telemetry.counter("fleet.duplicate_results").inc()
                return False
            lease = self._leases.get(self._shard_of(result, job))
            if lease is not None:
                lease.reported.add(result.function)
            if result.ok:
                entry.status = "ok"
                entry.attempt = result.attempt
                job.results.append(result.encode())
            elif result.attempt >= job.task_retries + 1:
                entry.status = "failed"
                entry.attempt = result.attempt
                job.results.append(result.encode())
            else:
                # Failed with budget left: requeue alone, next attempt.
                entry.status = "pending"
                entry.attempt = result.attempt + 1
                self._requeue(job, [result.function], count_reshard=False)
                self.telemetry.counter("fleet.task_retries").inc()
            self.telemetry.counter("fleet.results_streamed").inc()
            self._update_gauges()
            return True

    def complete(self, worker_id: str, shard_id: str) -> dict:
        """Release a finished lease; unreported stragglers requeue."""
        with self._lock:
            worker = self._touch(worker_id)
            lease = self._leases.pop(shard_id, None)
            if lease is None:
                return {"released": False}
            worker["shards_done"] += 1
            job = self._jobs.get(lease.shard.campaign)
            if job is not None:
                missing = [
                    name
                    for name in lease.shard.functions
                    if job.functions[name].status == "leased"
                ]
                if missing:
                    self._requeue(job, missing, template=lease.shard)
            self._update_gauges()
            return {"released": True}

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------

    def submit(
        self, shards: list[ShardSpec], task_retries: int = 1
    ) -> dict:
        """Queue a campaign's shards.  Idempotent per campaign id: a
        coordinator retrying a lost submit does not double-queue."""
        if not shards:
            raise BrokerError("cannot submit an empty shard list")
        campaigns = {s.campaign for s in shards}
        if len(campaigns) != 1:
            raise BrokerError("one submit covers exactly one campaign")
        campaign = shards[0].campaign
        with self._lock:
            if campaign in self._jobs:
                return {"campaign": campaign, "queued": 0, "deduped": True}
            self._gc_finished_locked()
            job = _Job(campaign, task_retries)
            for shard in shards:
                for name, digest, attempt in zip(
                    shard.functions, shard.digests, shard.attempts
                ):
                    if name in job.functions:
                        raise BrokerError(
                            f"function {name!r} appears in two shards"
                        )
                    job.functions[name] = _Function(digest, "pending", attempt)
                job.queue.append(shard)
            self._jobs[campaign] = job
            self.telemetry.counter("fleet.shards_submitted").inc(len(shards))
            self._update_gauges()
            return {
                "campaign": campaign,
                "queued": len(shards),
                "functions": len(job.functions),
                "deduped": False,
            }

    def satisfy_from_cache(
        self, campaign: str, function: str, payload: dict
    ) -> bool:
        """Mark one function complete from the server's outcome store —
        the fleet-wide dedup path: a digest any prior campaign already
        computed never reaches a worker."""
        with self._lock:
            job = self._job(campaign)
            entry = job.functions.get(function)
            if entry is None or entry.status in ("ok", "failed"):
                return False
            entry.status = "ok"
            job.results.append(
                FunctionResult(
                    function=function,
                    digest=entry.digest,
                    status="ok",
                    attempt=entry.attempt,
                    elapsed=0.0,
                    payload=payload,
                    source="cache",
                ).encode()
            )
            # Pull the function out of its queued shard so no worker
            # re-runs it.
            requeue: list[ShardSpec] = []
            for shard in list(job.queue):
                if function in shard.functions:
                    job.queue.remove(shard)
                    rest = [n for n in shard.functions if n != function]
                    if rest:
                        requeue.append(self._reshard(job, shard, rest))
            job.queue.extend(requeue)
            self.telemetry.counter("fleet.cache_satisfied").inc()
            self._update_gauges()
            return True

    def collect(self, campaign: str, after: int = 0) -> dict:
        """The result stream from sequence number ``after`` on."""
        with self._lock:
            self._expire_locked()
            job = self._job(campaign)
            results = job.results[after:]
            return {
                "campaign": campaign,
                "after": after,
                "seq": len(job.results),
                "results": results,
                "done": job.done,
            }

    def forget(self, campaign: str) -> bool:
        """Drop a campaign's state once its coordinator is finished."""
        with self._lock:
            job = self._jobs.pop(campaign, None)
            for shard_id, lease in list(self._leases.items()):
                if lease.shard.campaign == campaign:
                    del self._leases[shard_id]
            self._update_gauges()
            return job is not None

    # ------------------------------------------------------------------
    # expiry + introspection
    # ------------------------------------------------------------------

    def expire(self) -> int:
        """Requeue every expired lease's unreported functions;
        returns how many leases expired."""
        with self._lock:
            return self._expire_locked()

    def _expire_locked(self) -> int:
        now = self._clock()
        expired = [
            shard_id
            for shard_id, lease in self._leases.items()
            if lease.expires_at <= now
        ]
        for shard_id in expired:
            lease = self._leases.pop(shard_id)
            self.lease_expiries += 1
            self.telemetry.counter("fleet.lease_expiries").inc()
            self.telemetry.event(
                "fleet.lease_expired",
                shard=shard_id,
                worker=lease.worker_id,
            )
            job = self._jobs.get(lease.shard.campaign)
            if job is None:
                continue
            retry: list[str] = []
            for name in lease.shard.functions:
                entry = job.functions[name]
                if entry.status != "leased":
                    continue
                next_attempt = lease.shard.attempt_for(name) + 1
                if next_attempt > job.task_retries + 1:
                    entry.status = "failed"
                    entry.attempt = next_attempt - 1
                    job.results.append(
                        FunctionResult(
                            function=name,
                            digest=entry.digest,
                            status="failed",
                            attempt=next_attempt - 1,
                            elapsed=0.0,
                            error=(
                                f"lease expired on worker "
                                f"{lease.worker_id} (shard {shard_id})"
                            ),
                        ).encode()
                    )
                else:
                    entry.status = "pending"
                    entry.attempt = next_attempt
                    retry.append(name)
            if retry:
                self._requeue(job, retry, template=lease.shard)
        if expired:
            self._update_gauges()
        return len(expired)

    def status(self) -> dict:
        """Fleet-wide visibility, also refreshing the gauges."""
        with self._lock:
            self._expire_locked()
            now = self._clock()
            alive_after = now - 2 * self.lease_ttl
            workers = {
                worker_id: {
                    "name": info["name"],
                    "alive": info["last_seen"] >= alive_after,
                    "idle_seconds": round(now - info["last_seen"], 3),
                    "shards_done": info["shards_done"],
                    "results": info["results"],
                }
                for worker_id, info in self._workers.items()
            }
            jobs = {
                campaign: {
                    "queued_shards": len(job.queue),
                    "functions": len(job.functions),
                    "pending": sum(
                        1 for f in job.functions.values()
                        if f.status in ("pending", "leased")
                    ),
                    "done": job.done,
                }
                for campaign, job in self._jobs.items()
            }
            self._update_gauges()
            return {
                "lease_ttl": self.lease_ttl,
                "workers": workers,
                "workers_alive": sum(1 for w in workers.values() if w["alive"]),
                "shards_leased": len(self._leases),
                "shards_queued": sum(len(j.queue) for j in self._jobs.values()),
                "lease_expiries": self.lease_expiries,
                "reshard_count": self.reshard_count,
                "campaigns": jobs,
            }

    # ------------------------------------------------------------------
    # internals (callers hold the lock)
    # ------------------------------------------------------------------

    def _job(self, campaign: str) -> _Job:
        job = self._jobs.get(campaign)
        if job is None:
            raise BrokerError(f"unknown campaign {campaign!r}")
        return job

    def _shard_of(self, result: FunctionResult, job: _Job) -> str:
        for shard_id, lease in self._leases.items():
            if (
                lease.shard.campaign == job.campaign
                and result.function in lease.shard.functions
            ):
                return shard_id
        return ""

    def _reshard(
        self, job: _Job, template: ShardSpec, functions: list[str]
    ) -> ShardSpec:
        return ShardSpec.build(
            shard_id=job.mint_shard_id(),
            campaign=job.campaign,
            run=template.run,
            functions=functions,
            digests=[template.digest_for(n) for n in functions],
            attempts=[job.functions[n].attempt for n in functions],
            fingerprints=dict(template.fingerprints),
        )

    def _requeue(
        self,
        job: _Job,
        functions: list[str],
        template: Optional[ShardSpec] = None,
        count_reshard: bool = True,
    ) -> None:
        if template is None:
            template = self._any_shard(job, functions[0])
        shard = self._reshard(job, template, functions)
        for name in functions:
            job.functions[name].status = "pending"
        job.queue.append(shard)
        if count_reshard:
            self.reshard_count += 1
            self.telemetry.counter("fleet.reshard_count").inc()
            self.telemetry.event(
                "fleet.reshard", campaign=job.campaign,
                shard=shard.shard_id, functions=len(functions),
            )

    def _any_shard(self, job: _Job, function: str) -> ShardSpec:
        for shard in job.queue:
            if function in shard.functions:
                return shard
        for lease in self._leases.values():
            if (
                lease.shard.campaign == job.campaign
                and function in lease.shard.functions
            ):
                return lease.shard
        raise BrokerError(
            f"no shard carries {function!r} in campaign {job.campaign!r}"
        )

    def _gc_finished_locked(self) -> None:
        finished = [c for c, j in self._jobs.items() if j.done]
        while len(finished) > MAX_FINISHED_JOBS:
            self._jobs.pop(finished.pop(0), None)

    def _update_gauges(self) -> None:
        now = self._clock()
        alive_after = now - 2 * self.lease_ttl
        self.telemetry.gauge("fleet.workers_alive").set(
            sum(
                1
                for info in self._workers.values()
                if info["last_seen"] >= alive_after
            )
        )
        self.telemetry.gauge("fleet.shards_leased").set(len(self._leases))
        self.telemetry.gauge("fleet.shards_queued").set(
            sum(len(j.queue) for j in self._jobs.values())
        )
