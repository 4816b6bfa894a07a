"""repro.fleet — the process-isolated campaign fabric.

One abstraction, three transports.  A campaign is sliced into wire-
format shards (:mod:`repro.fleet.wire`) and executed by a *fleet*:

``threads``
    The honest GIL-bound baseline (:mod:`repro.fleet.threads`) —
    measured and labeled, never sold as a speedup.
``processes``
    True OS processes with heartbeats, per-task deadlines, and
    reshard-and-retry on worker death (:mod:`repro.fleet.process`).
``remote``
    Workers anywhere, leasing shards from a service daemon's broker
    over the v1 protocol, results streaming into the shared
    content-addressed outcome store (:mod:`repro.fleet.remote`).

Every mode reseeds per function from the campaign seed, so campaign
output is bit-identical to serial execution no matter the transport,
the worker count, or how many workers died along the way.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.campaign.scheduler import (
    DEFAULT_TASK_RETRIES,
    DEFAULT_TASK_TIMEOUT,
    TaskResult,
    clamp_jobs,
    plan_shards,
)
from repro.fleet.wire import (
    FLEET_MODES,
    WIRE_VERSION,
    FingerprintMismatch,
    FunctionResult,
    ShardSpec,
    WireError,
    fleet_fingerprints,
    verify_fingerprints,
)
from repro.obs.telemetry import NULL_TELEMETRY

__all__ = [
    "FLEET_MODES",
    "WIRE_VERSION",
    "FingerprintMismatch",
    "FunctionResult",
    "ShardSpec",
    "WireError",
    "build_shards",
    "fleet_fingerprints",
    "run_fleet",
    "verify_fingerprints",
]


def build_shards(
    names: Sequence[str],
    digests: dict[str, str],
    workers: int,
    *,
    campaign: str,
    seed: int,
    max_vectors: int,
    fault_models: Sequence[str] = (),
) -> list[ShardSpec]:
    """Stripe the campaign's functions into up to ``workers`` shards
    (same round-robin striping as the legacy scheduler, so shard
    membership is deterministic for a given catalog order)."""
    stripes = plan_shards(list(names), workers)
    return [
        ShardSpec.build(
            shard_id=f"{campaign}/{index}",
            campaign=campaign,
            seed=seed,
            max_vectors=max_vectors,
            functions=stripe,
            digests=[digests[name] for name in stripe],
            fault_models=fault_models,
        )
        for index, stripe in enumerate(stripes)
    ]


def run_fleet(
    mode: str,
    names: Sequence[str],
    digests: dict[str, str],
    *,
    campaign: str,
    workers: int,
    seed: int = 0,
    max_vectors: int,
    timeout: Optional[float] = DEFAULT_TASK_TIMEOUT,
    task_retries: int = DEFAULT_TASK_RETRIES,
    telemetry=NULL_TELEMETRY,
    on_result: Optional[Callable[[TaskResult], None]] = None,
    cache_dir=None,
    address: Optional[str] = None,
    fault_models: Sequence[str] = (),
) -> dict[str, TaskResult]:
    """Execute the named functions through the chosen fleet mode and
    return ``{name: TaskResult}`` (merge order is the caller's —
    the campaign runner assembles catalog order)."""
    if mode not in FLEET_MODES:
        raise ValueError(
            f"unknown fleet mode {mode!r} (choose from {FLEET_MODES})"
        )
    workers = clamp_jobs(workers, len(names), mode=mode, telemetry=telemetry)
    common = dict(
        campaign=campaign,
        workers=workers,
        seed=seed,
        max_vectors=max_vectors,
        timeout=timeout,
        task_retries=task_retries,
        telemetry=telemetry,
        on_result=on_result,
        fault_models=tuple(fault_models),
    )
    if mode == "threads":
        from repro.fleet.threads import run_thread_fleet

        return run_thread_fleet(names, digests, **common)
    if mode == "processes":
        from repro.fleet.process import run_process_fleet

        return run_process_fleet(names, digests, **common)
    from repro.fleet.remote import run_remote_fleet

    return run_remote_fleet(
        names, digests, cache_dir=cache_dir, address=address, **common
    )
