"""repro.fleet — the process-isolated campaign fabric.

A campaign's inject phase runs in one of three modes:

serial
    In the campaign runner's own process (``jobs`` / ``workers`` of
    1); a raising function fails alone, without retry or isolation.
``processes``
    The supervised pool of :func:`repro.campaign.scheduler.run_tasks`
    — heartbeats, per-task deadlines, retry on worker death — running
    each function through :func:`repro.fleet.worker.run_function`.
    ``--jobs N`` is this mode with ``N`` workers.
``remote``
    Workers anywhere, leasing wire-format shards
    (:mod:`repro.fleet.wire`) from a service daemon's broker over the
    v1 protocol, results streaming into the shared content-addressed
    outcome store (:mod:`repro.fleet.remote`).

No code under ``src/`` draws from the global ``random`` module, so
campaign output is bit-identical to serial execution no matter the
transport, the worker count, or how many workers died along the way.
:func:`run_fleet` (defined next to the campaign runner, which calls
it) is the single entry point of the two out-of-process modes.
"""

from __future__ import annotations

from typing import Sequence

from repro.campaign.runner import run_fleet
from repro.injector import RunSpec
from repro.campaign.scheduler import plan_shards
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
    run: RunSpec,
) -> list[ShardSpec]:
    """Stripe the campaign's functions into up to ``workers`` shards
    (same round-robin striping as :func:`plan_shards`, so shard
    membership is deterministic for a given catalog order)."""
    stripes = plan_shards(list(names), workers)
    return [
        ShardSpec.build(
            shard_id=f"{campaign}/{index}",
            campaign=campaign,
            run=run,
            functions=stripe,
            digests=[digests[name] for name in stripe],
        )
        for index, stripe in enumerate(stripes)
    ]
