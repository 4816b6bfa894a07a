"""repro.fleet — the process-isolated campaign fabric.

A campaign's inject phase runs in this process at a width of one, and
out of it in one of two placements:

local pool (``--jobs N``, ``fleet_mode: "processes"``)
    The supervised pool of :func:`repro.campaign.scheduler.run_tasks`
    — heartbeats, per-task deadlines, retry on worker death — running
    each function through :func:`repro.fleet.worker.run_function`.
remote fleet (``--connect HOST:PORT``, ``fleet_mode: "remote"``)
    Workers anywhere, leasing wire-format shards
    (:mod:`repro.fleet.wire`) from an already-running service daemon's
    broker over the v1 protocol, results streaming into the shared
    content-addressed outcome store (:mod:`repro.fleet.remote`).

:class:`~repro.campaign.runner.CampaignRunner` picks the placement:
a ``fleet_address`` selects the remote fleet, else ``jobs`` above one
the pool.  No code under ``src/`` draws from the global ``random``
module, so campaign output is bit-identical to serial execution no
matter the transport, the worker count, or how many workers died
along the way.
"""

from __future__ import annotations

from typing import Sequence

from repro.injector import RunSpec
from repro.campaign.scheduler import plan_shards
from repro.fleet.wire import (
    WIRE_VERSION,
    FingerprintMismatch,
    FunctionResult,
    ShardSpec,
    WireError,
    fleet_fingerprints,
    verify_fingerprints,
)

__all__ = [
    "WIRE_VERSION",
    "FingerprintMismatch",
    "FunctionResult",
    "ShardSpec",
    "WireError",
    "build_shards",
    "fleet_fingerprints",
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
