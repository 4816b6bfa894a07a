"""The fleet wire format, version 5.

A campaign shard is the fleet's unit of work: an ordered slice of a
campaign's function list plus everything a worker in *another process
or on another host* needs to reproduce the parent's injection
experiment bit for bit:

* the **campaign identity** and per-function **outcome digests**
  (:func:`~repro.campaign.digest.outcome_digest`), so a worker's
  results land on the same content addresses the parent planned;
* the **run** (:class:`~repro.injector.RunSpec`: the vector cap and
  the armed fault models as canonical spec strings), so a worker
  injects under exactly the run the parent's digests were planned
  under;
* the **code fingerprints** (:func:`fleet_fingerprints`): cache
  schema, lattice version, planner version, memo policy and fault
  subsystem version.  A worker whose local versions disagree **must
  refuse the shard** (:meth:`ShardSpec.verify_local` raises
  :class:`FingerprintMismatch`) — a fleet mixing code versions would
  silently produce digests that lie.

Version 2 added ``fault_models`` and the ``faults`` fingerprint.
Version 3 added a sampling policy and its fingerprint; version 4
removed both again (injection is always exhaustive).  Version 5
dropped the campaign ``seed``: no injection code drew from it.  A
shard of any other version (or an old worker handed a newer shard) is
refused outright rather than guessed at.

Shards serialize to plain JSON objects (:meth:`ShardSpec.encode` /
:meth:`ShardSpec.decode`) so they travel both the ``multiprocessing``
pipe and the service's line-delimited JSON protocol unchanged, and
:meth:`ShardSpec.digest` is stable across every transport: encode →
decode → encode is the identity, and pickling round-trips to the same
digest (regression-tested).

Results flow back per function (:class:`FunctionResult`) so the
parent can checkpoint, persist, and merge in catalog order while the
rest of the shard is still running.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.campaign.digest import CACHE_SCHEMA
from repro.faults.model import FAULTS_VERSION
from repro.injector import MEMO_POLICY, PLAN_VERSION, RunSpec
from repro.typelattice import LATTICE_VERSION

#: Bump on any incompatible change to the shard/result encoding.
#: v2: shards carry ``fault_models``; fingerprints carry ``faults``.
#: v3: shards and fingerprints carried ``sampling``.
#: v4: ``sampling`` removed from both.
#: v5: shards lost the campaign ``seed``.
WIRE_VERSION = 5


class WireError(ValueError):
    """A shard or result document this code version cannot accept."""


class FingerprintMismatch(WireError):
    """The shard was produced by a different code version; running it
    would publish results under digests computed by other code."""


def fleet_fingerprints() -> dict[str, object]:
    """The local process's experiment-defining code versions.

    Everything here is already folded into each function's outcome
    digest; carrying it beside the shard lets a *remote* worker detect
    version skew before doing any work instead of corrupting the
    content-addressed store after.
    """
    return {
        "schema": CACHE_SCHEMA,
        "lattice": LATTICE_VERSION,
        "plan": PLAN_VERSION,
        "memo": MEMO_POLICY,
        "faults": FAULTS_VERSION,
    }


def verify_fingerprints(fingerprints: dict) -> None:
    """Raise :class:`FingerprintMismatch` unless ``fingerprints``
    matches this process exactly."""
    local = fleet_fingerprints()
    if dict(fingerprints) != local:
        raise FingerprintMismatch(
            f"shard fingerprints {dict(fingerprints)!r} do not match this "
            f"worker's {local!r}; refusing to run a foreign experiment"
        )


@dataclass(frozen=True)
class ShardSpec:
    """One serializable slice of a campaign."""

    shard_id: str
    campaign: str
    run: RunSpec                   # every function runs under it
    functions: tuple[str, ...]
    digests: tuple[str, ...]       # parallel to ``functions``
    attempts: tuple[int, ...]      # attempt number each function runs as
    fingerprints: tuple[tuple[str, object], ...]

    @classmethod
    def build(
        cls,
        shard_id: str,
        campaign: str,
        run: RunSpec,
        functions: Sequence[str],
        digests: Sequence[str],
        attempts: Optional[Sequence[int]] = None,
        fingerprints: Optional[dict] = None,
    ) -> "ShardSpec":
        functions = tuple(functions)
        digests = tuple(digests)
        if len(functions) != len(digests):
            raise WireError("functions and digests must be parallel")
        if attempts is None:
            attempts = tuple(1 for _ in functions)
        else:
            attempts = tuple(int(a) for a in attempts)
            if len(attempts) != len(functions):
                raise WireError("attempts must be parallel to functions")
        fp = fingerprints if fingerprints is not None else fleet_fingerprints()
        return cls(
            shard_id=str(shard_id),
            campaign=str(campaign),
            run=run,
            functions=functions,
            digests=digests,
            attempts=attempts,
            fingerprints=tuple(sorted(fp.items())),
        )

    # ------------------------------------------------------------------
    def encode(self) -> dict:
        """The JSON-able wire document."""
        return {
            "wire": WIRE_VERSION,
            "shard_id": self.shard_id,
            "campaign": self.campaign,
            **self.run.to_wire(),
            "functions": list(self.functions),
            "digests": list(self.digests),
            "attempts": list(self.attempts),
            "fingerprints": dict(self.fingerprints),
        }

    @classmethod
    def decode(cls, document: object) -> "ShardSpec":
        """Inverse of :meth:`encode`; raises :class:`WireError`."""
        if not isinstance(document, dict):
            raise WireError("shard must be a JSON object")
        if document.get("wire") != WIRE_VERSION:
            raise WireError(
                f"unsupported wire version {document.get('wire')!r} "
                f"(this code speaks v{WIRE_VERSION})"
            )
        try:
            functions = [str(n) for n in document["functions"]]
            digests = [str(d) for d in document["digests"]]
            attempts = [int(a) for a in document["attempts"]]
            fingerprints = dict(document["fingerprints"])
            return cls.build(
                shard_id=str(document["shard_id"]),
                campaign=str(document["campaign"]),
                run=RunSpec.from_wire(document),
                functions=functions,
                digests=digests,
                attempts=attempts,
                fingerprints=fingerprints,
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, WireError):
                raise
            raise WireError(f"malformed shard document: {exc!r}") from exc

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Content address of this shard, stable across every
        serialization boundary (JSON, pickle, the service protocol)."""
        canonical = json.dumps(
            self.encode(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def verify_local(self) -> None:
        """Refuse shards minted by a different code version."""
        verify_fingerprints(dict(self.fingerprints))

    def digest_for(self, function: str) -> str:
        return self.digests[self.functions.index(function)]

    def attempt_for(self, function: str) -> int:
        return self.attempts[self.functions.index(function)]


@dataclass(frozen=True)
class FunctionResult:
    """Terminal (or per-attempt) outcome of one function in a shard."""

    function: str
    digest: str
    status: str                    # "ok" | "failed"
    attempt: int
    elapsed: float
    payload: Optional[dict] = None  # outcome payload when status == "ok"
    error: Optional[str] = None
    worker: str = ""
    source: str = "ran"            # "ran" | "cache"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def encode(self) -> dict:
        return {
            "wire": WIRE_VERSION,
            "function": self.function,
            "digest": self.digest,
            "status": self.status,
            "attempt": self.attempt,
            "elapsed": round(self.elapsed, 6),
            "payload": self.payload,
            "error": self.error,
            "worker": self.worker,
            "source": self.source,
        }

    @classmethod
    def decode(cls, document: object) -> "FunctionResult":
        if not isinstance(document, dict):
            raise WireError("function result must be a JSON object")
        if document.get("wire") != WIRE_VERSION:
            raise WireError(
                f"unsupported wire version {document.get('wire')!r}"
            )
        try:
            return cls(
                function=str(document["function"]),
                digest=str(document["digest"]),
                status=str(document["status"]),
                attempt=int(document["attempt"]),
                elapsed=float(document["elapsed"]),
                payload=document.get("payload"),
                error=document.get("error"),
                worker=str(document.get("worker", "")),
                source=str(document.get("source", "ran")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed function result: {exc!r}") from exc
