"""Content-addressed persistence of injection outcomes.

Each :class:`~repro.injector.InjectionReport` is stored as one JSON
file named by its :func:`~repro.campaign.digest.outcome_digest` under
``<cache_dir>/outcomes/``.  The payload round-trips the full report —
robust types, errno classification, and every vector observation — so
a cache hit is equal (``==``) to the report a fresh run would produce,
and downstream declaration generation is byte-identical.

Writes are atomic (temp file + rename) so a campaign killed mid-write
never leaves a truncated entry; corrupt or schema-mismatched entries
read as cache misses and are overwritten by the next run.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.campaign.digest import CACHE_SCHEMA
from repro.cdecl import DeclarationParser, typedef_table
from repro.faults.model import ScenarioEvidence
from repro.injector import ErrnoClassification, InjectionReport
from repro.typelattice import RobustType, TestResult, TypeInstance, VectorObservation


class UncacheableReport(ValueError):
    """The report contains a value the JSON payload cannot represent
    losslessly; the campaign still completes, the entry is skipped."""


@dataclass
class CleanStats:
    """What a cache clean removed (or, on a dry run, would remove)."""

    files: int = 0
    bytes_reclaimed: int = 0
    dry_run: bool = False

    def merge(self, other: "CleanStats") -> "CleanStats":
        return CleanStats(
            files=self.files + other.files,
            bytes_reclaimed=self.bytes_reclaimed + other.bytes_reclaimed,
            dry_run=self.dry_run or other.dry_run,
        )


_SCALARS = (bool, int, float, str, type(None))


def _scalar(value: object, context: str) -> object:
    if isinstance(value, _SCALARS):
        return value
    raise UncacheableReport(f"{context}: {type(value).__name__} is not JSON-stable")


def _encode_instance(instance: TypeInstance) -> list[object]:
    return [instance.name, instance.param, instance.fundamental, instance.family]


def _instance_key(instance: TypeInstance) -> tuple:
    return (instance.name, instance.param is not None, instance.param or 0,
            instance.fundamental, instance.family)


def _encode_instances(instances) -> list[list[object]]:
    return [_encode_instance(i) for i in sorted(instances, key=_instance_key)]


def report_to_payload(report: InjectionReport, prototype_text: str) -> dict:
    """Serialize a report to a JSON-stable dict.

    ``prototype_text`` is the catalog prototype string the report's
    :class:`FunctionPrototype` was parsed from; the payload stores the
    text and re-parses on load (parsing is deterministic), keeping the
    payload independent of the C type model's internals.
    """
    return {
        "schema": CACHE_SCHEMA,
        "name": report.name,
        "prototype": prototype_text,
        "robust_types": [
            {
                "robust": _encode_instance(r.robust),
                "ideal": _encode_instance(r.ideal),
                "safe": r.safe,
                "crash_free": r.crash_free,
                "successes": _encode_instances(r.successes),
                "failures": _encode_instances(r.failures),
            }
            for r in report.robust_types
        ],
        "errno_class": {
            "kind": report.errno_class.kind,
            "error_value": _scalar(
                report.errno_class.error_value, f"{report.name} error_value"
            ),
            "errnos": sorted(report.errno_class.errnos),
        },
        "unsafe": report.unsafe,
        "vectors_run": report.vectors_run,
        "calls_made": report.calls_made,
        "retries": report.retries,
        "crashes": report.crashes,
        "hangs": report.hangs,
        "observations": [
            [
                [_encode_instance(f) for f in obs.fundamentals],
                obs.result.value,
                obs.blamed_argument,
            ]
            for obs in report.observations
        ],
        # Scenario evidence rides along only when fault models were
        # armed, so unfaulted payloads stay byte-identical to those
        # written before the key existed (the digest separates the
        # two populations; this keeps the bytes honest too).
        **(
            {
                "fault_evidence": [
                    [e.model, e.scenario, e.vectors, e.crashes, e.hangs,
                     e.baseline_failures]
                    for e in report.fault_evidence
                ]
            }
            if report.fault_evidence
            else {}
        ),
    }


def report_from_payload(
    payload: dict, parser: Optional[DeclarationParser] = None
) -> InjectionReport:
    """Rebuild the report; inverse of :func:`report_to_payload`.

    Each distinct encoded type instance decodes to one shared
    :class:`TypeInstance` (they are frozen, so sharing is invisible to
    ``==``): a catalog payload holds at most a few hundred distinct
    instances across thousands of observations, so a report kept in
    memory stays small.
    """
    if payload.get("schema") != CACHE_SCHEMA:
        raise ValueError(f"unsupported outcome schema: {payload.get('schema')!r}")
    parser = parser or DeclarationParser(typedef_table())
    interned: dict[tuple, TypeInstance] = {}

    def decode_instance(item: list[object]) -> TypeInstance:
        key = tuple(item)
        instance = interned.get(key)
        if instance is None:
            name, param, fundamental, family = key
            instance = interned[key] = TypeInstance(name, param, fundamental, family)
        return instance

    errno = payload["errno_class"]
    return InjectionReport(
        name=payload["name"],
        prototype=parser.parse_prototype(payload["prototype"]),
        robust_types=[
            RobustType(
                robust=decode_instance(r["robust"]),
                ideal=decode_instance(r["ideal"]),
                safe=r["safe"],
                crash_free=r["crash_free"],
                successes=frozenset(decode_instance(i) for i in r["successes"]),
                failures=frozenset(decode_instance(i) for i in r["failures"]),
            )
            for r in payload["robust_types"]
        ],
        errno_class=ErrnoClassification(
            kind=errno["kind"],
            error_value=errno["error_value"],
            errnos=frozenset(errno["errnos"]),
        ),
        unsafe=payload["unsafe"],
        vectors_run=payload["vectors_run"],
        calls_made=payload["calls_made"],
        retries=payload["retries"],
        crashes=payload["crashes"],
        hangs=payload["hangs"],
        observations=[
            VectorObservation(
                tuple(decode_instance(f) for f in fundamentals),
                TestResult(result),
                blamed,
            )
            for fundamentals, result, blamed in payload["observations"]
        ],
        fault_evidence=[
            ScenarioEvidence(model, scenario, vectors, crashes, hangs, baseline)
            for model, scenario, vectors, crashes, hangs, baseline
            in payload.get("fault_evidence", [])
        ],
    )


class OutcomeStore:
    """Digest-keyed JSON store under ``<root>/outcomes/``."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.outcomes = self.root / "outcomes"

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        return self.outcomes / f"{digest}.json"

    def contains(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def get_payload(self, digest: str) -> Optional[dict]:
        path = self.path_for(digest)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            return None
        return payload

    def get(
        self, digest: str, parser: Optional[DeclarationParser] = None
    ) -> Optional[InjectionReport]:
        """The cached report, or None on miss/corruption."""
        payload = self.get_payload(digest)
        if payload is None:
            return None
        try:
            return report_from_payload(payload, parser)
        except (KeyError, TypeError, ValueError):
            return None

    def put_payload(self, digest: str, payload: dict) -> Path:
        """Atomically persist one serialized outcome."""
        self.outcomes.mkdir(parents=True, exist_ok=True)
        path = self.path_for(digest)
        fd, tmp = tempfile.mkstemp(
            dir=self.outcomes, prefix=f".{digest[:12]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # json.dumps, not json.dump: only dumps uses the C encoder.
                handle.write(json.dumps(payload, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def put(
        self, digest: str, report: InjectionReport, prototype_text: str
    ) -> Optional[Path]:
        """Persist a report; returns None when it is uncacheable."""
        try:
            payload = report_to_payload(report, prototype_text)
        except UncacheableReport:
            return None
        return self.put_payload(digest, payload)

    # ------------------------------------------------------------------
    def entries(self) -> list[str]:
        if not self.outcomes.is_dir():
            return []
        return sorted(p.stem for p in self.outcomes.glob("*.json"))

    def clean(self, dry_run: bool = False) -> CleanStats:
        """Delete every stored outcome — including corrupt entries and
        leftover ``.tmp`` files from interrupted writes — reporting how
        many files and bytes were (or would be, with ``dry_run``)
        reclaimed."""
        stats = CleanStats(dry_run=dry_run)
        if not self.outcomes.is_dir():
            return stats
        for pattern in ("*.json", ".*.tmp"):
            for path in self.outcomes.glob(pattern):
                try:
                    size = path.stat().st_size
                except OSError:
                    size = 0
                if not dry_run:
                    path.unlink(missing_ok=True)
                stats.files += 1
                stats.bytes_reclaimed += size
        return stats
