"""``repro.obs.ledger`` — the persistent dependability results database.

Every per-PR ``BENCH_*.json`` artifact, campaign run, and service
rollup is a point on a trajectory the paper's product depends on
(Figure-6 robustness deltas, Table-2 overhead).  The ledger makes that
trajectory queryable: one append-only, schema-versioned sqlite file
(stdlib :mod:`sqlite3`, no daemon) that

* **ingests campaign runs** at finalize time
  (:meth:`Ledger.ingest_campaign`, wired into
  :class:`~repro.campaign.runner.CampaignRunner`),
* **imports bench artifacts** (:meth:`Ledger.ingest_bench_document`,
  the ``repro ledger import BENCH_*.json`` CLI), and
* **rolls up service traffic** (:meth:`Ledger.ingest_service_rollup`,
  written by the daemon on graceful shutdown).

Runs are keyed by a content address — campaign ``outcome_digest``
identity (which folds the plan digest), :data:`repro.__version__`, and
a host fingerprint — so re-ingesting the same result is idempotent and
two hosts' numbers never silently alias.  Corrupt or partial database
files surface as the typed :exc:`LedgerError`, never a raw sqlite
traceback.

The dashboard (:mod:`repro.obs.dashboard`) and the regression gate
(:mod:`repro.obs.regressions`) read exclusively from here: no sandbox
calls, no re-derivation.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sqlite3
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner -> ledger)
    from repro.campaign.runner import CampaignResult

#: Bump when the table layout changes; a mismatched file is a typed
#: error, never a silent misread.
LEDGER_SCHEMA = 1

#: Default ledger location, next to the campaign cache.
DEFAULT_LEDGER_PATH = (
    Path(__file__).resolve().parents[3] / ".healers_cache" / "ledger.sqlite"
)

#: The run kinds the ledger stores.
RUN_KINDS = ("campaign", "bench", "service")


class LedgerError(RuntimeError):
    """The ledger file is corrupt, partial, schema-mismatched, or the
    ingested document is not one the ledger understands."""


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def host_fingerprint() -> str:
    """A short stable identity for the measuring host.

    Two hosts with different CPUs/OS/python produce different numbers;
    the fingerprint keeps their series from aliasing in the ledger.
    """
    identity = "|".join(
        (
            platform.node(),
            platform.system(),
            platform.machine(),
            platform.python_implementation(),
            ".".join(map(str, sys.version_info[:2])),
        )
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]


def git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    """The current commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def iso_timestamp(epoch_seconds: float) -> str:
    """Deterministic UTC ISO-8601 rendering of an epoch timestamp."""
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return stamp.isoformat(timespec="seconds").replace("+00:00", "Z")


def run_provenance(clock: Callable[[], float] = time.time) -> dict:
    """Who/when/what produced a result: version, git SHA, timestamp,
    host fingerprint.  Stamped onto every ``BENCH_*.json`` export and
    onto every ledger run so ingestion never guesses."""
    from repro import __version__

    now = clock()
    return {
        "repro_version": __version__,
        "git_sha": git_sha(),
        "timestamp": iso_timestamp(now),
        "epoch_seconds": round(now, 3),
        "host": host_fingerprint(),
    }


def _complete_provenance(
    provenance: Optional[dict], clock: Callable[[], float]
) -> dict:
    """Fill any missing provenance field from the live environment."""
    merged = run_provenance(clock)
    if provenance:
        merged.update({k: v for k, v in provenance.items() if v is not None})
    return merged


# ----------------------------------------------------------------------
# rows
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerRun:
    """One ingested result set (the ``runs`` table row)."""

    id: int
    key: str
    kind: str
    created: str
    created_ts: float
    repro_version: str
    git_sha: Optional[str]
    host: str
    label: str
    source: str
    extra: dict = field(default_factory=dict)
    #: True when ingestion found the key already present (idempotent
    #: re-ingest) and returned the existing run instead of appending.
    deduped: bool = False

    def summary(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "created": self.created,
            "repro_version": self.repro_version,
            "git_sha": self.git_sha,
            "host": self.host,
            "label": self.label,
            "source": self.source,
            "extra": self.extra,
        }


@dataclass
class GcStats:
    """What :meth:`Ledger.gc` removed."""

    runs_deleted: int = 0
    rows_deleted: int = 0
    runs_kept: int = 0


# ----------------------------------------------------------------------
# bench payload flattening
# ----------------------------------------------------------------------

_LIST_KEY_FIELDS = (
    "function", "name", "configuration", "op", "bench", "fleet_mode",
)


def flatten_metrics(payload: object, prefix: str = "") -> dict[str, float]:
    """Flatten a bench payload into dotted-path numeric metrics.

    ``{"fork": {"speedup": 31.9}}`` becomes ``{"fork.speedup": 31.9}``;
    lists of row dicts use the row's ``function``/``name``/… field as
    the path segment, so Table-2 rows land as
    ``rows.strcpy.checking_overhead_pct``.  Booleans and non-numeric
    leaves are dropped — the ledger stores measurements, not flags.
    A dict carrying a truthy ``baseline_only`` flag is skipped whole:
    the bench marked its numbers as context (e.g. a GIL-bound thread
    leg, or a process fleet that degenerated to one effective job),
    so they must never become gateable series.
    """
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        if payload.get("baseline_only"):
            return out
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(value, path))
    elif isinstance(payload, (list, tuple)):
        for index, item in enumerate(payload):
            segment = str(index)
            if isinstance(item, dict):
                for key_field in _LIST_KEY_FIELDS:
                    if isinstance(item.get(key_field), str):
                        segment = item[key_field]
                        break
            path = f"{prefix}.{segment}" if prefix else segment
            out.update(flatten_metrics(item, path))
    elif isinstance(payload, bool):
        pass
    elif isinstance(payload, (int, float)):
        out[prefix] = float(payload)
    return out


def _content_key(*parts: object) -> str:
    canonical = json.dumps(list(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def functions_key(names: Iterable[str]) -> str:
    """A short identity for a campaign's function set, independent of
    code version — the axis bench-style campaign series compare on."""
    return _content_key(sorted(names))[:12]


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    key           TEXT NOT NULL UNIQUE,
    kind          TEXT NOT NULL,
    created       TEXT NOT NULL,
    created_ts    REAL NOT NULL,
    repro_version TEXT NOT NULL,
    git_sha       TEXT,
    host          TEXT NOT NULL,
    label         TEXT NOT NULL DEFAULT '',
    source        TEXT NOT NULL DEFAULT '',
    extra         TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS campaign_functions (
    run_id   INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    function TEXT NOT NULL,
    digest   TEXT NOT NULL,
    status   TEXT NOT NULL,
    elapsed  REAL NOT NULL DEFAULT 0.0,
    unsafe   INTEGER,
    vectors  INTEGER,
    calls    INTEGER,
    retries  INTEGER,
    crashes  INTEGER,
    hangs    INTEGER
);
CREATE TABLE IF NOT EXISTS bench_metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    bench  TEXT NOT NULL,
    metric TEXT NOT NULL,
    value  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS service_rollups (
    run_id        INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    op            TEXT NOT NULL,
    code          TEXT,
    requests      INTEGER NOT NULL DEFAULT 0,
    p50_ms        REAL,
    p95_ms        REAL,
    p99_ms        REAL,
    total_seconds REAL
);
CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs(kind, id);
CREATE INDEX IF NOT EXISTS idx_bench_series ON bench_metrics(bench, metric, run_id);
CREATE INDEX IF NOT EXISTS idx_campaign_fn ON campaign_functions(run_id, function);
"""


class Ledger:
    """Append-only results database over one sqlite file.

    ``clock`` is injectable (epoch seconds) so tests ingest with a
    fixed fake clock and the whole pipeline — ingest, query, HTML
    render — is deterministic.
    """

    def __init__(
        self,
        path: Path | str = DEFAULT_LEDGER_PATH,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.clock = clock

    # ------------------------------------------------------------------
    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:  # pragma: no cover - open failure
            raise LedgerError(f"cannot open ledger {self.path}: {exc}") from exc
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("PRAGMA foreign_keys = ON")
            self._ensure_schema(conn)
            yield conn
            conn.commit()
        except sqlite3.Error as exc:
            raise LedgerError(
                f"ledger {self.path} is corrupt or unreadable: {exc}"
            ) from exc
        finally:
            conn.close()

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        conn.executescript(_TABLES)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta(key, value) VALUES ('schema', ?)",
                (str(LEDGER_SCHEMA),),
            )
        elif row["value"] != str(LEDGER_SCHEMA):
            raise LedgerError(
                f"ledger {self.path} has schema {row['value']}, "
                f"this build reads schema {LEDGER_SCHEMA}"
            )

    def _insert_run(
        self,
        conn: sqlite3.Connection,
        key: str,
        kind: str,
        provenance: dict,
        label: str,
        source: str,
        extra: dict,
    ) -> LedgerRun:
        existing = conn.execute(
            "SELECT * FROM runs WHERE key = ?", (key,)
        ).fetchone()
        if existing is not None:
            return self._run_from_row(existing, deduped=True)
        created_ts = float(provenance.get("epoch_seconds") or self.clock())
        created = provenance.get("timestamp") or iso_timestamp(created_ts)
        cursor = conn.execute(
            "INSERT INTO runs"
            " (key, kind, created, created_ts, repro_version, git_sha,"
            "  host, label, source, extra)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key,
                kind,
                created,
                created_ts,
                str(provenance.get("repro_version") or "?"),
                provenance.get("git_sha"),
                str(provenance.get("host") or host_fingerprint()),
                label,
                source,
                json.dumps(extra, sort_keys=True),
            ),
        )
        return LedgerRun(
            id=int(cursor.lastrowid),
            key=key,
            kind=kind,
            created=created,
            created_ts=created_ts,
            repro_version=str(provenance.get("repro_version") or "?"),
            git_sha=provenance.get("git_sha"),
            host=str(provenance.get("host") or host_fingerprint()),
            label=label,
            source=source,
            extra=extra,
        )

    @staticmethod
    def _run_from_row(row: sqlite3.Row, deduped: bool = False) -> LedgerRun:
        try:
            extra = json.loads(row["extra"])
        except (TypeError, ValueError):
            extra = {}
        return LedgerRun(
            id=int(row["id"]),
            key=row["key"],
            kind=row["kind"],
            created=row["created"],
            created_ts=float(row["created_ts"]),
            repro_version=row["repro_version"],
            git_sha=row["git_sha"],
            host=row["host"],
            label=row["label"],
            source=row["source"],
            extra=extra if isinstance(extra, dict) else {},
            deduped=deduped,
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def ingest_campaign(
        self,
        result: "CampaignResult",
        provenance: Optional[dict] = None,
        source: str = "campaign",
    ) -> LedgerRun:
        """Record one finished campaign: per-function robustness rows
        plus a deterministic bench-style totals series keyed by the
        function set (``campaign.<functions_key>``), so robustness
        counts are regression-gateable across code versions."""
        provenance = _complete_provenance(provenance, self.clock)
        names = list(result.outcomes)
        fnset = functions_key(names)
        # Output is bit-identical across fleet modes, but the *timings*
        # are the whole point of comparing modes — fold the mode into
        # the run key so a process-fleet run never dedupes against a
        # serial run of the same campaign.
        fleet_mode = str(getattr(result, "fleet_mode", "serial"))
        workers = int(getattr(result, "workers", 1))
        fault_models = result.run.fault_models
        # Armed fault models join the key only when present so every
        # pre-existing (unfaulted) run keeps its dedup identity.
        key_parts = [
            "campaign",
            result.campaign,
            provenance["repro_version"],
            provenance["host"],
            fleet_mode,
        ]
        if fault_models:
            key_parts.append(list(fault_models))
        key = _content_key(*key_parts)
        extra = {
            "campaign": result.campaign,
            "functions_key": fnset,
            "functions": len(names),
            "fleet_mode": fleet_mode,
            "workers": workers,
            "cache_hits": result.cache_hits,
            "ran": result.ran,
            "failed": sorted(result.failed),
            "unsafe": sorted(
                n for n, r in result.reports.items() if r.unsafe
            ),
            "phase_timings": {
                k: round(v, 6) for k, v in result.phase_timings.items()
            },
        }
        if fault_models:
            extra["fault_models"] = list(fault_models)
            extra["scenario_unsafe"] = {
                name: list(report.unsafe_scenarios)
                for name, report in sorted(result.reports.items())
                if getattr(report, "unsafe_scenarios", ())
            }
        with self._connect() as conn:
            run = self._insert_run(
                conn, key, "campaign", provenance,
                label=result.campaign, source=source, extra=extra,
            )
            if run.deduped:
                return run
            for name, outcome in result.outcomes.items():
                report = result.reports.get(name)
                conn.execute(
                    "INSERT INTO campaign_functions"
                    " (run_id, function, digest, status, elapsed, unsafe,"
                    "  vectors, calls, retries, crashes, hangs)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run.id,
                        name,
                        outcome.digest,
                        outcome.status,
                        round(outcome.elapsed, 6),
                        None if report is None else int(report.unsafe),
                        None if report is None else report.vectors_run,
                        None if report is None else report.calls_made,
                        None if report is None else report.retries,
                        None if report is None else report.crashes,
                        None if report is None else report.hangs,
                    ),
                )
            reports = list(result.reports.values())
            totals = {
                "functions": float(len(names)),
                "unsafe_total": float(sum(r.unsafe for r in reports)),
                "vectors_total": float(sum(r.vectors_run for r in reports)),
                "calls_total": float(sum(r.calls_made for r in reports)),
                "crashes_total": float(sum(r.crashes for r in reports)),
                "hangs_total": float(sum(r.hangs for r in reports)),
            }
            # Faulted campaigns get their own totals series (keyed by
            # the armed model set): scenario sweeps run extra calls,
            # so their counts must never gate against unfaulted runs.
            series = f"campaign.{fnset}"
            if fault_models:
                series += f".faults-{_content_key(list(fault_models))[:8]}"
                evidence = [
                    e for r in reports
                    for e in getattr(r, "fault_evidence", [])
                ]
                totals["scenarios_total"] = float(len(evidence))
                totals["scenario_crashes_total"] = float(
                    sum(e.crashes + e.hangs for e in evidence)
                )
                totals["unsafe_scenarios_total"] = float(
                    sum(e.unsafe for e in evidence)
                )
            conn.executemany(
                "INSERT INTO bench_metrics (run_id, bench, metric, value)"
                " VALUES (?, ?, ?, ?)",
                [
                    (run.id, series, metric, value)
                    for metric, value in sorted(totals.items())
                ],
            )
            # Timings live in a per-mode series: a thread run and a
            # process run of the same function set are different
            # performance experiments and must never alias in the
            # regression gate.  (Robustness totals above stay
            # mode-independent — output is bit-identical by design.)
            # Only fully-cold runs qualify — a cache-warm run timing
            # in the same series would make every later cold run look
            # like a regression.
            if result.ran == len(names) and result.cache_hits == 0:
                timing = {
                    "workers": float(workers),
                    "total_seconds": float(
                        result.phase_timings.get("total", 0.0)
                    ),
                    "inject_seconds": float(
                        result.phase_timings.get("inject", 0.0)
                    ),
                }
                conn.executemany(
                    "INSERT INTO bench_metrics (run_id, bench, metric, value)"
                    " VALUES (?, ?, ?, ?)",
                    [
                        (
                            run.id,
                            f"{series}.{fleet_mode}",
                            metric,
                            value,
                        )
                        for metric, value in sorted(timing.items())
                    ],
                )
        return run

    def ingest_bench_document(self, document: object, source: str = "") -> LedgerRun:
        """Import one ``BENCH_*.json`` document (the
        :func:`repro.obs.report.export_bench_json` format)."""
        if not isinstance(document, dict) or not isinstance(
            document.get("benchmarks"), dict
        ):
            raise LedgerError(
                f"{source or 'document'}: not a BENCH document "
                "(expected {'version': 1, 'benchmarks': {...}})"
            )
        provenance = _complete_provenance(document.get("provenance"), self.clock)
        key = _content_key(
            "bench", document["benchmarks"], provenance, source
        )
        benches = sorted(document["benchmarks"])
        extra = {"benches": benches}
        with self._connect() as conn:
            run = self._insert_run(
                conn, key, "bench", provenance,
                label=",".join(benches), source=source, extra=extra,
            )
            if run.deduped:
                return run
            rows = []
            for bench, payload in document["benchmarks"].items():
                for metric, value in sorted(flatten_metrics(payload).items()):
                    rows.append((run.id, bench, metric, value))
            conn.executemany(
                "INSERT INTO bench_metrics (run_id, bench, metric, value)"
                " VALUES (?, ?, ?, ?)",
                rows,
            )
        return run

    def ingest_bench_file(self, path: Path | str) -> LedgerRun:
        """Import one ``BENCH_*.json`` file from disk."""
        path = Path(path)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise LedgerError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:
            raise LedgerError(f"{path}: not JSON: {exc}") from exc
        return self.ingest_bench_document(document, source=path.name)

    def ingest_service_rollup(
        self,
        snapshots: Iterable[dict],
        provenance: Optional[dict] = None,
        source: str = "service",
    ) -> LedgerRun:
        """Roll a service metrics snapshot (``registry.collect()``)
        into per-op request/latency rows.  Written by the daemon on
        graceful shutdown, so each service lifetime is one run."""
        provenance = _complete_provenance(provenance, self.clock)
        counts: list[tuple[str, str, int]] = []
        latencies: list[tuple[str, int, float, float, float, float]] = []
        cache: dict[str, int] = {}
        for snap in snapshots:
            name = snap.get("name")
            labels = snap.get("labels") or {}
            if name == "service.requests" and snap.get("kind") == "counter":
                counts.append(
                    (
                        str(labels.get("op", "?")),
                        str(labels.get("code", "?")),
                        int(snap.get("value", 0)),
                    )
                )
            elif name == "service.cache" and snap.get("kind") == "counter":
                cache[str(labels.get("result", "?"))] = int(snap.get("value", 0))
            elif name == "service.request_seconds" and snap.get("kind") in (
                "timer", "histogram",
            ):
                latencies.append(
                    (
                        str(labels.get("op", "?")),
                        int(snap.get("count", 0)),
                        float(snap.get("p50", 0.0)) * 1e3,
                        float(snap.get("p95", 0.0)) * 1e3,
                        float(snap.get("p99", 0.0)) * 1e3,
                        float(snap.get("total", 0.0)),
                    )
                )
        requests_total = sum(value for _, _, value in counts)
        key = _content_key("service", provenance, counts, latencies, cache)
        extra = {
            "requests_total": requests_total,
            "ops": sorted({op for op, _, _ in counts}),
            "cache": cache,
        }
        with self._connect() as conn:
            run = self._insert_run(
                conn, key, "service", provenance,
                label=f"{requests_total} requests", source=source, extra=extra,
            )
            if run.deduped:
                return run
            conn.executemany(
                "INSERT INTO service_rollups"
                " (run_id, op, code, requests)"
                " VALUES (?, ?, ?, ?)",
                [(run.id, op, code, value) for op, code, value in sorted(counts)],
            )
            conn.executemany(
                "INSERT INTO service_rollups"
                " (run_id, op, code, requests, p50_ms, p95_ms, p99_ms,"
                "  total_seconds)"
                " VALUES (?, ?, NULL, ?, ?, ?, ?, ?)",
                [
                    (run.id, op, count, p50, p95, p99, total)
                    for op, count, p50, p95, p99, total in sorted(latencies)
                ],
            )
        return run

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def runs(
        self, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> list[LedgerRun]:
        """Stored runs, newest first."""
        query = "SELECT * FROM runs"
        params: list[object] = []
        if kind is not None:
            query += " WHERE kind = ?"
            params.append(kind)
        query += " ORDER BY id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._connect() as conn:
            return [
                self._run_from_row(row)
                for row in conn.execute(query, params).fetchall()
            ]

    def run(self, run_id: int) -> dict:
        """Full detail of one run, children included."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
            if row is None:
                raise LedgerError(f"no run {run_id} in {self.path}")
            run = self._run_from_row(row)
            detail: dict = {"run": run.summary()}
            detail["functions"] = [
                dict(r)
                for r in conn.execute(
                    "SELECT function, digest, status, elapsed, unsafe,"
                    " vectors, calls, retries, crashes, hangs"
                    " FROM campaign_functions WHERE run_id = ?"
                    " ORDER BY function",
                    (run_id,),
                ).fetchall()
            ]
            detail["metrics"] = [
                dict(r)
                for r in conn.execute(
                    "SELECT bench, metric, value FROM bench_metrics"
                    " WHERE run_id = ? ORDER BY bench, metric",
                    (run_id,),
                ).fetchall()
            ]
            detail["rollups"] = [
                dict(r)
                for r in conn.execute(
                    "SELECT op, code, requests, p50_ms, p95_ms, p99_ms,"
                    " total_seconds FROM service_rollups WHERE run_id = ?"
                    " ORDER BY op, code",
                    (run_id,),
                ).fetchall()
            ]
            return detail

    def stats(self) -> dict:
        """Totals for gauges, ``repro ledger list``, and the service
        ``history`` op."""
        with self._connect() as conn:
            by_kind = {
                row["kind"]: row["n"]
                for row in conn.execute(
                    "SELECT kind, COUNT(*) AS n FROM runs GROUP BY kind"
                ).fetchall()
            }
            last = conn.execute(
                "SELECT created, created_ts FROM runs ORDER BY id DESC LIMIT 1"
            ).fetchone()
        return {
            "path": str(self.path),
            "schema": LEDGER_SCHEMA,
            "runs_total": sum(by_kind.values()),
            "by_kind": by_kind,
            "last_ingest": last["created"] if last else None,
            "last_ingest_ts": float(last["created_ts"]) if last else 0.0,
        }

    def publish_gauges(self, telemetry) -> None:
        """Set the ``ledger.runs_total`` and ``ledger.last_ingest_ts``
        gauges on ``telemetry`` from :meth:`stats`."""
        stats = self.stats()
        telemetry.gauge("ledger.runs_total").set(stats["runs_total"])
        telemetry.gauge("ledger.last_ingest_ts").set(stats["last_ingest_ts"])

    def campaign_runs(self) -> list[tuple[LedgerRun, list[dict]]]:
        """Campaign runs oldest→newest, each with its function rows."""
        with self._connect() as conn:
            runs = [
                self._run_from_row(row)
                for row in conn.execute(
                    "SELECT * FROM runs WHERE kind = 'campaign' ORDER BY id"
                ).fetchall()
            ]
            out = []
            for run in runs:
                rows = [
                    dict(r)
                    for r in conn.execute(
                        "SELECT function, digest, status, elapsed, unsafe,"
                        " vectors, calls, retries, crashes, hangs"
                        " FROM campaign_functions WHERE run_id = ?"
                        " ORDER BY function",
                        (run.id,),
                    ).fetchall()
                ]
                out.append((run, rows))
            return out

    def bench_series(self) -> dict[tuple[str, str], list[dict]]:
        """Every (bench, metric) series, points ordered oldest→newest."""
        series: dict[tuple[str, str], list[dict]] = {}
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT b.bench, b.metric, b.value, b.run_id,"
                " r.created, r.created_ts"
                " FROM bench_metrics b JOIN runs r ON r.id = b.run_id"
                " ORDER BY b.bench, b.metric, b.run_id"
            ).fetchall()
        for row in rows:
            series.setdefault((row["bench"], row["metric"]), []).append(
                {
                    "run_id": row["run_id"],
                    "created": row["created"],
                    "created_ts": float(row["created_ts"]),
                    "value": float(row["value"]),
                }
            )
        return series

    def service_history(self) -> list[tuple[LedgerRun, list[dict]]]:
        """Service rollup runs oldest→newest with their per-op rows."""
        with self._connect() as conn:
            runs = [
                self._run_from_row(row)
                for row in conn.execute(
                    "SELECT * FROM runs WHERE kind = 'service' ORDER BY id"
                ).fetchall()
            ]
            out = []
            for run in runs:
                rows = [
                    dict(r)
                    for r in conn.execute(
                        "SELECT op, code, requests, p50_ms, p95_ms, p99_ms,"
                        " total_seconds FROM service_rollups WHERE run_id = ?"
                        " ORDER BY op, code",
                        (run.id,),
                    ).fetchall()
                ]
                out.append((run, rows))
            return out

    # ------------------------------------------------------------------
    def gc(self, keep: int = 50) -> GcStats:
        """Trim to the newest ``keep`` runs *per kind* (append-only does
        not mean unbounded).  Child rows cascade."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        stats = GcStats()
        with self._connect() as conn:
            doomed: list[int] = []
            for kind in RUN_KINDS:
                rows = conn.execute(
                    "SELECT id FROM runs WHERE kind = ? ORDER BY id DESC",
                    (kind,),
                ).fetchall()
                stats.runs_kept += min(len(rows), keep)
                doomed.extend(int(r["id"]) for r in rows[keep:])
            for run_id in doomed:
                for table in (
                    "campaign_functions", "bench_metrics", "service_rollups",
                ):
                    cursor = conn.execute(
                        f"DELETE FROM {table} WHERE run_id = ?", (run_id,)
                    )
                    stats.rows_deleted += cursor.rowcount
                conn.execute("DELETE FROM runs WHERE id = ?", (run_id,))
                stats.runs_deleted += 1
        return stats
