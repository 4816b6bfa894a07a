"""The campaign driver: cache consultation, fan-out, checkpointing.

:class:`CampaignRunner` turns a one-shot injection sweep into a
managed campaign:

1. **plan** — compute every function's content address
   (:func:`~repro.campaign.digest.outcome_digest`);
2. **cache** — serve unchanged functions from the
   :class:`~repro.campaign.store.OutcomeStore` without touching the
   sandbox;
3. **inject** — run the misses: in this process for a width of one
   (``serial``: each report goes straight to the bookkeeping, and is
   encoded only when a store will keep it; a raising function fails
   alone); else on the :mod:`~repro.campaign.scheduler` pool
   (``processes``: each worker runs :func:`inject_payload`, under a
   per-task timeout, heartbeats and bounded retry; a crashed, hung or
   raising worker fails only its function and the campaign
   continues);
4. **finalize** — assemble reports in catalog order (independent of
   worker completion order), persist fresh outcomes to the store, and
   checkpoint the manifest.

Resuming needs no option: after a mid-campaign kill, a re-run serves
every function that finished from the content-addressed store and
injects only the remainder.  The manifest
(``<cache_dir>/manifest.json``), rewritten atomically after every
completed function, is what ``repro campaign status`` reads.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.campaign.digest import CACHE_SCHEMA, campaign_id, outcome_digest
from repro.campaign.scheduler import TaskResult, effective_jobs, run_tasks
from repro.campaign.store import OutcomeStore, report_from_payload, report_to_payload
from repro.cdecl import DeclarationParser, typedef_table
from repro.injector import FaultInjector, InjectionReport, RunSpec
from repro.libc.catalog import BY_NAME, FunctionSpec
from repro.obs.telemetry import NULL_TELEMETRY

#: Default campaign cache: the outcome store and manifest that
#: ``repro campaign`` and the full-catalog ``repro ballista`` share.
DEFAULT_CAMPAIGN_DIR = (
    Path(__file__).resolve().parents[3] / ".healers_cache" / "campaign"
)

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class CampaignConfig:
    """Execution knobs of one campaign run."""

    #: Worker count of the inject phase: one injects in this process.
    jobs: int = 1
    cache_dir: Optional[Path] = None
    #: The vector cap and armed fault models every function runs
    #: under; its digest block keys the outcome store.
    run: RunSpec = RunSpec()
    #: When set, the finished campaign is ingested into this results
    #: ledger (``repro.obs.ledger``) at finalize time.
    ledger: Optional[Path] = None


@dataclass
class FunctionOutcome:
    """How one function's outcome was obtained."""

    name: str
    digest: str
    status: str  # "cached" | "ran" | "failed"
    attempts: int = 0
    elapsed: float = 0.0
    error: Optional[str] = None


@dataclass
class CampaignResult:
    """Everything a campaign produced, in catalog order."""

    reports: dict[str, InjectionReport]
    outcomes: dict[str, FunctionOutcome]
    phase_timings: dict[str, float] = field(default_factory=dict)
    campaign: str = ""
    #: How the inject phase executed: ``serial`` | ``processes``.
    fleet_mode: str = "serial"
    #: Effective worker count of the inject phase.
    workers: int = 1
    #: The run the campaign's functions were injected under.
    run: RunSpec = RunSpec()

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "cached")

    @property
    def ran(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "ran")

    @property
    def failed(self) -> dict[str, str]:
        return {
            o.name: o.error or "failed"
            for o in self.outcomes.values()
            if o.status == "failed"
        }


class CampaignRunner:
    """Schedules, caches, and checkpoints one injection campaign."""

    def __init__(
        self,
        functions: Optional[Sequence[str]] = None,
        config: CampaignConfig = CampaignConfig(),
        telemetry=NULL_TELEMETRY,
        progress: Optional[
            Callable[[str, FunctionOutcome, Optional[InjectionReport]], None]
        ] = None,
    ) -> None:
        if functions is None:
            from repro.libc.catalog import BALLISTA_SET

            self.specs: list[FunctionSpec] = list(BALLISTA_SET)
        else:
            unknown = [n for n in functions if n not in BY_NAME]
            if unknown:
                raise KeyError(f"unknown functions: {', '.join(unknown)}")
            # A name given twice is one function (first position kept).
            self.specs = [BY_NAME[n] for n in dict.fromkeys(functions)]
        self.config = config
        self.telemetry = telemetry
        self.progress = progress
        self.store = (
            OutcomeStore(config.cache_dir) if config.cache_dir is not None else None
        )
        self.parser = DeclarationParser(typedef_table())

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        config = self.config
        telemetry = self.telemetry
        timings: dict[str, float] = {}
        total_started = time.perf_counter()
        names = [spec.name for spec in self.specs]

        with telemetry.span(
            "campaign.plan", functions=len(names), jobs=config.jobs
        ):
            started = time.perf_counter()
            digests = {
                spec.name: outcome_digest(spec, config.run, parser=self.parser)
                for spec in self.specs
            }
            timings["plan"] = time.perf_counter() - started
        ident = campaign_id([(n, digests[n]) for n in names])

        outcomes: dict[str, FunctionOutcome] = {}
        reports: dict[str, InjectionReport] = {}

        # ---------------------------------------------------- cache phase
        started = time.perf_counter()
        misses: list[str] = []
        for name in names:
            report = (
                self.store.get(digests[name], self.parser) if self.store else None
            )
            if report is not None:
                reports[name] = report
                outcomes[name] = FunctionOutcome(name, digests[name], "cached")
                telemetry.counter("campaign.functions", status="cached").inc()
                telemetry.event("campaign.progress", function=name, status="cached")
                if self.progress is not None:
                    self.progress(name, outcomes[name], report)
            else:
                misses.append(name)
        timings["cache"] = time.perf_counter() - started

        # --------------------------------------------------- inject phase
        started = time.perf_counter()
        if config.jobs > 1:
            fleet_mode = "processes"
            # The pool is sized by the functions left to inject, not
            # by the whole campaign: cached functions need no worker.
            workers = effective_jobs(config.jobs, len(misses))
        else:
            fleet_mode = "serial"
            workers = 1

        def record(
            outcome: FunctionOutcome,
            report: Optional[InjectionReport] = None,
            payload: Optional[dict] = None,
        ) -> None:
            """The bookkeeping every mode shares for one terminal
            function: ``payload`` is the report's store encoding, None
            for a failure or when no store is set."""
            name = outcome.name
            outcomes[name] = outcome
            if report is not None:
                reports[name] = report
            telemetry.counter("campaign.functions", status=outcome.status).inc()
            telemetry.event(
                "campaign.progress", function=name, status=outcome.status
            )
            if self.store is not None:
                if payload is not None:
                    self.store.put_payload(digests[name], payload)
                # Checkpoint after every terminal function so that
                # `repro campaign status` shows a killed campaign's
                # progress (a re-run resumes from the store).
                self._write_manifest(
                    ident, names, digests, outcomes, timings,
                    fleet_mode, workers,
                )
            if self.progress is not None:
                self.progress(name, outcome, report)

        def on_result(result: TaskResult) -> None:
            if result.ok:
                record(
                    FunctionOutcome(
                        result.name, digests[result.name], "ran",
                        attempts=result.attempts, elapsed=result.elapsed,
                    ),
                    report_from_payload(result.payload, self.parser),
                    result.payload,
                )
            else:
                record(
                    FunctionOutcome(
                        result.name, digests[result.name], "failed",
                        attempts=result.attempts, error=result.error,
                    )
                )

        if fleet_mode == "serial":
            # Each injector.function span nests straight under the
            # caller's campaign span.
            for name in misses:
                self._inject_here(name, digests[name], record)
        elif misses:
            with telemetry.span(
                "campaign.inject",
                functions=len(misses),
                jobs=config.jobs,
                fleet=fleet_mode,
            ):
                run_tasks(
                    misses,
                    functools.partial(inject_payload, run=config.run),
                    jobs=config.jobs,
                    telemetry=telemetry,
                    on_result=on_result,
                )
        timings["inject"] = time.perf_counter() - started

        # -------------------------------------------------- finalize phase
        started = time.perf_counter()
        # Catalog order, regardless of cache/completion interleaving.
        reports = {n: reports[n] for n in names if n in reports}
        outcomes = {n: outcomes[n] for n in names if n in outcomes}
        timings["finalize"] = time.perf_counter() - started
        timings["total"] = time.perf_counter() - total_started
        if self.store is not None:
            self._write_manifest(
                ident, names, digests, outcomes, timings, fleet_mode, workers
            )
        result = CampaignResult(
            reports=reports, outcomes=outcomes,
            phase_timings=timings, campaign=ident,
            fleet_mode=fleet_mode, workers=workers, run=config.run,
        )
        if config.ledger is not None:
            self._ingest_ledger(result)
        return result

    def _inject_here(
        self,
        name: str,
        digest: str,
        record: Callable[..., None],
    ) -> None:
        """The ``serial`` mode: inject one function in this process,
        under the campaign's telemetry, and hand the report to
        ``record`` as it is.  An exception fails this function only."""
        spec = BY_NAME[name]
        started = time.perf_counter()
        try:
            report = FaultInjector(
                spec, run=self.config.run, telemetry=self.telemetry
            ).run()
            payload = (
                report_to_payload(report, spec.prototype)
                if self.store is not None
                else None
            )
        except Exception:  # noqa: BLE001 - one function's failure
            import traceback

            record(
                FunctionOutcome(
                    name, digest, "failed", attempts=1,
                    elapsed=time.perf_counter() - started,
                    error=traceback.format_exc(limit=20),
                )
            )
        else:
            record(
                FunctionOutcome(
                    name, digest, "ran", attempts=1,
                    elapsed=time.perf_counter() - started,
                ),
                report,
                payload,
            )

    def _ingest_ledger(self, result: CampaignResult) -> None:
        """Record the finished campaign in the results ledger.

        Ledger trouble (corrupt file, locked db, read-only disk) must
        never fail a finished campaign — it degrades to a telemetry
        event.
        """
        telemetry = self.telemetry
        try:
            from repro.obs.ledger import Ledger  # lazy: obs <-> campaign

            ledger = Ledger(self.config.ledger)
            run = ledger.ingest_campaign(result)
            ledger.publish_gauges(telemetry)
            telemetry.event(
                "campaign.ledger", run=run.id, deduped=run.deduped,
            )
        except Exception as exc:  # noqa: BLE001 - ledger is best-effort
            telemetry.event("campaign.ledger_error", error=repr(exc))

    # ------------------------------------------------------------------
    def _write_manifest(
        self,
        ident: str,
        names: list[str],
        digests: dict[str, str],
        outcomes: dict[str, FunctionOutcome],
        timings: dict[str, float],
        fleet_mode: str,
        workers: int,
    ) -> None:
        path = Path(self.config.cache_dir) / MANIFEST_NAME
        manifest = {
            "schema": CACHE_SCHEMA,
            "campaign": ident,
            "jobs": self.config.jobs,
            "effective_jobs": workers,
            "fleet": fleet_mode,
            "fault_models": list(self.config.run.fault_models),
            "functions": [
                {
                    "name": name,
                    "digest": digests[name],
                    "status": outcomes[name].status if name in outcomes else "pending",
                    "attempts": outcomes[name].attempts if name in outcomes else 0,
                    "elapsed": round(outcomes[name].elapsed, 6)
                    if name in outcomes
                    else 0.0,
                    "error": outcomes[name].error if name in outcomes else None,
                }
                for name in names
            ],
            "phase_timings": {k: round(v, 6) for k, v in timings.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".manifest.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(manifest, handle, indent=2)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def inject_payload(name: str, *, run: RunSpec) -> dict:
    """The pool worker of the ``processes`` mode: inject one function
    under ``run`` and return the report's store encoding, the only
    thing that crosses the process boundary.  An exception reaches the
    pool, which records its traceback and retries the function within
    its budget."""
    spec = BY_NAME[name]
    return report_to_payload(FaultInjector(spec, run=run).run(), spec.prototype)


def load_manifest(cache_dir: Path | str) -> Optional[dict]:
    """Read a campaign checkpoint manifest, or None when absent."""
    path = Path(cache_dir) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if manifest.get("schema") != CACHE_SCHEMA:
        return None
    return manifest


def clean_cache(cache_dir: Path | str, dry_run: bool = False) -> "CleanStats":
    """Remove every cached outcome plus the manifest; reports files and
    bytes reclaimed.  With ``dry_run`` nothing is deleted — the stats
    describe what a real clean would reclaim."""
    from repro.campaign.store import CleanStats

    stats = OutcomeStore(cache_dir).clean(dry_run=dry_run)
    manifest = Path(cache_dir) / MANIFEST_NAME
    if manifest.exists():
        stats = stats.merge(
            CleanStats(files=1, bytes_reclaimed=manifest.stat().st_size)
        )
        if not dry_run:
            manifest.unlink()
    stats.dry_run = dry_run
    return stats
