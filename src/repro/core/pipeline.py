"""The HEALERS pipeline (paper Figure 1).

Phase 1: extract function names and types, generate a fault injector
per function, run it, and emit function declarations.  Phase 2:
generate wrappers — both the C source artifact and the executable
interposition wrapper used for evaluation.

``HealersPipeline.run`` is the one-call public entry point:

    >>> pipeline = HealersPipeline(functions=["asctime"])
    >>> hardened = pipeline.run()
    >>> wrapper = hardened.wrapper()
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.declarations import (
    FunctionDeclaration,
    apply_all_manual_edits,
    declaration_from_report,
)
from repro.injector import InjectionReport, RunSpec
from repro.libc.catalog import BALLISTA_SET, BY_NAME, FunctionSpec
from repro.obs.telemetry import NULL_TELEMETRY
from repro.wrapper import CheckConfig, WrapperLibrary, WrapperPolicy
from repro.wrapper.codegen import generate_wrapper_library


@dataclass
class HardenedLibrary:
    """Phase-1 output plus wrapper factories."""

    declarations: dict[str, FunctionDeclaration]
    semi_auto_declarations: dict[str, FunctionDeclaration]
    reports: dict[str, InjectionReport] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: Monotonic per-phase wall clocks: the campaign's "plan", "cache",
    #: "inject" and "finalize", then "manual_edits" and "total".
    phase_timings: dict[str, float] = field(default_factory=dict)
    #: Functions phase 1 could not complete, mapped to the failure
    #: reason: an injector that raised (in process, or in a worker
    #: after its retries) or a worker that crashed or hung.  They have
    #: no declaration; every other function still does.
    failed_functions: dict[str, str] = field(default_factory=dict)

    def wrapper(
        self,
        policy: WrapperPolicy = WrapperPolicy.ROBUST,
        semi_auto: bool = False,
        check_config: Optional[CheckConfig] = None,
        relational: bool = True,
        telemetry=NULL_TELEMETRY,
    ) -> WrapperLibrary:
        """Instantiate an executable wrapper over the declarations."""
        declarations = self.semi_auto_declarations if semi_auto else self.declarations
        return WrapperLibrary(
            declarations,
            policy=policy,
            check_config=check_config,
            relational=relational,
            telemetry=telemetry,
        )

    def wrapper_source(self, semi_auto: bool = False) -> str:
        """The generated C shared-library source (Figure 5 artifact)."""
        declarations = self.semi_auto_declarations if semi_auto else self.declarations
        return generate_wrapper_library(declarations)

    def unsafe_functions(self) -> list[str]:
        return sorted(n for n, d in self.declarations.items() if d.unsafe)

    def safe_functions(self) -> list[str]:
        return sorted(n for n, d in self.declarations.items() if not d.unsafe)


class HealersPipeline:
    """Drives fault injection and declaration generation."""

    def __init__(
        self,
        functions: Optional[Sequence[str]] = None,
        run: RunSpec = RunSpec(),
        progress: Optional[Callable[[str, InjectionReport], None]] = None,
        telemetry=NULL_TELEMETRY,
        jobs: int = 1,
        cache_dir: Optional[Path | str] = None,
        resume: bool = False,
    ) -> None:
        if functions is None:
            self.specs: list[FunctionSpec] = list(BALLISTA_SET)
        else:
            self.specs = [BY_NAME[name] for name in functions]
        self.run_spec = run
        self.progress = progress
        self.telemetry = telemetry
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.resume = resume

    def run(self) -> HardenedLibrary:
        """Phase 1 through :class:`repro.campaign.CampaignRunner`: in
        this process for ``jobs=1``, on the worker pool above that,
        served from the outcome store under ``cache_dir`` when set.
        Every way yields the same reports, in catalog order."""
        # Lazy, so that importing the pipeline does not pay for the
        # campaign engine's modules.
        from repro.campaign import CampaignConfig, CampaignRunner

        telemetry = self.telemetry
        started = time.perf_counter()
        progress = self.progress

        def campaign_progress(name, outcome, report) -> None:
            if report is not None:
                progress(name, report)

        with telemetry.span(
            "campaign", kind="harden", functions=len(self.specs), jobs=self.jobs
        ) as campaign:
            result = CampaignRunner(
                functions=[spec.name for spec in self.specs],
                config=CampaignConfig(
                    jobs=self.jobs,
                    cache_dir=self.cache_dir,
                    resume=self.resume,
                    run=self.run_spec,
                ),
                telemetry=telemetry,
                progress=campaign_progress if progress is not None else None,
            ).run()
            declarations = {
                spec.name: declaration_from_report(
                    result.reports[spec.name], spec.version
                )
                for spec in self.specs
                if spec.name in result.reports
            }
            edits_started = time.perf_counter()
            with telemetry.span("pipeline.manual_edits"):
                semi = apply_all_manual_edits(declarations)
            edits_elapsed = time.perf_counter() - edits_started
            campaign.set(
                calls=sum(r.calls_made for r in result.reports.values()),
                crashes=sum(r.crashes for r in result.reports.values()),
                unsafe=sum(1 for r in result.reports.values() if r.unsafe),
                cache_hits=result.cache_hits,
                failed=len(result.failed),
            )
        elapsed = time.perf_counter() - started
        telemetry.timer("pipeline.run_seconds").observe(elapsed)
        timings = dict(result.phase_timings)
        timings["manual_edits"] = edits_elapsed
        timings["total"] = elapsed
        return HardenedLibrary(
            declarations=declarations,
            semi_auto_declarations=semi,
            reports=result.reports,
            elapsed_seconds=elapsed,
            phase_timings=timings,
            failed_functions=result.failed,
        )


def harden(
    functions: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[Path | str] = None,
    resume: bool = False,
    run: RunSpec = RunSpec(),
) -> HardenedLibrary:
    """One-call convenience wrapper around the pipeline."""
    return HealersPipeline(
        functions=functions, run=run, jobs=jobs, cache_dir=cache_dir,
        resume=resume,
    ).run()
