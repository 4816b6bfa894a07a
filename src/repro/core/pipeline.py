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
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.declarations import (
    FunctionDeclaration,
    apply_all_manual_edits,
    declaration_from_report,
)
from repro.injector import InjectionReport
from repro.libc.catalog import BY_NAME
from repro.obs.telemetry import NULL_TELEMETRY
from repro.wrapper import CheckConfig, WrapperLibrary, WrapperPolicy
from repro.wrapper.codegen import generate_wrapper_library

if TYPE_CHECKING:
    from repro.campaign import CampaignConfig


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

    @classmethod
    def from_reports(
        cls, reports: dict[str, InjectionReport], telemetry=NULL_TELEMETRY
    ) -> HardenedLibrary:
        """Figure 1's Fault-Injector -> Function Declaration step: one
        declaration per report, in the reports' order, plus the
        semi-automatic set (the manual edits applied on top).  The
        edits' wall clock is ``phase_timings["manual_edits"]``."""
        declarations = {
            name: declaration_from_report(report, BY_NAME[name].version)
            for name, report in reports.items()
        }
        started = time.perf_counter()
        with telemetry.span("pipeline.manual_edits"):
            semi = apply_all_manual_edits(declarations)
        return cls(
            declarations,
            semi,
            reports=reports,
            phase_timings={"manual_edits": time.perf_counter() - started},
        )

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
        config: Optional[CampaignConfig] = None,
        progress: Optional[Callable[[str, InjectionReport], None]] = None,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.functions = functions
        self.config = config
        self.progress = progress
        self.telemetry = telemetry

    def run(self) -> HardenedLibrary:
        """Phase 1 through :class:`repro.campaign.CampaignRunner` under
        ``config`` (default: one job in this process, no store), then
        the declarations.  Every config yields the same reports, in
        catalog order."""
        # Lazy, so that importing the pipeline does not pay for the
        # campaign engine's modules.
        from repro.campaign import CampaignConfig, CampaignRunner

        config = self.config if self.config is not None else CampaignConfig()
        telemetry = self.telemetry
        started = time.perf_counter()
        progress = self.progress

        def campaign_progress(name, outcome, report) -> None:
            if report is not None:
                progress(name, report)

        runner = CampaignRunner(
            functions=self.functions,
            config=config,
            telemetry=telemetry,
            progress=campaign_progress if progress is not None else None,
        )
        with telemetry.span(
            "campaign", kind="harden", functions=len(runner.specs),
            jobs=config.jobs,
        ) as campaign:
            result = runner.run()
            hardened = HardenedLibrary.from_reports(result.reports, telemetry)
            campaign.set(
                calls=sum(r.calls_made for r in result.reports.values()),
                crashes=sum(r.crashes for r in result.reports.values()),
                unsafe=sum(1 for r in result.reports.values() if r.unsafe),
                cache_hits=result.cache_hits,
                failed=len(result.failed),
            )
        elapsed = time.perf_counter() - started
        telemetry.timer("pipeline.run_seconds").observe(elapsed)
        hardened.phase_timings = {
            **result.phase_timings,
            **hardened.phase_timings,
            "total": elapsed,
        }
        hardened.elapsed_seconds = elapsed
        hardened.failed_functions = result.failed
        return hardened


def harden(
    functions: Optional[Sequence[str]] = None,
    config: Optional[CampaignConfig] = None,
) -> HardenedLibrary:
    """One-call convenience wrapper around the pipeline."""
    return HealersPipeline(functions=functions, config=config).run()
