"""Adaptive fault injection: per-function injector generation, robust
argument type discovery, error-return-code classification, and the
bit-flip campaign of the paper's future-work section.

Scenario-based fault models (resource exhaustion, signal interruption,
hostile callbacks, table corruption) live in :mod:`repro.faults`; the
injector arms them through ``FaultInjector(run=RunSpec(fault_models=...))``
and reports per-scenario :class:`~repro.faults.ScenarioEvidence`."""

from repro.faults.model import ScenarioEvidence
from repro.injector.bitflips import (
    BitFlipCampaign,
    BitFlipReport,
    BitFlipResult,
    FlipSpec,
    GOLDEN_CALLS,
    enumerate_flips,
)
from repro.injector.injector import (
    ErrnoClassification,
    FaultInjector,
    InjectionReport,
    MAX_RETRIES,
    MAX_VECTORS,
    RunSpec,
    auto_checkable,
    inject_function,
)
from repro.injector.plan import (
    ChainMemo,
    ChainRecord,
    InjectionPlan,
    MEMO_POLICY,
    PLAN_VERSION,
    SnapshotLadder,
    benign_index,
    clear_plan_cache,
    compile_plan,
    plan_shape,
    shared_plan,
)

__all__ = [
    "BitFlipCampaign",
    "BitFlipReport",
    "BitFlipResult",
    "ErrnoClassification",
    "FlipSpec",
    "GOLDEN_CALLS",
    "enumerate_flips",
    "FaultInjector",
    "InjectionReport",
    "MAX_RETRIES",
    "MAX_VECTORS",
    "RunSpec",
    "ScenarioEvidence",
    "auto_checkable",
    "inject_function",
    "ChainMemo",
    "ChainRecord",
    "InjectionPlan",
    "MEMO_POLICY",
    "PLAN_VERSION",
    "SnapshotLadder",
    "benign_index",
    "clear_plan_cache",
    "compile_plan",
    "plan_shape",
    "shared_plan",
]
