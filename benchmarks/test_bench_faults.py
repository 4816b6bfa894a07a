"""Bench: the fault-model dictionary — per-model scenario-sweep cost
and the cache economics of armed campaigns.

Three experiments, archived in ``BENCH_faults.json``:

1. **Per-model sweep cost** — the 5-function baseline campaign runs
   once unarmed and once per builtin model; each leg records the wall
   clock, the scenarios armed, and the scenario crashes, so the
   dictionary's overhead is priced model by model.
2. **Honesty** — every armed leg's outcome digests differ from the
   unarmed leg's (and from every other model's), while the armed
   baseline fields (robust types, crashes) stay bit-identical to the
   unarmed run.
3. **Warm cache** — re-running the heaviest armed leg over its own
   outcome store is pure cache hits: scenario evidence round-trips
   through the payloads instead of being re-measured.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner
from repro.faults import available_models
from repro.injector import RunSpec
from repro.obs import export_bench_json

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_faults.json"

#: Cheap functions with distinct fault surfaces: fopen mallocs and
#: opens descriptors, qsort takes a comparator, sprintf a format,
#: isdigit reads the ctype classification table.
BASELINE_FUNCTIONS = ["abs", "atoi", "fopen", "isdigit", "qsort", "sprintf"]
MAX_VECTORS = 24


def _timed(tmp_path, leg, fault_models=()):
    runner = CampaignRunner(
        BASELINE_FUNCTIONS,
        CampaignConfig(
            cache_dir=tmp_path / leg,
            run=RunSpec(MAX_VECTORS, fault_models),
        ),
    )
    started = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - started


def _digests(result):
    return {name: outcome.digest for name, outcome in result.outcomes.items()}


def test_faults_bench(tmp_path):
    # Warm up imports and parser tables before anything is timed.
    CampaignRunner(["abs"], CampaignConfig()).run()

    plain, plain_seconds = _timed(tmp_path, "plain")
    assert plain.failed == {}

    models = list(available_models())
    legs = []
    seen_digests = {frozenset(_digests(plain).items())}
    for model in models:
        result, seconds = _timed(tmp_path, f"model-{model}", (model,))
        assert result.failed == {}

        # Honesty: armed digests never alias the unarmed run or any
        # other model's run ...
        digests = frozenset(_digests(result).items())
        assert digests not in seen_digests, f"{model} aliased another leg"
        seen_digests.add(digests)
        # ... while the baseline classification stays untouched.
        for name in BASELINE_FUNCTIONS:
            assert result.reports[name].robust_types == plain.reports[name].robust_types
            assert result.reports[name].crashes == plain.reports[name].crashes

        evidence = [
            e for name in BASELINE_FUNCTIONS
            for e in result.reports[name].fault_evidence
        ]
        legs.append(
            {
                "model": model,
                "seconds": round(seconds, 3),
                "overhead_x": round(seconds / plain_seconds, 3)
                if plain_seconds
                else 0.0,
                "scenarios": len(evidence),
                "scenario_crashes": sum(e.crashes + e.hangs for e in evidence),
                "unsafe_scenarios": sum(1 for e in evidence if e.unsafe),
            }
        )

    # Warm cache leg: the full dictionary armed at once, then replayed
    # out of the store.
    everything = tuple(models)
    cold, cold_seconds = _timed(tmp_path, "all", everything)
    warm, warm_seconds = _timed(tmp_path, "all", everything)
    assert warm.cache_hits == len(BASELINE_FUNCTIONS)
    assert warm.ran == 0
    for name in BASELINE_FUNCTIONS:
        assert warm.reports[name] == cold.reports[name]

    payload = {
        "functions": len(BASELINE_FUNCTIONS),
        "max_vectors": MAX_VECTORS,
        "unarmed_seconds": round(plain_seconds, 3),
        "models": legs,
        "all_models_leg": {
            "models": len(everything),
            "cold_seconds": round(cold_seconds, 3),
            "warm_cache_seconds": round(warm_seconds, 3),
            "cache_hits": warm.cache_hits,
        },
    }
    export_bench_json("faults", payload, path=BENCH_PATH)
    print(f"\n=== faults bench ===\n  {payload}")
