"""Bench: compiled CheckPrograms vs the interpreted reference checker.

The interpreted checker is ``tests/wrapper_reference.py``'s
:class:`ReferenceWrapper`: the wrapper with the per-call
``CheckLibrary`` walk in place of the compiled program.

Three legs, all exported to ``BENCH_wrapper.json`` for the ledger:

* **checker** — the gcc-style call-intensive mix (the Table 2 workload
  whose checking overhead the paper calls out at 1.72%) run check-only
  through both checker implementations; asserts the compiled checker's
  >= 2x floor.
* **table2_gcc** — the real Table 2 gcc row computed with the
  interpreted and the compiled checker (the reference is swapped into
  :mod:`repro.apps.runner` for the interpreted row); asserts a
  measured drop in ``checking_overhead_pct``.
* **service_batch** — one batched ``validate`` request vs the same
  calls issued one request each against a live daemon; asserts the
  batch amortization wins.

A golden sample (compiled vs interpreted over a thinned Ballista
sweep) rides along so the artifact records ``mismatches: 0`` next to
the speedups it justifies.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.apps import GccApp, runner, table2_row
from repro.libc.runtime import standard_runtime
from repro.obs import export_bench_json
from repro.service import ServiceClient, ServiceConfig, serve_in_thread
from repro.wrapper import WrapperLibrary, WrapperPolicy
from tests.wrapper_reference import ReferenceWrapper

from conftest import print_table

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_wrapper.json"

#: The compiled checker's floor on the gcc-style mix.
MIN_CHECKER_SPEEDUP = 2.0

#: gcc-style tokens per timed round (each token costs ~11 checked
#: calls, mirroring repro.apps.workloads.GccApp's per-token mix).
TOKENS = 120
ROUNDS = 3

KEYWORDS = ("int", "char", "void", "if", "for", "while", "ret")


def _gcc_style_calls(runtime):
    """The GccApp per-token libc mix as a validate-only call list.

    Check-only means no heap churn between calls, which is exactly the
    service-batch use case the revalidation cache exists for.
    """
    scratch = runtime.space.map_region(64, label="scratch").base
    keywords = [
        runtime.space.alloc_cstring(word).base for word in KEYWORDS
    ]
    tokens = [
        runtime.space.alloc_cstring(f"token_{index % 13}").base
        for index in range(TOKENS)
    ]
    calls = []
    for index, token in enumerate(tokens):
        calls.append(("strlen", [token]))
        for keyword in keywords:
            calls.append(("strcmp", [token, keyword]))
        calls.append(("strcpy", [scratch, token]))
        calls.append(("memset", [scratch, 0, 48]))
        calls.append(("toupper", [65 + index % 26]))
    return calls


def _time_checker(declarations, calls, runtime, wrapper_class) -> tuple[float, WrapperLibrary]:
    best = float("inf")
    wrapper = None
    for _ in range(ROUNDS):
        wrapper = wrapper_class(declarations, WrapperPolicy.ROBUST)
        started = time.perf_counter()
        results = wrapper.validate_many(calls, runtime)
        elapsed = time.perf_counter() - started
        assert all(violation is None for violation in results)
        best = min(best, elapsed)
    return best, wrapper


@pytest.fixture(scope="module")
def checker_leg(hardened86):
    runtime = standard_runtime()
    calls = _gcc_style_calls(runtime)
    interpreted_seconds, _ = _time_checker(
        hardened86.declarations, calls, runtime, ReferenceWrapper
    )
    compiled_seconds, wrapper = _time_checker(
        hardened86.declarations, calls, runtime, WrapperLibrary
    )
    return {
        "calls": len(calls),
        "interpreted_seconds": round(interpreted_seconds, 6),
        "compiled_seconds": round(compiled_seconds, 6),
        "speedup": round(interpreted_seconds / compiled_seconds, 2),
        "revalidate_hits": wrapper.stats.revalidate_hits,
        "revalidate_misses": wrapper.stats.revalidate_misses,
        "checks": wrapper.stats.checks,
    }


@pytest.fixture(scope="module")
def table2_leg(hardened86):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(runner, "WrapperLibrary", ReferenceWrapper)
        interpreted = table2_row(GccApp(), hardened86.declarations, repeats=2)
    compiled = table2_row(GccApp(), hardened86.declarations, repeats=2)
    return {
        "interpreted_checking_overhead_pct": round(
            interpreted.checking_overhead_pct, 4
        ),
        "compiled_checking_overhead_pct": round(
            compiled.checking_overhead_pct, 4
        ),
        "interpreted_execution_overhead_pct": round(
            interpreted.execution_overhead_pct, 2
        ),
        "compiled_execution_overhead_pct": round(
            compiled.execution_overhead_pct, 2
        ),
    }


@pytest.fixture(scope="module")
def service_leg(tmp_path_factory):
    batch_size = 64
    handle = serve_in_thread(
        ServiceConfig(
            port=0,
            workers=2,
            max_queue=batch_size + 8,
            cache_dir=tmp_path_factory.mktemp("wrapper-bench-cache"),
        )
    )
    try:
        host, port = handle.address
        with ServiceClient(host, port, timeout=300.0) as client:
            call = {"function": "strlen", "args": [{"cstring": "hello"}]}
            # Warm leg: pays the one strlen injection, compiles the
            # program, fills the outcome cache.
            client.validate([call])

            started = time.perf_counter()
            result = client.validate([call] * batch_size)
            batch_seconds = time.perf_counter() - started
            assert result["batch"] == batch_size
            assert result["violations"] == 0

            started = time.perf_counter()
            for _ in range(batch_size):
                client.validate([call])
            single_seconds = time.perf_counter() - started
    finally:
        handle.stop()
    return {
        "batch_size": batch_size,
        "batch_seconds": round(batch_seconds, 6),
        "single_seconds": round(single_seconds, 6),
        "batch_rps": round(batch_size / batch_seconds, 1),
        "single_rps": round(batch_size / single_seconds, 1),
        "speedup": round(single_seconds / batch_seconds, 2),
    }


@pytest.fixture(scope="module")
def golden_leg(hardened86):
    from repro.ballista.harness import BallistaHarness

    harness = BallistaHarness(test_cap=4)
    interpreted = ReferenceWrapper(hardened86.declarations)
    compiled = WrapperLibrary(hardened86.declarations)
    base_interpreted = standard_runtime()
    base_compiled = standard_runtime()
    mismatches = 0
    total = 0
    for test in harness.tests():
        total += 1
        golden = _execute(test, interpreted, base_interpreted)
        candidate = _execute(test, compiled, base_compiled)
        if golden != candidate:
            mismatches += 1
    return {"tests": total, "mismatches": mismatches}


def _execute(test, wrapper, base):
    from repro.memory import SegmentationFault

    runtime = base.fork()
    wrapper.state.file_table.clear()
    wrapper.state.dir_table.clear()
    values = []
    for pool_value in test.values:
        value = pool_value.build(runtime)
        values.append(value)
        if pool_value.seed == "file":
            wrapper.state.seed_file(value)
        elif pool_value.seed == "dir":
            wrapper.state.seed_dir(value)
    try:
        outcome = wrapper.call(test.function, values, runtime)
    except SegmentationFault as fault:
        return ("check-fault", str(fault))
    return (outcome.status, outcome.return_value, outcome.errno, outcome.detail)


def test_compiled_checker_speedup(checker_leg):
    print_table("compiled vs interpreted checker (gcc-style mix)", [checker_leg])
    assert checker_leg["speedup"] >= MIN_CHECKER_SPEEDUP, checker_leg


def test_table2_checking_overhead_drops(table2_leg):
    print_table("Table 2 gcc row, interpreted vs compiled", [table2_leg])
    assert (
        table2_leg["compiled_checking_overhead_pct"]
        < table2_leg["interpreted_checking_overhead_pct"]
    ), table2_leg


def test_batch_validate_beats_singles(service_leg):
    print_table("service validate: batch vs single requests", [service_leg])
    assert service_leg["speedup"] > 1.0, service_leg


def test_golden_sample_is_decision_identical(golden_leg):
    assert golden_leg["tests"] > 0
    assert golden_leg["mismatches"] == 0


def test_export(checker_leg, table2_leg, service_leg, golden_leg):
    export_bench_json(
        "wrapper",
        {
            "checker": checker_leg,
            "table2_gcc": table2_leg,
            "service_batch": service_leg,
            "golden": golden_leg,
        },
        path=BENCH_PATH,
    )
    assert BENCH_PATH.exists()
