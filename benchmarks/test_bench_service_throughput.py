"""Bench: hardening-as-a-service throughput and load-shedding.

Drives a live in-process daemon over real sockets and records the
results to ``BENCH_service.json`` so CI archives the trajectory:

* 200+ concurrent declaration requests against a warm cache, with a
  bounded p99 — the service layer must not add pathological latency;
* proof that a warm-cache request executes **zero** sandbox calls
  (``Sandbox.call`` is poisoned during the warm leg);
* N identical concurrent inject requests collapse to exactly **one**
  injection via single-flight;
* a saturated daemon sheds load with typed RETRY_LATER instead of
  queueing without bound, and in-flight work never exceeds capacity.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from pathlib import Path

import pytest

import repro.service.handlers as handlers_mod
from repro.obs import export_bench_json
from repro.sandbox import Sandbox
from repro.service import (
    ErrorCode,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve_in_thread,
)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

TOTAL_REQUESTS = 200
CLIENT_THREADS = 16

#: Generous bound for a warm-cache declaration round trip.  The point
#: is to catch pathological queueing (seconds), not to race the GIL.
MAX_WARM_P99_SECONDS = 2.0


def _quantile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def test_warm_throughput_and_zero_sandbox(tmp_path, monkeypatch):
    handle = serve_in_thread(
        ServiceConfig(
            port=0,
            workers=4,
            max_queue=TOTAL_REQUESTS + CLIENT_THREADS,
            cache_dir=tmp_path / "cache",
        )
    )
    try:
        host, port = handle.address
        with ServiceClient(host, port) as client:
            cold_started = time.perf_counter()
            assert client.declaration("abs")["source"] == "injected"
            cold_seconds = time.perf_counter() - cold_started

        def poisoned(*args, **kwargs):
            raise AssertionError("sandbox touched during the warm leg")

        # The daemon shares this process: if any of the 200 warm
        # requests escaped the cache, the poisoned sandbox would fail
        # the run.
        monkeypatch.setattr(Sandbox, "call", poisoned)

        latencies: list[float] = []
        latencies_lock = threading.Lock()
        local = threading.local()

        def one_request(_: int) -> str:
            client = getattr(local, "client", None)
            if client is None:
                client = local.client = ServiceClient(host, port)
            started = time.perf_counter()
            row = client.declaration("abs")
            elapsed = time.perf_counter() - started
            with latencies_lock:
                latencies.append(elapsed)
            return row["source"]

        wall_started = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(CLIENT_THREADS) as pool:
            sources = list(pool.map(one_request, range(TOTAL_REQUESTS)))
        wall_seconds = time.perf_counter() - wall_started

        assert len(sources) == TOTAL_REQUESTS
        assert set(sources) == {"cache"}
        latencies.sort()
        p50 = _quantile(latencies, 0.50)
        p99 = _quantile(latencies, 0.99)
        assert p99 < MAX_WARM_P99_SECONDS, f"p99 {p99:.3f}s over bound"

        cache = handle.service.state.store
        assert cache is not None
        payload = {
            "requests": TOTAL_REQUESTS,
            "client_threads": CLIENT_THREADS,
            "cold_seconds": round(cold_seconds, 4),
            "wall_seconds": round(wall_seconds, 4),
            "requests_per_second": round(TOTAL_REQUESTS / wall_seconds, 1),
            "p50_seconds": round(p50, 5),
            "p99_seconds": round(p99, 5),
            "p99_bound_seconds": MAX_WARM_P99_SECONDS,
            "warm_sandbox_calls": 0,  # poisoned Sandbox.call proves it
        }
        export_bench_json("service_warm_throughput", payload, path=BENCH_PATH)
        print(f"\nwarm service throughput: {payload}")
    finally:
        handle.stop()


def test_identical_requests_single_flight(tmp_path, monkeypatch):
    real = handlers_mod._run_injection
    runs: list[str] = []

    def counting(name, *args, **kwargs):
        runs.append(name)
        time.sleep(0.3)  # keep the flight open until all waiters join
        return real(name, *args, **kwargs)

    monkeypatch.setattr(handlers_mod, "_run_injection", counting)
    waiters = 24
    handle = serve_in_thread(
        ServiceConfig(
            port=0, workers=2, max_queue=waiters + 4, cache_dir=tmp_path / "c"
        )
    )
    try:
        host, port = handle.address

        def one_request(_: int) -> dict:
            with ServiceClient(host, port) as client:
                return client.inject("strlen")

        started = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(waiters) as pool:
            rows = list(pool.map(one_request, range(waiters)))
        wall_seconds = time.perf_counter() - started

        assert runs.count("strlen") == 1, f"expected 1 injection, got {runs}"
        assert all(row["function"] == "strlen" for row in rows)
        stats = handle.service.state.singleflight.stats()
        assert stats["leaders"] == 1
        assert stats["shared"] == waiters - 1

        payload = {
            "concurrent_identical_requests": waiters,
            "injections_executed": runs.count("strlen"),
            "singleflight_shared": stats["shared"],
            "wall_seconds": round(wall_seconds, 4),
        }
        export_bench_json("service_single_flight", payload, path=BENCH_PATH)
        print(f"\nsingle-flight dedup: {payload}")
    finally:
        handle.stop()


def test_overload_sheds_with_retry_later(tmp_path, monkeypatch):
    release = threading.Event()
    real = handlers_mod._run_injection

    def hung(name, *args, **kwargs):
        if not release.wait(timeout=30):
            raise TimeoutError("bench never released the hung injection")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(handlers_mod, "_run_injection", hung)
    handle = serve_in_thread(
        ServiceConfig(port=0, workers=1, max_queue=1, cache_dir=tmp_path / "c")
    )
    try:
        host, port = handle.address
        pool = concurrent.futures.ThreadPoolExecutor(2)

        def occupy(name: str) -> dict:
            with ServiceClient(host, port) as client:
                return client.inject(name)

        # Distinct functions so single-flight cannot collapse them:
        # both admission slots (capacity = workers + max_queue = 2) fill.
        futures = [pool.submit(occupy, n) for n in ("strcpy", "strncpy")]
        rejected = 0
        with ServiceClient(host, port) as client:
            deadline = time.monotonic() + 10
            while client.status()["admission"]["inflight"] < 2:
                assert time.monotonic() < deadline, "slots never filled"
                time.sleep(0.01)
            for _ in range(20):
                try:
                    client.inject("memcpy")
                except ServiceError as exc:
                    assert exc.code == ErrorCode.RETRY_LATER
                    assert exc.retry_after_ms > 0
                    rejected += 1
            snapshot = client.status()["admission"]
        assert rejected == 20, "saturated daemon must shed every extra request"
        assert snapshot["peak_inflight"] <= snapshot["capacity"]
        assert snapshot["rejected_capacity"] >= rejected

        release.set()
        for future in futures:
            assert future.result(timeout=60)["vectors"] > 0
        pool.shutdown()

        payload = {
            "capacity": snapshot["capacity"],
            "overload_attempts": 20,
            "retry_later_responses": rejected,
            "peak_inflight": snapshot["peak_inflight"],
            "rejected_capacity_total": snapshot["rejected_capacity"],
        }
        export_bench_json("service_overload_shedding", payload, path=BENCH_PATH)
        print(f"\noverload shedding: {payload}")
    finally:
        handle.stop()
