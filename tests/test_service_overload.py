"""Responsiveness under stress: a hung injection must not block
unrelated requests, expired deadlines come back as typed timeouts, and
a saturated daemon sheds load with RETRY_LATER instead of queueing
forever — then recovers."""

import concurrent.futures
import threading
import time

import pytest

import repro.service.handlers as handlers_mod
from repro.service import (
    ErrorCode,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve_in_thread,
)


@pytest.fixture()
def slow_injection(monkeypatch):
    """Make every injection block until released (a hung sandbox)."""
    release = threading.Event()
    real = handlers_mod._run_injection

    def hung(name, *args, **kwargs):
        if not release.wait(timeout=30):
            raise TimeoutError("test never released the hung injection")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(handlers_mod, "_run_injection", hung)
    yield release
    release.set()


class TestIsolation:
    def test_hung_injection_does_not_block_unrelated_requests(
        self, tmp_path, slow_injection
    ):
        handle = serve_in_thread(
            ServiceConfig(
                port=0, workers=2, max_queue=8, cache_dir=tmp_path / "cache"
            )
        )
        try:
            host, port = handle.address
            pool = concurrent.futures.ThreadPoolExecutor(2)

            def hung_request():
                with ServiceClient(host, port) as client:
                    return client.inject("strcpy")

            hung_future = pool.submit(hung_request)
            # Wait until the hung injection actually occupies a worker.
            deadline = time.monotonic() + 5
            with ServiceClient(host, port) as client:
                while client.status()["admission"]["inflight"] == 0:
                    assert time.monotonic() < deadline, "injection never started"
                    time.sleep(0.01)
                # Control-plane and admitted work still answer promptly
                # while the injection hangs.
                started = time.monotonic()
                assert client.status()["shutting_down"] is False
                with pytest.raises(ServiceError) as err:
                    client.inject("no_such_function")
                assert err.value.code == ErrorCode.UNKNOWN_FUNCTION
                assert time.monotonic() - started < 5
            assert not hung_future.done()
            slow_injection.set()
            assert hung_future.result(timeout=30)["function"] == "strcpy"
            pool.shutdown()
        finally:
            handle.stop()


class TestDeadlines:
    def test_expired_deadline_is_a_typed_timeout(self, tmp_path, slow_injection):
        handle = serve_in_thread(
            ServiceConfig(
                port=0, workers=1, max_queue=4, cache_dir=tmp_path / "cache"
            )
        )
        try:
            with ServiceClient(*handle.address) as client:
                started = time.monotonic()
                with pytest.raises(ServiceError) as err:
                    client.call(
                        "inject", {"function": "strlen"}, deadline_ms=100
                    )
                assert err.value.code == ErrorCode.DEADLINE_EXCEEDED
                # The wait is bounded by the deadline, not the hang.
                assert time.monotonic() - started < 5
                # The daemon is still live for control requests.
                assert client.status()["service"] == "repro.service"
        finally:
            handle.stop()

    def test_deadline_survivor_still_lands_in_the_store(
        self, tmp_path, monkeypatch
    ):
        """A waiter that gives up must not cancel the shared flight: the
        outcome checkpoints to the store and later requests hit cache."""
        real = handlers_mod._run_injection
        runs = []

        def slow(name, *args, **kwargs):
            runs.append(name)
            time.sleep(0.5)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(handlers_mod, "_run_injection", slow)
        handle = serve_in_thread(
            ServiceConfig(
                port=0, workers=1, max_queue=4, cache_dir=tmp_path / "cache"
            )
        )
        try:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError) as err:
                    client.call("inject", {"function": "abs"}, deadline_ms=100)
                assert err.value.code == ErrorCode.DEADLINE_EXCEEDED
                # Poll until the abandoned flight finishes and checkpoints.
                deadline = time.monotonic() + 10
                while True:
                    try:
                        row = client.inject("abs")
                        break
                    except ServiceError as exc:
                        assert exc.code == ErrorCode.RETRY_LATER
                        assert time.monotonic() < deadline
                        time.sleep(0.05)
                # The retry either joined the surviving flight or hit the
                # checkpointed outcome — either way the injection ran once.
                assert row["source"] in ("cache", "injected")
                assert runs == ["abs"]
                assert client.inject("abs")["source"] == "cache"
                assert runs == ["abs"]
        finally:
            handle.stop()


class TestOverload:
    def test_saturation_returns_retry_later_then_recovers(
        self, tmp_path, slow_injection
    ):
        handle = serve_in_thread(
            ServiceConfig(
                port=0, workers=1, max_queue=1, cache_dir=tmp_path / "cache"
            )
        )
        try:
            host, port = handle.address
            pool = concurrent.futures.ThreadPoolExecutor(2)

            def occupy(name):
                with ServiceClient(host, port) as client:
                    return client.inject(name)

            # Fill both admission slots (capacity = workers + max_queue = 2)
            # with distinct functions so single-flight cannot collapse them.
            futures = [pool.submit(occupy, n) for n in ("strcpy", "strncpy")]
            with ServiceClient(host, port) as client:
                deadline = time.monotonic() + 5
                while client.status()["admission"]["inflight"] < 2:
                    assert time.monotonic() < deadline, "slots never filled"
                    time.sleep(0.01)
                with pytest.raises(ServiceError) as err:
                    client.inject("memcpy")
                assert err.value.code == ErrorCode.RETRY_LATER
                assert err.value.retry_after_ms > 0
                # Control ops bypass admission: the operator can always see.
                snapshot = client.status()["admission"]
                assert snapshot["rejected_capacity"] >= 1
                assert snapshot["peak_inflight"] <= snapshot["capacity"]
                # Release the hung work; the daemon drains and recovers.
                slow_injection.set()
                for future in futures:
                    assert future.result(timeout=30)["vectors"] > 0
                assert client.inject("memcpy")["function"] == "memcpy"
            pool.shutdown()
        finally:
            handle.stop()

    def test_rate_limit_rejects_with_exact_hint(self, tmp_path):
        handle = serve_in_thread(
            ServiceConfig(
                port=0,
                workers=2,
                max_queue=8,
                rate=0.5,
                burst=1.0,
                cache_dir=tmp_path / "cache",
            )
        )
        try:
            with ServiceClient(*handle.address) as client:
                client.inject("abs")  # consumes the single burst token
                with pytest.raises(ServiceError) as err:
                    client.inject("labs")
                assert err.value.code == ErrorCode.RETRY_LATER
                assert 0 < err.value.retry_after_ms <= 2000
                assert client.status()["admission"]["rejected_rate"] >= 1
        finally:
            handle.stop()
