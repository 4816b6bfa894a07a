"""End-to-end daemon tests over real sockets: endpoints, typed errors,
content-addressed cache reuse, single-flight, and graceful shutdown.

One shared service (module scope) backs the read-mostly cases; tests
that poison the sandbox or patch the injector start their own."""

import concurrent.futures
import json
import socket
import time

import pytest

import repro.service.handlers as handlers_mod
from repro.declarations import declaration_from_report
from repro.injector import inject_function
from repro.libc.catalog import BY_NAME
from repro.sandbox import Sandbox
from repro.service import (
    ErrorCode,
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve_in_thread,
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    handle = serve_in_thread(
        ServiceConfig(
            port=0,
            workers=2,
            max_queue=32,
            cache_dir=tmp_path_factory.mktemp("service-cache"),
        )
    )
    yield handle
    handle.stop()


@pytest.fixture()
def client(service):
    with ServiceClient(*service.address) as open_client:
        yield open_client


class TestEndpoints:
    def test_status(self, client):
        from repro import __version__

        status = client.status()
        assert status["service"] == "repro.service"
        assert status["version"] == __version__
        assert status["protocol"] == PROTOCOL_VERSION
        assert status["functions"] > 100
        assert set(status["ops"]) == {
            "ballista", "declaration", "harden", "history", "inject",
            "metrics", "status", "validate",
        }
        assert status["admission"]["capacity"] == 34
        assert status["shutting_down"] is False

    def test_declaration_matches_direct_pipeline(self, client):
        result = client.declaration("asctime")
        direct = declaration_from_report(
            inject_function("asctime"), BY_NAME["asctime"].version
        )
        assert result["xml"] == direct.to_xml()
        assert result["unsafe"] == direct.unsafe
        assert result["digest"]
        assert result["source"] in ("cache", "injected")

    def test_semi_auto_declaration_differs(self, client):
        full = client.declaration("closedir")
        semi = client.declaration("closedir", semi_auto=True)
        assert semi["xml"] != full["xml"]

    def test_inject_row(self, client):
        row = client.inject("abs")
        assert row["function"] == "abs"
        assert row["calls"] > 0
        assert row["robust_types"]
        assert isinstance(row["unsafe"], bool)

    def test_second_request_hits_cache(self, client):
        client.inject("labs")
        assert client.inject("labs")["source"] == "cache"

    def test_harden(self, client):
        result = client.harden(["abs", "asctime"], include_source=True)
        assert result["functions"] == ["abs", "asctime"]
        assert sorted(result["unsafe"] + result["safe"]) == ["abs", "asctime"]
        assert result["failed"] == {}
        assert set(result["declarations"]) == {"abs", "asctime"}
        assert "asctime" in result["wrapper_source"]

    def test_ballista(self, client):
        result = client.ballista(["abs"], configurations=["unwrapped"])
        assert result["tests"] > 0
        [row] = result["configurations"]
        assert row["configuration"] == "unwrapped"

    def test_metrics_scrape(self, client):
        client.status()
        body = client.metrics_text()
        assert "# TYPE service_requests_total counter" in body
        assert 'service_requests_total{code="OK",op="status"}' in body
        assert "service_request_seconds" in body

    def test_validate_batch(self, client):
        result = client.validate(
            [
                {"function": "strlen", "args": [{"cstring": "hello"}]},
                {"function": "strlen", "args": [{"null": True}]},
                {"function": "strlen", "args": [{"invalid": True}]},
            ]
        )
        assert result["batch"] == 3
        ok_row, null_row, wild_row = result["calls"]
        assert ok_row["ok"] is True and ok_row["violation"] is None
        assert null_row["ok"] is False and "arg 0" in null_row["violation"]
        assert wild_row["ok"] is False
        assert result["violations"] == 2
        assert result["wrapper"]["checks"] >= 3

    def test_validate_execute_forwards_admitted_calls(self, client):
        result = client.validate(
            [
                {"function": "strlen", "args": [{"cstring": "hello"}]},
                {"function": "strlen", "args": [{"null": True}]},
            ],
            execute=True,
        )
        good, rejected = result["calls"]
        assert good["status"] == "RETURNED" and good["return_value"] == 5
        # The NULL call was rejected by the prefix code, not executed:
        # it still RETURNED, with the declared error value and errno.
        assert rejected["status"] == "RETURNED"
        assert rejected["errno"] is not None
        assert result["violations"] == 1

    def test_validate_rejects_malformed_params(self, client):
        for params in (
            {},
            {"calls": []},
            {"calls": [{"args": []}]},
            {"calls": [{"function": "strlen", "args": ["text"]}]},
            {"calls": [{"function": "strlen", "args": [{"bogus": 1}]}]},
        ):
            with pytest.raises(ServiceError) as err:
                client.call("validate", params)
            assert err.value.code == ErrorCode.INVALID_PARAMS


class TestTypedErrors:
    def test_unknown_function(self, client):
        with pytest.raises(ServiceError) as err:
            client.inject("no_such_function")
        assert err.value.code == ErrorCode.UNKNOWN_FUNCTION

    # A worker of the deleted remote fleet still asking for a lease
    # gets the same typed error as any other unknown op.
    @pytest.mark.parametrize("op", ["frobnicate", "worker.lease"])
    def test_unknown_op(self, client, op):
        with pytest.raises(ServiceError) as err:
            client.call(op, {"worker_id": "w-1"})
        assert err.value.code == ErrorCode.UNKNOWN_OP

    def test_invalid_params(self, client):
        with pytest.raises(ServiceError) as err:
            client.call("declaration", {})
        assert err.value.code == ErrorCode.INVALID_PARAMS
        with pytest.raises(ServiceError) as err:
            client.call("ballista", {"functions": []})
        assert err.value.code == ErrorCode.INVALID_PARAMS
        # Injection is exhaustive: a request still asking for sampling
        # is refused, never served an exhaustive report in its place.
        for op, params in (
            ("inject", {"function": "abs"}),
            ("harden", {"functions": ["abs"]}),
            ("ballista", {"functions": ["abs"]}),
            ("validate", {"calls": [{"function": "abs", "args": [1]}]}),
        ):
            with pytest.raises(ServiceError) as err:
                client.call(op, dict(params, sampling="adaptive"))
            assert err.value.code == ErrorCode.INVALID_PARAMS, op
        # A misspelled key is refused by name, not silently dropped
        # (``fault_model`` would otherwise serve an unfaulted report).
        with pytest.raises(ServiceError) as err:
            client.call("inject", {"function": "fopen", "fault_model": "resource"})
        assert err.value.code == ErrorCode.INVALID_PARAMS
        assert "fault_model" in err.value.message

    def test_bad_version_and_garbage_lines(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"v": 99, "op": "status"}\n')
            stream.flush()
            answer = json.loads(stream.readline())
            assert answer["ok"] is False
            assert answer["error"]["code"] == ErrorCode.UNSUPPORTED_VERSION
            # The connection survives a bad request.
            stream.write(b"this is not json\n")
            stream.flush()
            answer = json.loads(stream.readline())
            assert answer["error"]["code"] == ErrorCode.BAD_REQUEST
            stream.write(b'{"v": 1, "op": "status"}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True


class TestWarmCacheZeroSandbox:
    def test_warm_requests_never_touch_the_sandbox(self, tmp_path, monkeypatch):
        handle = serve_in_thread(
            ServiceConfig(port=0, workers=2, cache_dir=tmp_path / "cache")
        )
        try:
            with ServiceClient(*handle.address) as client:
                cold = client.declaration("strlen")
                assert cold["source"] == "injected"

                def poisoned(*args, **kwargs):
                    raise AssertionError("sandbox touched on a warm cache")

                # The daemon runs in this process: poisoning Sandbox.call
                # proves the warm path makes zero sandbox calls.
                monkeypatch.setattr(Sandbox, "call", poisoned)
                warm = client.declaration("strlen")
                assert warm["source"] == "cache"
                assert warm["xml"] == cold["xml"]
        finally:
            handle.stop()


class TestSingleFlight:
    def test_identical_concurrent_requests_inject_once(
        self, tmp_path, monkeypatch
    ):
        real = handlers_mod._run_injection
        runs = []

        def counting(name, *args, **kwargs):
            runs.append(name)
            time.sleep(0.2)  # hold the flight open for the waiters
            return real(name, *args, **kwargs)

        monkeypatch.setattr(handlers_mod, "_run_injection", counting)
        handle = serve_in_thread(
            ServiceConfig(
                port=0, workers=2, max_queue=32, cache_dir=tmp_path / "cache"
            )
        )
        try:
            host, port = handle.address

            def one_request(_):
                with ServiceClient(host, port) as client:
                    return client.inject("strcmp")

            with concurrent.futures.ThreadPoolExecutor(12) as pool:
                rows = list(pool.map(one_request, range(12)))
            assert runs.count("strcmp") == 1
            assert all(row["source"] == "injected" for row in rows)
            assert len({json.dumps(r, sort_keys=True) for r in rows}) == 1
            stats = handle.service.state.singleflight.stats()
            assert stats["leaders"] == 1
            assert stats["shared"] == 11
            # The shared outcome landed in the store: the next request
            # is a cache hit with no new flight.
            with ServiceClient(host, port) as client:
                assert client.inject("strcmp")["source"] == "cache"
            assert runs.count("strcmp") == 1
        finally:
            handle.stop()


class TestShutdown:
    def test_graceful_stop_refuses_new_connections(self, tmp_path):
        handle = serve_in_thread(
            ServiceConfig(port=0, workers=1, cache_dir=tmp_path / "cache")
        )
        host, port = handle.address
        with ServiceClient(host, port) as client:
            client.status()
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)


class TestHistory:
    def test_history_without_ledger_is_invalid_params(self, client):
        with pytest.raises(ServiceError) as err:
            client.call("history")
        assert err.value.code == ErrorCode.INVALID_PARAMS

    def test_history_reads_ledger_and_shutdown_rolls_up(self, tmp_path):
        from repro.obs.ledger import Ledger

        db = tmp_path / "ledger.sqlite"
        Ledger(db).ingest_bench_document(
            {"version": 1, "benchmarks": {"smoke": {"elapsed_seconds": 1.0}}},
            source="seed",
        )
        handle = serve_in_thread(
            ServiceConfig(port=0, workers=1, ledger=db)
        )
        try:
            with ServiceClient(*handle.address) as client:
                history = client.call("history", {"limit": 5})
                assert history["ledger"]["runs_total"] == 1
                assert history["runs"][0]["kind"] == "bench"
                with pytest.raises(ServiceError) as err:
                    client.call("history", {"limit": 0})
                assert err.value.code == ErrorCode.INVALID_PARAMS
                with pytest.raises(ServiceError) as err:
                    client.call("history", {"kind": "nope"})
                assert err.value.code == ErrorCode.INVALID_PARAMS
                body = client.metrics_text()
                assert "ledger_runs_total 1" in body
        finally:
            handle.stop()
        # Graceful shutdown rolled this lifetime's traffic into the ledger.
        service_runs = Ledger(db).runs(kind="service")
        assert len(service_runs) == 1
        assert service_runs[0].extra["requests_total"] > 0
