"""The daemon's per-digest memo of reports, and stored payloads
that do not decode.

A warm request is answered from :attr:`ServiceState._reports` without
reading the store or decoding a payload; an undecodable stored payload
is a miss that is re-injected and overwritten.  Handlers are driven
in-process through :data:`repro.service.handlers.HANDLERS`."""

import asyncio
import json

import pytest

import repro.campaign.store as store_mod
import repro.service.handlers as handlers_mod
from repro.campaign.digest import outcome_digest
from repro.campaign.store import OutcomeStore, report_from_payload
from repro.injector import FaultInjector, RunSpec
from repro.libc.catalog import BY_NAME
from repro.service.handlers import HANDLERS, ServiceState

#: One request per report-reading op, all answered from warm reports.
WARM_REQUESTS = [
    ("declaration", {"function": "strlen"}),
    ("declaration", {"function": "strlen", "semi_auto": True}),
    ("inject", {"function": "fopen"}),
    ("inject", {"function": "fopen", "fault_models": ["resource"]}),
    ("harden", {"functions": ["strlen", "fopen"], "include_source": True}),
    ("harden", {"functions": ["strlen"], "semi_auto": True}),
    (
        "validate",
        {
            "calls": [
                {"function": "strlen", "args": [{"cstring": "hello"}]},
                {"function": "strlen", "args": [{"null": True}]},
            ]
        },
    ),
    (
        "validate",
        {
            "calls": [{"function": "strlen", "args": [{"cstring": "hi"}]}],
            "execute": True,
            "semi_auto": True,
        },
    ),
]


def _call(state: ServiceState, op: str, params: dict) -> dict:
    return asyncio.run(HANDLERS[op](state, params))


def _calls(state: ServiceState, requests) -> list[dict]:
    async def run_all():
        return [await HANDLERS[op](state, params) for op, params in requests]

    return asyncio.run(run_all())


def _cache_count(state: ServiceState, result: str) -> int:
    return state.telemetry.counter("service.cache", result=result).value


@pytest.fixture()
def state(tmp_path):
    service_state = ServiceState(cache_dir=tmp_path / "cache")
    yield service_state
    service_state.close()


class TestRunIdentity:
    @pytest.mark.parametrize("fault_models", [(), ("resource",)])
    def test_inject_row_is_the_run_it_digests(self, state, fault_models):
        # The row's digest and the injection behind it must come from
        # one run: a daemon that injected under another cap stored a
        # short report under the default digest.
        run = RunSpec(fault_models=fault_models)
        params = {"function": "strcpy"}
        if fault_models:
            params["fault_models"] = list(fault_models)
        row = _call(state, "inject", params)
        spec = BY_NAME["strcpy"]
        assert row["digest"] == outcome_digest(spec, run)
        assert row["vectors"] == FaultInjector(spec, run=run).run().vectors_run


class TestMemo:
    def test_warm_requests_read_neither_store_nor_decoder(self, state, monkeypatch):
        cold = _calls(state, WARM_REQUESTS)
        reads, decodes = [], []
        real_get, real_decode = OutcomeStore.get_payload, store_mod.report_from_payload

        def counting_get(self, digest):
            reads.append(digest)
            return real_get(self, digest)

        def counting_decode(payload, parser=None):
            decodes.append(payload["name"])
            return real_decode(payload, parser)

        monkeypatch.setattr(OutcomeStore, "get_payload", counting_get)
        monkeypatch.setattr(store_mod, "report_from_payload", counting_decode)
        for _ in range(3):
            warm = _calls(state, WARM_REQUESTS)
            for (op, _params), before, after in zip(WARM_REQUESTS, cold, warm):
                if op in ("declaration", "inject"):
                    assert after["source"] == "cache"
                    after = dict(after, source=before["source"])
                elif op == "harden":
                    assert set(after["sources"].values()) == {"cache"}
                    after = dict(after, sources=before["sources"])
                else:
                    # Compiled check programs are shared process-wide,
                    # so only the first batch compiles them.
                    after = dict(after, wrapper=before["wrapper"])
                assert after == before, op
        assert reads == [] and decodes == []

    def test_injected_report_is_shared_without_a_decode(self, state, monkeypatch):
        real_decode = store_mod.report_from_payload
        decodes = []

        def counting_decode(payload, parser=None):
            decodes.append(payload["name"])
            return real_decode(payload, parser)

        monkeypatch.setattr(store_mod, "report_from_payload", counting_decode)
        row = _call(state, "inject", {"function": "fopen", "fault_models": ["resource"]})
        assert row["source"] == "injected"
        assert decodes == []
        shared = state._reports[row["digest"]]
        stored = state.store.get_payload(row["digest"])
        assert shared == real_decode(stored, state.parser)

    def test_fault_models_key_separate_reports(self, state):
        rows = _calls(
            state,
            [
                ("inject", {"function": "fopen"}),
                ("inject", {"function": "fopen", "fault_models": ["resource"]}),
            ] * 2,
        )
        plain, armed, plain_again, armed_again = rows
        assert [r["source"] for r in rows] == ["injected", "injected", "cache", "cache"]
        assert plain["digest"] != armed["digest"]
        assert "unsafe_scenarios" not in plain
        assert armed["unsafe_scenarios"] == ["resource:malloc_null"]
        assert dict(plain_again, source="injected") == plain
        assert dict(armed_again, source="injected") == armed
        assert len(state._reports) == 2

    def test_no_store_means_no_memo(self):
        stateless = ServiceState(cache_dir=None)
        try:
            rows = _calls(stateless, [("inject", {"function": "abs"})] * 2)
            assert [r["source"] for r in rows] == ["injected", "injected"]
            assert stateless._reports == {}
            assert _cache_count(stateless, "hit") == 0
        finally:
            stateless.close()

    def test_memo_is_bounded(self, state, monkeypatch):
        monkeypatch.setattr(handlers_mod, "_REPORT_MEMO_LIMIT", 2)
        for name in ("abs", "labs", "strlen"):
            _call(state, "inject", {"function": name})
            assert len(state._reports) <= 2
        # A function dropped from the memo is still served from the store.
        rows = _calls(state, [("inject", {"function": n}) for n in ("abs", "labs", "strlen")])
        assert {r["source"] for r in rows} == {"cache"}
        assert len(state._reports) <= 2

    def test_handlers_never_mutate_memoized_reports(self, state):
        _calls(
            state,
            WARM_REQUESTS
            + [("ballista", {"functions": ["strlen", "fopen"]})]
            + WARM_REQUESTS,
        )
        assert len(state._reports) == 3
        for digest, report in state._reports.items():
            fresh = report_from_payload(state.store.get_payload(digest), state.parser)
            assert report == fresh, report.name


class TestUndecodablePayload:
    """A stored entry that does not decode is a miss: the request is
    answered by a fresh injection, which overwrites the entry."""

    @staticmethod
    def _truncate(path):
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

    @staticmethod
    def _drop_observations(path):
        payload = json.loads(path.read_text())
        del payload["observations"]
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("corrupt", ["_truncate", "_drop_observations"])
    def test_bad_entry_is_reinjected_then_cached(self, tmp_path, corrupt):
        cache = tmp_path / "cache"
        first = ServiceState(cache_dir=cache)
        try:
            good = _call(first, "declaration", {"function": "strlen"})
        finally:
            first.close()
        path = OutcomeStore(cache).path_for(good["digest"])
        getattr(self, corrupt)(path)

        second = ServiceState(cache_dir=cache)
        try:
            again = _call(second, "declaration", {"function": "strlen"})
            assert again["source"] == "injected"
            assert again["xml"] == good["xml"]
            assert _cache_count(second, "miss") == 1
            assert _cache_count(second, "hit") == 0
            assert OutcomeStore(cache).get(good["digest"]) is not None
            warm = _call(second, "declaration", {"function": "strlen"})
            assert warm["source"] == "cache"
            assert warm["xml"] == good["xml"]
        finally:
            second.close()

    def test_bad_entry_never_enters_the_memo(self, state, monkeypatch):
        digest = _call(state, "inject", {"function": "abs"})["digest"]
        state._reports.clear()
        self._drop_observations(state.store.path_for(digest))

        def failing(*args, **kwargs):
            raise RuntimeError("injection failed")

        # With the re-injection failing too, the request fails and
        # nothing is memoized for the digest.
        monkeypatch.setattr(handlers_mod, "_run_injection", failing)
        with pytest.raises(RuntimeError):
            _call(state, "inject", {"function": "abs"})
        assert digest not in state._reports
