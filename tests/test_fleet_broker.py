"""Tests for the shard broker (lease-based remote work distribution)."""

import pytest

from repro.fleet import FingerprintMismatch, FunctionResult, ShardSpec
from repro.fleet import fleet_fingerprints
from repro.fleet.broker import BrokerError, ShardBroker
from repro.injector import RunSpec


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_shards(
    campaign="camp", functions=("a", "b", "c"), workers=2, run=RunSpec(8)
):
    names = list(functions)
    stripes = [names[i::workers] for i in range(min(workers, len(names)))]
    return [
        ShardSpec.build(
            shard_id=f"{campaign}/{i}",
            campaign=campaign,
            run=run,
            functions=stripe,
            digests=[f"d-{n}" for n in stripe],
        )
        for i, stripe in enumerate(stripes)
    ]


def ok_result(shard, name, attempt=None):
    return FunctionResult(
        function=name,
        digest=shard.digest_for(name),
        status="ok",
        attempt=attempt or shard.attempt_for(name),
        elapsed=0.01,
        payload={"function": name},
    )


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def broker(clock):
    return ShardBroker(lease_ttl=30.0, clock=clock)


def register(broker, name="worker"):
    return broker.register(name, fleet_fingerprints())["worker_id"]


class TestRegistration:
    def test_register_returns_id_and_ttl(self, broker):
        granted = broker.register("w", fleet_fingerprints())
        assert granted["worker_id"] == "w1"
        assert granted["lease_ttl"] == 30.0

    def test_fingerprint_skew_refused(self, broker):
        with pytest.raises(FingerprintMismatch):
            broker.register("w", dict(fleet_fingerprints(), lattice=-9))

    def test_unknown_worker_refused(self, broker):
        with pytest.raises(BrokerError, match="unknown worker"):
            broker.lease("w99")


class TestLeasing:
    def test_lease_drains_queue_then_none(self, broker):
        worker = register(broker)
        broker.submit(make_shards())
        first = broker.lease(worker)
        second = broker.lease(worker)
        assert {first.shard_id, second.shard_id} == {"camp/0", "camp/1"}
        assert broker.lease(worker) is None

    def test_submit_is_idempotent(self, broker):
        shards = make_shards()
        assert broker.submit(shards)["queued"] == 2
        again = broker.submit(shards)
        assert again["deduped"] is True
        assert again["queued"] == 0

    def test_submit_rejects_split_campaigns(self, broker):
        mixed = make_shards("one") + make_shards("two")
        with pytest.raises(BrokerError, match="one campaign"):
            broker.submit(mixed)

    def test_results_stream_in_arrival_order(self, broker):
        worker = register(broker)
        broker.submit(make_shards())
        shard = broker.lease(worker)
        for name in shard.functions:
            assert broker.record_result(
                "camp", ok_result(shard, name), worker_id=worker
            )
        page = broker.collect("camp", after=0)
        assert [r["function"] for r in page["results"]] == list(shard.functions)
        assert page["seq"] == len(shard.functions)
        assert not page["done"]
        # Incremental collect returns only the suffix.
        assert broker.collect("camp", after=page["seq"])["results"] == []

    def test_duplicate_result_rejected(self, broker):
        worker = register(broker)
        broker.submit(make_shards())
        shard = broker.lease(worker)
        result = ok_result(shard, shard.functions[0])
        assert broker.record_result("camp", result, worker_id=worker)
        assert not broker.record_result("camp", result, worker_id=worker)

    def test_foreign_function_refused(self, broker):
        worker = register(broker)
        broker.submit(make_shards())
        shard = broker.lease(worker)
        bogus = FunctionResult(
            function="zzz", digest="d", status="ok", attempt=1, elapsed=0.0,
            payload={},
        )
        with pytest.raises(BrokerError, match="not part of"):
            broker.record_result("camp", bogus, worker_id=worker)
        assert shard is not None


class TestLeaseExpiry:
    def test_expiry_requeues_with_bumped_attempt(self, broker, clock):
        dead = register(broker, "dead")
        broker.submit(make_shards(functions=("a", "b"), workers=1))
        shard = broker.lease(dead)
        assert shard.attempt_for("a") == 1

        clock.advance(31.0)
        survivor = register(broker, "survivor")
        retry = broker.lease(survivor)
        assert retry is not None
        assert set(retry.functions) == {"a", "b"}
        assert retry.attempt_for("a") == 2
        assert retry.shard_id != shard.shard_id
        assert broker.lease_expiries == 1
        assert broker.reshard_count == 1

    def test_requeued_shard_keeps_the_run(self, broker, clock):
        # The retry runs under the digests the parent planned, so it
        # must arm the same fault models at the same cap.
        armed = RunSpec(max_vectors=8, fault_models=("resource",))
        dead = register(broker, "dead")
        broker.submit(make_shards(functions=("a",), workers=1, run=armed))
        broker.lease(dead)
        clock.advance(31.0)
        retry = broker.lease(register(broker, "survivor"))
        assert retry.run == armed

    def test_heartbeat_renews_lease(self, broker, clock):
        worker = register(broker)
        broker.submit(make_shards(functions=("a",), workers=1))
        assert broker.lease(worker) is not None
        clock.advance(20.0)
        assert broker.heartbeat(worker)["renewed"] == 1
        clock.advance(20.0)   # 40s total, but renewed at t+20
        assert broker.expire() == 0

    def test_reported_functions_do_not_requeue(self, broker, clock):
        worker = register(broker)
        broker.submit(make_shards(functions=("a", "b"), workers=1))
        shard = broker.lease(worker)
        broker.record_result("camp", ok_result(shard, "a"), worker_id=worker)
        clock.advance(31.0)
        assert broker.expire() == 1
        retry = broker.lease(worker)
        assert list(retry.functions) == ["b"]

    def test_retry_budget_exhaustion_fails_function(self, broker, clock):
        worker = register(broker)
        broker.submit(make_shards(functions=("a",), workers=1), task_retries=1)
        broker.lease(worker)
        clock.advance(31.0)       # attempt 1 expires -> attempt 2 queued
        assert broker.lease(worker) is not None
        clock.advance(31.0)       # attempt 2 expires -> budget spent
        broker.expire()
        page = broker.collect("camp")
        assert page["done"]
        (failure,) = page["results"]
        assert failure["status"] == "failed"
        assert "lease expired" in failure["error"]

    def test_late_result_after_expiry_still_lands(self, broker, clock):
        # At-least-once: the expired worker may still be alive; its late
        # report wins iff no retry finished first (results are
        # bit-identical either way).
        worker = register(broker)
        broker.submit(make_shards(functions=("a",), workers=1))
        shard = broker.lease(worker)
        clock.advance(31.0)
        broker.expire()
        assert broker.record_result("camp", ok_result(shard, "a"))
        assert broker.collect("camp")["done"]


class TestCompleteAndCache:
    def test_complete_releases_lease(self, broker):
        worker = register(broker)
        broker.submit(make_shards(functions=("a",), workers=1))
        shard = broker.lease(worker)
        broker.record_result("camp", ok_result(shard, "a"), worker_id=worker)
        assert broker.complete(worker, shard.shard_id)["released"]
        assert not broker.complete(worker, shard.shard_id)["released"]

    def test_complete_requeues_stragglers(self, broker):
        # A worker that completes without reporting everything (chaos,
        # bugs) loses the lease; unreported functions go back to work.
        worker = register(broker)
        broker.submit(make_shards(functions=("a", "b"), workers=1))
        shard = broker.lease(worker)
        broker.record_result("camp", ok_result(shard, "a"), worker_id=worker)
        broker.complete(worker, shard.shard_id)
        retry = broker.lease(worker)
        assert list(retry.functions) == ["b"]

    def test_cache_satisfaction_skips_workers(self, broker):
        worker = register(broker)
        broker.submit(make_shards(functions=("a", "b"), workers=1))
        assert broker.satisfy_from_cache("camp", "a", {"cached": True})
        shard = broker.lease(worker)
        assert list(shard.functions) == ["b"]
        page = broker.collect("camp")
        assert page["results"][0]["source"] == "cache"
        # Terminal functions cannot be re-satisfied.
        assert not broker.satisfy_from_cache("camp", "a", {})

    def test_forget_drops_campaign_and_leases(self, broker):
        worker = register(broker)
        broker.submit(make_shards())
        broker.lease(worker)
        assert broker.forget("camp")
        assert not broker.forget("camp")
        with pytest.raises(BrokerError, match="unknown campaign"):
            broker.collect("camp")
        assert broker.status()["shards_leased"] == 0


class TestStatus:
    def test_status_reports_fleet_shape(self, broker, clock):
        worker = register(broker, "alpha")
        broker.submit(make_shards())
        broker.lease(worker)
        status = broker.status()
        assert status["workers_alive"] == 1
        assert status["shards_leased"] == 1
        assert status["shards_queued"] == 1
        assert status["campaigns"]["camp"]["pending"] == 3
        assert status["workers"]["w1"]["name"] == "alpha"
        clock.advance(100.0)
        assert broker.status()["workers_alive"] == 0
