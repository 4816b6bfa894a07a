"""Tests for the remote fleet: worker ops over the v1 protocol, lease
expiry reassignment end to end, fleet-wide cache dedup, and campaigns
attached to a running daemon (`CampaignConfig.fleet_address`, `campaign
run --connect`)."""

import json
import socket
import time

import pytest

from repro.campaign import CampaignConfig, CampaignRunner
from repro.cli import main
from repro.fleet import ShardSpec, fleet_fingerprints
from repro.fleet.remote import parse_address
from repro.fleet.worker import execute_function
from repro.injector import RunSpec
from repro.service import ServiceClient, ServiceConfig, ServiceError, serve_in_thread
from tests.fleet_workers import run_attached

FUNCTIONS = ["abs", "labs", "atoi"]
RUN = RunSpec(max_vectors=24)

#: Short lease so expiry tests wait fractions of a second, not 30s.
LEASE_TTL = 0.6


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    handle = serve_in_thread(
        ServiceConfig(
            port=0,
            lease_ttl=LEASE_TTL,
            cache_dir=tmp_path_factory.mktemp("fleet-cache"),
        )
    )
    yield handle
    handle.stop()


@pytest.fixture()
def client(service):
    with ServiceClient(*service.address) as open_client:
        yield open_client


def make_shards(campaign, functions=FUNCTIONS, digests=None):
    # Digests default to campaign-unique values: the daemon's outcome
    # store dedups fleet-wide by digest, and most tests here want their
    # functions to actually reach a worker.
    digests = digests or {n: f"digest-{campaign}-{n}" for n in functions}
    return [
        ShardSpec.build(
            shard_id=f"{campaign}/0",
            campaign=campaign,
            run=RUN,
            functions=functions,
            digests=[digests[n] for n in functions],
        )
    ]


def register(client, name="test-worker"):
    granted = client.worker_register(name, fleet_fingerprints())
    assert granted["lease_ttl"] == LEASE_TTL
    return granted["worker_id"]


def drive_worker(client, worker_id, campaign):
    """Play one worker by hand: lease, execute, stream, complete."""
    executed = []
    while True:
        leased = client.worker_lease(worker_id)
        doc = leased.get("shard")
        if doc is None:
            return executed
        shard = ShardSpec.decode(doc)
        for name in shard.functions:
            result = execute_function(
                name, shard.digest_for(name), shard.run,
                shard.attempt_for(name), worker=worker_id,
            )
            client.worker_result(
                worker_id, campaign, shard.shard_id, result.encode()
            )
            executed.append(name)
        client.worker_complete(worker_id, shard.shard_id)


class TestWorkerOps:
    def test_register_lease_result_complete(self, client):
        campaign = "proto-roundtrip"
        worker = register(client)
        submitted = client.fleet_submit(
            [s.encode() for s in make_shards(campaign)]
        )
        assert submitted["queued"] == 1
        assert submitted["cached"] == 0
        assert drive_worker(client, worker, campaign) == FUNCTIONS

        page = client.fleet_collect(campaign)
        assert page["done"]
        assert [r["function"] for r in page["results"]] == FUNCTIONS
        assert all(r["status"] == "ok" for r in page["results"])
        assert client.fleet_forget(campaign)["forgotten"]

    def test_fingerprint_skew_refused_at_register(self, client):
        with pytest.raises(ServiceError) as err:
            client.worker_register(
                "foreign", dict(fleet_fingerprints(), schema=-5)
            )
        assert "refusing" in str(err.value)

    def test_unknown_worker_refused(self, client):
        with pytest.raises(ServiceError):
            client.worker_lease("w-does-not-exist")

    def test_fleet_status_over_protocol(self, client):
        status = client.fleet_status()
        assert status["lease_ttl"] == LEASE_TTL
        assert {"workers_alive", "shards_leased", "lease_expiries",
                "reshard_count"} <= set(status)


class TestLeaseExpiry:
    def test_expired_lease_reassigns_with_bumped_attempt(self, client):
        campaign = "proto-expiry"
        client.fleet_submit([s.encode() for s in make_shards(campaign)])
        dead = register(client, "doomed")
        leased = ShardSpec.decode(client.worker_lease(dead)["shard"])
        assert leased.attempt_for("abs") == 1

        # The doomed worker never heartbeats; its lease lapses and the
        # shard returns to the queue for the survivor, attempts bumped.
        time.sleep(LEASE_TTL + 0.3)
        survivor = register(client, "survivor")
        retry = ShardSpec.decode(client.worker_lease(survivor)["shard"])
        assert set(retry.functions) == set(FUNCTIONS)
        assert retry.attempt_for("abs") == 2
        assert retry.shard_id != leased.shard_id
        assert client.fleet_status()["lease_expiries"] >= 1

        # The survivor finishes the retry shard it already holds.
        for name in retry.functions:
            result = execute_function(
                name, retry.digest_for(name), retry.run,
                retry.attempt_for(name), worker=survivor,
            )
            client.worker_result(
                survivor, campaign, retry.shard_id, result.encode()
            )
        client.worker_complete(survivor, retry.shard_id)
        assert client.fleet_collect(campaign)["done"]
        client.fleet_forget(campaign)


class TestFleetCache:
    def test_submit_satisfies_from_outcome_store(self, client):
        # Campaign A computes everything; the daemon persists each ok
        # payload by digest.  Campaign B reuses two digests — those
        # functions never reach a worker.
        shared = {n: f"digest-shared-{n}" for n in FUNCTIONS}
        worker = register(client)
        client.fleet_submit(
            [s.encode() for s in make_shards("cache-a", digests=shared)]
        )
        assert drive_worker(client, worker, "cache-a") == FUNCTIONS
        client.fleet_forget("cache-a")

        submitted = client.fleet_submit(
            [s.encode() for s in make_shards("cache-b", digests=shared)]
        )
        assert submitted["cached"] == len(FUNCTIONS)
        page = client.fleet_collect("cache-b")
        assert page["done"]
        assert all(r["source"] == "cache" for r in page["results"])
        assert drive_worker(client, worker, "cache-b") == []
        client.fleet_forget("cache-b")


class TestRunRemoteFleet:
    def test_parse_address(self):
        assert parse_address("example.org:4040") == ("example.org", 4040)
        with pytest.raises(ValueError):
            parse_address("no-port")

    def test_attached_fleet_bit_identical(self, daemon):
        serial = CampaignRunner(FUNCTIONS, CampaignConfig()).run()
        host, port = daemon.address
        config = CampaignConfig(jobs=2, fleet_address=f"{host}:{port}")
        remote = run_attached(
            daemon.address, CampaignRunner(FUNCTIONS, config).run
        )
        assert remote.failed == {}
        assert remote.fleet_mode == "remote"
        assert remote.workers == 2
        assert list(remote.reports) == FUNCTIONS
        assert remote.reports == serial.reports


@pytest.fixture()
def daemon(tmp_path):
    """A daemon of its own with an outcome store, so every function of
    the campaign reaches a worker instead of the store."""
    handle = serve_in_thread(ServiceConfig(port=0, cache_dir=tmp_path / "daemon"))
    yield handle
    handle.stop()


def outcome_store(cache):
    return {p.name: p.read_bytes() for p in (cache / "outcomes").glob("*.json")}


class TestConnectCli:
    def test_connect_matches_serial(self, daemon, tmp_path, capsys):
        def campaign(label, *flags):
            return ["campaign", "run", *FUNCTIONS, *flags,
                    "--cache-dir", str(tmp_path / label), "--json"]

        assert main(campaign("serial")) == 0
        serial = json.loads(capsys.readouterr().out)
        host, port = daemon.address
        argv = campaign("remote", "--jobs", "2", "--connect", f"{host}:{port}")
        assert run_attached(daemon.address, lambda: main(argv)) == 0
        remote = json.loads(capsys.readouterr().out)

        assert remote["fleet_mode"] == "remote"
        assert remote["ran"] == len(FUNCTIONS)
        assert remote["failed"] == {}
        assert {n: f["digest"] for n, f in remote["functions"].items()} == {
            n: f["digest"] for n, f in serial["functions"].items()
        }
        store = outcome_store(tmp_path / "serial")
        assert len(store) == len(FUNCTIONS)
        assert outcome_store(tmp_path / "remote") == store
        manifest = json.loads((tmp_path / "remote" / "manifest.json").read_text())
        assert manifest["fleet"] == "remote"

    def test_unreachable_connect_exits_2(self, tmp_path, capsys):
        # A bound socket that never listens refuses every connection.
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            address = "127.0.0.1:%d" % closed.getsockname()[1]
            assert main(
                ["campaign", "run", "abs", "--connect", address,
                 "--cache-dir", str(tmp_path)]
            ) == 2
        assert f"cannot reach {address}" in capsys.readouterr().err

    def test_malformed_connect_exits_2(self, tmp_path, capsys):
        assert main(
            ["campaign", "run", "abs", "--connect", "no-port",
             "--cache-dir", str(tmp_path)]
        ) == 2
        assert "HOST:PORT" in capsys.readouterr().err
