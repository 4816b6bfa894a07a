"""Tests for the fleet wire format (shard/result serialization)."""

import hashlib
import json
import pickle

import pytest

from repro.fleet import (
    WIRE_VERSION,
    FingerprintMismatch,
    FunctionResult,
    ShardSpec,
    WireError,
    build_shards,
    fleet_fingerprints,
    verify_fingerprints,
)
from repro.injector import RunSpec


def make_shard(**overrides):
    spec = dict(
        shard_id="camp/0",
        campaign="camp",
        run=RunSpec(max_vectors=24),
        functions=["strcpy", "memcpy"],
        digests=["d-strcpy", "d-memcpy"],
    )
    spec.update(overrides)
    return ShardSpec.build(**spec)


class TestShardRoundTrip:
    def test_encode_decode_is_identity(self):
        shard = make_shard(attempts=[1, 3])
        assert ShardSpec.decode(shard.encode()) == shard

    def test_decode_survives_json_boundary(self):
        shard = make_shard()
        wired = json.loads(json.dumps(shard.encode()))
        assert ShardSpec.decode(wired) == shard

    def test_digest_stable_across_json(self):
        shard = make_shard()
        again = ShardSpec.decode(json.loads(json.dumps(shard.encode())))
        assert again.digest() == shard.digest()

    def test_digest_stable_across_pickle(self):
        shard = make_shard(attempts=[2, 2])
        clone = pickle.loads(pickle.dumps(shard))
        assert clone == shard
        assert clone.digest() == shard.digest()

    def test_digest_sees_every_field(self):
        base = make_shard()
        assert make_shard(run=RunSpec(max_vectors=25)).digest() != base.digest()
        assert make_shard(attempts=[2, 1]).digest() != base.digest()
        assert make_shard(shard_id="camp/1").digest() != base.digest()

    def test_default_attempts_are_first(self):
        assert make_shard().attempts == (1, 1)

    def test_lookup_helpers(self):
        shard = make_shard(attempts=[1, 4])
        assert shard.digest_for("memcpy") == "d-memcpy"
        assert shard.attempt_for("memcpy") == 4


class TestShardValidation:
    def test_mismatched_digests_refused(self):
        with pytest.raises(WireError):
            make_shard(digests=["only-one"])

    def test_mismatched_attempts_refused(self):
        with pytest.raises(WireError):
            make_shard(attempts=[1])

    def test_non_object_refused(self):
        with pytest.raises(WireError):
            ShardSpec.decode("not a shard")

    def test_wrong_wire_version_refused(self):
        newer = make_shard().encode()
        newer["wire"] = WIRE_VERSION + 1
        # A v3 shard carried a sampling policy and its fingerprint; v4
        # workers run exhaustively and must not guess at its meaning.
        v3 = make_shard().encode()
        v3["wire"] = 3
        v3["sampling"] = "adaptive:confidence=0.99"
        v3["fingerprints"] = dict(v3["fingerprints"], sampling=1)
        # A v4 shard carried a campaign seed that v5 workers ignore.
        v4 = dict(make_shard().encode(), wire=4, seed=0)
        for doc in (newer, v3, v4):
            with pytest.raises(WireError, match="wire version"):
                ShardSpec.decode(doc)

    @pytest.mark.parametrize(
        "missing", ["shard_id", "campaign", "functions", "digests", "max_vectors"]
    )
    def test_missing_field_refused(self, missing):
        doc = make_shard().encode()
        del doc[missing]
        with pytest.raises(WireError, match="malformed"):
            ShardSpec.decode(doc)


class TestFingerprints:
    def test_local_fingerprints_verify(self):
        verify_fingerprints(fleet_fingerprints())
        make_shard().verify_local()

    def test_foreign_fingerprints_refused(self):
        skewed = dict(fleet_fingerprints(), schema=-1)
        with pytest.raises(FingerprintMismatch):
            verify_fingerprints(skewed)
        with pytest.raises(FingerprintMismatch):
            make_shard(fingerprints=skewed).verify_local()

    def test_mismatch_is_a_wire_error(self):
        assert issubclass(FingerprintMismatch, WireError)


class TestFunctionResult:
    def test_round_trip(self):
        result = FunctionResult(
            function="strcpy", digest="d", status="ok", attempt=2,
            elapsed=0.125, payload={"calls": 3}, worker="w1",
        )
        clone = FunctionResult.decode(
            json.loads(json.dumps(result.encode()))
        )
        assert clone == result
        assert clone.ok

    def test_failure_round_trip(self):
        result = FunctionResult(
            function="strcpy", digest="d", status="failed", attempt=3,
            elapsed=0.5, error="boom",
        )
        clone = FunctionResult.decode(result.encode())
        assert clone == result
        assert not clone.ok

    def test_malformed_refused(self):
        with pytest.raises(WireError):
            FunctionResult.decode({"wire": WIRE_VERSION})
        with pytest.raises(WireError):
            FunctionResult.decode([])


class TestBuildShards:
    def test_striping_matches_scheduler(self):
        names = [f"fn{i}" for i in range(5)]
        digests = {n: f"d-{n}" for n in names}
        shards = build_shards(
            names, digests, 2, campaign="c", run=RunSpec(max_vectors=10)
        )
        assert [list(s.functions) for s in shards] == [
            ["fn0", "fn2", "fn4"], ["fn1", "fn3"]
        ]
        assert [s.shard_id for s in shards] == ["c/0", "c/1"]
        for shard in shards:
            assert list(shard.digests) == [
                digests[n] for n in shard.functions
            ]
            shard.verify_local()


# ----------------------------------------------------------------------
# wire-byte pins: refactors of run-identity threading must leave the
# encoded shard bytes unchanged; a deliberate wire change updates these
# in the same commit and says why.
# ----------------------------------------------------------------------

#: Fixed fingerprints, so the pins track the wire layout and not the
#: lattice, planner or fault-subsystem versions.
PINNED_FINGERPRINTS = {
    "schema": 1, "lattice": "pin", "plan": 1, "memo": "pin", "faults": 1,
}

#: sha256 of the canonical encoding; ShardSpec.digest() must equal it.
WIRE_PINS = {
    "unarmed": "503b27da9a3f3730a483f24db59f8ce7a0a04477f028bcc0b7618a9a48028842",
    "resource": "7134759bb59aa3e219b63f87e572c2a7bd50871446109ddcaafa962ac631e7fd",
}


def _pinned_shard(fault_models):
    return ShardSpec.build(
        shard_id="pin/0",
        campaign="pin",
        run=RunSpec(max_vectors=1200, fault_models=fault_models),
        functions=["strcpy", "fopen"],
        digests=["d-strcpy", "d-fopen"],
        attempts=[1, 2],
        fingerprints=PINNED_FINGERPRINTS,
    )


@pytest.mark.parametrize(
    "label, fault_models", [("unarmed", ()), ("resource", ("resource",))]
)
def test_wire_bytes_pinned(label, fault_models):
    shard = _pinned_shard(fault_models)
    canonical = json.dumps(shard.encode(), sort_keys=True, separators=(",", ":"))
    encoded = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert encoded == shard.digest() == WIRE_PINS[label]
