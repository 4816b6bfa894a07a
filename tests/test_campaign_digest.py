"""Tests for campaign content addressing (repro.campaign.digest)."""

import dataclasses

from repro.campaign import (
    campaign_id,
    generator_fingerprint,
    outcome_digest,
    spec_fingerprint,
)
from repro.injector import RunSpec
from repro.libc.catalog import BY_NAME


class TestOutcomeDigest:
    def test_stable_across_calls(self):
        spec = BY_NAME["strcpy"]
        assert outcome_digest(spec) == outcome_digest(spec)

    def test_is_a_sha256_hex(self):
        digest = outcome_digest(BY_NAME["abs"])
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_distinct_functions_distinct_digests(self):
        digests = {outcome_digest(BY_NAME[n]) for n in ("abs", "labs", "strcpy")}
        assert len(digests) == 3

    def test_prototype_change_invalidates(self):
        spec = BY_NAME["abs"]
        changed = dataclasses.replace(spec, prototype="long abs(long j);")
        assert outcome_digest(changed) != outcome_digest(spec)

    def test_version_change_invalidates(self):
        spec = BY_NAME["abs"]
        changed = dataclasses.replace(spec, version="GLIBC_2.3")
        assert outcome_digest(changed) != outcome_digest(spec)

    def test_injector_cap_change_invalidates(self, monkeypatch):
        spec = BY_NAME["strcpy"]
        default = outcome_digest(spec)
        assert outcome_digest(spec, RunSpec(max_vectors=10)) != default
        monkeypatch.setattr("repro.injector.injector.MAX_RETRIES", 1)
        assert outcome_digest(spec) != default

    def test_lattice_version_change_invalidates(self):
        spec = BY_NAME["strcpy"]
        assert outcome_digest(spec, lattice_version="other") != outcome_digest(spec)

    def test_generator_config_change_invalidates(self, monkeypatch):
        # A different generator selection (here: a different template
        # sequence for strcpy's prototype) must change the digest even
        # though the spec is untouched.
        spec = BY_NAME["strcpy"]
        baseline = outcome_digest(spec)
        import repro.campaign.digest as digest_mod

        original = digest_mod.generator_fingerprint
        monkeypatch.setattr(
            digest_mod,
            "generator_fingerprint",
            lambda s, parser=None: original(s, parser) + [["EXTRA_TEMPLATE"]],
        )
        assert outcome_digest(spec) != baseline


class TestFingerprints:
    def test_spec_fingerprint_names_the_model(self):
        fingerprint = spec_fingerprint(BY_NAME["strcpy"])
        assert fingerprint["name"] == "strcpy"
        assert fingerprint["model"].endswith("libc_strcpy")

    def test_generator_fingerprint_matches_arity(self):
        assert len(generator_fingerprint(BY_NAME["strcpy"])) == 2
        assert generator_fingerprint(BY_NAME["abs"])  # one int argument
        labels = generator_fingerprint(BY_NAME["strcpy"])[0]
        assert labels and all(isinstance(label, str) for label in labels)


class TestCampaignId:
    def test_order_sensitive(self):
        a = campaign_id([("abs", "d1"), ("labs", "d2")])
        b = campaign_id([("labs", "d2"), ("abs", "d1")])
        assert a != b

    def test_digest_sensitive(self):
        assert campaign_id([("abs", "d1")]) != campaign_id([("abs", "d2")])
