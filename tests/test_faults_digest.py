"""Digest honesty for armed fault models: faulted, unfaulted, cached
and fleeted campaigns must never alias (repro.campaign x repro.faults).

The last class is the PR acceptance criterion: a process-fleet
campaign under ``resource,signal`` is bit-identical to the serial run
of the same flags, and its outcome digests differ from the no-faults
digests.
"""

import multiprocessing as mp

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, outcome_digest
from repro.injector import RunSpec
from repro.libc.catalog import BY_NAME

#: Cheap functions with distinct fault-model surfaces: fopen mallocs
#: (resource), qsort takes a callback, sprintf takes a format.
FUNCTIONS = ["abs", "atoi", "fopen", "qsort", "sprintf"]
MAX_VECTORS = 24

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process fleets need the fork start method",
)


class TestOutcomeDigest:
    def test_armed_models_change_the_digest(self):
        spec = BY_NAME["fopen"]
        armed = RunSpec(fault_models="resource")
        assert outcome_digest(spec, armed) != outcome_digest(spec)

    def test_each_model_changes_the_digest_differently(self):
        spec = BY_NAME["fopen"]
        digests = {
            outcome_digest(spec, RunSpec(fault_models=models))
            for models in ("resource", "signal", "ctype_table", "resource,signal")
        }
        assert len(digests) == 4

    def test_parameters_change_the_digest(self):
        spec = BY_NAME["fopen"]
        assert outcome_digest(spec, RunSpec(fault_models="signal")) != outcome_digest(
            spec, RunSpec(fault_models="signal:offsets=7")
        )

    def test_empty_model_set_leaves_the_digest_alone(self):
        # The pre-faults cache population must stay valid: an unarmed
        # campaign's digests are byte-identical to a build where the
        # faults subsystem does not exist.
        spec = BY_NAME["fopen"]
        assert outcome_digest(spec) == outcome_digest(spec, RunSpec(fault_models=()))
        assert outcome_digest(spec) == outcome_digest(spec, RunSpec(fault_models=None))

    def test_spec_order_does_not_change_the_digest(self):
        spec = BY_NAME["fopen"]
        assert outcome_digest(
            spec, RunSpec(fault_models="signal,resource")
        ) == outcome_digest(spec, RunSpec(fault_models="resource,signal"))


def run_campaign(tmp_path, subdir, fault_models=(), **config):
    runner = CampaignRunner(
        functions=FUNCTIONS,
        config=CampaignConfig(
            cache_dir=tmp_path / subdir,
            run=RunSpec(MAX_VECTORS, fault_models),
            **config,
        ),
    )
    return runner.run()


def digests_of(result):
    return {name: outcome.digest for name, outcome in result.outcomes.items()}


class TestCampaignHonesty:
    def test_faulted_digests_differ_from_unfaulted(self, tmp_path):
        plain = run_campaign(tmp_path, "plain")
        armed = run_campaign(tmp_path, "armed", fault_models=("resource",))
        for name in FUNCTIONS:
            assert digests_of(plain)[name] != digests_of(armed)[name]

    def test_cache_round_trips_fault_evidence(self, tmp_path):
        first = run_campaign(tmp_path, "cache", fault_models=("resource", "signal"))
        second = run_campaign(tmp_path, "cache", fault_models=("resource", "signal"))
        assert second.cache_hits == len(FUNCTIONS)
        for name in FUNCTIONS:
            assert second.reports[name].fault_evidence == first.reports[name].fault_evidence
            assert second.reports[name] == first.reports[name]

    def test_result_records_the_armed_models(self, tmp_path):
        result = run_campaign(tmp_path, "spec", fault_models=("signal:reenter=0",))
        assert result.run.fault_models == ("signal:reenter=0",)
        assert run_campaign(tmp_path, "plain2").run.fault_models == ()


@needs_fork
class TestAcceptance:
    """campaign run --fault-models resource,signal --jobs 2
    is bit-identical to the serial run and digests differ from the
    no-faults campaign (ISSUE acceptance criterion)."""

    def test_process_fleet_is_bit_identical_to_serial(self, tmp_path):
        models = ("resource", "signal")
        serial = run_campaign(tmp_path, "serial", fault_models=models)
        fleet = run_campaign(tmp_path, "fleet", fault_models=models, jobs=2)
        plain = run_campaign(tmp_path, "nofaults")
        assert fleet.fleet_mode == "processes"
        assert digests_of(fleet) == digests_of(serial)
        assert fleet.reports == serial.reports
        assert digests_of(fleet) != digests_of(plain)
