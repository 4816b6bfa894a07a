"""Tests for the ``processes`` fleet mode (the supervised pool running
:func:`repro.campaign.runner.inject_payload`): bit-identical merges,
worker death (kill -9) recovery, deadlines, and retry budgets."""

import functools
import multiprocessing as mp
import time

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, run_tasks
from repro.campaign.runner import inject_payload
from repro.campaign.scheduler import CHAOS_ENV
from repro.injector import RunSpec
from repro.obs.telemetry import Telemetry

#: Cheap catalog functions — the whole set injects in well under a
#: second, so supervised-fleet tests stay tier-1 fast.
FUNCTIONS = ["abs", "labs", "atoi", "isdigit", "toupper", "strcpy"]
RUN = RunSpec(max_vectors=24)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="workers defined in a test need the fork start method",
)


@pytest.fixture(scope="module")
def serial_payloads():
    """The ground truth: every function executed serially in-process."""
    return {name: inject_payload(name, run=RUN) for name in FUNCTIONS}


def run_fleet_payloads(
    names=FUNCTIONS, telemetry=None, worker=inject_payload, **overrides
):
    options = dict(jobs=2, timeout=60.0, task_retries=1)
    options.update(overrides)
    if telemetry is not None:
        options["telemetry"] = telemetry
    return run_tasks(names, functools.partial(worker, run=RUN), **options)


class TestBitIdentical:
    def test_matches_serial_execution(self, serial_payloads):
        results = run_fleet_payloads()
        assert set(results) == set(FUNCTIONS)
        for name, result in results.items():
            assert result.ok, result.error
            assert result.attempts == 1
            assert result.payload == serial_payloads[name]

    def test_worker_count_does_not_change_results(self, serial_payloads):
        results = run_fleet_payloads(jobs=3)
        assert {n: r.payload for n, r in results.items()} == serial_payloads

    def test_empty_campaign(self):
        assert run_fleet_payloads(names=[]) == {}


class TestWorkerDeath:
    def test_kill9_mid_shard_recovers_bit_identical(
        self, serial_payloads, monkeypatch
    ):
        # Every worker SIGKILLs itself after one completed function —
        # the campaign only finishes if the pool keeps replacing the
        # dead, and the merge must not notice.
        monkeypatch.setenv(CHAOS_ENV, "kill-after:1")
        telemetry = Telemetry()
        results = run_fleet_payloads(telemetry=telemetry)
        assert {n: r.payload for n, r in results.items()} == serial_payloads
        assert all(r.ok for r in results.values())
        spawned = telemetry.counter("fleet.workers_spawned").value
        assert spawned > 2, f"only {spawned} workers spawned — nobody died?"


@needs_fork
class TestDeadlinesAndRetries:
    def test_hung_function_hits_deadline(self):
        def hanging(name, **kwargs):
            if name == "abs":
                time.sleep(60.0)
            return inject_payload(name, **kwargs)

        telemetry = Telemetry()
        results = run_fleet_payloads(
            telemetry=telemetry, worker=hanging, timeout=0.5, task_retries=0
        )
        assert not results["abs"].ok
        assert "retry budget" in results["abs"].error
        assert all(results[n].ok for n in FUNCTIONS if n != "abs")

    def test_transient_failure_retries_on_fresh_worker(
        self, tmp_path, serial_payloads
    ):
        # The first attempt leaves a marker file behind, which the
        # retry (in another process) sees.
        marker = tmp_path / "abs-failed-once"

        def flaky(name, **kwargs):
            if name == "abs" and not marker.exists():
                marker.touch()
                raise RuntimeError("transient")
            return inject_payload(name, **kwargs)

        results = run_fleet_payloads(worker=flaky, task_retries=1)
        assert results["abs"].ok
        assert results["abs"].attempts == 2
        assert results["abs"].payload == serial_payloads["abs"]

    def test_exhausted_retries_fail_terminally(self):
        def broken(name, **kwargs):
            if name == "abs":
                raise RuntimeError("always broken")
            return inject_payload(name, **kwargs)

        results = run_fleet_payloads(worker=broken, task_retries=1)
        assert not results["abs"].ok
        assert "always broken" in results["abs"].error
        assert results["abs"].attempts == 2
        assert all(results[n].ok for n in FUNCTIONS if n != "abs")


class TestCampaignIntegration:
    def test_process_campaign_bit_identical_to_serial(self):
        names = ["abs", "labs", "atoi"]
        serial = CampaignRunner(names, CampaignConfig()).run()
        fleet = CampaignRunner(
            names, CampaignConfig(jobs=2)
        ).run()
        assert fleet.failed == {}
        assert list(fleet.reports) == names
        assert fleet.reports == serial.reports
        assert fleet.fleet_mode == "processes"
        assert serial.fleet_mode == "serial"
