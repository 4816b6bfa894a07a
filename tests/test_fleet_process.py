"""Tests for the ``processes`` fleet mode (the supervised pool running
:func:`repro.fleet.worker.run_function`): bit-identical merges, worker
death (kill -9) recovery, deadlines, and retry budgets."""

import functools
import multiprocessing as mp
import time

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, run_tasks
from repro.fleet.worker import CHAOS_ENV, execute_function, run_function
from repro.fleet.wire import FunctionResult
from repro.injector import RunSpec
from repro.obs.telemetry import Telemetry

#: Cheap catalog functions — the whole set injects in well under a
#: second, so supervised-fleet tests stay tier-1 fast.
FUNCTIONS = ["abs", "labs", "atoi", "isdigit", "toupper", "strcpy"]
RUN = RunSpec(max_vectors=24)
DIGESTS = {name: f"digest-{name}" for name in FUNCTIONS}

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="worker-side monkeypatching needs the fork start method",
)


@pytest.fixture(scope="module")
def serial_payloads():
    """The ground truth: every function executed serially in-process."""
    return {
        name: execute_function(name, DIGESTS[name], RUN).payload
        for name in FUNCTIONS
    }


def run_fleet_payloads(names=FUNCTIONS, telemetry=None, **overrides):
    options = dict(jobs=2, timeout=60.0, task_retries=1)
    options.update(overrides)
    if telemetry is not None:
        options["telemetry"] = telemetry
    worker = functools.partial(run_function, digests=DIGESTS, run=RUN)
    return run_tasks(names, worker, **options)


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
    def test_hung_function_hits_deadline(self, monkeypatch):
        def fake_execute(name, digest, *args, attempt=1, **kwargs):
            if name == "abs":
                time.sleep(60.0)
            return execute_function(
                name, digest, *args, attempt=attempt, **kwargs
            )

        monkeypatch.setattr(
            "repro.fleet.worker.execute_function", fake_execute
        )
        telemetry = Telemetry()
        results = run_fleet_payloads(
            telemetry=telemetry, timeout=0.5, task_retries=0
        )
        assert not results["abs"].ok
        assert "retry budget" in results["abs"].error
        assert all(results[n].ok for n in FUNCTIONS if n != "abs")

    def test_transient_failure_retries_on_fresh_worker(self, monkeypatch):
        def fake_execute(name, digest, *args, attempt=1, **kwargs):
            if name == "abs" and attempt == 1:
                return FunctionResult(
                    function=name, digest=digest, status="failed",
                    attempt=attempt, elapsed=0.0, error="transient",
                )
            return execute_function(
                name, digest, *args, attempt=attempt, **kwargs
            )

        monkeypatch.setattr(
            "repro.fleet.worker.execute_function", fake_execute
        )
        results = run_fleet_payloads(task_retries=1)
        assert results["abs"].ok
        assert results["abs"].attempts == 2

    def test_exhausted_retries_fail_terminally(self, monkeypatch):
        def fake_execute(name, digest, *args, attempt=1, **kwargs):
            if name == "abs":
                return FunctionResult(
                    function=name, digest=digest, status="failed",
                    attempt=attempt, elapsed=0.0, error="always broken",
                )
            return execute_function(
                name, digest, *args, attempt=attempt, **kwargs
            )

        monkeypatch.setattr(
            "repro.fleet.worker.execute_function", fake_execute
        )
        results = run_fleet_payloads(task_retries=1)
        assert not results["abs"].ok
        assert "always broken" in results["abs"].error
        assert results["abs"].attempts == 2


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
