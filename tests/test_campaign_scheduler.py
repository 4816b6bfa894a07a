"""Tests for the campaign scheduler (the supervised pool)."""

import functools
import os
import time

import pytest

from repro.campaign import run_tasks
from tests.campaign_workers import echo, kill_idle_sibling, misbehave, slow_first


class TestRunTasksPool:
    def test_empty_and_duplicates(self):
        assert run_tasks([], echo) == {}
        with pytest.raises(ValueError):
            run_tasks(["a", "a"], echo)

    def test_one_worker_runs_tasks_in_the_order_given(self):
        # Tasks are queued exactly as listed, so a single worker
        # completes them in that order.
        names = ["d3", "a0", "c2", "b1"]
        order = []
        run_tasks(names, echo, jobs=1, on_result=lambda r: order.append(r.name))
        assert order == names

    def test_all_tasks_complete_despite_slow_task(self):
        names = ["w0", "x1", "y2", "z3"]
        order = []
        results = run_tasks(names, slow_first, jobs=2,
                            on_result=lambda r: order.append(r.name))
        assert sorted(order) == sorted(names)
        assert all(results[n].ok for n in names)
        assert results["x1"].payload == {"name": "x1"}
        assert results["x1"].attempts == 1

    def test_pool_survives_crash_hang_and_death(self):
        # One worker raises, one hangs past the deadline, one calls
        # os._exit; the campaign still terminates with the good tasks
        # ok and each bad task failed after its bounded retry.
        names = ["ok1", "boom1", "die1", "ok2", "hang1"]
        results = run_tasks(
            names, misbehave, jobs=2, timeout=1.5, task_retries=1
        )
        assert set(results) == set(names)
        assert results["ok1"].ok and results["ok2"].ok
        boom = results["boom1"]
        assert boom.status == "failed"
        assert boom.attempts == 2
        assert "kaboom boom1" in boom.error
        die = results["die1"]
        assert die.status == "failed"
        assert "worker died" in die.error
        hang = results["hang1"]
        assert hang.status == "failed"
        assert "timed out" in hang.error

    @pytest.mark.skipif(os.cpu_count() == 1, reason="needs two pool workers")
    def test_idle_worker_killed_does_not_stall_the_pool(self, tmp_path):
        # The worker that ran "a" sits idle when "k" kills it; a worker
        # blocked waiting for work must not take the rest of the pool
        # down with it, so "k" gets its retry at once.
        started = time.monotonic()
        results = run_tasks(
            ["k", "a"],
            functools.partial(kill_idle_sibling, scratch=str(tmp_path)),
            jobs=2, task_retries=1,
        )
        elapsed = time.monotonic() - started
        assert results["a"].ok
        assert results["k"].ok, results["k"].error
        assert results["k"].attempts == 2
        assert elapsed < 10.0, f"the pool stalled for {elapsed:.1f}s"
