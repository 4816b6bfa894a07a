"""Tests for the campaign scheduler (sharding + supervised pool)."""

import pytest

from repro.campaign import dispatch_order, plan_shards, run_tasks
from tests.campaign_workers import echo, misbehave, slow_first


class TestSharding:
    def test_round_robin_stripes(self):
        assert plan_shards(list("abcde"), 2) == [["a", "c", "e"], ["b", "d"]]
        assert plan_shards(list("abcdef"), 3) == [["a", "d"], ["b", "e"], ["c", "f"]]

    def test_width_never_exceeds_task_count(self):
        assert plan_shards(["only"], 8) == [["only"]]
        assert plan_shards([], 4) == [[]]

    def test_single_shard_is_identity(self):
        assert plan_shards(list("abc"), 1) == [list("abc")]

    def test_dispatch_interleaves_shards(self):
        # Round-robin striping followed by per-round interleaving
        # reproduces the caller's order: the first `jobs` dequeues hit
        # distinct shards while the global sequence stays stable.
        assert dispatch_order(list("abcde"), 2) == list("abcde")
        assert dispatch_order(list("abcdef"), 3) == list("abcdef")

    def test_plan_is_deterministic(self):
        names = [f"fn{i}" for i in range(17)]
        assert plan_shards(names, 4) == plan_shards(names, 4)


class TestRunTasksPool:
    def test_empty_and_duplicates(self):
        assert run_tasks([], echo) == {}
        with pytest.raises(ValueError):
            run_tasks(["a", "a"], echo)

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
