"""The regression gate: typed verdicts, thresholds, direction
inference, campaign unsafe flips, and the CLI exit-code contract."""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import Ledger
from repro.obs.regressions import (
    RegressionReport,
    Verdict,
    check_regressions,
    metric_direction,
)


def fake_clock(start: float = 1_700_000_000.0, step: float = 60.0):
    state = {"now": start}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


def seed_series(ledger: Ledger, values, metric="elapsed_seconds", bench="b"):
    for index, value in enumerate(values):
        ledger.ingest_bench_document(
            {"version": 1, "benchmarks": {bench: {metric: value}}},
            source=f"run{index}",
        )


class TestDirectionInference:
    def test_lower_is_better_tokens(self):
        for name in ("elapsed_seconds", "p99_ms", "checking_overhead_pct",
                     "latency", "peak_bytes", "unsafe_total"):
            assert metric_direction(name) == "lower", name

    def test_higher_is_better_tokens(self):
        for name in ("fork.speedup", "cache_hit_rate_pct", "warm_rps",
                     "throughput"):
            assert metric_direction(name) == "higher", name

    def test_undirected_counts_are_not_gated(self):
        for name in ("functions", "jobs", "cores"):
            assert metric_direction(name) is None, name


class TestVerdicts:
    def test_identical_runs_are_ok_and_exit_zero(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [1.0, 1.0, 1.0, 1.0])
        report = check_regressions(ledger)
        assert report.ok and report.exit_code == 0
        assert [v.verdict for v in report.verdicts] == ["ok"]

    def test_2x_slowdown_regresses_and_exits_nonzero(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [1.0, 1.0, 1.0, 2.0])  # the seeded 2x fixture
        report = check_regressions(ledger)
        assert not report.ok and report.exit_code == 1
        verdict = report.regressed[0]
        assert verdict.metric == "b/elapsed_seconds"
        assert verdict.ratio == pytest.approx(2.0)

    def test_2x_speedup_improves(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [1.0, 1.0, 0.5])
        report = check_regressions(ledger)
        assert report.ok
        assert [v.verdict for v in report.verdicts] == ["improved"]

    def test_higher_better_metric_regresses_on_drop(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [30.0, 30.0, 10.0], metric="fork.speedup")
        report = check_regressions(ledger)
        assert report.regressed[0].metric == "b/fork.speedup"
        assert report.regressed[0].direction == "higher"

    def test_single_point_is_new_not_gated(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [1.0])
        report = check_regressions(ledger)
        assert report.verdicts[0].verdict == "new"
        assert report.exit_code == 0

    def test_baseline_window_bounds_the_mean(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        # Ancient slow history must not mask a fresh regression when the
        # window only covers the recent fast points.
        seed_series(ledger, [10.0, 10.0, 1.0, 1.0, 1.0, 2.0])
        report = check_regressions(ledger, baseline=3)
        assert report.regressed
        # A window wide enough to reach the slow era dilutes the mean.
        wide = check_regressions(ledger, baseline=5)
        assert not wide.regressed

    def test_noise_floor_below_min_value(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [1e-9, 1e-9, 5e-9])
        report = check_regressions(ledger)
        assert report.verdicts[0].verdict == "ok"
        assert "noise" in report.verdicts[0].detail

    def test_millisecond_timing_jitter_is_within_the_floor(self, tmp_path):
        # Two identical one-function campaigns: 1.6 ms then 4.2 ms.
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [0.0016, 0.0042], metric="inject_seconds")
        report = check_regressions(ledger)
        assert report.ok
        assert report.verdicts[0].verdict == "ok"
        assert "timing noise" in report.verdicts[0].detail

    def test_timing_floor_scales_with_the_unit(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [1.6, 4.2], metric="inject_seconds")
        seed_series(ledger, [1.6, 4.2], metric="p99_ms", bench="svc")
        seed_series(ledger, [16.0, 42.0], metric="p50_ms", bench="svc")
        report = check_regressions(ledger)
        verdicts = {v.metric: v.verdict for v in report.verdicts}
        assert verdicts == {
            "b/inject_seconds": "regressed",
            "svc/p99_ms": "ok",
            "svc/p50_ms": "regressed",
        }

    def test_zero_crossing_is_a_real_change(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        seed_series(ledger, [0.0, 0.0, 3.0], metric="crashes_total_pct")
        report = check_regressions(ledger)
        assert report.regressed
        assert "zero crossing" in report.regressed[0].detail

    def test_invalid_arguments_rejected(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite")
        with pytest.raises(ValueError):
            check_regressions(ledger, baseline=0)
        with pytest.raises(ValueError):
            check_regressions(ledger, regress_ratio=1.0)


class TestCampaignFlips:
    def _campaign_result(self, unsafe: bool):
        from types import SimpleNamespace

        from repro.campaign.runner import CampaignResult, FunctionOutcome

        report = SimpleNamespace(
            unsafe=unsafe, vectors_run=10, calls_made=30, retries=1,
            crashes=3 if unsafe else 0, hangs=0,
        )
        return CampaignResult(
            reports={"abs": report},
            outcomes={
                "abs": FunctionOutcome(name="abs", digest="d" * 16,
                                       status="ran")
            },
            campaign="test" + ("1" if unsafe else "0"),
        )

    def test_safe_to_unsafe_flip_regresses(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        ledger.ingest_campaign(self._campaign_result(unsafe=False))
        ledger.ingest_campaign(self._campaign_result(unsafe=True))
        report = check_regressions(ledger)
        flips = [v for v in report.verdicts if v.direction == "flag"]
        assert flips and flips[0].verdict == "regressed"
        assert flips[0].metric == "campaign[abs].unsafe"
        assert report.exit_code == 1

    def test_unsafe_to_safe_flip_improves(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        ledger.ingest_campaign(self._campaign_result(unsafe=True))
        ledger.ingest_campaign(self._campaign_result(unsafe=False))
        report = check_regressions(ledger)
        flips = [v for v in report.verdicts if v.direction == "flag"]
        assert flips and flips[0].verdict == "improved"

    def test_unsafe_counts_only_gated_as_flips_not_ratios(self, tmp_path):
        # unsafe_total is a lower-better series: more unsafe functions
        # between runs of the same set must regress via the totals too.
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        ledger.ingest_campaign(self._campaign_result(unsafe=False))
        ledger.ingest_campaign(self._campaign_result(unsafe=True))
        report = check_regressions(ledger)
        totals = [v for v in report.verdicts if "unsafe_total" in v.metric]
        assert totals and totals[0].verdict == "regressed"


class TestReportRendering:
    def test_render_and_json_shapes(self):
        report = RegressionReport(verdicts=[
            Verdict("b/x_seconds", "regressed", "lower", 2.0, 1.0, 2.0, 3),
            Verdict("b/y_seconds", "ok", "lower", 1.0, 1.0, 1.0, 3),
        ])
        text = report.render()
        assert "REGRESSED" in text and "b/x_seconds" in text
        assert text.index("b/x_seconds") < text.index("b/y_seconds")
        document = report.to_json()
        assert document["ok"] is False
        assert document["counts"]["regressed"] == 1


class TestCliGate:
    def _seed(self, db, values):
        seed_series(Ledger(db, clock=fake_clock()), values)

    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        db = tmp_path / "l.sqlite"
        self._seed(db, [1.0, 1.0, 1.0])
        assert main(["regressions", "--db", str(db)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_seeded_2x_slowdown_exits_nonzero(self, tmp_path, capsys):
        db = tmp_path / "l.sqlite"
        self._seed(db, [1.0, 1.0, 2.0])
        assert main(["regressions", "--db", str(db)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        db = tmp_path / "l.sqlite"
        self._seed(db, [1.0, 1.0, 2.0])
        assert main(["regressions", "--db", str(db), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False

    def test_custom_threshold(self, tmp_path):
        db = tmp_path / "l.sqlite"
        self._seed(db, [1.0, 1.0, 2.0])
        assert main(["regressions", "--db", str(db), "--ratio", "2.5"]) == 0

    def test_bad_arguments_exit_two(self, tmp_path, capsys):
        db = tmp_path / "l.sqlite"
        assert main(["regressions", "--db", str(db), "--baseline", "0"]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_corrupt_db_exits_two(self, tmp_path, capsys):
        db = tmp_path / "corrupt.sqlite"
        db.write_bytes(b"nope" * 100)
        assert main(["regressions", "--db", str(db)]) == 2
        assert "corrupt" in capsys.readouterr().err
