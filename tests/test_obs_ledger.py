"""Ledger round-trip tests: ingest -> query -> render, plus the
corrupt/partial-file contract (typed LedgerError, never a crash)."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    Ledger,
    LedgerError,
    flatten_metrics,
    functions_key,
    host_fingerprint,
    iso_timestamp,
    run_provenance,
)


def fake_clock(start: float = 1_700_000_000.0, step: float = 60.0):
    state = {"now": start}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


def bench_document(value: float, bench: str = "obs") -> dict:
    return {
        "version": 1,
        "benchmarks": {bench: {"overhead": {"per_call_overhead_ns": value}}},
    }


class TestProvenance:
    def test_run_provenance_fields(self):
        from repro import __version__

        provenance = run_provenance(clock=lambda: 1_700_000_000.0)
        assert provenance["repro_version"] == __version__
        assert provenance["timestamp"] == "2023-11-14T22:13:20Z"
        assert provenance["epoch_seconds"] == 1_700_000_000.0
        assert len(provenance["host"]) == 12

    def test_host_fingerprint_is_stable(self):
        assert host_fingerprint() == host_fingerprint()

    def test_iso_timestamp_is_utc_z(self):
        assert iso_timestamp(0) == "1970-01-01T00:00:00Z"


class TestFlattenMetrics:
    def test_nested_dicts_become_dotted_paths(self):
        assert flatten_metrics({"fork": {"speedup": 31.9}}) == {
            "fork.speedup": 31.9
        }

    def test_row_lists_key_on_function_name(self):
        payload = {"rows": [
            {"function": "strcpy", "checking_overhead_pct": 4.0},
            {"function": "memcpy", "checking_overhead_pct": 2.0},
        ]}
        flat = flatten_metrics(payload)
        assert flat == {
            "rows.strcpy.checking_overhead_pct": 4.0,
            "rows.memcpy.checking_overhead_pct": 2.0,
        }

    def test_booleans_and_strings_dropped(self):
        assert flatten_metrics({"ok": True, "name": "x", "n": 3}) == {"n": 3.0}

    def test_unkeyed_lists_use_indexes(self):
        assert flatten_metrics({"xs": [1, 2]}) == {"xs.0": 1.0, "xs.1": 2.0}

    def test_functions_key_order_independent(self):
        assert functions_key(["b", "a"]) == functions_key(["a", "b"])
        assert functions_key(["a"]) != functions_key(["a", "b"])


class TestFlattenMetricsHonesty:
    def test_baseline_only_rows_never_become_series(self):
        payload = {
            "modes": [
                {"fleet_mode": "serial", "seconds": 2.0, "speedup": 1.0},
                {"fleet_mode": "threads", "seconds": 1.5, "speedup": 1.3,
                 "baseline_only": True},
            ],
            "functions": 20,
        }
        flat = flatten_metrics(payload)
        assert "modes.serial.seconds" in flat
        assert not any(k.startswith("modes.threads") for k in flat)
        assert flat["functions"] == 20.0


class TestBenchIngestion:
    def test_ingest_query_round_trip(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.sqlite", clock=fake_clock())
        run = ledger.ingest_bench_document(bench_document(140.0), source="a")
        assert run.id == 1 and run.kind == "bench" and not run.deduped
        series = ledger.bench_series()
        assert series[("obs", "overhead.per_call_overhead_ns")][0]["value"] == 140.0
        detail = ledger.run(run.id)
        assert detail["metrics"] == [
            {"bench": "obs", "metric": "overhead.per_call_overhead_ns",
             "value": 140.0}
        ]

    def test_reingest_is_idempotent(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        document = bench_document(140.0)
        document["provenance"] = run_provenance(clock=lambda: 1_700_000_000.0)
        first = ledger.ingest_bench_document(document, source="a")
        again = ledger.ingest_bench_document(document, source="a")
        assert again.deduped and again.id == first.id
        assert ledger.stats()["runs_total"] == 1

    def test_not_a_bench_document_is_typed_error(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite")
        with pytest.raises(LedgerError, match="not a BENCH document"):
            ledger.ingest_bench_document({"something": "else"}, source="x")
        with pytest.raises(LedgerError, match="not a BENCH document"):
            ledger.ingest_bench_document([1, 2], source="x")

    def test_ingest_file_errors_are_typed(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite")
        with pytest.raises(LedgerError, match="cannot read"):
            ledger.ingest_bench_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LedgerError, match="not JSON"):
            ledger.ingest_bench_file(bad)

    def test_runs_newest_first_with_limit(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        for value in (1.0, 2.0, 3.0):
            ledger.ingest_bench_document(bench_document(value), source="a")
        runs = ledger.runs(limit=2)
        assert [r.id for r in runs] == [3, 2]
        assert [r.id for r in ledger.runs(kind="bench")] == [3, 2, 1]
        assert ledger.runs(kind="campaign") == []


class TestCampaignIngestion:
    def test_campaign_run_lands_with_function_rows_and_totals(self, tmp_path):
        from repro.campaign import CampaignConfig, CampaignRunner

        config = CampaignConfig(
            cache_dir=tmp_path / "cache", ledger=tmp_path / "ledger.sqlite"
        )
        result = CampaignRunner(["abs", "labs"], config=config).run()
        ledger = Ledger(tmp_path / "ledger.sqlite")
        campaigns = ledger.campaign_runs()
        assert len(campaigns) == 1
        run, rows = campaigns[0]
        assert run.label == result.campaign
        assert [r["function"] for r in rows] == ["abs", "labs"]
        assert all(r["unsafe"] in (0, 1) for r in rows)
        fnset = run.extra["functions_key"]
        series = ledger.bench_series()
        totals = series[(f"campaign.{fnset}", "unsafe_total")]
        assert totals[0]["value"] == float(len(run.extra["unsafe"]))
        assert (f"campaign.{fnset}", "vectors_total") in series

    def test_warm_rerun_dedupes_not_duplicates(self, tmp_path):
        from repro.campaign import CampaignConfig, CampaignRunner

        config = CampaignConfig(
            cache_dir=tmp_path / "cache", ledger=tmp_path / "ledger.sqlite"
        )
        CampaignRunner(["abs"], config=config).run()
        CampaignRunner(["abs"], config=config).run()  # warm, same identity
        assert Ledger(tmp_path / "ledger.sqlite").stats()["by_kind"] == {
            "campaign": 1
        }

    def test_broken_ledger_never_fails_the_campaign(self, tmp_path):
        from repro.campaign import CampaignConfig, CampaignRunner

        db = tmp_path / "ledger.sqlite"
        db.write_bytes(b"this is not a sqlite file, not even close....")
        config = CampaignConfig(cache_dir=tmp_path / "cache", ledger=db)
        result = CampaignRunner(["abs"], config=config).run()
        assert "abs" in result.reports  # the campaign itself succeeded


    def test_legacy_sampled_series_stay_readable(self, tmp_path, capsys):
        # Ledgers written while adaptive sampling existed hold campaign
        # runs tagged with a sampling spec and totals series suffixed
        # ``.sampled-<key>``.  Listing, showing, gating and rendering
        # such a ledger must keep working.
        from repro.campaign import CampaignConfig, CampaignRunner

        db = tmp_path / "ledger.sqlite"
        ledger = Ledger(db, clock=fake_clock())
        ledger.ingest_campaign(CampaignRunner(["abs"], CampaignConfig()).run())
        with sqlite3.connect(db) as conn:
            run_id, extra = conn.execute("SELECT id, extra FROM runs").fetchone()
            conn.execute(
                "UPDATE runs SET extra = ?, key = key || '-sampled' WHERE id = ?",
                (json.dumps(dict(json.loads(extra), sampling="adaptive")), run_id),
            )
            conn.execute(
                "UPDATE bench_metrics SET bench = bench || '.sampled-0123abcd'"
                " WHERE run_id = ? AND metric LIKE '%_total'",
                (run_id,),
            )
        ledger.ingest_campaign(CampaignRunner(["abs"], CampaignConfig()).run())
        series = {bench for bench, _ in Ledger(db).bench_series()}
        assert any(".sampled-" in s for s in series)
        assert any(".sampled-" not in s for s in series)
        assert main(["ledger", "--db", str(db), "list"]) == 0
        assert main(["ledger", "--db", str(db), "show", str(run_id)]) == 0
        assert main(["regressions", "--db", str(db)]) == 0
        html = tmp_path / "dashboard.html"
        assert main(["report", "--html", str(html), "--db", str(db)]) == 0
        assert html.read_text().startswith("<!DOCTYPE html>")
        capsys.readouterr()


class TestServiceIngestion:
    def test_rollup_rows(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        snapshots = [
            {"kind": "counter", "name": "service.requests",
             "labels": {"op": "inject", "code": "OK"}, "value": 7},
            {"kind": "counter", "name": "service.cache",
             "labels": {"result": "hit"}, "value": 5},
            {"kind": "timer", "name": "service.request_seconds",
             "labels": {"op": "inject"}, "count": 7,
             "p50": 0.010, "p95": 0.020, "p99": 0.030, "total": 0.080},
        ]
        run = ledger.ingest_service_rollup(snapshots)
        assert run.extra["requests_total"] == 7
        assert run.extra["cache"] == {"hit": 5}
        history = ledger.service_history()
        assert len(history) == 1
        _, rows = history[0]
        counter_row = next(r for r in rows if r["code"] == "OK")
        assert counter_row["requests"] == 7
        latency_row = next(r for r in rows if r["code"] is None)
        assert latency_row["p50_ms"] == pytest.approx(10.0)
        assert latency_row["p99_ms"] == pytest.approx(30.0)


class TestCorruptAndPartial:
    def test_garbage_bytes_raise_ledger_error(self, tmp_path):
        db = tmp_path / "garbage.sqlite"
        db.write_bytes(b"\x00\x01garbage" * 64)
        with pytest.raises(LedgerError, match="corrupt or unreadable"):
            Ledger(db).stats()

    def test_truncated_database_raises_ledger_error(self, tmp_path):
        db = tmp_path / "l.sqlite"
        ledger = Ledger(db, clock=fake_clock())
        ledger.ingest_bench_document(bench_document(1.0), source="a")
        db.write_bytes(db.read_bytes()[:300])  # partial write / torn copy
        with pytest.raises(LedgerError):
            Ledger(db).runs()

    def test_schema_mismatch_is_typed(self, tmp_path):
        db = tmp_path / "l.sqlite"
        Ledger(db).stats()  # create schema
        with sqlite3.connect(db) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema'",
                (str(LEDGER_SCHEMA + 1),),
            )
        with pytest.raises(LedgerError, match="schema"):
            Ledger(db).stats()

    def test_missing_run_is_typed(self, tmp_path):
        with pytest.raises(LedgerError, match="no run 42"):
            Ledger(tmp_path / "l.sqlite").run(42)


class TestGc:
    def test_trims_per_kind_and_cascades(self, tmp_path):
        ledger = Ledger(tmp_path / "l.sqlite", clock=fake_clock())
        for value in range(5):
            ledger.ingest_bench_document(
                bench_document(float(value)), source="a"
            )
        stats = ledger.gc(keep=2)
        assert stats.runs_deleted == 3 and stats.runs_kept == 2
        assert stats.rows_deleted == 3  # one metric row per doomed run
        assert [r.id for r in ledger.runs()] == [5, 4]
        # Series only contain surviving points.
        points = ledger.bench_series()[("obs", "overhead.per_call_overhead_ns")]
        assert [p["value"] for p in points] == [3.0, 4.0]

    def test_negative_keep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Ledger(tmp_path / "l.sqlite").gc(keep=-1)


class TestCli:
    def test_import_report_html_acceptance_flow(self, tmp_path, capsys):
        # The ISSUE acceptance path: export a bench artifact, import it,
        # render the dashboard from ledger data alone.
        from repro.obs import export_bench_json

        bench = tmp_path / "BENCH_obs.json"
        export_bench_json(
            "obs", {"overhead": {"per_call_overhead_ns": 140.0}}, path=bench
        )
        document = json.loads(bench.read_text())
        assert "provenance" in document  # stamped on export
        db = tmp_path / "ledger.sqlite"
        assert main(["ledger", "--db", str(db), "import", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        html = tmp_path / "dashboard.html"
        assert main(["report", "--html", str(html), "--db", str(db)]) == 0
        rendered = html.read_text()
        assert rendered.startswith("<!DOCTYPE html>")
        assert "Overhead trends" in rendered
        assert "Cache economics" in rendered
        assert "Robustness by function" in rendered
        # Self-contained: no external fetches of any kind.
        assert "http://" not in rendered and "https://" not in rendered
        assert "<script" not in rendered

    def test_import_bad_file_reports_and_continues(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"no": "benchmarks"}')
        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps(bench_document(1.0)))
        db = tmp_path / "l.sqlite"
        code = main(["ledger", "--db", str(db), "import", str(bad), str(good)])
        assert code == 1
        captured = capsys.readouterr()
        assert "skipped" in captured.err
        assert "ingested" in captured.out

    def test_list_show_gc(self, tmp_path, capsys):
        db = tmp_path / "l.sqlite"
        Ledger(db, clock=fake_clock()).ingest_bench_document(
            bench_document(1.0), source="a"
        )
        assert main(["ledger", "--db", str(db), "list"]) == 0
        assert "bench" in capsys.readouterr().out
        assert main(["ledger", "--db", str(db), "list", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert listed["ledger"]["runs_total"] == 1
        assert main(["ledger", "--db", str(db), "show", "1"]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["run"]["kind"] == "bench"
        assert main(["ledger", "--db", str(db), "gc", "--keep", "0"]) == 0
        assert "deleted 1" in capsys.readouterr().out

    def test_corrupt_db_is_error_exit_not_traceback(self, tmp_path, capsys):
        db = tmp_path / "corrupt.sqlite"
        db.write_bytes(b"\x00garbage" * 99)
        assert main(["ledger", "--db", str(db), "list"]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_report_without_trace_or_html_errors(self, capsys):
        assert main(["report"]) == 2
        assert "TRACE file or --html" in capsys.readouterr().err
