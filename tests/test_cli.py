"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "strcpy" in out
        assert "ballista" in out
        assert "111 functions" in out


class TestExtract:
    def test_prints_statistics(self, capsys):
        assert main(["extract"]) == 0
        out = capsys.readouterr().out
        assert "man_coverage_pct" in out
        assert "51.1" in out

    def test_verbose_lists_routes(self, capsys):
        assert main(["extract", "-v"]) == 0
        out = capsys.readouterr().out
        assert "asctime" in out
        assert "man page headers" in out or "exhaustive" in out


class TestInject:
    def test_prints_declaration_xml(self, capsys):
        assert main(["inject", "asctime"]) == 0
        out = capsys.readouterr().out
        assert "<robust_type>R_ARRAY_NULL[44]</robust_type>" in out
        assert "calls" in out

    def test_semi_auto_flag_applies_edits(self, capsys):
        assert main(["inject", "--semi-auto", "closedir"]) == 0
        out = capsys.readouterr().out
        assert "<robust_type>OPEN_DIR</robust_type>" in out
        assert "<assert>track_dir</assert>" in out

    def test_unknown_function_fails(self, capsys):
        assert main(["inject", "not_a_function"]) == 2
        assert "unknown functions" in capsys.readouterr().err


class TestHarden:
    def test_writes_artifacts(self, tmp_path, capsys):
        assert main(["harden", "asctime", "abs", "-o", str(tmp_path)]) == 0
        wrapper_c = (tmp_path / "healers_wrapper.c").read_text()
        assert "check_R_ARRAY_NULL" in wrapper_c
        header = (tmp_path / "healers_checks.h").read_text()
        assert "check_OPEN_FILE" in header
        assert (tmp_path / "declarations.xml").exists()
        out = capsys.readouterr().out
        assert "1 unsafe / 1 safe" in out


class TestBallista:
    def test_subset_evaluation(self, capsys):
        assert main(["ballista", "asctime", "strlen", "-v"]) == 0
        out = capsys.readouterr().out
        assert "unwrapped" in out
        assert "semi-auto" in out
        assert "'crash_pct': 0.0" in out.splitlines()[-1] or "semi-auto" in out

    def test_unwrapped_only(self, capsys):
        assert main(["ballista", "strlen", "--unwrapped-only"]) == 0
        out = capsys.readouterr().out
        assert "full-auto" not in out

    def test_unwrapped_only_skips_phase_one(self, monkeypatch, capsys):
        import json

        import repro.core

        def no_pipeline(*args, **kwargs):
            raise AssertionError("--unwrapped-only built a pipeline")

        monkeypatch.setattr(repro.core, "HealersPipeline", no_pipeline)
        assert main(["ballista", "strlen", "--unwrapped-only", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["configuration"] for row in doc["configurations"]] == [
            "unwrapped"
        ]
        assert doc["tests"] > 0

    def test_repeated_names_count_once(self, capsys):
        import json

        counts = []
        for argv in (["strlen"], ["strlen", "strlen"]):
            assert main(["ballista", *argv, "--unwrapped-only", "--json"]) == 0
            counts.append(json.loads(capsys.readouterr().out)["tests"])
        assert counts[0] > 0
        assert counts[1] == counts[0]


class TestUnknownFunctions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["inject", "abs", "no_such_fn"],
            ["harden", "abs", "no_such_fn"],
            ["ballista", "abs", "no_such_fn"],
            ["ballista", "no_such_fn", "--unwrapped-only"],
            ["campaign", "run", "abs", "no_such_fn"],
        ],
        ids=["inject", "harden", "ballista", "ballista-unwrapped", "campaign"],
    )
    def test_exits_2_naming_them(self, argv, tmp_path, capsys):
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "unknown functions: no_such_fn\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestBallistaRunSpec:
    """``--fault-models`` arms phase 1 however ``repro ballista`` is
    driven: a function subset, the full catalog from the outcome store,
    or a worker pool."""

    @pytest.mark.parametrize(
        "argv", [["strlen"], [], ["--jobs", "2"]],
        ids=["functions", "catalog", "jobs"],
    )
    def test_fault_models_reach_phase_one(self, argv, monkeypatch, tmp_path):
        import repro.ballista
        import repro.campaign
        import repro.core
        from repro.injector import RunSpec

        class Stop(Exception):
            pass

        seen = []

        class StubPipeline:
            def __init__(self, *args, config, **kwargs):
                seen.append(config.run)

            def run(self):
                raise Stop

        def no_harness(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(repro.core, "HealersPipeline", StubPipeline)
        monkeypatch.setattr(repro.ballista, "BallistaHarness", no_harness)
        monkeypatch.setattr(repro.campaign, "DEFAULT_CAMPAIGN_DIR", tmp_path)
        with pytest.raises(Stop):
            main(["ballista", *argv, "--fault-models", "callback,format"])
        assert seen == [RunSpec.parse("callback,format")]


class TestBitflips:
    def test_single_function_campaign(self, capsys):
        assert main(["bitflips", "strlen"]) == 0
        out = capsys.readouterr().out
        assert out.count("'function': 'strlen'") == 3  # three configurations

    @pytest.mark.parametrize("name", ["no_such_fn", "abs"],
                             ids=["unknown", "no-golden-call"])
    def test_exits_2_before_injecting(self, name, monkeypatch, capsys):
        import repro.core

        def no_pipeline(*args, **kwargs):
            raise AssertionError("bitflips injected before checking names")

        monkeypatch.setattr(repro.core, "HealersPipeline", no_pipeline)
        assert main(["bitflips", "strlen", name]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"no golden call registered for: {name} ")
        assert "strlen" in captured.err  # the known names
        assert captured.out == ""


class TestDiff:
    def test_diff_command(self, tmp_path, capsys):
        from repro.core import HealersPipeline
        from repro.core.cache import save_declarations
        from repro.typelattice import registry as R

        hardened = HealersPipeline(functions=["asctime"]).run()
        old = tmp_path / "old.xml"
        new = tmp_path / "new.xml"
        save_declarations(hardened.declarations, old)
        retyped = {
            "asctime": hardened.declarations["asctime"].with_robust_type(
                0, R.R_ARRAY(52)
            )
        }
        save_declarations(retyped, new)
        assert main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "asctime: retyped" in out
        assert "wrappers to regenerate: asctime" in out


class TestJsonOutput:
    def test_extract_json(self, capsys):
        import json

        assert main(["extract", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["stats"]["man_coverage_pct"] == 51.1

    def test_extract_json_verbose_lists_functions(self, capsys):
        import json

        assert main(["extract", "--json", "-v"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "asctime" in document["functions"]
        assert "route" in document["functions"]["asctime"]

    def test_inject_json(self, capsys):
        import json

        assert main(["inject", "--json", "asctime"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert row["function"] == "asctime"
        assert row["vectors"] > 0
        assert row["calls"] >= row["vectors"]
        assert "R_ARRAY_NULL[44]" in row["robust_types"]


class TestHardenSummary:
    def test_summary_includes_vector_and_crash_counts(self, tmp_path, capsys):
        assert main(["harden", "strcpy", "-o", str(tmp_path)]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert "vectors" in summary
        assert "crashes" in summary
        assert "calls" in summary


class TestTraceAndReport:
    def test_inject_trace_report_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["inject", "asctime", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert trace.exists()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "sandbox calls by status" in out
        assert "RETURNED" in out
        assert "injector.vector" in out
        assert "campaign" in out

    def test_trace_spans_nest(self, tmp_path):
        from repro.obs import read_trace

        trace = tmp_path / "t.jsonl"
        assert main(["inject", "asctime", "--trace", str(trace)]) == 0
        spans = {
            r["id"]: r for r in read_trace(trace) if r.get("type") == "span"
        }
        call = next(s for s in spans.values() if s["name"] == "sandbox.call")
        vector = spans[call["parent"]]
        function = spans[vector["parent"]]
        campaign = spans[function["parent"]]
        assert vector["name"] == "injector.vector"
        assert function["name"] == "injector.function"
        assert campaign["name"] == "campaign"
        assert campaign["parent"] is None

    def test_harden_trace_records_vector_spans(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace = tmp_path / "h.jsonl"
        assert main(["harden", "abs", "-o", str(tmp_path / "out"),
                     "--json", "--trace", str(trace)]) == 0
        names = {
            r["name"] for r in read_trace(trace) if r.get("type") == "span"
        }
        assert {"campaign", "injector.function", "injector.vector",
                "sandbox.call"} <= names

    def test_report_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.jsonl"
        assert main(["inject", "asctime", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", "--json", str(trace)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["sandbox_calls"]["RETURNED"] > 0
        assert "injector.function" in document["phases"]

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_ballista_trace(self, tmp_path, capsys):
        trace = tmp_path / "b.jsonl"
        assert main(
            ["ballista", "strlen", "--unwrapped-only", "--trace", str(trace)]
        ) == 0
        assert trace.exists()
        from repro.obs import summarize_trace_file

        summary = summarize_trace_file(trace)
        assert summary.counters.get("ballista.tests{configuration=unwrapped,status=crash}", 0) > 0
