"""CLI coverage for the campaign engine: the `campaign` command plus
the --jobs/--cache-dir/--json flags on inject/harden/ballista."""

import pytest

import json
import re
from pathlib import Path

from repro.campaign import load_manifest
from repro.cli import main


class TestCampaignCommand:
    def test_run_status_clean_cycle(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "abs", "labs", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "ran" in out
        assert "manifest:" in out

        # Warm re-run: everything served from the outcome store.
        assert main(
            ["campaign", "run", "abs", "labs", "--cache-dir", cache, "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cached"] == 2
        assert doc["ran"] == 0
        assert doc["failed"] == {}
        assert list(doc["functions"]) == ["abs", "labs"]
        assert all(f["digest"] for f in doc["functions"].values())

        assert main(["campaign", "status", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "cached" in out
        assert "stored outcomes: 2" in out

        assert main(["campaign", "status", "--cache-dir", cache, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stored_outcomes"] == 2
        assert [f["name"] for f in doc["functions"]] == ["abs", "labs"]

        # A corrupt entry (crashed writer) is swept along with real ones.
        outcomes = Path(cache) / "outcomes"
        (outcomes / ("f" * 64 + ".json")).write_text("{not json")
        (outcomes / ".orphan.json.tmp").write_text("partial write")

        assert main(
            ["campaign", "clean", "--cache-dir", cache, "--dry-run"]
        ) == 0
        preview = capsys.readouterr().out
        match = re.search(r"would remove (\d+) entries \((\d+) bytes\)", preview)
        assert match, preview
        assert int(match.group(1)) == 5  # 2 outcomes + corrupt + tmp + manifest
        assert int(match.group(2)) > 0
        assert main(["campaign", "status", "--cache-dir", cache]) == 0
        capsys.readouterr()  # dry run removed nothing

        assert main(["campaign", "clean", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert f"removed 5 entries ({match.group(2)} bytes)" in out
        assert main(["campaign", "status", "--cache-dir", cache]) == 2
        assert "no campaign manifest" in capsys.readouterr().err

    def test_resume_flag_continues_checkpoint(self, tmp_path, capsys):
        # No flag: the outcome store alone resumes a campaign.
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", "abs", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "run", "abs", "labs", "--cache-dir", cache, "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["functions"]["abs"]["status"] == "cached"
        assert doc["functions"]["labs"]["status"] == "ran"

    def test_run_rejects_unknown_function(self, tmp_path, capsys):
        assert main(
            ["campaign", "run", "no_such_fn", "--cache-dir", str(tmp_path)]
        ) == 2
        assert "unknown functions" in capsys.readouterr().err


    def test_jobs_is_the_processes_fleet(self, tmp_path, capsys):
        # --jobs N runs the process pool: its own label (in the JSON
        # summary and the manifest alike), the same digests, and an
        # outcome store byte-identical to a serial run.
        functions = ["abs", "labs", "atoi"]
        runs = {"serial": [], "jobs": ["--jobs", "2"]}
        docs, stores = {}, {}
        for label, flags in runs.items():
            cache = tmp_path / label
            assert main(
                ["campaign", "run", *functions, *flags,
                 "--cache-dir", str(cache), "--json"]
            ) == 0
            docs[label] = json.loads(capsys.readouterr().out)
            assert load_manifest(cache)["fleet"] == docs[label]["fleet_mode"]
            stores[label] = {
                path.name: path.read_bytes()
                for path in (cache / "outcomes").glob("*.json")
            }
        assert docs["serial"]["fleet_mode"] == "serial"
        assert docs["jobs"]["fleet_mode"] == "processes"
        digests = {
            label: {n: f["digest"] for n, f in doc["functions"].items()}
            for label, doc in docs.items()
        }
        assert digests["jobs"] == digests["serial"]
        assert all(doc["ran"] == 3 and doc["failed"] == {}
                   for doc in docs.values())
        assert len(stores["serial"]) == 3
        assert stores["jobs"] == stores["serial"]

    def test_pool_width_counts_only_the_misses(self, tmp_path, capsys):
        # Four of five functions are warm, so the --jobs 2 pool runs
        # one worker; the summary and the manifest must say so.
        functions = ["abs", "labs", "atoi", "toupper", "strlen"]
        cache = str(tmp_path / "cache")
        assert main(["campaign", "run", *functions[:4], "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "run", *functions, "--jobs", "2",
             "--cache-dir", cache, "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["cached"], doc["ran"]) == (4, 1)
        assert doc["fleet_mode"] == "processes"
        assert doc["workers"] == 1
        assert load_manifest(cache)["effective_jobs"] == 1


class TestDuplicateNames:
    """A function named twice is injected once, at either width."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_inject_prints_one_row(self, jobs, capsys):
        assert main(["inject", "abs", "abs", "--jobs", jobs, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["function"] for row in rows] == ["abs"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_campaign_runs_once(self, jobs, tmp_path, capsys):
        assert main(
            ["campaign", "run", "abs", "abs", "--jobs", jobs,
             "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["functions"]) == ["abs"]
        assert doc["ran"] == 1
        assert doc["failed"] == {}


class TestHardenCampaignFlags:
    def test_json_summary(self, tmp_path, capsys):
        assert main(
            ["harden", "abs", "labs", "-o", str(tmp_path / "out"), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {
            "output", "unsafe", "safe", "failed",
            "elapsed_seconds", "phase_timings", "totals",
        }
        assert doc["failed"] == {}
        assert sorted(doc["unsafe"] + doc["safe"]) == ["abs", "labs"]
        assert doc["totals"]["vectors"] > 0
        assert "total" in doc["phase_timings"]

    def test_parallel_harden_byte_identical_to_serial(self, tmp_path, capsys):
        functions = ["abs", "labs", "asctime"]
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["harden", *functions, "-o", str(serial)]) == 0
        assert main(
            ["harden", *functions, "-o", str(parallel),
             "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        capsys.readouterr()
        for artifact in ("declarations.xml", "healers_wrapper.c",
                         "healers_checks.h"):
            assert (serial / artifact).read_bytes() == (
                parallel / artifact
            ).read_bytes()


class TestInjectCampaignFlags:
    def test_cached_rerun_matches_fresh(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["inject", "abs", "--jobs", "2", "--cache-dir", cache, "--json"]
        ) == 0
        fresh = json.loads(capsys.readouterr().out)
        assert main(["inject", "abs", "--cache-dir", cache, "--json"]) == 0
        cached = json.loads(capsys.readouterr().out)
        assert cached == fresh
        assert fresh[0]["function"] == "abs"


class TestBallistaCampaignFlags:
    def test_json_summary(self, capsys):
        assert main(["ballista", "strlen", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tests"] > 0
        labels = [row["configuration"] for row in doc["configurations"]]
        assert labels == ["unwrapped", "full-auto", "semi-auto"]
        assert all("crash_pct" in row for row in doc["configurations"])

    def test_parallel_evaluation(self, capsys):
        assert main(
            ["ballista", "strlen", "abs", "--unwrapped-only",
             "--json", "--jobs", "2"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tests"] > 0
        assert doc["configurations"][0]["configuration"] == "unwrapped"
