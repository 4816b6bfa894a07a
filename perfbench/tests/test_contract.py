import json
import shutil
import subprocess
import sys

from perfbench import layers, run
from perfbench.paths import ROOT


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_the_metrics_run_py_prints():
    spec = _benchmark()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_shape():
    from perfbench.workloads import Outcome

    outcome = Outcome(
        metrics={name: 1.5 for name in run.END_TO_END},
        layer_metrics={name: 0.0 for name in layers.PER_LAYER},
        attempted=10, failed=0,
    )
    line = run.result_line(outcome, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert set(run.result_line(outcome, trace=True)["metrics"]) == set(layers.PER_LAYER)
    outcome.failures = ["strcpy: declaration differs from golden"]
    outcome.failed = 1
    assert run.result_line(outcome, trace=False)["correct"] is False


def test_exits_nonzero_without_result_when_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harden-86", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
