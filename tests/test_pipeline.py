"""Integration tests: the full HEALERS pipeline end to end."""

import pytest

from repro.campaign import CampaignConfig
from repro.core import HealersPipeline, harden
from repro.core.cache import load_declarations, save_declarations
from repro.libc import standard_runtime
from repro.memory import INVALID_POINTER, NULL
from repro.wrapper import WrapperPolicy


@pytest.fixture(scope="module")
def hardened():
    return HealersPipeline(functions=["asctime", "strcpy", "abs", "closedir"]).run()


class TestPipeline:
    def test_declarations_for_every_function(self, hardened):
        assert set(hardened.declarations) == {"asctime", "strcpy", "abs", "closedir"}

    def test_safe_unsafe_partition(self, hardened):
        assert hardened.safe_functions() == ["abs"]
        assert hardened.unsafe_functions() == ["asctime", "closedir", "strcpy"]

    def test_reports_kept(self, hardened):
        assert hardened.reports["asctime"].unsafe
        assert hardened.elapsed_seconds > 0

    def test_semi_auto_differs_where_expected(self, hardened):
        auto = hardened.declarations["closedir"]
        semi = hardened.semi_auto_declarations["closedir"]
        assert auto.arguments[0].robust_type != semi.arguments[0].robust_type
        assert semi.assertions

    def test_wrapper_source_is_generated(self, hardened):
        source = hardened.wrapper_source()
        assert "asctime (" in source
        assert "check_R_ARRAY_NULL" in source

    def test_end_to_end_protection(self, hardened):
        runtime = standard_runtime()
        wrapper = hardened.wrapper()
        for bad in (INVALID_POINTER, runtime.space.map_region(20).base):
            outcome = wrapper.call("asctime", [bad], runtime)
            assert not outcome.robustness_failure

    def test_progress_callback(self):
        seen = []
        HealersPipeline(
            functions=["abs"], progress=lambda name, report: seen.append(name)
        ).run()
        assert seen == ["abs"]

    def test_harden_convenience(self):
        hardened = harden(functions=["abs"])
        assert "abs" in hardened.declarations


class TestCache:
    def test_save_load_round_trip(self, hardened, tmp_path):
        path = tmp_path / "decls.xml"
        save_declarations(hardened.declarations, path)
        loaded = load_declarations(path)
        assert set(loaded) == set(hardened.declarations)
        assert (
            loaded["asctime"].arguments[0].robust_type
            == hardened.declarations["asctime"].arguments[0].robust_type
        )

    def test_warm_store_serves_pipeline(self, hardened, tmp_path):
        config = CampaignConfig(cache_dir=tmp_path)
        cold = HealersPipeline(functions=["asctime"], config=config).run()
        warm = HealersPipeline(functions=["asctime"], config=config).run()
        assert warm.declarations["asctime"] == hardened.declarations["asctime"]
        assert cold.declarations == warm.declarations

    def test_store_extends_with_new_functions(self, tmp_path):
        from repro.campaign import OutcomeStore

        config = CampaignConfig(cache_dir=tmp_path)
        HealersPipeline(functions=["abs"], config=config).run()
        assert len(OutcomeStore(tmp_path).entries()) == 1
        result = HealersPipeline(
            functions=["abs", "strlen"], config=config
        ).run()
        assert list(result.declarations) == ["abs", "strlen"]
        assert len(OutcomeStore(tmp_path).entries()) == 2


class TestFullSetAgainstPaper:
    """Assertions on the 86-function pipeline output, computed fresh
    by the session fixture."""

    def test_77_of_86_functions_unsafe(self, hardened86):
        from repro.libc.catalog import BALLISTA_SET

        in_set = {
            name: decl
            for name, decl in hardened86.declarations.items()
            if name in {s.name for s in BALLISTA_SET}
        }
        assert len(in_set) == 86
        unsafe = [n for n, d in in_set.items() if d.unsafe]
        assert len(unsafe) == 77  # the paper's headline split

    def test_asctime_figure2_from_cache(self, declarations86):
        assert (
            declarations86["asctime"].arguments[0].robust_type.render()
            == "R_ARRAY_NULL[44]"
        )

    def test_errno_distribution_matches_table1(self, declarations86):
        """Table 1: 8 / 39 / 2 / 37."""
        from collections import Counter
        from repro.libc.catalog import (
            BALLISTA_SET, CONSISTENT, INCONSISTENT, NONE_FOUND, VOID,
        )

        names = {s.name for s in BALLISTA_SET}
        counts = Counter(
            declarations86[n].errno_class for n in names
        )
        assert counts[VOID] == 8
        assert counts[INCONSISTENT] == 2
        assert counts[CONSISTENT] == 39
        assert counts[NONE_FOUND] == 37


def test_declarations_match_benchmark_golden(declarations86):
    """Every automated declaration's XML is byte-identical to the
    exhaustive phase-1 golden the benchmark checks against."""
    import json
    from pathlib import Path

    golden_dir = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    golden = json.loads((golden_dir / "declarations.json").read_text())["functions"]
    assert sorted(declarations86) == sorted(golden)
    differing = [
        name
        for name, row in golden.items()
        if declarations86[name].to_xml() != row["xml"]
    ]
    assert differing == []
