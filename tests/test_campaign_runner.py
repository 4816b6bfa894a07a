"""Tests for the campaign runner: caching, resume from the store,
ordering, failure policy, and the pipeline integration."""

import pytest

import repro.campaign.runner as runner_mod
from repro.campaign import (
    CampaignConfig,
    CampaignRunner,
    TaskResult,
    clean_cache,
    load_manifest,
)
from repro.campaign.runner import inject_payload
from repro.core.pipeline import HealersPipeline
from repro.injector import FaultInjector
from repro.libc.catalog import BALLISTA_SET
from repro.sandbox import Sandbox

FNS = ["abs", "labs", "asctime"]


class ExplodingInjector(FaultInjector):
    """The injector, except that it raises for ``labs``."""

    def run(self):
        if self.spec.name == "labs":
            raise RuntimeError("injector exploded")
        return super().run()


def exploding_payload(name, **kwargs):
    """The pool worker, raising for ``labs``."""
    if name == "labs":
        raise RuntimeError("injector exploded")
    return inject_payload(name, **kwargs)


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted, uncached, serial campaign."""
    return CampaignRunner(FNS, CampaignConfig()).run()


class TestCampaignRunner:
    def test_serial_run_in_catalog_order(self, baseline):
        assert list(baseline.reports) == FNS
        assert list(baseline.outcomes) == FNS
        assert all(o.status == "ran" for o in baseline.outcomes.values())
        assert baseline.ran == len(FNS)
        assert baseline.cache_hits == 0
        assert baseline.failed == {}

    def test_parallel_matches_serial(self, baseline):
        parallel = CampaignRunner(FNS, CampaignConfig(jobs=2)).run()
        assert list(parallel.reports) == FNS
        assert parallel.reports == baseline.reports
        assert parallel.campaign == baseline.campaign

    def test_phase_timings_recorded(self, baseline):
        assert {"plan", "cache", "inject", "finalize", "total"} <= set(
            baseline.phase_timings
        )
        assert baseline.phase_timings["total"] >= baseline.phase_timings["inject"]

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError, match="no_such_fn"):
            CampaignRunner(["abs", "no_such_fn"])

    def test_repeated_names_run_once_in_first_order(self):
        runner = CampaignRunner(["labs", "abs", "labs"])
        assert [s.name for s in runner.specs] == ["labs", "abs"]

    def test_default_function_set(self):
        runner = CampaignRunner()
        assert [s.name for s in runner.specs] == [s.name for s in BALLISTA_SET]

    def test_warm_cache_serves_without_sandbox(
        self, tmp_path, monkeypatch, baseline
    ):
        cold = CampaignRunner(FNS, CampaignConfig(cache_dir=tmp_path)).run()
        assert cold.ran == len(FNS)
        assert cold.reports == baseline.reports

        def poisoned(*args, **kwargs):
            raise AssertionError("sandbox touched on a warm cache")

        monkeypatch.setattr(Sandbox, "call", poisoned)
        warm = CampaignRunner(FNS, CampaignConfig(cache_dir=tmp_path)).run()
        assert warm.cache_hits == len(FNS)
        assert warm.ran == 0
        assert warm.reports == baseline.reports
        assert list(warm.reports) == FNS

    def test_resume_after_simulated_kill(self, tmp_path, baseline):
        # Simulate a campaign killed after two functions: the store
        # holds their outcomes, the manifest checkpoints an incomplete
        # run. Re-running the full campaign over the same store resumes
        # it: those two are served from cache, only the remainder runs,
        # and it ends identical to an uninterrupted campaign.
        interrupted = CampaignRunner(
            FNS[:2], CampaignConfig(cache_dir=tmp_path)
        ).run()
        assert interrupted.ran == 2
        assert load_manifest(tmp_path) is not None

        resumed = CampaignRunner(FNS, CampaignConfig(cache_dir=tmp_path)).run()
        statuses = {n: o.status for n, o in resumed.outcomes.items()}
        assert statuses == {"abs": "cached", "labs": "cached", "asctime": "ran"}
        assert resumed.reports == baseline.reports
        assert list(resumed.reports) == FNS

        manifest = load_manifest(tmp_path)
        assert manifest["campaign"] == resumed.campaign
        assert [f["name"] for f in manifest["functions"]] == FNS
        assert all(f["status"] in ("cached", "ran") for f in manifest["functions"])

    def test_failed_function_does_not_abort_campaign(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "FaultInjector", ExplodingInjector)
        result = CampaignRunner(["abs", "labs"], CampaignConfig()).run()
        assert result.fleet_mode == "serial"
        assert result.outcomes["abs"].status == "ran"
        assert result.outcomes["labs"].status == "failed"
        assert result.outcomes["labs"].attempts == 1
        assert "injector exploded" in result.outcomes["labs"].error
        assert set(result.failed) == {"labs"}
        assert "labs" not in result.reports

    def test_output_order_independent_of_completion_order(self, tmp_path):
        # The last function is already in the store, so it completes
        # first (cache phase) and the others after it (inject phase):
        # the result must still come out in catalog (request) order.
        CampaignRunner(FNS[-1:], CampaignConfig(cache_dir=tmp_path)).run()
        completions = []
        result = CampaignRunner(
            FNS,
            CampaignConfig(cache_dir=tmp_path),
            progress=lambda name, outcome, report: completions.append(name),
        ).run()
        assert completions == FNS[-1:] + FNS[:-1]
        assert list(result.reports) == FNS
        assert list(result.outcomes) == FNS

    def test_pool_output_order_independent_of_completion_order(
        self, monkeypatch
    ):
        # Deterministically simulate an adversarial pool that reports
        # completions in reverse.
        def reversed_pool(names, worker, on_result=None, **kwargs):
            results = {}
            for name in reversed(list(names)):
                result = TaskResult(name, "ok", payload=worker(name))
                results[name] = result
                if on_result is not None:
                    on_result(result)
            return results

        monkeypatch.setattr(runner_mod, "run_tasks", reversed_pool)
        completions = []
        result = CampaignRunner(
            FNS,
            CampaignConfig(jobs=2),
            progress=lambda name, outcome, report: completions.append(name),
        ).run()
        assert completions == list(reversed(FNS))
        assert list(result.reports) == FNS
        assert list(result.outcomes) == FNS

    def test_serial_run_keeps_reports_unencoded(self, monkeypatch, baseline):
        # Without a store the width-1 path never round-trips a report
        # through its payload.
        def poisoned(*args, **kwargs):
            raise AssertionError("payload codec used without a store")

        monkeypatch.setattr(runner_mod, "report_to_payload", poisoned)
        monkeypatch.setattr(runner_mod, "report_from_payload", poisoned)
        result = CampaignRunner(FNS, CampaignConfig()).run()
        assert result.reports == baseline.reports

    def test_clean_cache(self, tmp_path):
        CampaignRunner(["abs"], CampaignConfig(cache_dir=tmp_path)).run()
        assert load_manifest(tmp_path) is not None
        preview = clean_cache(tmp_path, dry_run=True)
        assert preview.files == 2  # one outcome + the manifest
        assert preview.bytes_reclaimed > 0
        assert preview.dry_run
        assert load_manifest(tmp_path) is not None  # dry run removed nothing
        stats = clean_cache(tmp_path)
        assert (stats.files, stats.bytes_reclaimed) == (
            preview.files, preview.bytes_reclaimed
        )
        assert not stats.dry_run
        assert load_manifest(tmp_path) is None


class TestPipelineCampaign:
    def test_campaign_pipeline_matches_serial(self, tmp_path):
        functions = ["abs", "asctime"]
        serial = HealersPipeline(functions=functions).run()
        campaign = HealersPipeline(
            functions=functions, config=CampaignConfig(jobs=2, cache_dir=tmp_path)
        ).run()
        assert list(campaign.declarations) == list(serial.declarations)
        assert {n: d.to_xml() for n, d in campaign.declarations.items()} == {
            n: d.to_xml() for n, d in serial.declarations.items()
        }
        assert campaign.failed_functions == {}
        assert "inject" in campaign.phase_timings
        assert "total" in serial.phase_timings

    def test_campaign_pipeline_reports_failures(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "inject_payload", exploding_payload)
        hardened = HealersPipeline(
            functions=["abs", "labs"], config=CampaignConfig(jobs=2)
        ).run()
        assert list(hardened.declarations) == ["abs"]
        assert set(hardened.failed_functions) == {"labs"}
        assert "injector exploded" in hardened.failed_functions["labs"]

    def test_serial_pipeline_records_a_raising_function(self, monkeypatch):
        # In process, a raising injector fails its function only: the
        # run continues past it and the rest still get declarations.
        monkeypatch.setattr(runner_mod, "FaultInjector", ExplodingInjector)
        seen = []
        hardened = HealersPipeline(
            functions=["abs", "labs", "asctime"],
            progress=lambda name, report: seen.append(name),
        ).run()
        assert list(hardened.declarations) == ["abs", "asctime"]
        assert set(hardened.failed_functions) == {"labs"}
        assert "injector exploded" in hardened.failed_functions["labs"]
        assert seen == ["abs", "asctime"]
