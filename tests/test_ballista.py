"""Tests for the Ballista-style robustness test harness."""

import pytest

from repro.ballista import BallistaHarness, pool_for, STRING_POOL, FILE_POOL
from repro.cdecl import DeclarationParser, typedef_table
from repro.injector import RunSpec
from repro.libc.catalog import BY_NAME
from repro.libc.runtime import standard_runtime
from repro.obs.telemetry import Telemetry
from repro.wrapper.checks import CheckConfig


@pytest.fixture(scope="module")
def small_harness():
    specs = [BY_NAME[n] for n in ("asctime", "strlen", "strcmp", "fclose")]
    return BallistaHarness(functions=specs)


class TestEnumeration:
    def test_tests_are_deterministic(self, small_harness):
        first = [t.label for t in small_harness.tests()]
        again = [t.label for t in BallistaHarness(
            functions=[BY_NAME[n] for n in ("asctime", "strlen", "strcmp", "fclose")]
        ).tests()]
        assert first == again

    def test_every_test_has_an_exceptional_value(self, small_harness):
        for test in small_harness.tests():
            assert any(v.exceptional for v in test.values), test.label

    def test_cap_respected(self):
        harness = BallistaHarness(
            functions=[BY_NAME["fwrite"]], test_cap=50
        )
        assert len(harness.tests()) == 50

    def test_total_target_thins_globally(self):
        specs = [BY_NAME[n] for n in ("strcmp", "strcpy", "strcat")]
        full = len(BallistaHarness(functions=specs).tests())
        target = full - 37
        harness = BallistaHarness(functions=specs, total_target=target)
        assert len(harness.tests()) == target

    def test_pool_selection_mirrors_injector(self):
        parser = DeclarationParser(typedef_table())
        proto = parser.parse_prototype(BY_NAME["fclose"].prototype)
        param = proto.ftype.parameters[0]
        pool = pool_for(param, parser.resolve(param.ctype), param.ctype)
        assert pool is FILE_POOL
        proto = parser.parse_prototype(BY_NAME["strlen"].prototype)
        param = proto.ftype.parameters[0]
        pool = pool_for(param, parser.resolve(param.ctype), param.ctype)
        assert pool is STRING_POOL


class TestExecution:
    def test_unwrapped_run_classifies_outcomes(self, small_harness):
        report = small_harness.run()
        assert report.total == len(small_harness.tests())
        assert report.count("crash") > 0
        assert report.count("errno") > 0
        counted = sum(report.count(s) for s in ("crash", "errno", "silent"))
        assert counted == report.total

    def test_crash_rate_properties(self, small_harness):
        report = small_harness.run()
        assert 0 < report.crash_rate < 1
        assert abs(report.crash_rate + report.errno_rate + report.silent_rate - 1) < 1e-9

    def test_crashing_functions_subset(self, small_harness):
        report = small_harness.run()
        names = {"asctime", "strlen", "strcmp", "fclose"}
        assert set(report.crashing_functions()) <= names
        by_function = report.crashes_by_function()
        assert sum(by_function.values()) == report.count("crash")

    def test_summary_row_shape(self, small_harness):
        row = small_harness.run().summary_row()
        assert set(row) == {
            "configuration", "tests", "errno_set_pct", "silent_pct",
            "crash_pct", "crashing_functions",
        }

    def test_runs_are_isolated(self, small_harness):
        """Two runs over the same harness give identical results —
        crashes in one test never poison another."""
        first = small_harness.run().summary_row()
        second = small_harness.run().summary_row()
        assert first == second


class TestWrappedExecution:
    @pytest.fixture(scope="class")
    def wrapped_setup(self):
        from repro.core import HealersPipeline

        names = ["asctime", "strlen", "strcmp", "fclose"]
        hardened = HealersPipeline(functions=names).run()
        harness = BallistaHarness(functions=[BY_NAME[n] for n in names])
        return hardened, harness

    def test_wrapper_reduces_crashes(self, wrapped_setup):
        hardened, harness = wrapped_setup
        unwrapped = harness.run()
        wrapped = harness.run(wrapper=hardened.wrapper(), configuration="full")
        assert wrapped.crash_rate < unwrapped.crash_rate / 4
        assert wrapped.errno_rate > unwrapped.errno_rate

    def test_semi_auto_eliminates_all_crashes(self, wrapped_setup):
        hardened, harness = wrapped_setup
        semi = harness.run(wrapper=hardened.wrapper(semi_auto=True))
        assert semi.count("crash") == 0

    def test_valid_values_still_work_through_wrapper(self, wrapped_setup):
        """The wrapper must not reject the genuinely valid test
        combinations (no false aborts of correct calls)."""
        hardened, harness = wrapped_setup
        wrapped = harness.run(wrapper=hardened.wrapper(semi_auto=True))
        for record in wrapped.records:
            if all(not v.exceptional for v in record.test.values):
                assert record.status != "crash"


class TestShardedSweep:
    """The pool runs the same per-function path as the in-process
    sweep, also for armed sweeps and non-default check configs."""

    NAMES = ("fopen", "strlen", "qsort", "fprintf", "strcpy")
    RUN = RunSpec(fault_models=("signal", "resource", "callback"))

    @pytest.fixture(scope="class")
    def wrappers(self):
        from repro.core import HealersPipeline

        hardened = HealersPipeline(functions=list(self.NAMES)).run()
        return {
            "unwrapped": None,
            "full-auto": hardened.wrapper(),
            "exhaustive-probe": hardened.wrapper(
                check_config=CheckConfig(page_probe=False)
            ),
        }

    @staticmethod
    def _rows(report):
        return [(r.test.label, r.status, r.detail) for r in report.records]

    @pytest.mark.parametrize(
        "label", ["unwrapped", "full-auto", "exhaustive-probe"]
    )
    def test_armed_sweep_shards_like_in_process(self, wrappers, label):
        harness = BallistaHarness(functions=[BY_NAME[n] for n in self.NAMES])
        wrapper = wrappers[label]
        serial = harness.run(wrapper, label, jobs=1, run=self.RUN)
        telemetry = Telemetry()
        harness.telemetry = telemetry
        sharded = harness.run(wrapper, label, jobs=2, run=self.RUN)
        assert self._rows(sharded) == self._rows(serial)
        spawned = telemetry.counter(
            "fleet.workers_spawned", configuration=label
        ).value
        assert spawned >= 1, "the sweep did not run on the pool"
