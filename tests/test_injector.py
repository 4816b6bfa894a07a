"""Tests for the fault injector (sections 3.3, 3.4, 4.1)."""

import pytest

from repro.injector import FaultInjector, RunSpec, inject_function
from repro.libc.catalog import BY_NAME, CONSISTENT, INCONSISTENT, NONE_FOUND, VOID


@pytest.fixture(scope="module")
def asctime_report():
    return inject_function("asctime")


@pytest.fixture(scope="module")
def strcpy_report():
    return inject_function("strcpy")


class TestRobustTypeDiscovery:
    def test_asctime_discovers_r_array_null_44(self, asctime_report):
        """The paper's running example (Figure 2)."""
        assert asctime_report.robust_types[0].robust.render() == "R_ARRAY_NULL[44]"

    def test_asctime_is_unsafe(self, asctime_report):
        assert asctime_report.unsafe
        assert asctime_report.crashes > 0

    def test_asctime_consistent_errno(self, asctime_report):
        assert asctime_report.errno_class.kind == CONSISTENT
        assert asctime_report.errno_class.error_value == 0  # NULL

    def test_strcpy_source_is_cstring(self, strcpy_report):
        assert strcpy_report.robust_types[1].robust.name == "CSTRING"

    def test_strcpy_destination_is_writable(self, strcpy_report):
        assert strcpy_report.robust_types[0].robust.name == "W_ARRAY"

    def test_strcpy_no_errno(self, strcpy_report):
        assert strcpy_report.errno_class.kind == NONE_FOUND

    def test_adaptive_retries_happened(self, asctime_report):
        """Adaptive sizing requires call retries beyond the vector
        count."""
        assert asctime_report.retries > 0
        assert asctime_report.calls_made > asctime_report.vectors_run


class TestAttributeDiscovery:
    def test_safe_function_detected(self):
        report = inject_function("abs")
        assert report.safe
        assert report.crashes == 0

    def test_void_function_classified(self):
        report = inject_function("srand")
        assert report.errno_class.kind == VOID

    def test_inconsistent_errno_detected(self):
        report = inject_function("fdopen")
        assert report.errno_class.kind == INCONSISTENT

    def test_never_crashing_kernel_validated_function(self):
        report = inject_function("tcdrain")
        assert report.safe
        assert report.errno_class.kind == CONSISTENT
        assert report.errno_class.error_value == -1


class TestVectorEnumeration:
    def test_cross_product_used_when_small(self):
        injector = FaultInjector(BY_NAME["strcmp"])
        templates = [
            [t for g in gens for t in g.templates()] for gens in injector.generators
        ]
        vectors = injector._enumerate_vectors(templates)
        assert len(vectors) == len(templates[0]) * len(templates[1])

    def test_capped_enumeration_includes_sweeps(self):
        injector = FaultInjector(BY_NAME["fwrite"], run=RunSpec(300))
        templates = [
            [t for g in gens for t in g.templates()] for gens in injector.generators
        ]
        vectors = injector._enumerate_vectors(templates)
        assert len(vectors) <= 300
        # Every template of every argument appears at least once.
        for index, arg_templates in enumerate(templates):
            seen = {id(v[index]) for v in vectors}
            for template in arg_templates:
                assert id(template) in seen

    def test_zero_arg_function(self):
        injector = FaultInjector(BY_NAME["rand"])
        report = injector.run()
        assert report.vectors_run == 1
        assert report.safe


class TestInjectionMechanics:
    def test_injection_does_not_corrupt_base_runtime(self):
        from repro.libc.runtime import standard_runtime

        base = standard_runtime()
        injector = FaultInjector(BY_NAME["strcpy"], runtime_factory=lambda: base)
        injector.run()
        # The base runtime passed to the factory is forked per vector;
        # its own heap must stay pristine.
        assert base.heap.live_block_count == 0

    def test_observations_match_call_accounting(self, strcpy_report):
        assert len(strcpy_report.observations) == strcpy_report.calls_made

    def test_fault_attribution_blames_exactly_one_argument(self, strcpy_report):
        from repro.typelattice import TestResult

        for observation in strcpy_report.observations:
            if observation.result is TestResult.FAILURE:
                blamed = observation.blamed_argument
                assert blamed is None or 0 <= blamed < 2
