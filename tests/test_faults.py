"""Tests for the pluggable fault-model dictionary (repro.faults)."""

import json

import pytest

from repro.cdecl import DeclarationParser, typedef_table
from repro.declarations import FunctionDeclaration, declaration_from_report
from repro.faults import (
    FAULTS_VERSION,
    FaultModel,
    FaultScenario,
    ScenarioEvidence,
    available_models,
    canonical_fault_specs,
    faults_fingerprint,
    get_model,
    register_model,
    resolve_fault_models,
)
from repro.faults.model import (
    SCENARIO_VECTOR_CAP,
    format_parameter_index,
    function_pointer_indices,
    scenario_sample,
    stride_sample,
)
from repro.injector import FaultInjector, RunSpec
from repro.libc.catalog import BY_NAME

BUILTINS = ("bitflip", "callback", "ctype_table", "format", "resource", "signal")


def prototype_of(name: str):
    parser = DeclarationParser(typedef_table())
    return parser.parse_prototype(BY_NAME[name].prototype)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_models()
        assert set(BUILTINS) <= set(names)
        assert names == tuple(sorted(names))

    def test_unknown_model_names_the_alternatives(self):
        with pytest.raises(KeyError, match="resource"):
            get_model("nosuchmodel")

    def test_name_collision_refused(self):
        class Imposter(FaultModel):
            name = "resource"

        with pytest.raises(ValueError, match="already registered"):
            register_model(Imposter)

    def test_reregistration_is_idempotent(self):
        cls = get_model("resource")
        assert register_model(cls) is cls

    def test_unknown_parameter_refused(self):
        with pytest.raises(ValueError, match="no parameter"):
            get_model("signal")(bogus=1)


class TestSpecParsing:
    def test_comma_string_resolves_sorted(self):
        models = resolve_fault_models("signal,resource")
        assert [m.name for m in models] == ["resource", "signal"]

    def test_order_does_not_change_identity(self):
        assert canonical_fault_specs("signal,resource") == canonical_fault_specs(
            ["resource", "signal"]
        )

    def test_empty_inputs_mean_no_models(self):
        assert resolve_fault_models(None) == ()
        assert resolve_fault_models("") == ()
        assert resolve_fault_models(()) == ()

    def test_parameters_parse_and_coerce(self):
        (model,) = resolve_fault_models("signal:reenter=0:offsets=1|64")
        assert model.params["reenter"] == 0
        assert model.params["offsets"] == "1|64"

    def test_duplicate_model_refused(self):
        with pytest.raises(ValueError, match="more than once"):
            resolve_fault_models("resource,resource")

    def test_bad_parameter_syntax_refused(self):
        with pytest.raises(ValueError, match="key=value"):
            resolve_fault_models("signal:offsets")

    def test_spec_string_round_trips(self):
        for spec in canonical_fault_specs("signal:reenter=0,resource:mallocs=2"):
            (model,) = resolve_fault_models(spec)
            assert model.spec_string() == spec

    def test_default_parameters_are_elided(self):
        (model,) = resolve_fault_models("signal")
        assert model.spec_string() == "signal"

    def test_instances_pass_through(self):
        instance = get_model("resource")(mallocs=3)
        (model,) = resolve_fault_models([instance])
        assert model is instance


class TestFingerprint:
    def test_empty_set_fingerprint(self):
        fingerprint = faults_fingerprint(())
        assert fingerprint["version"] == FAULTS_VERSION
        assert fingerprint["cap"] == SCENARIO_VECTOR_CAP
        assert fingerprint["models"] == []

    def test_parameters_fold_in(self):
        a = faults_fingerprint("signal")
        b = faults_fingerprint("signal:offsets=7")
        assert a != b

    def test_model_sets_distinct(self):
        assert faults_fingerprint("resource") != faults_fingerprint("signal")
        assert faults_fingerprint("resource,signal") != faults_fingerprint("resource")


class TestScenarios:
    def test_deterministic_in_the_spec(self):
        for name in BUILTINS:
            model = get_model(name)()
            spec = BY_NAME["fopen"]
            prototype = prototype_of("fopen")
            assert model.scenarios(spec, prototype) == model.scenarios(spec, prototype)

    def test_callback_model_needs_a_function_pointer(self):
        model = get_model("callback")()
        assert model.scenarios(BY_NAME["qsort"], prototype_of("qsort"))
        assert not model.scenarios(BY_NAME["strlen"], prototype_of("strlen"))

    def test_format_model_needs_a_printf_prototype(self):
        model = get_model("format")()
        assert model.scenarios(BY_NAME["sprintf"], prototype_of("sprintf"))
        assert not model.scenarios(BY_NAME["strcpy"], prototype_of("strcpy"))

    def test_scenario_keys_are_namespaced(self):
        model = get_model("resource")()
        for scenario in model.scenarios(BY_NAME["fopen"], prototype_of("fopen")):
            assert scenario.key == f"resource:{scenario.label}"

    def test_stride_sample_matches_historical_semantics(self):
        pool = list(range(100))
        assert stride_sample(pool, 24) == [i * 4 for i in range(24)]
        assert stride_sample(pool, 200) == pool
        assert stride_sample([], 5) == []

    def test_scenario_sample_is_a_deterministic_stride(self):
        pool = list(range(100))
        sample = scenario_sample(pool, cap=10)
        assert sample == scenario_sample(pool, cap=10)
        assert len(sample) == 10
        assert sample == sorted(sample)
        assert scenario_sample([1, 2, 3], cap=10) == [1, 2, 3]

    def test_scenario_sample_delegates_identically(self):
        # The default cap is the one faulted digests fingerprint.
        pool = list(range(97))
        assert scenario_sample(pool) == stride_sample(pool, SCENARIO_VECTOR_CAP)

    def test_prototype_introspection_helpers(self):
        assert function_pointer_indices(prototype_of("qsort")) == (3,)
        assert function_pointer_indices(prototype_of("strlen")) == ()
        assert format_parameter_index(prototype_of("sprintf")) == 1
        assert format_parameter_index(prototype_of("abs")) is None


class TestScenarioEvidence:
    def test_unsafe_needs_failures_beyond_baseline(self):
        base = dict(model="signal", scenario="offset-1", vectors=8)
        assert ScenarioEvidence(crashes=1, hangs=0, **base).unsafe
        assert ScenarioEvidence(crashes=0, hangs=1, **base).unsafe
        assert not ScenarioEvidence(crashes=0, hangs=0, **base).unsafe
        assert not ScenarioEvidence(
            crashes=1, hangs=0, baseline_failures=1, **base
        ).unsafe

    def test_key(self):
        evidence = ScenarioEvidence("resource", "malloc_null", 8, 2, 0)
        assert evidence.key == "resource:malloc_null"


class TestInjectorEvidence:
    def test_unarmed_run_has_no_evidence(self):
        report = FaultInjector(BY_NAME["fopen"], run=RunSpec(24)).run()
        assert report.fault_evidence == []
        assert report.unsafe_scenarios == ()

    def test_armed_run_leaves_the_baseline_untouched(self):
        plain = FaultInjector(BY_NAME["fopen"], run=RunSpec(24)).run()
        armed = FaultInjector(
            BY_NAME["fopen"], run=RunSpec(24, "resource,signal")
        ).run()
        assert armed.robust_types == plain.robust_types
        assert armed.vectors_run == plain.vectors_run
        assert armed.crashes == plain.crashes
        assert armed.hangs == plain.hangs
        assert armed.unsafe == plain.unsafe
        assert armed.errno_class == plain.errno_class

    def test_armed_run_collects_per_scenario_evidence(self):
        report = FaultInjector(
            BY_NAME["fopen"], run=RunSpec(24, "resource")
        ).run()
        assert report.fault_evidence
        keys = {evidence.key for evidence in report.fault_evidence}
        assert "resource:malloc_null" in keys
        assert all(evidence.vectors > 0 for evidence in report.fault_evidence)

    def test_malloc_exhaustion_condemns_fopen(self):
        report = FaultInjector(
            BY_NAME["fopen"], run=RunSpec(24, "resource")
        ).run()
        assert "resource:malloc_null" in report.unsafe_scenarios

    def test_evidence_is_deterministic(self):
        run = lambda: FaultInjector(  # noqa: E731
            BY_NAME["fopen"], run=RunSpec(24, "resource,signal")
        ).run()
        assert run().fault_evidence == run().fault_evidence


class TestDeclarationScenarios:
    def test_declaration_carries_unsafe_scenarios(self):
        report = FaultInjector(
            BY_NAME["fopen"], run=RunSpec(24, "resource")
        ).run()
        declaration = declaration_from_report(report)
        assert declaration.unsafe_scenarios == report.unsafe_scenarios
        assert declaration.scenario_unsafe == bool(report.unsafe_scenarios)

    def test_xml_round_trip(self):
        report = FaultInjector(
            BY_NAME["fopen"], run=RunSpec(24, "resource")
        ).run()
        declaration = declaration_from_report(report)
        parsed = FunctionDeclaration.from_xml(declaration.to_xml())
        assert parsed.unsafe_scenarios == declaration.unsafe_scenarios

    def test_plain_declaration_is_not_scenario_unsafe(self):
        report = FaultInjector(BY_NAME["fopen"], run=RunSpec(24)).run()
        declaration = declaration_from_report(report)
        assert declaration.unsafe_scenarios == ()
        assert not declaration.scenario_unsafe
        assert "<unsafe_scenarios>" not in declaration.to_xml()


class TestCli:
    def test_faults_list(self, capsys):
        from repro.cli import main

        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTINS:
            assert name in out

    def test_faults_list_json(self, capsys):
        from repro.cli import main

        assert main(["faults", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["name"] for row in rows} >= set(BUILTINS)
        for row in rows:
            assert row["version"] >= 1
            assert row["description"]

    def test_inject_refuses_unknown_model(self, capsys):
        from repro.cli import main

        assert main(["inject", "atoi", "--fault-models", "nosuchmodel"]) == 2
        assert "unknown fault model" in capsys.readouterr().err

    def test_inject_reports_unsafe_scenarios(self, capsys):
        from repro.cli import main

        assert main(["inject", "fopen", "--fault-models", "resource", "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert "resource:malloc_null" in row["unsafe_scenarios"]
