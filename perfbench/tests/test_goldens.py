import copy
import json

import pytest

from perfbench import goldens, service
from perfbench.paths import GOLDEN_DIR


@pytest.fixture(scope="module")
def golden():
    return goldens.read(GOLDEN_DIR, goldens.DECLARATIONS_FILE)


@pytest.fixture(scope="module")
def fig6():
    return goldens.read(GOLDEN_DIR, goldens.FIG6_FILE)


def test_golden_declarations_round_trip_byte_for_byte(golden):
    declarations = goldens.load_declarations(GOLDEN_DIR)
    assert len(declarations) == 86
    for name, row in golden["functions"].items():
        assert declarations[name].to_xml() == row["xml"]
    assert golden["vectors"] == 26832
    assert sum(row["unsafe"] for row in golden["functions"].values()) == 77


def test_harden_check_accepts_golden_and_fails_on_corruption(golden):
    result = copy.deepcopy(golden["functions"])
    assert goldens.check_harden(result, golden) == []
    corrupted = copy.deepcopy(golden)
    corrupted["functions"]["strcpy"]["xml"] = corrupted["functions"]["strcpy"]["xml"].replace(
        "unsafe", "safe"
    )
    failures = goldens.check_harden(result, corrupted)
    assert failures and failures[0].startswith("strcpy:")
    missing = copy.deepcopy(result)
    del missing["abs"]
    assert goldens.check_harden(missing, golden)


def test_harden_check_counts_unsafe_functions(golden):
    result = copy.deepcopy(golden["functions"])
    result["strcpy"]["unsafe"] = False
    failures = goldens.check_harden(result, golden)
    assert any(f.startswith("catalog:") for f in failures)


def test_fig6_check_fails_on_each_corruption(fig6):
    assert goldens.check_fig6(copy.deepcopy(fig6), fig6) == []
    for label, field, value in (
        ("unwrapped", "digest", "0" * 64),
        ("full-auto", "crashing", 16),
        ("semi-auto", "tests", 11994),
    ):
        corrupted = copy.deepcopy(fig6)
        corrupted[label][field] = value
        failures = goldens.check_fig6(fig6, corrupted)
        assert failures and all(f.startswith(label) for f in failures), failures
    missing = copy.deepcopy(fig6)
    del missing["semi-auto"]
    assert goldens.check_fig6(missing, fig6)


def test_fig6_digest_depends_on_order_and_status():
    lines = ["strlen(NULL)\tcrash", "strlen(\"a\")\tsilent"]
    assert goldens.fig6_digest(lines) != goldens.fig6_digest(lines[::-1])
    assert goldens.fig6_digest(lines) != goldens.fig6_digest([lines[0], "strlen(\"a\")\terrno"])


def test_service_check_fails_on_corrupted_golden():
    declarations = goldens.load_declarations(GOLDEN_DIR)
    expected = service.Expected(declarations)
    script = service.build_script(1, service.prefill_functions())
    answers = {service.request_key(op, p): expected.answer(op, p) for op, p in script}
    for op, params in script:
        assert expected.check(op, params, answers[service.request_key(op, params)]) is None

    corrupted_golden = json.loads((GOLDEN_DIR / goldens.DECLARATIONS_FILE).read_text())
    row = corrupted_golden["functions"]["strlen"]
    row["xml"] = row["xml"].replace("<attribute>unsafe</attribute>", "<attribute>safe</attribute>")
    from repro.declarations import FunctionDeclaration

    bad = dict(declarations)
    bad["strlen"] = FunctionDeclaration.from_xml(row["xml"])
    bad_expected = service.Expected(bad)
    params = {"function": "strlen", "semi_auto": False}
    assert bad_expected.check("declaration", params, expected.answer("declaration", params))
    params = {"functions": service.prefill_functions()[:10], "semi_auto": False, "include_source": False}
    assert bad_expected.check("harden", params, expected.answer("harden", params))


def test_validate_script_calls_are_benign():
    expected = service.Expected(goldens.load_declarations(GOLDEN_DIR))
    for op, params in service.build_script(1, service.prefill_functions()):
        if op == "validate":
            answer = expected.answer(op, params)
            assert answer["violations"] == 0
            if params["execute"]:
                assert {row["status"] for row in answer["calls"]} == {"RETURNED"}


def test_script_order_depends_on_seed_only():
    functions = service.prefill_functions()
    assert service.build_script(3, functions) == service.build_script(3, functions)
    assert service.build_script(3, functions) != service.build_script(4, functions)
    assert sorted(map(repr, service.build_script(3, functions))) == sorted(
        map(repr, service.build_script(4, functions))
    )
