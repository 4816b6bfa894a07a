"""Property-based invariant: the semi-auto wrapper NEVER lets a call
crash, for arbitrary combinations of Ballista pool values.

This is the paper's headline claim, checked adversarially with
hypothesis rather than only on the fixed Ballista enumeration.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ballista.pools import pool_for
from repro.cdecl import DeclarationParser, typedef_table
from repro.core import HealersPipeline
from repro.libc.catalog import BY_NAME
from repro.libc.runtime import standard_runtime
from repro.wrapper import WrapperLibrary

FUNCTIONS = ("asctime", "strcpy", "strlen", "fclose", "fgets", "closedir",
             "toupper", "memcpy", "fseek", "strtol")


@pytest.fixture(scope="module")
def wrapped():
    hardened = HealersPipeline(functions=list(FUNCTIONS)).run()
    return WrapperLibrary(hardened.semi_auto_declarations)


_parser = DeclarationParser(typedef_table())
_pools = {}
for _name in FUNCTIONS:
    _proto = _parser.parse_prototype(BY_NAME[_name].prototype)
    _pools[_name] = [
        pool_for(p, _parser.resolve(p.ctype), p.ctype)
        for p in _proto.ftype.parameters
    ]


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(FUNCTIONS))
    choices = [draw(st.integers(0, len(pool) - 1)) for pool in _pools[name]]
    return name, choices


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_calls())
def test_semi_auto_wrapper_never_crashes(wrapped, call):
    name, choices = call
    runtime = standard_runtime()
    wrapped.state.file_table.clear()
    wrapped.state.dir_table.clear()
    values = []
    for pool, choice in zip(_pools[name], choices):
        pool_value = pool[choice]
        value = pool_value.build(runtime)
        values.append(value)
        if pool_value.seed == "file":
            wrapped.state.seed_file(value)
        elif pool_value.seed == "dir":
            wrapped.state.seed_dir(value)
    outcome = wrapped.call(name, values, runtime)
    assert not outcome.robustness_failure, (
        f"{name}({', '.join(pool[c].label for pool, c in zip(_pools[name], choices))})"
        f" -> {outcome.describe()}"
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.sampled_from(("asctime", "strlen", "toupper")),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
def test_wrapper_survives_arbitrary_scalar_values(wrapped, name, raw_value):
    """Even completely random 64-bit argument values never crash the
    wrapped single-argument functions."""
    runtime = standard_runtime()
    outcome = wrapped.call(name, [raw_value], runtime)
    assert not outcome.robustness_failure


@st.composite
def _benign_calls(draw):
    name = draw(st.sampled_from(FUNCTIONS))
    choices = []
    for pool in _pools[name]:
        benign = [i for i, v in enumerate(pool) if not v.exceptional]
        choices.append(draw(st.sampled_from(benign)))
    return name, choices


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_benign_calls())
def test_wrapper_is_transparent_for_valid_calls(wrapped, call):
    """Differential test of the paper's design goal: "such a design
    prevents correct programs from being penalized by unnecessary
    checks" — a wrapped call with valid arguments must return exactly
    what the unwrapped call returns.

    Forked runtimes lay out memory identically, so even returned
    pointers must agree bit for bit.
    """
    from repro.sandbox import Sandbox

    name, choices = call
    base = standard_runtime()

    def build(runtime):
        values = []
        for pool, choice in zip(_pools[name], choices):
            values.append(pool[choice].build(runtime))
        return values

    raw_runtime = base.fork()
    raw_args = build(raw_runtime)
    raw = Sandbox().call(BY_NAME[name].model, raw_args, raw_runtime)

    wrapped.state.file_table.clear()
    wrapped.state.dir_table.clear()
    wrapped_runtime = base.fork()
    wrapped_args = build(wrapped_runtime)
    for pool, choice, value in zip(_pools[name], choices, wrapped_args):
        if pool[choice].seed == "file":
            wrapped.state.seed_file(value)
        elif pool[choice].seed == "dir":
            wrapped.state.seed_dir(value)
    protected = wrapped.call(name, wrapped_args, wrapped_runtime)

    assert raw_args == wrapped_args  # deterministic fork layout
    assert not protected.robustness_failure

    # Transparency is promised for calls that are valid under
    # *worst-case* semantics: the relational checks deliberately
    # enforce the largest access the call could make (fgets may read
    # fewer than n bytes, but the check demands capacity for n — a
    # robust type "might contain values for which the function
    # crashes", and symmetrically may reject values that happen not
    # to).  For worst-case-valid calls the wrapper must be invisible.
    from repro.wrapper import CheckLibrary, WrapperState
    from tests.wrapper_reference import relational_violation

    checks = CheckLibrary(raw_runtime, WrapperState())
    worst_case_valid = relational_violation(name, raw_args, checks) is None
    if raw.returned and worst_case_valid:
        assert protected.status == raw.status
        assert protected.return_value == raw.return_value
        assert protected.errno_was_set == raw.errno_was_set
