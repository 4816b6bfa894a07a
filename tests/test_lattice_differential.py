"""Generated differential tests: the bitmask order and the folded
robust-type search against the reference in ``lattice_reference.py``.

Inputs are generated size pools, runtime-registered extension
instances and subtype rules (among them rules that close a cycle, and
an extension instance that shares a shipped template's name), and
observation multisets with and without ``checkable`` and
``conservative``.  Results must be equal, including which inputs are
rejected and with which exception.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.typelattice import registry
from repro.typelattice.instances import TypeInstance
from repro.typelattice.lattice import Lattice, build_instances
from repro.typelattice.robust import Observation, TestResult, compute_robust_type
from repro.typelattice.rules import DIRECT_RULES
from repro.typelattice.vectors import VectorObservation, compute_robust_vector
from tests.lattice_reference import (
    ReferenceOrder,
    reference_robust_type,
    reference_robust_vector,
)


# Rule objects live at module level: Lattice.for_sizes keys its memo on
# rule identity, so a rule must not be freed and its id reused while a
# lattice built with it is cached.
def _always(sub, sup):
    return True


def _sup_at_most_sub(sub, sup):
    return sub is not None and sup is not None and sup <= sub


def _sup_within_64(sub, sup):
    return sup is not None and sup <= 64


def _sub_is_even(sub, sup):
    return sub is not None and sub % 2 == 0


_RULES = (_always, _sup_at_most_sub, _sup_within_64, _sub_is_even)
_EXT_NAMES = ("EXT_A", "EXT_B", "EXT_C")
_BASE_NAMES = (
    "NULL", "UNCONSTRAINED", "R_ARRAY", "RW_FIXED", "CSTRING", "INT_ZERO", "ANY_INT",
)

#: Rule sets that each add at least one cycle to the order.
_CYCLES = (
    {("EXT_A", "EXT_B"): _always, ("EXT_B", "EXT_A"): _always},
    {("UNCONSTRAINED", "NULL"): _always},  # NULL -> R_ARRAY_NULL -> UNCONSTRAINED
    {("ANY_INT", "INT_ZERO"): _always},
    {("R_ARRAY", "RW_FIXED"): _sup_at_most_sub},  # RW_FIXED[v] <= R_ARRAY[t] <= ...
)

_SIZES = st.sets(st.integers(min_value=0, max_value=300), min_size=1, max_size=8)
_EXTENSION_RULES = st.dictionaries(
    st.tuples(
        st.sampled_from(_EXT_NAMES + _BASE_NAMES),
        st.sampled_from(_EXT_NAMES + _BASE_NAMES),
    ),
    st.sampled_from(_RULES),
    max_size=6,
)


@st.composite
def _setups(draw):
    """A size pool and an extension: instances, rules, maybe a cycle.

    Extension parameters are often drawn from the pool, so an instance
    named ``R_ARRAY`` can share name and size with a shipped one."""
    sizes = draw(_SIZES)
    params = st.one_of(
        st.none(),
        st.sampled_from(sorted(sizes)),
        st.integers(min_value=0, max_value=300),
    )
    instances = draw(
        st.lists(
            st.builds(
                TypeInstance,
                st.sampled_from(_EXT_NAMES + ("R_ARRAY",)),
                params,
                fundamental=st.booleans(),
                family=st.just("ext"),
            ),
            max_size=5,
        )
    )
    rules = draw(_EXTENSION_RULES)
    cycle = draw(st.one_of(st.just({}), st.sampled_from(_CYCLES)))
    return sizes, (instances, rules, cycle)


@contextmanager
def _registered(extension):
    """Register extension instances and rules; restore the registry
    and the rule table afterwards."""
    instances, rules, cycle = extension
    saved_instances = list(registry.EXTENSION_INSTANCES)
    saved_rules = dict(DIRECT_RULES)
    registry.register_extension_types(*instances)
    DIRECT_RULES.update(rules)
    DIRECT_RULES.update(cycle)
    try:
        yield
    finally:
        registry.EXTENSION_INSTANCES[:] = saved_instances
        DIRECT_RULES.clear()
        DIRECT_RULES.update(saved_rules)


#: Not in any generated lattice (sizes stop at 300).
_OUTSIDER = TypeInstance("R_ARRAY", 99999)


def _pool(lattice: Lattice) -> list[TypeInstance]:
    """What observations and queries draw from: mostly fundamentals,
    plus every unified type and one instance outside the lattice."""
    return lattice.fundamentals() * 3 + lattice.unified() + [_OUTSIDER]


def _outcome(compute, *args, **kwargs):
    """The result, or the type of the exception raised.  ValueError:
    no observations, or no common supertype of the successes.  A cycle
    holding every least-crashing candidate yields a result, which must
    be equal."""
    try:
        return compute(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(_setups(), st.data())
def test_order_matches_reference(setup, data):
    sizes, extension = setup
    with _registered(extension):
        lattice = Lattice.for_sizes(sizes)
        reference = ReferenceOrder(build_instances(sizes))
        assert lattice.instances == reference.instances
        for t in lattice.instances + [_OUTSIDER]:
            assert lattice.supertypes(t) == reference.supertypes(t), t
            assert lattice.subtypes(t) == reference.subtypes(t), t
            assert lattice.contains(t) == (t in reference.instances)
        pool = data.draw(st.lists(st.sampled_from(_pool(lattice)), max_size=12))
        assert lattice.weakest(pool) == reference.weakest(pool)
        for sup in pool:
            for sub in lattice.instances:
                assert lattice.is_subtype(sub, sup) == reference.is_subtype(sub, sup)
                assert lattice.is_strict_subtype(sub, sup) == (
                    reference.is_strict_subtype(sub, sup)
                )


def _checkable(data):
    names = data.draw(
        st.one_of(
            st.none(),
            st.sets(
                st.sampled_from(_EXT_NAMES + _BASE_NAMES + ("R_ARRAY_NULL", "RW_ARRAY"))
            ),
        )
    )
    return None if names is None else (lambda t: t.name in names)


@settings(max_examples=60, deadline=None)
@given(_setups(), st.data())
def test_robust_type_matches_reference(setup, data):
    sizes, extension = setup
    with _registered(extension):
        lattice = Lattice.for_sizes(sizes)
        observations = data.draw(
            st.lists(
                st.builds(
                    Observation,
                    st.sampled_from(_pool(lattice)),
                    st.sampled_from(list(TestResult)),
                    st.booleans(),
                ),
                max_size=40,
            )
        )
        checkable = _checkable(data)
        conservative = data.draw(st.booleans())
        if data.draw(st.booleans(), label="default lattice"):
            params = {o.fundamental.param for o in observations if o.blamed}
            params.discard(None)
            lattice = None
            order = ReferenceOrder(build_instances(params or {0}))
        else:
            order = ReferenceOrder(lattice.instances)
        actual = _outcome(
            compute_robust_type,
            observations,
            lattice=lattice,
            checkable=checkable,
            conservative=conservative,
        )
        expected = _outcome(
            reference_robust_type, observations, order, checkable, conservative
        )
        assert actual == expected


@settings(max_examples=40, deadline=None)
@given(_setups(), st.integers(min_value=1, max_value=3), st.data())
def test_robust_vector_matches_reference(setup, arity, data):
    sizes, extension = setup
    with _registered(extension):
        lattice = Lattice.for_sizes(sizes)
        fundamentals = st.tuples(*[st.sampled_from(_pool(lattice))] * arity)
        vectors = data.draw(
            st.lists(
                st.builds(
                    VectorObservation,
                    fundamentals,
                    st.sampled_from(list(TestResult)),
                    st.one_of(st.none(), st.integers(min_value=0, max_value=arity - 1)),
                ),
                min_size=1,
                max_size=40,
            )
        )
        checkable = _checkable(data)
        conservative = data.draw(st.booleans())
        actual = _outcome(
            compute_robust_vector,
            vectors,
            lattices=[lattice] * arity,
            checkable=checkable,
            conservative=conservative,
        )
        expected = _outcome(
            reference_robust_vector,
            vectors,
            ReferenceOrder(lattice.instances),
            checkable,
            conservative,
        )
        assert actual == expected


def test_cycle_holding_every_least_crashing_candidate():
    # EXT_C <= EXT_A and the cycle EXT_A <= EXT_B <= EXT_A: every
    # feasible candidate has a strict supertype among the others, so
    # only the cycle's equivalence class can be weakest.
    ext_a, ext_b = TypeInstance("EXT_A", family="ext"), TypeInstance("EXT_B", family="ext")
    ext_c = TypeInstance("EXT_C", fundamental=True, family="ext")
    observations = [Observation(ext_c, TestResult.SUCCESS, True)]
    extension = ((ext_a, ext_b, ext_c), {("EXT_C", "EXT_A"): _always}, _CYCLES[0])
    with _registered(extension):
        lattice = Lattice.for_sizes({8})
        assert lattice.weakest([ext_a, ext_b, ext_c]) == [ext_a, ext_b]
        actual = compute_robust_type(observations, lattice=lattice)
        expected = reference_robust_type(observations, ReferenceOrder(lattice.instances))
    assert actual == expected
    assert actual.robust == ext_a  # the class tie breaks on the name
