"""Generated differential tests: the wrapper's compiled check programs
against the interpreted reference walk in ``wrapper_reference.py``.

Each example picks a wrapper configuration — full-auto or semi-auto
declarations, a policy, a ``CheckConfig`` ablation — and runs a short
sequence of calls to catalog functions through a :class:`WrapperLibrary`
and a :class:`ReferenceWrapper`, each in its own fork of one runtime.
An argument is a value from that parameter's Ballista pool, an integer
at the edge of a scalar robust type's range, a raw pointer into mapped,
read-only, unmapped or freed memory (at any offset up to the guard byte
past its end, over a terminated or an unterminated fill), or a pointer
into a value an earlier call of the sequence used.
Each call is first checked with ``validate``; then the memory behind
one of its own or an earlier value may be freed, unmapped or
re-protected; then the call runs.  Calls share their runtime, so the
compiled checker's revalidation cache must notice every mapping change
since it last validated a pointer.

Per call the argument values, the check-only verdict of ``validate``
(violation text included, whatever the policy), the status, return
value, errno and detail must be equal, as must an escaping exception's
type and text; at the end, so must the ``calls``, ``checks`` and
``violations`` counters and the violation log.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.ballista.pools import pool_for
from repro.cdecl import DeclarationParser, typedef_table
from repro.libc.catalog import BALLISTA_SET
from repro.libc.runtime import standard_runtime
from repro.memory import Protection, SegmentationFault
from repro.wrapper import WrapperLibrary, WrapperPolicy
from tests.wrapper_reference import CONFIGS, ReferenceWrapper

_parser = DeclarationParser(typedef_table())
#: function name -> one Ballista pool per parameter
_POOLS = {
    spec.name: [
        pool_for(parameter, _parser.resolve(parameter.ctype), parameter.ctype)
        for parameter in _parser.parse_prototype(spec.prototype).ftype.parameters
    ]
    for spec in BALLISTA_SET
}
_FUNCTIONS = sorted(_POOLS)
_RAW_KINDS = ("mapped", "read-only", "unmapped", "freed")
_MAX_RAW = 64

_BASE = standard_runtime()

_raw = st.tuples(
    st.sampled_from(_RAW_KINDS),
    st.integers(min_value=1, max_value=_MAX_RAW),  # size
    st.integers(min_value=0, max_value=_MAX_RAW),  # offset, clamped to size
    st.booleans(),  # NUL-terminated fill
)
#: (index into the earlier values, offset into it)
_prior = st.tuples(st.integers(0, 15), st.integers(0, 8))
#: Both sides of every scalar range bound (CHAR_RANGE, INT_NONNEG,
#: INT_NONPOS, REASONABLE_SIZE).
_EDGES = (-(2**31), -129, -128, -1, 0, 1, 255, 256, 2**31 - 1, 2**31)
_MEMORY_OPS = ("free", "unmap", "protect-read", "protect-none")


@st.composite
def _call(draw):
    name = draw(st.sampled_from(_FUNCTIONS))
    args = []
    for pool in _POOLS[name]:
        args.append(
            draw(
                st.tuples(st.just("pool"), st.integers(0, len(pool) - 1))
                | st.tuples(st.just("edge"), st.sampled_from(_EDGES))
                | st.tuples(st.just("raw"), _raw)
                | st.tuples(st.just("prior"), _prior)
            )
        )
    memory_op = draw(
        st.none() | st.tuples(st.sampled_from(_MEMORY_OPS), st.integers(0, 15))
    )
    return name, args, memory_op


_case = st.tuples(
    st.booleans(),  # semi-auto declarations
    st.sampled_from(tuple(WrapperPolicy)),
    st.sampled_from(sorted(CONFIGS)),
    st.lists(_call(), min_size=1, max_size=4),
)


def _raw_pointer(runtime, kind: str, size: int, offset: int, terminated: bool) -> int:
    payload = b"A" * (size - 1) + (b"\0" if terminated else b"A")
    if kind == "freed":
        pointer = runtime.heap.malloc(size)
        runtime.space.store(pointer, payload)
        runtime.heap.free(pointer)
        return pointer + min(offset, size)
    region = runtime.space.map_region(size)
    runtime.space.store(region.base, payload)
    if kind == "read-only":
        runtime.space.protect(region, Protection.READ)
    elif kind == "unmapped":
        runtime.space.unmap(region)
    return region.base + min(offset, size)


def _apply(runtime, memory_op, prior: list[int]) -> None:
    """Free, unmap or re-protect the memory behind a value, counted
    back from the latest."""
    if memory_op is None or not prior:
        return
    op, index = memory_op
    target = prior[-1 - index % len(prior)]
    if op == "free":
        try:
            runtime.heap.free(target)
        except SegmentationFault:
            pass  # not a live block base
        return
    region = runtime.space.region_at(target)
    if region is None:
        return
    if op == "unmap":
        runtime.space.unmap(region)
    else:
        prot = Protection.READ if op == "protect-read" else Protection.NONE
        runtime.space.protect(region, prot)


def _escape(exc: Exception) -> tuple:
    return ("raise", type(exc).__name__, str(exc))


def _run(wrapper, runtime, calls) -> list[tuple]:
    keys = []
    prior: list[int] = []
    for name, args, memory_op in calls:
        values = []
        for (source, choice), pool in zip(args, _POOLS[name]):
            if source == "edge":
                value = choice
            elif source == "raw":
                value = _raw_pointer(runtime, *choice)
            elif source == "prior":
                index, offset = choice
                value = prior[index % len(prior)] + offset if prior else 0
            else:
                pool_value = pool[choice]
                value = pool_value.build(runtime)
                if pool_value.seed == "file":
                    wrapper.state.seed_file(value)
                elif pool_value.seed == "dir":
                    wrapper.state.seed_dir(value)
            values.append(value)
        prior.extend(values)
        try:
            verdict = ("ok", wrapper.validate(name, values, runtime))
        except Exception as exc:  # noqa: BLE001 - escapes must match too
            verdict = _escape(exc)
        _apply(runtime, memory_op, prior)
        try:
            outcome = wrapper.call(name, values, runtime)
            result = (
                outcome.status,
                outcome.return_value,
                outcome.errno,
                outcome.detail,
            )
        except Exception as exc:  # noqa: BLE001 - escapes must match too
            result = _escape(exc)
        keys.append((name, values, verdict, result))
    return keys


@settings(max_examples=400, deadline=None)
@given(_case)
# NULL for each semi-auto argument whose robust type admits it only
# there (WRITABLE_STRING_NULL, CSTRING_NULL, OPEN_FILE_NULL): three
# one-of-86 functions the generated calls rarely reach.
@example(
    case=(
        True,
        WrapperPolicy.ROBUST,
        "default",
        [
            ("strtok", [("pool", 0), ("pool", 4)], None),
            ("freopen", [("pool", 0), ("pool", 0), ("pool", 0)], None),
            ("fflush", [("pool", 0)], None),
        ],
    )
)
# Both sides of CHAR_RANGE's bounds, the only scalar range the
# catalog's declarations use.
@example(
    case=(
        False,
        WrapperPolicy.DEBUG,
        "default",
        [
            ("isalpha", [("edge", -129)], None),
            ("isdigit", [("edge", -128)], None),
            ("toupper", [("edge", 255)], None),
            ("tolower", [("edge", 256)], None),
        ],
    )
)
def test_compiled_wrapper_matches_reference(hardened86, case):
    semi_auto, policy, config_name, calls = case
    declarations = (
        hardened86.semi_auto_declarations if semi_auto else hardened86.declarations
    )
    config = CONFIGS[config_name]
    reference = ReferenceWrapper(declarations, policy, config)
    compiled = WrapperLibrary(declarations, policy, config)

    expected = _run(reference, _BASE.fork(), calls)
    actual = _run(compiled, _BASE.fork(), calls)

    assert actual == expected
    for counter in ("calls", "checks", "violations"):
        assert getattr(compiled.stats, counter) == getattr(
            reference.stats, counter
        ), counter
    assert compiled.state.log == reference.state.log
