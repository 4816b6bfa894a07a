"""Property-based tests (hypothesis) on the core data structures."""

from hypothesis import given, settings, strategies as st

from repro.cdecl import DeclarationParser, typedef_table
from repro.libc import BY_NAME, standard_runtime
from repro.memory import AddressSpace, Heap, Protection, SegmentationFault
from repro.sandbox import Sandbox
from repro.typelattice import Lattice, registry as R
from repro.typelattice.instances import TypeInstance, parse_rendered

# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


@given(st.binary(min_size=0, max_size=512))
def test_store_load_round_trip(payload):
    space = AddressSpace()
    region = space.map_region(max(len(payload), 1))
    space.store(region.base, payload)
    assert space.load(region.base, len(payload)) == payload


@given(st.binary(min_size=1, max_size=128), st.integers(min_value=1, max_value=64))
def test_any_access_beyond_region_faults(payload, overshoot):
    space = AddressSpace()
    region = space.alloc_bytes(payload)
    try:
        space.load(region.base, len(payload) + overshoot)
        assert False, "expected fault"
    except SegmentationFault as fault:
        assert fault.address == region.end


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_i64_round_trip_any_value(value):
    space = AddressSpace()
    region = space.map_region(8)
    space.store_i64(region.base, value)
    assert space.load_i64(region.base) == value


@given(st.lists(st.integers(min_value=0, max_value=256), min_size=1, max_size=30))
def test_heap_blocks_are_disjoint_and_tracked(sizes):
    heap = Heap(AddressSpace())
    pointers = [heap.malloc(size) for size in sizes]
    assert heap.live_block_count == len(sizes)
    for pointer, size in zip(pointers, sizes):
        block = heap.block_containing(pointer) if size else None
        if size:
            assert block is not None and block.size == size
    spans = sorted((r.base, r.end) for r in heap._blocks.values())
    for (_, prev_end), (next_base, _) in zip(spans, spans[1:]):
        assert prev_end <= next_base


@given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127),
               max_size=64))
def test_cstring_round_trip(text):
    space = AddressSpace()
    raw = text.encode()
    region = space.map_region(len(raw) + 1)
    space.write_cstring(region.base, raw)
    assert space.read_cstring(region.base) == raw


# ----------------------------------------------------------------------
# type lattice
# ----------------------------------------------------------------------

_SIZES = st.sets(st.integers(min_value=0, max_value=256), min_size=1, max_size=4)


@settings(max_examples=25, deadline=None)
@given(_SIZES)
def test_lattice_is_a_partial_order(sizes):
    lattice = Lattice.for_sizes(sizes)
    instances = lattice.instances
    sample = instances[:: max(1, len(instances) // 40)]
    for a in sample:
        assert lattice.is_subtype(a, a)
        for b in sample:
            if a != b and lattice.is_subtype(a, b):
                assert not lattice.is_subtype(b, a)


@settings(max_examples=25, deadline=None)
@given(_SIZES)
def test_fundamentals_have_no_subtypes(sizes):
    lattice = Lattice.for_sizes(sizes)
    for fundamental in lattice.fundamentals():
        assert not lattice.subtypes(fundamental)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1024), st.integers(min_value=0, max_value=1024))
def test_array_size_ordering(small, large):
    small, large = sorted((small, large))
    lattice = Lattice.for_sizes({small, large})
    assert lattice.is_subtype(R.R_ARRAY(large), R.R_ARRAY(small))
    assert lattice.is_subtype(R.RONLY_FIXED(large), R.R_ARRAY(small))
    if small != large:
        assert not lattice.is_subtype(R.R_ARRAY(small), R.R_ARRAY(large))


@given(st.sampled_from([
    "NULL", "UNCONSTRAINED", "R_ARRAY_NULL", "OPEN_FILE", "CSTRING",
]), st.one_of(st.none(), st.integers(min_value=0, max_value=99999)))
def test_type_instance_rendering_round_trip(name, param):
    instance = TypeInstance(name, param)
    parsed_name, parsed_param = parse_rendered(instance.render())
    assert (parsed_name, parsed_param) == (name, param)


# ----------------------------------------------------------------------
# the C prototype parser
# ----------------------------------------------------------------------

_SCALARS = st.sampled_from(
    ["int", "long", "unsigned int", "char", "double", "size_t", "time_t"]
)
_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)


@st.composite
def _prototypes(draw):
    return_type = draw(_SCALARS)
    name = draw(_NAMES)
    params = []
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        base = draw(_SCALARS)
        stars = "*" * draw(st.integers(min_value=0, max_value=2))
        const = "const " if stars and draw(st.booleans()) else ""
        params.append(f"{const}{base} {stars}p{index}")
    return f"{return_type} {name}({', '.join(params) or 'void'});"


@settings(max_examples=60, deadline=None)
@given(_prototypes())
def test_parser_render_parse_fixpoint(prototype_text):
    parser = DeclarationParser(typedef_table())
    first = parser.parse_prototype(prototype_text)
    second = parser.parse_prototype(first.render())
    assert first == second


# ----------------------------------------------------------------------
# libc models against Python reference semantics
# ----------------------------------------------------------------------

_SAFE_TEXT = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=32
)


@settings(max_examples=40, deadline=None)
@given(_SAFE_TEXT)
def test_strlen_matches_python(text):
    runtime = standard_runtime()
    region = runtime.space.alloc_cstring(text)
    out = Sandbox().call(BY_NAME["strlen"].model, (region.base,), runtime)
    assert out.return_value == len(text.encode())


@settings(max_examples=40, deadline=None)
@given(_SAFE_TEXT, _SAFE_TEXT)
def test_strcmp_sign_matches_python(a, b):
    runtime = standard_runtime()
    ra = runtime.space.alloc_cstring(a)
    rb = runtime.space.alloc_cstring(b)
    out = Sandbox().call(BY_NAME["strcmp"].model, (ra.base, rb.base), runtime)
    expected = (a.encode() > b.encode()) - (a.encode() < b.encode())
    assert out.return_value == expected


@settings(max_examples=40, deadline=None)
@given(_SAFE_TEXT, _SAFE_TEXT)
def test_strstr_matches_python_find(haystack, needle):
    runtime = standard_runtime()
    rh = runtime.space.alloc_cstring(haystack)
    rn = runtime.space.alloc_cstring(needle)
    out = Sandbox().call(BY_NAME["strstr"].model, (rh.base, rn.base), runtime)
    index = haystack.encode().find(needle.encode())
    expected = rh.base + index if index >= 0 else 0
    assert out.return_value == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_abs_matches_python(value):
    runtime = standard_runtime()
    out = Sandbox().call(BY_NAME["abs"].model, (value,), runtime)
    assert out.return_value == abs(value)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_atol_matches_python(value):
    runtime = standard_runtime()
    region = runtime.space.alloc_cstring(str(value))
    out = Sandbox().call(BY_NAME["atol"].model, (region.base,), runtime)
    assert out.return_value == value


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=0, max_size=20))
def test_qsort_sorts_any_int_array(values):
    runtime = standard_runtime()
    region = runtime.space.map_region(max(4 * len(values), 4))
    for index, value in enumerate(values):
        runtime.space.store_i32(region.base + 4 * index, value)

    def compare(ctx, a, b):
        left, right = ctx.mem.load_i32(a), ctx.mem.load_i32(b)
        return (left > right) - (left < right)

    pointer = runtime.register_funcptr(compare)
    out = Sandbox().call(
        BY_NAME["qsort"].model, (region.base, len(values), 4, pointer), runtime
    )
    assert out.returned
    result = [runtime.space.load_i32(region.base + 4 * i) for i in range(len(values))]
    assert result == sorted(values)
