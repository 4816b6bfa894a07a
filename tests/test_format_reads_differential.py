"""Generated differential tests: bulk format, mode-string and array reads
against the per-byte reference in ``libc_reference.py``.

``common.read_until`` is compared with a ``read_byte`` loop on
generated layouts: strings that end at a region end, in a guard gap or
run on into an adjacent mapping; PROT_NONE, write-only, freed, NULL and
wild addresses; step budgets that trip mid-run.  The strftime, fprintf,
fscanf, fopen, freopen and qsort models are compared with their
per-byte forms on generated formats, mode strings and arrays, among
them a ``%n`` that stores into the format itself, a qsort array that
straddles two adjacent regions, and calls under an armed simulated
signal.  Results must be equal: status, return value, errno, step
count, fault address and reason, memory, kernel state.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.libc import common, fileio, stdlib_fns, timefns
from repro.libc.errno_codes import EINTR
from repro.libc.kernel import CREATE, READ, ROOT_INO, TRUNC, WRITE
from repro.libc.runtime import LibcRuntime, TM_SIZE
from repro.memory import INVALID_POINTER, NULL, Protection, SegmentationFault
from repro.sandbox import Sandbox
from repro.sandbox.context import CallContext, Hang, InterruptibleContext, InterruptPlan
from tests import libc_reference

FULL_BUDGET = 1_000_000

_PROTS = {
    "rw": Protection.RW,
    "ro": Protection.READ,
    "wo": Protection.WRITE,
    "none": Protection.NONE,
}

budgets = st.one_of(st.integers(0, 120), st.just(FULL_BUDGET))


def _alphabet(symbols: bytes, max_size: int = 24):
    return st.binary(max_size=max_size).map(
        lambda raw: bytes(symbols[b % len(symbols)] for b in raw)
    )


def _map_adjacent(runtime: LibcRuntime, previous, payload: bytes):
    """Map ``payload`` starting exactly at ``previous.end``: no guard gap,
    so a scan or an element can run from one mapping into the next."""
    space = runtime.space
    region = space.map_region(len(payload))
    index = space._regions.index(region)
    region.base = previous.end
    space._bases[index] = region.base
    if payload:
        region.poke(region.base, payload)
    return region


# ----------------------------------------------------------------------
# the span reader against a read_byte loop
# ----------------------------------------------------------------------

region_specs = st.lists(
    st.tuples(
        _alphabet(b"AAAAAA%+\x00\xa5"),
        st.sampled_from(["rw", "rw", "ro", "wo", "none"]),
        st.sampled_from([False, False, False, True]),  # freed
        st.booleans(),  # adjacent to the previous region
    ),
    min_size=1,
    max_size=4,
)


def _layout(specs) -> tuple[LibcRuntime, list]:
    runtime = LibcRuntime()
    regions = []
    for content, prot, freed, adjacent in specs:
        if adjacent and regions and regions[-1].size:
            region = _map_adjacent(runtime, regions[-1], content)
        else:
            region = runtime.space.alloc_bytes(content)
        region.prot = _PROTS[prot]
        region.freed = freed
        regions.append(region)
    return runtime, regions


def _read(reader, runtime: LibcRuntime, address: int, stop: int, budget: int, signal=None):
    target = runtime.fork()
    if signal is None:
        ctx = CallContext(target, budget)
    else:
        # The handler rewrites one byte of the layout, protection or not.
        offset, poke_at, value = signal

        def fire(ctx) -> None:
            region = ctx.mem.region_at(poke_at)
            if region is not None:
                region.poke(poke_at, bytes((value,)))

        ctx = InterruptibleContext(target, budget, InterruptPlan(offset, fire))
    try:
        result = ("ok",) + reader(ctx, address, stop)
    except SegmentationFault as fault:
        result = ("fault", fault.address, fault.access, fault.reason)
    except Hang as hang:
        result = ("hang", str(hang))
    return result, ctx.steps


picks = st.tuples(st.integers(-2, 3), st.integers(0, 26))


def _address(regions, pick) -> int:
    index, offset = pick
    if index == -2:
        return NULL
    if index == -1:
        return INVALID_POINTER
    region = regions[index % len(regions)]
    return region.base + min(offset, region.size + 1)


@settings(max_examples=300, deadline=None)
@given(
    specs=region_specs,
    pick=picks,
    stop=st.sampled_from([ord("%"), ord("+"), 0xA5]),
    budget=budgets,
)
def test_read_until_matches_byte_loop(specs, pick, stop, budget):
    runtime, regions = _layout(specs)
    address = _address(regions, pick)
    fast = _read(common.read_until, runtime, address, stop, budget)
    slow = _read(libc_reference.read_until, runtime, address, stop, budget)
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(
    content=_alphabet(b"AAAAA%", max_size=16),
    terminated=st.booleans(),
    offset=st.integers(1, 18),
    distance=st.integers(0, 18),
    value=st.sampled_from([0, ord("%"), ord("B")]),
    budget=budgets,
)
def test_read_until_under_a_signal(content, terminated, offset, distance, value, budget):
    # The handler rewrites a byte of the string: a byte the per-byte
    # loop reads after the signal must be read after it here too.
    payload = content + b"\x00" if terminated else content
    runtime, regions = _layout([(payload, "rw", False, False)])
    address = regions[0].base
    signal = (offset, address + distance, value)
    fast = _read(common.read_until, runtime, address, ord("%"), budget, signal)
    slow = _read(libc_reference.read_until, runtime, address, ord("%"), budget, signal)
    assert fast == slow


# ----------------------------------------------------------------------
# the models against their per-byte forms
# ----------------------------------------------------------------------

PLACEMENTS = ("term", "end", "adjacent", "ro", "wo", "none", "freed", "null", "wild")


def _place(runtime: LibcRuntime, content: bytes, placement: str) -> int:
    """Put a string where ``placement`` says; return its address."""
    space = runtime.space
    if placement == "null":
        return NULL
    if placement == "wild":
        return INVALID_POINTER
    if placement == "end":  # unterminated: runs into the guard gap
        return space.alloc_bytes(content or b"A").base
    if placement == "adjacent":  # runs on into the next mapping
        split = len(content) // 2
        first = space.alloc_bytes(content[:split] or b"A")
        _map_adjacent(runtime, first, content[split:] + b"\x00")
        return first.base
    region = space.alloc_cstring(content)
    if placement == "freed":
        region.freed = True
    elif placement != "term":
        region.prot = _PROTS[placement]
    return region.base


def _open_file(runtime: LibcRuntime, path: str, flags: int, data: bytes = b"") -> int:
    if data:
        runtime.kernel.add_file(path, data)
    fd = runtime.kernel.open(path, flags)
    return fileio.alloc_file(CallContext(runtime), fd, bool(flags & READ), bool(flags & WRITE))


def _snapshot(runtime: LibcRuntime):
    regions = tuple(
        (region.base, region.size, region.prot.value, region.freed, bytes(region.data))
        for region in runtime.space.regions()
    )
    files = []
    kernel = runtime.kernel

    def visit(ino, name, prefix):
        node = kernel.inodes[ino]
        files.append((prefix + name, node.is_dir, bytes(node.data)))
        for child in sorted(node.entries):
            visit(node.entries[child], child, prefix + name + "/")

    visit(ROOT_INO, "/", "")
    fds = tuple(
        (fd, handle.ino, handle.flags, handle.offset)
        for fd, handle in sorted(kernel.fds.items())
    )
    return regions, tuple(files), fds, runtime.errno


def _outcome_key(outcome):
    fault = outcome.fault
    return (
        outcome.status.name,
        outcome.return_value,
        outcome.errno,
        outcome.steps,
        None if fault is None else (fault.address, fault.access.name, fault.reason),
        outcome.detail,
    )


signals = st.one_of(
    st.none(),
    st.tuples(st.integers(1, 80), st.sampled_from(["clobber", "reenter"])),
)


def _arm(runtime: LibcRuntime, model, args, signal) -> None:
    if signal is None:
        return
    offset, behaviour = signal
    if behaviour == "clobber":

        def fire(ctx) -> None:
            ctx.runtime.errno = EINTR

    else:

        def fire(ctx) -> None:
            model(ctx, *args)

    runtime.pending_interrupt = InterruptPlan(offset, fire)


def _compare(name: str, base: LibcRuntime, args, budget: int, signal) -> None:
    fast_model = {
        "strftime": timefns.libc_strftime,
        "fopen": fileio.libc_fopen,
        "freopen": fileio.libc_freopen,
        "fprintf": fileio.libc_fprintf,
        "fscanf": fileio.libc_fscanf,
        "qsort": stdlib_fns.libc_qsort,
    }[name]
    reference = libc_reference.REFERENCE_MODELS[name]
    results = []
    for model in (fast_model, reference):
        runtime = base.fork()
        _arm(runtime, model, args, signal)
        outcome = Sandbox(step_budget=budget).call(model, args, runtime)
        results.append((_outcome_key(outcome), _snapshot(runtime)))
    assert results[0] == results[1]


placements = st.sampled_from(PLACEMENTS)


@settings(max_examples=150, deadline=None)
@given(
    fmt=_alphabet(b"AAY%%mdHSabq\x00"),
    placement=placements,
    tm_size=st.sampled_from([TM_SIZE, TM_SIZE, 40]),
    fields=st.binary(min_size=TM_SIZE, max_size=TM_SIZE),
    out_size=st.integers(0, 48),
    maxsize=st.integers(0, 64),
    budget=budgets,
    signal=signals,
)
def test_strftime(fmt, placement, tm_size, fields, out_size, maxsize, budget, signal):
    base = LibcRuntime()
    tm = base.space.alloc_bytes(fields[:tm_size]).base
    out = base.space.map_region(out_size).base
    args = [out, maxsize, _place(base, fmt, placement), tm]
    _compare("strftime", base, args, budget, signal)


# A re-entering handler stores through %n into the part of the format
# the interrupted call has not read yet.
@example(
    fmt=b"AAAAAAAA%n", placement="term", picks=[(0, 4)], budget=FULL_BUDGET,
    signal=(2, "reenter"),
)
@settings(max_examples=150, deadline=None)
@given(
    fmt=_alphabet(b"AA%%%sdnuxc19\x00"),
    placement=placements,
    picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 26)), max_size=4),
    budget=budgets,
    signal=signals,
)
def test_fprintf(fmt, placement, picks, budget, signal):
    base = LibcRuntime()
    fp = _open_file(base, "/tmp/out", WRITE | CREATE | TRUNC)
    address = _place(base, fmt, placement)
    text = base.space.alloc_cstring(b"text").base
    args = [fp, address]
    for kind, offset in picks:
        # kind 0 aims into the format itself: %n stores into it and
        # the bytes after the store are read back as format.
        args.append(
            [address + offset, text, NULL, INVALID_POINTER, 7, -1][kind]
        )
    _compare("fprintf", base, args, budget, signal)


@settings(max_examples=150, deadline=None)
@given(
    fmt=_alphabet(b"AA %%%dsx\x00"),
    placement=placements,
    data=_alphabet(b"12 ab\n%", max_size=16),
    picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 26)), max_size=3),
    budget=budgets,
    signal=signals,
)
def test_fscanf(fmt, placement, data, picks, budget, signal):
    base = LibcRuntime()
    fp = _open_file(base, "/tmp/in", READ, data or b"\n")
    address = _place(base, fmt, placement)
    buffer = base.space.map_region(16).base
    args = [fp, address]
    for kind, offset in picks:
        args.append([address + offset, buffer, NULL, INVALID_POINTER][kind])
    _compare("fscanf", base, args, budget, signal)


@settings(max_examples=150, deadline=None)
@given(
    mode=_alphabet(b"rwa++bx\x00", max_size=8),
    placement=placements,
    reopen=st.booleans(),
    null_path=st.booleans(),
    budget=budgets,
    signal=signals,
)
def test_fopen_and_freopen(mode, placement, reopen, null_path, budget, signal):
    base = LibcRuntime()
    path = base.space.alloc_cstring(b"/tmp/file").base
    address = _place(base, mode, placement)
    if reopen:
        fp = _open_file(base, "/tmp/old", WRITE | CREATE | TRUNC)
        args = [NULL if null_path else path, address, fp]
        _compare("freopen", base, args, budget, signal)
    else:
        _compare("fopen", base, [path, address], budget, signal)


@settings(max_examples=300, deadline=None)
@given(
    content=st.lists(st.integers(1, 255), min_size=1, max_size=40).map(bytes),
    layout=st.sampled_from(["one", "one", "straddle", "ro", "none", "freed", "null"]),
    split=st.integers(0, 40),
    offset=st.integers(0, 6),
    extra=st.sampled_from([-3, -2, -1, -1, 0, 1, 2, 2**31]),
    size=st.sampled_from([0, 1, 1, 2, 3, 4, 4, 8]),
    compar=st.sampled_from(["valid", "valid", "null"]),
    budget=budgets,
    signal=signals,
)
def test_qsort(content, layout, split, offset, extra, size, compar, budget, signal):
    base = LibcRuntime()

    def compare_bytes(ctx, a: int, b: int) -> int:
        left = ctx.mem.load(a, 1)[0]
        right = ctx.mem.load(b, 1)[0]
        return (left > right) - (left < right)

    comparator = base.register_funcptr(compare_bytes) if compar == "valid" else NULL
    room = 0
    if layout == "null":
        array = NULL
    elif layout == "straddle":
        cut = min(split, len(content)) or 1
        first = base.space.alloc_bytes((content or b"\x01")[:cut])
        _map_adjacent(base, first, content[cut:])
        array = first.base + min(offset, first.size - 1)
        room = first.end - array
    else:
        region = base.space.alloc_bytes(content or b"\x01")
        if layout == "freed":
            region.freed = True
        elif layout != "one":
            region.prot = _PROTS[layout]
        array = region.base + min(offset, region.size)
        room = region.end - array
    # nmemb around the number of elements the first region holds:
    # fewer, exactly, more, or absurdly many.
    nmemb = extra if extra > 2 else max(0, room // max(size, 1) + extra)
    _compare("qsort", base, [array, nmemb, size, comparator], budget, signal)
