"""Generated differential tests: the copy-on-write kernel against the
eager reference in ``kernel_reference.py``.

Inputs are op sequences over the kernel's filesystem, descriptor and
budget calls, with forks taken at random points.  A run starts from a
parent and one fork of it, and every op picks one of the live
processes, so parents and children keep diverging.
Paths come from a small alphabet that holds the empty path, the root,
trailing slashes, missing and nested paths.  After every op the value
returned (or the ``KernelError`` errno) must be equal, and so must
every process's observable state: each path's ``stat``, every node
reachable from the root with its bytes, and every descriptor's inode,
flags, offset and ``fstat``.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.libc.kernel import ROOT_INO, Kernel, KernelError
from tests import kernel_reference as reference

_PATHS = (
    "", "/", "//", "/tmp", "/tmp/", "/tmp/x", "/tmp/x/y", "/data/f", "/data/ro",
    "/dev/tty", "/missing/deep/z", "x",
)
#: Paths that name a node from the start, drawn half the time so that
#: opens, writes and reads of shared files are common.
_NODES = ("/", "/tmp", "/data/f", "/data/ro", "/dev/tty")
_PROCESS_LIMIT = 4
#: Paths deeper than this are cut from the reachable-node listing, so a
#: directory renamed under itself (``rename("/tmp/", "/tmp/x")``) lists
#: finitely.
_LIST_DEPTH = 4

_path = st.sampled_from(_NODES) | st.sampled_from(_PATHS)
_fd = st.integers(min_value=2, max_value=6)
_data = st.binary(max_size=6)
_budget = st.none() | st.integers(min_value=0, max_value=64)
_op = st.one_of(
    st.tuples(st.just("add_file"), st.tuples(_path, _data, st.booleans())),
    st.tuples(st.just("add_directory"), st.tuples(_path)),
    st.tuples(st.just("open"), st.tuples(_path, st.integers(min_value=0, max_value=31))),
    st.tuples(st.just("read"), st.tuples(_fd, st.integers(min_value=0, max_value=8))),
    st.tuples(st.just("write"), st.tuples(_fd, _data)),
    st.tuples(
        st.just("seek"),
        st.tuples(_fd, st.integers(min_value=-4, max_value=16), st.integers(0, 3)),
    ),
    st.tuples(st.just("close"), st.tuples(_fd)),
    st.tuples(st.just("unlink"), st.tuples(_path)),
    st.tuples(st.just("rename"), st.tuples(_path, _path)),
    st.tuples(st.just("list_directory"), st.tuples(_path)),
    st.tuples(st.just("lookup_write"), st.tuples(_path, _data)),
    st.tuples(st.just("budgets"), st.tuples(_budget, _budget)),
    st.tuples(st.just("fork"), st.just(())),
)
_steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=_PROCESS_LIMIT - 1), _op),
    min_size=10,
    max_size=50,
)


def _fresh(kernel_class):
    kernel = kernel_class()
    kernel.add_file("/data/f", b"0123456789")
    kernel.add_file("/data/ro", b"ro", read_only=True)
    kernel.add_directory("/tmp")
    return kernel


def _node(node) -> tuple:
    return (node.is_dir, bytes(node.data), node.read_only, node.is_tty)


def _call(kernel, name: str, args: tuple):
    try:
        if name == "budgets":
            kernel.fd_budget, kernel.disk_budget = args
            return None
        if name == "lookup_write":
            path, data = args
            kernel.lookup(path).data[:] = data
            return None
        value = getattr(kernel, name)(*args)
    except KernelError as err:
        return ("errno", err.errno)
    if name in ("add_file", "add_directory"):
        return _node(value)
    return value


def _stats(kernel) -> tuple:
    rows = []
    for path in _PATHS:
        try:
            rows.append(kernel.stat(path))
        except KernelError as err:
            rows.append(err.errno)
    for fd in sorted(kernel.fds):
        rows.append((fd, kernel.fstat(fd)))
    return tuple(rows)


def _observe(kernel: Kernel) -> tuple:
    def listing(ino, path, depth):
        node = kernel.inodes[ino]
        rows = [(path, ino, _node(node))]
        if depth:
            for name in sorted(node.entries):
                rows += listing(node.entries[name], f"{path}/{name}", depth - 1)
        return rows

    fds = tuple((fd, f.ino, f.flags, f.offset) for fd, f in sorted(kernel.fds.items()))
    termios = tuple((fd, vars(state)) for fd, state in sorted(kernel.termios.items()))
    return (
        tuple(listing(ROOT_INO, "", _LIST_DEPTH)), fds, termios, _stats(kernel),
        kernel.fd_budget, kernel.disk_budget, kernel.environment,
    )


def _observe_reference(kernel: reference.Kernel) -> tuple:
    def listing(node, path, depth):
        rows = [(path, node.inode, _node(node))]
        if depth:
            for name in sorted(node.children):
                rows += listing(node.children[name], f"{path}/{name}", depth - 1)
        return rows

    fds = tuple(
        (fd, f.node.inode, f.flags, f.offset) for fd, f in sorted(kernel.fds.items())
    )
    termios = tuple((fd, vars(state)) for fd, state in sorted(kernel.termios.items()))
    return (
        tuple(listing(kernel.root, "", _LIST_DEPTH)), fds, termios, _stats(kernel),
        kernel.fd_budget, kernel.disk_budget, kernel.environment,
    )


# Processes 0 and 1 exist from the start; 2 is the first fork a run takes.
@settings(max_examples=300, deadline=None)
@given(_steps)
@example([(0, ("rename", ("", "/tmp/x")))])
@example([(0, ("rename", ("/", "/tmp/x"))), (0, ("fork", ()))])
@example([
    (0, ("rename", ("/tmp/", "/tmp/x"))), (0, ("fork", ())),
    (2, ("add_file", ("/tmp/x/x/a", b"a", False))),
])
@example([
    (0, ("open", ("/data/f", 3))), (0, ("open", ("/data/f", 1))), (0, ("unlink", ("/data/f",))),
    (0, ("fork", ())), (2, ("write", (3, b"ab"))), (2, ("read", (4, 4))), (0, ("read", (4, 4))),
])
@example([(0, ("open", ("", 0x1A))), (0, ("fork", ())), (2, ("write", (3, b"z")))])
def test_kernel_matches_reference(steps):
    kernel, ref = _fresh(Kernel), _fresh(reference.Kernel)
    processes = [(kernel, ref), (kernel.fork(), ref.fork())]
    for index, (name, args) in steps:
        kernel, ref = processes[index % len(processes)]
        if name == "fork":
            if len(processes) < _PROCESS_LIMIT:
                processes.append((kernel.fork(), ref.fork()))
            continue
        assert _call(kernel, name, args) == _call(ref, name, args), (name, args)
        for each, each_ref in processes:
            assert _observe(each) == _observe_reference(each_ref), (name, args)

