"""Reference (unoptimized) kernel semantics.

:class:`repro.libc.kernel.Kernel` shares every filesystem node with
its forks and copies a node only on the first write to it.  That is
performance work only: it must be observationally identical to the
eager kernel this reproduction started with, whose fork deep-copies
the whole filesystem tree.  This module keeps that kernel so the
generated differential test (``test_kernel_differential.py``) can diff
the copy-on-write kernel against it.

Two deliberate departures from the original eager kernel:

* ``rename`` refuses the root with ``EBUSY`` (moving the root made it
  its own descendant, and the next fork recursed without end).
* ``fork`` clones the node graph once, memoized by node identity, and
  each descriptor follows its own node.  The original re-resolved each
  descriptor by a path to its node, which sent a descriptor on an
  entry named ``""`` to the parent directory, and gave two descriptors
  on one unlinked file separate copies.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Optional

from repro.libc.errno_codes import (
    EBADF,
    EBUSY,
    EINVAL,
    EISDIR,
    EMFILE,
    ENOENT,
    ENOSPC,
    ENOTDIR,
    ENOTTY,
    EROFS,
)
from repro.libc.kernel import (
    APPEND,
    CREATE,
    MAX_FDS,
    READ,
    TRUNC,
    WRITE,
    KernelError,
    StatResult,
    TermiosState,
)


@dataclass
class VNode:
    """One filesystem node (regular file or directory)."""

    name: str
    is_dir: bool = False
    data: bytearray = field(default_factory=bytearray)
    children: dict[str, "VNode"] = field(default_factory=dict)
    read_only: bool = False
    is_tty: bool = False
    inode: int = 0

    def clone(self, memo: dict[int, "VNode"]) -> "VNode":
        node = memo.get(id(self))
        if node is not None:
            return node
        node = memo[id(self)] = VNode(
            name=self.name,
            is_dir=self.is_dir,
            data=bytearray(self.data),
            read_only=self.read_only,
            is_tty=self.is_tty,
            inode=self.inode,
        )
        node.children = {k: v.clone(memo) for k, v in self.children.items()}
        return node


@dataclass
class OpenFile:
    """One open file description (what an fd points to)."""

    node: VNode
    flags: int
    offset: int = 0

    @property
    def readable(self) -> bool:
        return bool(self.flags & READ)

    @property
    def writable(self) -> bool:
        return bool(self.flags & WRITE)


class Kernel:
    """Filesystem + descriptor table + tty state, forked eagerly."""

    def __init__(self) -> None:
        self.root = VNode("/", is_dir=True, inode=1)
        self._next_inode = 2
        self.fds: dict[int, OpenFile] = {}
        self._next_fd = 3  # 0..2 reserved for std streams
        self.termios: dict[int, TermiosState] = {}
        self.environment: dict[bytes, bytes] = {}
        self.now: int = 1_023_456_789
        self.fd_budget: Optional[int] = None
        self.disk_budget: Optional[int] = None
        self._setup_std_streams()

    # -- construction helpers -------------------------------------------
    def _setup_std_streams(self) -> None:
        tty = self._create_node("/dev/tty", is_dir=False)
        tty.is_tty = True
        self.fds[0] = OpenFile(tty, READ)
        self.fds[1] = OpenFile(tty, WRITE)
        self.fds[2] = OpenFile(tty, WRITE)
        self.termios[0] = TermiosState()
        self.termios[1] = TermiosState()
        self.termios[2] = TermiosState()

    def _create_node(self, path: str, is_dir: bool) -> VNode:
        parent = self._walk(posixpath.dirname(path), create=True)
        name = posixpath.basename(path)
        node = VNode(name, is_dir=is_dir, inode=self._next_inode)
        self._next_inode += 1
        parent.children[name] = node
        return node

    def _walk(self, path: str, create: bool = False) -> VNode:
        node = self.root
        for part in [p for p in path.split("/") if p]:
            child = node.children.get(part)
            if child is None:
                if not create:
                    raise KernelError(ENOENT, f"no such path component {part!r}")
                child = VNode(part, is_dir=True, inode=self._next_inode)
                self._next_inode += 1
                node.children[part] = child
            node = child
        return node

    def add_file(self, path: str, data: bytes = b"", read_only: bool = False) -> VNode:
        node = self._create_node(path, is_dir=False)
        node.data = bytearray(data)
        node.read_only = read_only
        return node

    def add_directory(self, path: str) -> VNode:
        return self._walk(path, create=True)

    # -- path syscalls -----------------------------------------------------
    def lookup(self, path: str) -> VNode:
        if not path:
            raise KernelError(ENOENT, "empty path")
        return self._walk(path)

    def open(self, path: str, flags: int) -> int:
        if len(self.fds) >= MAX_FDS:
            raise KernelError(EMFILE)
        if self.fd_budget is not None and self.fd_budget <= 0:
            raise KernelError(EMFILE, "descriptor budget exhausted")
        try:
            node = self.lookup(path)
        except KernelError:
            if not (flags & CREATE):
                raise
            node = self.add_file(path)
        if node.is_dir and flags & WRITE:
            raise KernelError(EISDIR)
        if node.read_only and flags & WRITE:
            raise KernelError(EROFS)
        if flags & TRUNC and flags & WRITE:
            node.data = bytearray()
        fd = self._next_fd
        while fd in self.fds:
            fd += 1
        self._next_fd = fd + 1
        open_file = OpenFile(node, flags)
        if flags & APPEND:
            open_file.offset = len(node.data)
        self.fds[fd] = open_file
        if self.fd_budget is not None:
            self.fd_budget -= 1
        if node.is_tty:
            self.termios[fd] = TermiosState()
        return fd

    def unlink(self, path: str) -> None:
        node = self.lookup(path)
        if node.is_dir and node.children:
            raise KernelError(ENOTDIR, "directory not empty")
        parent = self._walk(posixpath.dirname(path))
        parent.children.pop(posixpath.basename(path), None)

    def rename(self, old: str, new: str) -> None:
        node = self.lookup(old)
        if node is self.root:
            raise KernelError(EBUSY, "cannot rename the root directory")
        old_parent = self._walk(posixpath.dirname(old))
        old_parent.children.pop(posixpath.basename(old), None)
        new_parent = self._walk(posixpath.dirname(new), create=True)
        node.name = posixpath.basename(new)
        new_parent.children[node.name] = node

    # -- descriptor syscalls -------------------------------------------------
    def _descriptor(self, fd: int) -> OpenFile:
        open_file = self.fds.get(fd)
        if open_file is None:
            raise KernelError(EBADF, f"bad file descriptor {fd}")
        return open_file

    def close(self, fd: int) -> None:
        self._descriptor(fd)
        del self.fds[fd]
        self.termios.pop(fd, None)

    def read(self, fd: int, count: int) -> bytes:
        open_file = self._descriptor(fd)
        if not open_file.readable:
            raise KernelError(EBADF, "fd not open for reading")
        data = bytes(open_file.node.data[open_file.offset : open_file.offset + count])
        open_file.offset += len(data)
        return data

    def write(self, fd: int, payload: bytes) -> int:
        open_file = self._descriptor(fd)
        if not open_file.writable:
            raise KernelError(EBADF, "fd not open for writing")
        node = open_file.node
        if node.is_tty:
            return len(payload)
        if self.disk_budget is not None:
            if self.disk_budget < len(payload):
                raise KernelError(ENOSPC, "disk budget exhausted")
            self.disk_budget -= len(payload)
        end = open_file.offset + len(payload)
        if len(node.data) < end:
            node.data.extend(b"\x00" * (end - len(node.data)))
        node.data[open_file.offset : end] = payload
        open_file.offset = end
        return len(payload)

    def seek(self, fd: int, offset: int, whence: int) -> int:
        open_file = self._descriptor(fd)
        if whence == 0:
            target = offset
        elif whence == 1:
            target = open_file.offset + offset
        elif whence == 2:
            target = len(open_file.node.data) + offset
        else:
            raise KernelError(EINVAL, f"bad whence {whence}")
        if target < 0:
            raise KernelError(EINVAL, "negative seek position")
        open_file.offset = target
        return target

    def fstat(self, fd: int) -> StatResult:
        node = self._descriptor(fd).node
        return StatResult(node.inode, len(node.data), node.is_dir, node.is_tty)

    def stat(self, path: str) -> StatResult:
        node = self.lookup(path)
        return StatResult(node.inode, len(node.data), node.is_dir, node.is_tty)

    def isatty(self, fd: int) -> bool:
        return self._descriptor(fd).node.is_tty

    def get_termios(self, fd: int) -> TermiosState:
        self._descriptor(fd)
        state = self.termios.get(fd)
        if state is None:
            raise KernelError(ENOTTY, "fd is not a terminal")
        return state

    def list_directory(self, path: str) -> list[str]:
        node = self.lookup(path)
        if not node.is_dir:
            raise KernelError(ENOTDIR, f"{path} is not a directory")
        return sorted(node.children)

    # -- process state ----------------------------------------------------------
    def getenv(self, name: bytes) -> Optional[bytes]:
        return self.environment.get(name)

    def setenv(self, name: bytes, value: bytes) -> None:
        self.environment[name] = value

    def fork(self) -> "Kernel":
        clone = Kernel.__new__(Kernel)
        memo: dict[int, VNode] = {}
        clone.root = self.root.clone(memo)
        clone._next_inode = self._next_inode
        clone._next_fd = self._next_fd
        clone.now = self.now
        clone.fd_budget = self.fd_budget
        clone.disk_budget = self.disk_budget
        clone.environment = dict(self.environment)
        clone.termios = {fd: TermiosState(**vars(st)) for fd, st in self.termios.items()}
        clone.fds = {
            fd: OpenFile(f.node.clone(memo), f.flags, f.offset) for fd, f in self.fds.items()
        }
        return clone
