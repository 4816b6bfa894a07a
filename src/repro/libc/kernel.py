"""Simulated kernel: filesystem, file descriptors, terminal state.

The C library models sit on top of this the way glibc sits on Linux
syscalls.  The kernel is *robust* — syscalls validate descriptors and
paths and fail with error codes.  In the paper's world the robustness
problems live in the C library, which trusts its own in-memory
structures (FILE buffers, DIR streams); the kernel interface never
crashes the process.
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


class KernelError(Exception):
    """A failed syscall; carries the errno the caller should set."""

    def __init__(self, errno: int, detail: str = "") -> None:
        self.errno = errno
        super().__init__(detail or f"syscall failed with errno {errno}")


@dataclass(slots=True)
class VNode:
    """One filesystem node (regular file or directory); ``entries`` maps
    names to inode numbers in :attr:`Kernel.inodes`."""

    is_dir: bool = False
    data: bytearray = field(default_factory=bytearray)
    entries: dict[str, int] = field(default_factory=dict)
    read_only: bool = False
    is_tty: bool = False


# open-mode flags (subset of O_RDONLY/O_WRONLY/O_RDWR semantics)
READ = 0x1
WRITE = 0x2
APPEND = 0x4
TRUNC = 0x8
CREATE = 0x10


@dataclass
class OpenFile:
    """One open file description (what an fd points to)."""

    ino: int
    flags: int
    offset: int = 0

    @property
    def readable(self) -> bool:
        return bool(self.flags & READ)

    @property
    def writable(self) -> bool:
        return bool(self.flags & WRITE)


@dataclass
class TermiosState:
    """Per-tty terminal settings (enough for the termios models)."""

    input_speed: int = 38400
    output_speed: int = 38400
    control_flags: int = 0o2277
    local_flags: int = 0o105073


@dataclass
class StatResult:
    """The subset of ``struct stat`` the wrapper's fstat check uses."""

    inode: int
    size: int
    is_dir: bool
    is_tty: bool


MAX_FDS = 256
ROOT_INO = 1


class Kernel:
    """Filesystem + descriptor table + tty state.

    The filesystem is an inode table.  :meth:`fork` copies the table
    and shares every node with the child; ``_owned`` holds the inodes
    this kernel may mutate in place, and every mutation goes through
    :meth:`_own`, which copies a shared node on its first write.
    """

    def __init__(self) -> None:
        self.inodes: dict[int, VNode] = {ROOT_INO: VNode(is_dir=True)}
        self._owned: set[int] = {ROOT_INO}
        self._next_inode = ROOT_INO + 1
        self.fds: dict[int, OpenFile] = {}
        self._next_fd = 3  # 0..2 reserved for std streams
        self.termios: dict[int, TermiosState] = {}
        self.environment: dict[bytes, bytes] = {}
        self.now: int = 1_023_456_789  # deterministic "current time"
        #: Resource-exhaustion budgets (see repro.faults.resource).
        #: None means unlimited.  ``fd_budget`` bounds further
        #: successful opens (0 = descriptor table "full", EMFILE);
        #: ``disk_budget`` bounds further bytes written to regular
        #: files (0 = disk full, ENOSPC).  Budgets model the process
        #: environment, not the filesystem contents, so they are
        #: deliberately invisible to stat/read.
        self.fd_budget: Optional[int] = None
        self.disk_budget: Optional[int] = None
        self._setup_std_streams()

    # -- construction helpers -------------------------------------------
    def _setup_std_streams(self) -> None:
        tty = self._create_file("/dev/tty")
        self.inodes[tty].is_tty = True
        self.fds[0] = OpenFile(tty, READ)
        self.fds[1] = OpenFile(tty, WRITE)
        self.fds[2] = OpenFile(tty, WRITE)
        self.termios[0] = TermiosState()
        self.termios[1] = TermiosState()
        self.termios[2] = TermiosState()

    def _own(self, ino: int) -> VNode:
        """The node at ``ino``, private to this kernel: a node still
        shared with a fork is copied once (bytes and entries)."""
        node = self.inodes[ino]
        if ino not in self._owned:
            node = self.inodes[ino] = VNode(
                node.is_dir, bytearray(node.data), dict(node.entries), node.read_only,
                node.is_tty,
            )
            self._owned.add(ino)
        return node

    def _new_node(self, parent: int, name: str, is_dir: bool) -> int:
        ino = self._next_inode
        self._next_inode += 1
        self.inodes[ino] = VNode(is_dir=is_dir)
        self._owned.add(ino)
        self._own(parent).entries[name] = ino
        return ino

    def _create_file(self, path: str) -> int:
        parent = self._walk(posixpath.dirname(path), create=True)
        return self._new_node(parent, posixpath.basename(path), is_dir=False)

    def _walk(self, path: str, create: bool = False) -> int:
        """Resolve ``path`` to an inode number.  Copies nothing unless
        ``create`` adds a missing directory."""
        ino = ROOT_INO
        for part in path.split("/"):
            if not part:
                continue
            child = self.inodes[ino].entries.get(part)
            if child is None:
                if not create:
                    raise KernelError(ENOENT, f"no such path component {part!r}")
                child = self._new_node(ino, part, is_dir=True)
            ino = child
        return ino

    def _resolve(self, path: str) -> int:
        if not path:
            raise KernelError(ENOENT, "empty path")
        return self._walk(path)

    def add_file(self, path: str, data: bytes = b"", read_only: bool = False) -> VNode:
        """Populate the filesystem (used by the standard runtime)."""
        node = self.inodes[self._create_file(path)]
        node.data = bytearray(data)
        node.read_only = read_only
        return node

    def add_directory(self, path: str) -> VNode:
        return self._own(self._walk(path, create=True))

    # -- path syscalls -----------------------------------------------------
    def lookup(self, path: str) -> VNode:
        """The node at ``path``, owned by this kernel: the caller may
        mutate it without touching a fork."""
        return self._own(self._resolve(path))

    def open(self, path: str, flags: int) -> int:
        if len(self.fds) >= MAX_FDS:
            raise KernelError(EMFILE)
        if self.fd_budget is not None and self.fd_budget <= 0:
            raise KernelError(EMFILE, "descriptor budget exhausted")
        try:
            ino = self._resolve(path)
        except KernelError:
            if not (flags & CREATE):
                raise
            ino = self._create_file(path)
        node = self.inodes[ino]
        if node.is_dir and flags & WRITE:
            raise KernelError(EISDIR)
        if node.read_only and flags & WRITE:
            raise KernelError(EROFS)
        if flags & TRUNC and flags & WRITE:
            node = self._own(ino)
            node.data = bytearray()
        fd = self._next_fd
        while fd in self.fds:
            fd += 1
        self._next_fd = fd + 1
        open_file = OpenFile(ino, flags)
        if flags & APPEND:
            open_file.offset = len(node.data)
        self.fds[fd] = open_file
        if self.fd_budget is not None:
            self.fd_budget -= 1
        if node.is_tty:
            self.termios[fd] = TermiosState()
        return fd

    def unlink(self, path: str) -> None:
        node = self.inodes[self._resolve(path)]
        if node.is_dir and node.entries:
            raise KernelError(ENOTDIR, "directory not empty")
        parent = self._own(self._walk(posixpath.dirname(path)))
        parent.entries.pop(posixpath.basename(path), None)

    def rename(self, old: str, new: str) -> None:
        ino = self._resolve(old)
        if ino == ROOT_INO:
            raise KernelError(EBUSY, "cannot rename the root directory")
        old_parent = self._own(self._walk(posixpath.dirname(old)))
        old_parent.entries.pop(posixpath.basename(old), None)
        new_parent = self._own(self._walk(posixpath.dirname(new), create=True))
        new_parent.entries[posixpath.basename(new)] = ino

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
        start = open_file.offset
        data = bytes(self.inodes[open_file.ino].data[start : start + count])
        open_file.offset += len(data)
        return data

    def write(self, fd: int, payload: bytes) -> int:
        open_file = self._descriptor(fd)
        if not open_file.writable:
            raise KernelError(EBADF, "fd not open for writing")
        if self.inodes[open_file.ino].is_tty:
            return len(payload)  # tty output is discarded
        if self.disk_budget is not None:
            if self.disk_budget < len(payload):
                raise KernelError(ENOSPC, "disk budget exhausted")
            self.disk_budget -= len(payload)
        node = self._own(open_file.ino)
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
            target = len(self.inodes[open_file.ino].data) + offset
        else:
            raise KernelError(EINVAL, f"bad whence {whence}")
        if target < 0:
            raise KernelError(EINVAL, "negative seek position")
        open_file.offset = target
        return target

    def _stat(self, ino: int) -> StatResult:
        node = self.inodes[ino]
        return StatResult(ino, len(node.data), node.is_dir, node.is_tty)

    def fstat(self, fd: int) -> StatResult:
        return self._stat(self._descriptor(fd).ino)

    def stat(self, path: str) -> StatResult:
        return self._stat(self._resolve(path))

    def isatty(self, fd: int) -> bool:
        return self.inodes[self._descriptor(fd).ino].is_tty

    def get_termios(self, fd: int) -> TermiosState:
        self._descriptor(fd)
        state = self.termios.get(fd)
        if state is None:
            raise KernelError(ENOTTY, "fd is not a terminal")
        return state

    def fd_mode(self, fd: int) -> Optional[tuple[bool, bool]]:
        """(readable, writable) for a live fd, else None.  Used by the
        wrapper's descriptor checks — equivalent to an fstat probe."""
        open_file = self.fds.get(fd)
        if open_file is None:
            return None
        return open_file.readable, open_file.writable

    def list_directory(self, path: str) -> list[str]:
        node = self.inodes[self._resolve(path)]
        if not node.is_dir:
            raise KernelError(ENOTDIR, f"{path} is not a directory")
        return sorted(node.entries)

    # -- process state ----------------------------------------------------------
    def getenv(self, name: bytes) -> Optional[bytes]:
        return self.environment.get(name)

    def setenv(self, name: bytes, value: bytes) -> None:
        self.environment[name] = value

    def fork(self) -> "Kernel":
        """Child-process copy in O(descriptors): parent and child share
        every node until one of them writes it."""
        clone = Kernel.__new__(Kernel)
        clone.inodes = dict(self.inodes)
        clone._owned = set()
        self._owned = set()
        clone._next_inode = self._next_inode
        clone._next_fd = self._next_fd
        clone.now = self.now
        clone.fd_budget = self.fd_budget
        clone.disk_budget = self.disk_budget
        clone.environment = dict(self.environment)
        clone.termios = {fd: TermiosState(**vars(st)) for fd, st in self.termios.items()}
        clone.fds = {fd: OpenFile(f.ino, f.flags, f.offset) for fd, f in self.fds.items()}
        return clone
