"""errno codes used by the simulated C library.

Values match Linux/x86 so that logs read naturally next to the paper.
"""

from __future__ import annotations

EPERM = 1
ENOENT = 2
EINTR = 4
EIO = 5
EBADF = 9
ENOMEM = 12
EACCES = 13
EFAULT = 14
EBUSY = 16
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
EMFILE = 24
ENOSPC = 28
ESPIPE = 29
EROFS = 30
EDOM = 33
ERANGE = 34
ENOTTY = 25
EOVERFLOW = 75

#: Human readable names, for declaration XML and reports.
ERRNO_NAMES = {
    EPERM: "EPERM",
    ENOENT: "ENOENT",
    EINTR: "EINTR",
    EIO: "EIO",
    EBADF: "EBADF",
    ENOMEM: "ENOMEM",
    EACCES: "EACCES",
    EFAULT: "EFAULT",
    EBUSY: "EBUSY",
    ENOTDIR: "ENOTDIR",
    EISDIR: "EISDIR",
    EINVAL: "EINVAL",
    EMFILE: "EMFILE",
    ENOSPC: "ENOSPC",
    ESPIPE: "ESPIPE",
    EROFS: "EROFS",
    EDOM: "EDOM",
    ERANGE: "ERANGE",
    ENOTTY: "ENOTTY",
    EOVERFLOW: "EOVERFLOW",
}


def errno_name(code: int) -> str:
    return ERRNO_NAMES.get(code, str(code))
