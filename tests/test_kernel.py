"""Unit tests for the simulated kernel."""

import pytest

from repro.libc.kernel import (
    APPEND,
    CREATE,
    Kernel,
    KernelError,
    READ,
    TRUNC,
    WRITE,
)
from repro.libc.errno_codes import EBADF, EBUSY, EINVAL, ENOENT, ENOTTY, EROFS


@pytest.fixture()
def kernel():
    k = Kernel()
    k.add_file("/data/file.txt", b"0123456789")
    k.add_file("/data/ro.txt", b"readonly", read_only=True)
    k.add_directory("/data/sub")
    return k


class TestFilesystem:
    def test_lookup_and_stat(self, kernel):
        node = kernel.lookup("/data/file.txt")
        assert node.data == bytearray(b"0123456789")
        stat = kernel.stat("/data/file.txt")
        assert stat.size == 10 and not stat.is_dir

    def test_missing_path(self, kernel):
        with pytest.raises(KernelError) as exc:
            kernel.lookup("/nope")
        assert exc.value.errno == ENOENT

    def test_list_directory_sorted(self, kernel):
        assert kernel.list_directory("/data") == ["file.txt", "ro.txt", "sub"]

    def test_unlink_and_rename(self, kernel):
        kernel.rename("/data/file.txt", "/data/renamed.txt")
        assert "renamed.txt" in kernel.list_directory("/data")
        kernel.unlink("/data/renamed.txt")
        with pytest.raises(KernelError):
            kernel.lookup("/data/renamed.txt")

    def test_rename_refuses_the_root(self, kernel):
        # The root moved under itself would make the filesystem a cycle.
        with pytest.raises(KernelError) as exc:
            kernel.rename("/", "/data/x")
        assert exc.value.errno == EBUSY
        assert kernel.fork().list_directory("/") == ["data", "dev"]


class TestDescriptors:
    def test_open_read_write_seek(self, kernel):
        fd = kernel.open("/data/file.txt", READ)
        assert kernel.read(fd, 4) == b"0123"
        assert kernel.read(fd, 4) == b"4567"
        kernel.seek(fd, 0, 0)
        assert kernel.read(fd, 2) == b"01"
        kernel.close(fd)

    def test_write_extends_file(self, kernel):
        fd = kernel.open("/data/file.txt", WRITE)
        kernel.seek(fd, 0, 2)
        kernel.write(fd, b"ab")
        assert kernel.lookup("/data/file.txt").data == bytearray(b"0123456789ab")

    def test_create_and_truncate(self, kernel):
        fd = kernel.open("/data/new.txt", WRITE | CREATE | TRUNC)
        kernel.write(fd, b"xyz")
        fd2 = kernel.open("/data/new.txt", WRITE | CREATE | TRUNC)
        assert kernel.lookup("/data/new.txt").data == bytearray()
        kernel.close(fd)
        kernel.close(fd2)

    def test_append_mode(self, kernel):
        fd = kernel.open("/data/file.txt", WRITE | APPEND)
        kernel.write(fd, b"!")
        assert kernel.lookup("/data/file.txt").data.endswith(b"!")

    def test_read_only_filesystem_flag(self, kernel):
        with pytest.raises(KernelError) as exc:
            kernel.open("/data/ro.txt", WRITE)
        assert exc.value.errno == EROFS

    def test_bad_descriptor(self, kernel):
        with pytest.raises(KernelError) as exc:
            kernel.read(99, 1)
        assert exc.value.errno == EBADF
        assert kernel.fd_mode(99) is None

    def test_mode_enforcement(self, kernel):
        fd = kernel.open("/data/file.txt", READ)
        with pytest.raises(KernelError):
            kernel.write(fd, b"x")
        assert kernel.fd_mode(fd) == (True, False)

    def test_close_releases_fd(self, kernel):
        fd = kernel.open("/data/file.txt", READ)
        kernel.close(fd)
        with pytest.raises(KernelError):
            kernel.close(fd)

    def test_seek_validation(self, kernel):
        fd = kernel.open("/data/file.txt", READ)
        with pytest.raises(KernelError) as exc:
            kernel.seek(fd, 0, 9)
        assert exc.value.errno == EINVAL
        with pytest.raises(KernelError):
            kernel.seek(fd, -5, 0)


class TestTty:
    def test_std_streams_are_ttys(self, kernel):
        assert kernel.isatty(0) and kernel.isatty(1) and kernel.isatty(2)

    def test_termios_on_regular_file(self, kernel):
        fd = kernel.open("/data/file.txt", READ)
        with pytest.raises(KernelError) as exc:
            kernel.get_termios(fd)
        assert exc.value.errno == ENOTTY

    def test_tty_writes_are_discarded(self, kernel):
        assert kernel.write(1, b"console output") == 14


class TestEnvironmentAndFork:
    def test_env_round_trip(self, kernel):
        kernel.setenv(b"KEY", b"VALUE")
        assert kernel.getenv(b"KEY") == b"VALUE"
        assert kernel.getenv(b"MISSING") is None

    def test_fork_isolates_filesystem(self, kernel):
        clone = kernel.fork()
        clone.lookup("/data/file.txt").data[:] = b"mutated"
        assert kernel.lookup("/data/file.txt").data == bytearray(b"0123456789")

    def test_fork_preserves_descriptors_with_offsets(self, kernel):
        fd = kernel.open("/data/file.txt", READ)
        kernel.read(fd, 4)
        clone = kernel.fork()
        assert clone.read(fd, 2) == b"45"
        assert kernel.read(fd, 2) == b"45"  # independent offsets

    def test_fork_preserves_termios(self, kernel):
        kernel.get_termios(0).input_speed = 9
        clone = kernel.fork()
        assert clone.get_termios(0).input_speed == 9
        clone.get_termios(0).input_speed = 13
        assert kernel.get_termios(0).input_speed == 9


class TestLazyRuntimeKernelFork:
    """LibcRuntime defers the kernel fork until first touch;
    the observable semantics must stay exactly fork-per-call."""

    def test_fork_shares_until_touched(self):
        from repro.libc.runtime import standard_runtime

        parent = standard_runtime()
        child = parent.fork()
        # Both sides share the frozen image until one of them reads.
        assert parent._kernel is child._kernel
        assert parent._kernel_shared and child._kernel_shared
        child.kernel  # first touch materializes a private copy
        assert not child._kernel_shared
        assert child._kernel is not parent._kernel

    def test_mutations_stay_private_both_directions(self):
        from repro.libc.runtime import standard_runtime

        parent = standard_runtime()
        child = parent.fork()
        child.kernel.add_file("/tmp/child.txt", b"child")
        parent.kernel.add_file("/tmp/parent.txt", b"parent")
        with pytest.raises(KernelError):
            parent.kernel.lookup("/tmp/child.txt")
        with pytest.raises(KernelError):
            child.kernel.lookup("/tmp/parent.txt")
        # Shared pre-fork content is visible to both.
        assert parent.kernel.lookup("/etc/passwd").data
        assert child.kernel.lookup("/etc/passwd").data

    def test_chained_forks_from_untouched_parent(self):
        from repro.libc.runtime import standard_runtime

        base = standard_runtime()
        first = base.fork()
        second = base.fork()  # base still shared from the first fork
        first.kernel.add_file("/tmp/a.txt", b"a")
        with pytest.raises(KernelError):
            second.kernel.lookup("/tmp/a.txt")
        with pytest.raises(KernelError):
            base.kernel.lookup("/tmp/a.txt")

    def test_call_context_does_not_materialize(self):
        from repro.libc.runtime import LibcRuntime
        from repro.sandbox.context import CallContext

        runtime = LibcRuntime().fork()
        CallContext(runtime)  # constructing a context is kernel-free
        assert runtime._kernel_shared
        assert CallContext(runtime).kernel is runtime.kernel
        assert not runtime._kernel_shared
