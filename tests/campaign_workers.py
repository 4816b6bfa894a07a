"""Module-level worker callables for the scheduler tests.

The pool pickles its worker callable, so these must live in an
importable module rather than inside a test function.
"""

from __future__ import annotations

import os
import signal
import time


def echo(name: str) -> dict:
    """Succeeds immediately; used for happy-path pool tests."""
    return {"name": name}


def misbehave(name: str) -> dict:
    """Fails in the mode its task name selects."""
    if name.startswith("boom"):
        raise RuntimeError(f"kaboom {name}")
    if name.startswith("hang"):
        time.sleep(120)
    if name.startswith("die"):
        os._exit(9)
    return {"name": name}


def slow_first(name: str) -> dict:
    """The lexically-first task sleeps; later tasks finish before it,
    inverting completion order relative to submission order."""
    if name.endswith("0"):
        time.sleep(0.5)
    return {"name": name}


def freeze(name: str) -> dict:
    """Tasks named ``freeze*`` SIGSTOP their own worker process, which
    silences its heartbeat thread too: the wedge the pool must police
    even with no task deadline."""
    if name.startswith("freeze"):
        os.kill(os.getpid(), signal.SIGSTOP)
    return {"name": name}


def kill_idle_sibling(name: str, scratch: str) -> dict:
    """Task ``a`` records its worker's pid and returns, leaving that
    worker idle; task ``k`` then SIGKILLs the idle worker and fails
    once (a marker file remembers the first attempt), so the pool must
    retry ``k`` after a sibling died while waiting for work."""
    pid_file = os.path.join(scratch, "idle.pid")
    if name == "a":
        with open(pid_file + ".tmp", "w") as handle:
            handle.write(str(os.getpid()))
        os.replace(pid_file + ".tmp", pid_file)
        return {"name": name}
    marker = os.path.join(scratch, "k-failed-once")
    if not os.path.exists(marker):
        deadline = time.monotonic() + 10.0
        while not os.path.exists(pid_file) and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)  # let "a"'s worker report and wait for work
        with open(pid_file) as handle:
            os.kill(int(handle.read()), signal.SIGKILL)
        open(marker, "w").close()
        raise RuntimeError("k fails once after killing its idle sibling")
    return {"name": name}
