"""Where the benchmark finds the program and keeps its scratch files."""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: Scratch space inside the checkout (service cache dirs, span files).
SCRATCH = ROOT / ".perfbench_tmp"


class ProgramMissing(RuntimeError):
    """The program's sources are not next to the benchmark."""


def ensure_program() -> None:
    """Put ``src/`` on the import path; raise when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for processes that run the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
