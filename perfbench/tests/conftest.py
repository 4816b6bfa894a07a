"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.paths import ensure_program  # noqa: E402

ensure_program()
