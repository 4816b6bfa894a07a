"""Traced daemon launcher: ``repro serve`` with the benchmark's layer
wrappers installed, writing its spans to a file on shutdown.

    python perfbench/daemon.py --spans FILE serve [serve options...]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.paths import ensure_program  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_file = Path(argv[1])
    ensure_program()
    from repro.cli import main as repro_main

    from perfbench.layers import Tracer

    tracer = Tracer().install()
    try:
        return repro_main(argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
