"""The package's runtime is the standard library alone.

``pyproject.toml`` declares no dependencies, so importing the CLI and
the pipeline must not load any third-party module: after a clean
``pip install .`` anything else would fail on import.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules loaded before the imports (interpreter and site start-up
# hooks) are not the package's doing and are left out.
_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import repro.cli
import repro.core.pipeline
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"repro"})))
"""


def test_cli_and_pipeline_import_only_the_standard_library():
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.split() == []


# A width-1 campaign injects in process: it starts no pool, so it must
# not pay for importing multiprocessing, and never touches the daemon.
_SERIAL_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.campaign import CampaignRunner
CampaignRunner(["abs"]).run()
print(" ".join(sorted(
    m for m in sys.modules
    if m == "multiprocessing" or m.startswith(("multiprocessing.", "repro.service"))
)))
"""


def test_width_one_campaign_imports_neither_multiprocessing_nor_the_service():
    probe = subprocess.run(
        [sys.executable, "-c", _SERIAL_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.split() == []
