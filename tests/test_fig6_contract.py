"""The paper's Figure 6 as a tier-1 contract, serial and sharded.

The wrappers are built from the committed golden declarations
(``perfbench/golden/declarations.json``), not from a fresh injection,
so this pins phase 2 alone: 11995 Ballista tests per configuration,
77 / 22 / 0 crashing functions (unwrapped / full-auto / semi-auto), and
a sha256 over every ``(test label, status)`` pair equal to
``perfbench/golden/fig6.json``.  The sharded sweep must reproduce the
serial one exactly, also while its pool workers are being killed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.ballista import BallistaHarness
from repro.campaign.scheduler import CHAOS_ENV
from repro.core.pipeline import HardenedLibrary
from repro.declarations import FunctionDeclaration, apply_all_manual_edits
from repro.obs.telemetry import Telemetry

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
FIG6_TESTS = 11995
CRASHING = {"unwrapped": 77, "full-auto": 22, "semi-auto": 0}


@pytest.fixture(scope="module")
def wrappers():
    rows = json.loads((GOLDEN_DIR / "declarations.json").read_text())
    declarations = {
        name: FunctionDeclaration.from_xml(row["xml"])
        for name, row in rows["functions"].items()
    }
    library = HardenedLibrary(declarations, apply_all_manual_edits(declarations))
    return {
        "unwrapped": None,
        "full-auto": library.wrapper(),
        "semi-auto": library.wrapper(semi_auto=True),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN_DIR / "fig6.json").read_text())


def _digest(report) -> str:
    digest = hashlib.sha256()
    for record in report.records:
        digest.update(f"{record.test.label}\t{record.status}\n".encode("utf-8"))
    return digest.hexdigest()


def _sweep(wrappers, golden, jobs, telemetry=None):
    harness = BallistaHarness(
        total_target=FIG6_TESTS, telemetry=telemetry or Telemetry()
    )
    for label, wrapper in wrappers.items():
        report = harness.run(wrapper=wrapper, configuration=label, jobs=jobs)
        assert report.total == FIG6_TESTS, label
        assert len(report.crashing_functions()) == CRASHING[label], label
        assert _digest(report) == golden[label]["digest"], label


def test_fig6_serial(wrappers, golden):
    _sweep(wrappers, golden, jobs=1)


def test_fig6_sharded(wrappers, golden):
    _sweep(wrappers, golden, jobs=2)


def test_fig6_sharded_survives_worker_kills(wrappers, golden, monkeypatch):
    # Every pool worker SIGKILLs itself after 20 completed functions;
    # the sweep only finishes if the pool retries and replaces them.
    monkeypatch.setenv(CHAOS_ENV, "kill-after:20")
    telemetry = Telemetry()
    _sweep(wrappers, golden, jobs=2, telemetry=telemetry)
    for label in CRASHING:
        deaths = telemetry.counter("fleet.worker_deaths", configuration=label)
        assert deaths.value >= 1, f"{label}: no worker died under chaos"
