"""Shared fixtures.

``hardened86`` runs phase 1 once per session over the full 86-function
evaluation set, so integration tests do not re-run fault injection per
test.  It never reads the on-disk declaration cache: a bundle written
by an older commit would hide what the code under test computes.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import HardenedLibrary, HealersPipeline
from repro.libc.runtime import standard_runtime
from repro.sandbox import Sandbox


@pytest.fixture()
def runtime():
    return standard_runtime()


@pytest.fixture()
def sandbox():
    return Sandbox()


@pytest.fixture(scope="session")
def hardened86():
    """The full pipeline output over the 86-function set, computed
    fresh.  The injection reports are dropped: kept alive for the whole
    session, their ~75 000 objects make every full garbage collection
    slower, which shows up as noise in the millisecond-scale timings
    that ledger and regression-gate tests compare."""
    hardened = HealersPipeline().run()
    return HardenedLibrary(
        declarations=hardened.declarations,
        semi_auto_declarations=hardened.semi_auto_declarations,
    )


@pytest.fixture(scope="session")
def declarations86(hardened86):
    return hardened86.declarations
