"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper and prints
the measured rows next to the published ones (run with ``-s`` to see
them).  Fault injection outcomes are kept in the campaign's
content-addressed store so the benches measure the experiments, not
repeated injection; an outcome whose inputs changed is re-injected.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import DEFAULT_CAMPAIGN_DIR, CampaignConfig
from repro.core import HealersPipeline

#: Where the bench artifacts live (the repo root).
BENCH_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def hardened86():
    return HealersPipeline(
        config=CampaignConfig(cache_dir=DEFAULT_CAMPAIGN_DIR)
    ).run()


def pytest_sessionfinish(session, exitstatus):
    """Stamp provenance onto every ``BENCH_*.json`` the session touched.

    :func:`repro.obs.report.export_bench_json` stamps on write, so this
    is the backstop for artifacts written by older code or by hand —
    ledger ingestion (``repro ledger import``) must never have to guess
    which version/commit/host produced a number.
    """
    from repro.obs.ledger import run_provenance

    for path in sorted(BENCH_ROOT.glob("BENCH_*.json")):
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(document, dict) or "provenance" in document:
            continue
        document["provenance"] = run_provenance()
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def print_table(title: str, rows: list[dict], paper_rows: list[dict] | None = None):
    """Render measured (and paper) rows for the bench output."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("  measured:", row)
    if paper_rows:
        for row in paper_rows:
            print("  paper:   ", row)
