"""Golden outputs owned by the benchmark, and the checks against them.

``golden/declarations.json`` holds, per catalog function, the
exhaustive phase-1 result: the declaration's ``to_xml()`` text, the
robust-type renders, the unsafe flag, and the vector and call counts.
``golden/fig6.json`` holds, per Figure 6 configuration, the test
count, the number of crashing functions and a sha256 digest over every
``(test label, status)`` pair.  Both were generated once through the
public API (``python perfbench/run.py --make-goldens``); the benchmark
never reads or writes the program's own declaration cache.

Every check returns a list of failures, one per failing operation
(function, configuration or request); an empty list means correct.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

DECLARATIONS_FILE = "declarations.json"
FIG6_FILE = "fig6.json"

#: The paper's Figure 6 test count and crashing-function counts.
FIG6_TESTS = 11995
FIG6_CRASHING = {"unwrapped": 77, "full-auto": 22, "semi-auto": 0}
#: Catalog functions, and how many of them the sweep process runs per
#: ``BallistaHarness.run`` call (one timed item between two reference
#: measurements): 8 groups per configuration.
FUNCTIONS = 86
FIG6_GROUP = 11
#: Functions the exhaustive injector marks unsafe (77 of 86).
UNSAFE_FUNCTIONS = 77


def read(golden_dir: Path, name: str) -> dict:
    return json.loads((golden_dir / name).read_text())


def load_declarations(golden_dir: Path) -> dict:
    """The golden automated declarations as program objects."""
    from repro.declarations import FunctionDeclaration

    functions = read(golden_dir, DECLARATIONS_FILE)["functions"]
    return {name: FunctionDeclaration.from_xml(row["xml"]) for name, row in functions.items()}


def fig6_digest(lines: Iterable[str]) -> str:
    """Digest over ``"<test label>\\t<status>"`` lines in test order."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check_harden(functions: dict, golden: dict) -> list[str]:
    """A harden pass must reproduce every declaration byte for byte."""
    expected = golden["functions"]
    failures = []
    for name in sorted(set(expected) | set(functions)):
        got, want = functions.get(name), expected.get(name)
        if got is None or want is None:
            failures.append(f"{name}: missing from {'result' if got is None else 'golden'}")
        elif got["xml"] != want["xml"]:
            failures.append(f"{name}: declaration differs from golden")
    unsafe = sum(1 for row in functions.values() if row["unsafe"])
    if unsafe != UNSAFE_FUNCTIONS:
        failures.append(f"catalog: {unsafe} unsafe functions, expected {UNSAFE_FUNCTIONS}")
    return failures


def check_fig6(configurations: dict, golden: dict) -> list[str]:
    """Every configuration: 11995 tests, the paper's crashing-function
    count, and a (label, status) digest equal to the golden one."""
    failures = []
    for label, crashing in FIG6_CRASHING.items():
        got, want = configurations.get(label), golden.get(label)
        if got is None or want is None:
            failures.append(f"{label}: missing from {'result' if got is None else 'golden'}")
            continue
        if got["tests"] != FIG6_TESTS or want["tests"] != FIG6_TESTS:
            failures.append(f"{label}: {got['tests']} tests, expected {FIG6_TESTS}")
        if got["crashing"] != crashing or want["crashing"] != crashing:
            failures.append(f"{label}: {got['crashing']} crashing functions, expected {crashing}")
        if got["digest"] != want["digest"]:
            failures.append(f"{label}: (test, status) digest differs from golden")
    return failures


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------


def make(golden_dir: Path) -> None:
    """Regenerate both golden files through the public API."""
    from repro.ballista import BallistaHarness
    from repro.core.pipeline import HealersPipeline

    hardened = HealersPipeline().run()
    functions = {}
    for name, declaration in hardened.declarations.items():
        report = hardened.reports[name]
        functions[name] = {
            "xml": declaration.to_xml(),
            "robust": [rt.robust.render() for rt in report.robust_types],
            "unsafe": declaration.unsafe,
            "vectors": report.vectors_run,
            "calls": report.calls_made,
        }
    golden_dir.mkdir(parents=True, exist_ok=True)
    (golden_dir / DECLARATIONS_FILE).write_text(json.dumps({
        "vectors": sum(row["vectors"] for row in functions.values()),
        "calls": sum(row["calls"] for row in functions.values()),
        "functions": functions,
    }, indent=1, sort_keys=True) + "\n")

    # Figure 6 runs over the golden declarations as read back from disk.
    from repro.core.pipeline import HardenedLibrary
    from repro.declarations import apply_all_manual_edits

    declarations = load_declarations(golden_dir)
    library = HardenedLibrary(declarations, apply_all_manual_edits(declarations))
    harness = BallistaHarness(total_target=FIG6_TESTS)
    wrappers = {
        "unwrapped": None,
        "full-auto": library.wrapper(),
        "semi-auto": library.wrapper(semi_auto=True),
    }
    fig6 = {}
    for label, wrapper in wrappers.items():
        report = harness.run(wrapper=wrapper, configuration=label)
        fig6[label] = {
            "tests": report.total,
            "crashing": len(report.crashing_functions()),
            "digest": fig6_digest(f"{r.test.label}\t{r.status}" for r in report.records),
        }
    (golden_dir / FIG6_FILE).write_text(json.dumps(fig6, indent=1, sort_keys=True) + "\n")
