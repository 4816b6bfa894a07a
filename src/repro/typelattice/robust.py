"""Robust argument type computation (paper section 4.3).

Given the outcomes of all test cases for one argument — each test case
tagged with the *fundamental* type of the injected value — compute the
argument's robust type:

    the weakest type ``T`` such that every test case for which the
    function returned successfully lies in ``V(T)``, and every strict
    supertype of ``T`` contains at least one crashing test case.

Where the paper's definition leaves slack (several incomparable
weakest candidates; fundamentals whose values both succeeded and
crashed), we resolve it the way the examples in the paper do:

* candidates must contain all success cases ("feasible");
* among feasible candidates, first minimize the number of *crashing*
  fundamentals contained (zero when a crash-free candidate exists —
  then the result is exactly the paper's weakest crash-free
  supertype, e.g. ``R_ARRAY_NULL[44]`` for ``asctime``);
* among those, take the weakest; remaining ties break on observed
  coverage and then deterministically on the rendered name.

A *safe* argument type additionally contains no crashing case and
excludes nothing but crashing cases; whenever a safe type exists the
computed robust type is safe, as the paper requires.

The ``checkable`` filter models the wrapper generator's reality that
only types with checking functions can be enforced: the fully
automated flow cannot check ``OPEN_DIR`` (no POSIX verifier for
``DIR*``), so its enforced type weakens to accessible memory — which
is precisely why ``closedir`` still crashes under the full-auto
wrapper in Figure 6 and needs the manually added stateful assertion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.typelattice.instances import TypeInstance
from repro.typelattice.lattice import Lattice, iter_bits


class TestResult(enum.Enum):
    """Per-test-case outcome class used by the computation."""

    __test__ = False  # not a pytest collection target

    SUCCESS = "success"  # returned without setting errno
    ERROR = "error"  # returned with errno set (graceful rejection)
    FAILURE = "failure"  # crash, hang or abort


@dataclass(frozen=True)
class Observation:
    """One test case's fundamental type and its outcome.

    ``blamed`` is False when a crash occurred but fault attribution
    assigned it to a *different* argument of the call; such
    observations say nothing about this argument and are ignored.
    """

    fundamental: TypeInstance
    result: TestResult
    blamed: bool = True


@dataclass
class RobustType:
    """Result of the computation for one argument.

    Attributes:
        robust: the enforceable robust type (respects ``checkable``).
        ideal: the robust type with no checkability restriction; when
            it differs from ``robust`` the argument needs a manual
            (semi-auto) edit to be fully protected.
        safe: True when ``ideal`` is a *safe* argument type.
        crash_free: True when ``robust`` contains no fundamental that
            was observed to crash — i.e. the check blocks every crash
            the injector found for this argument.
        successes / failures: the observed fundamental sets, kept for
            reporting and the declaration XML.
    """

    robust: TypeInstance
    ideal: TypeInstance
    safe: bool
    crash_free: bool
    successes: frozenset[TypeInstance] = field(default_factory=frozenset)
    failures: frozenset[TypeInstance] = field(default_factory=frozenset)


CheckablePredicate = Callable[[TypeInstance], bool]


def compute_robust_type(
    observations: Iterable[Observation],
    lattice: Optional[Lattice] = None,
    checkable: Optional[CheckablePredicate] = None,
    conservative: bool = False,
) -> RobustType:
    """Compute the robust type for one argument.

    Args:
        observations: all test cases for this argument, across the
            whole (adaptive) injection run.
        lattice: the instantiated lattice to search; by default one is
            built over the size parameters observed in the
            fundamentals.
        checkable: restricts the *enforced* robust type to types the
            wrapper generator can emit a check for.  The unrestricted
            ``ideal`` type is always reported as well.
        conservative: the paper's stricter variant — anchor
            feasibility on every test case that *returned* (with or
            without an error) instead of only on successful returns.
            The default matches the paper's atomic-function
            assumption ("we have not experienced any problems by
            assuming functions to be atomic").
    """
    # Fold: the search depends only on which (fundamental, result)
    # pairs occurred, never on how often.
    pairs = list(
        dict.fromkeys((o.fundamental, o.result) for o in observations if o.blamed)
    )
    if not pairs:
        raise ValueError("cannot compute a robust type without observations")

    if lattice is None:
        sizes = {f.param for f, _ in pairs if f.param is not None}
        lattice = Lattice.for_sizes(sizes or {0})

    anchor_results = {TestResult.SUCCESS}
    if conservative:
        anchor_results.add(TestResult.ERROR)
    successes = {f for f, result in pairs if result in anchor_results}
    if not successes:
        # Every single test either crashed or was gracefully rejected.
        # Anchoring on the empty set would let the computation pick an
        # absurdly strong type (reject everything); fall back to the
        # conservative anchor so values the function merely rejects
        # stay allowed.
        successes = {f for f, result in pairs if result is not TestResult.FAILURE}
    failures = {f for f, result in pairs if result is TestResult.FAILURE}
    observed = {f for f, _ in pairs}

    # A candidate t contains fundamental f iff bit t of up_mask(f) is set.
    feasible = lattice.full_mask
    for s in successes:
        feasible &= lattice.up_mask(s)
    if not feasible:
        raise ValueError(
            "lattice has no common supertype for the observed successes; "
            "the top type is missing from the instance set"
        )
    failure_ups = [lattice.up_mask(f) for f in failures]
    cover_ups = [lattice.up_mask(f) for f in observed - failures]

    ideal = _select(lattice, feasible, failure_ups, cover_ups)
    if checkable is not None:
        enforceable = lattice.mask_of(
            t for t in lattice.instances_in(feasible) if checkable(t)
        )
        robust = (
            _select(lattice, enforceable, failure_ups, cover_ups)
            if enforceable
            else ideal
        )
    else:
        robust = ideal

    crash_count = _contained_in(lattice.index(robust), failure_ups)
    safe = _is_safe(lattice, ideal, pairs)
    return RobustType(
        robust=robust,
        ideal=ideal,
        safe=safe,
        crash_free=crash_count == 0,
        successes=frozenset(successes),
        failures=frozenset(failures),
    )


def _contained_in(index: int, up_masks: list[int]) -> int:
    """How many of the fundamentals (given by their up masks) lie
    inside the candidate at ``index``."""
    return sum(up >> index & 1 for up in up_masks)


def _select(
    lattice: Lattice,
    candidates: int,
    failure_ups: list[int],
    cover_ups: list[int],
) -> TypeInstance:
    """Pick the robust type from the feasible candidate mask (see
    module doc)."""
    crashes: dict[int, int] = {}
    crashing = 0
    for up in failure_ups:
        hit = up & candidates
        crashing |= hit
        for index in iter_bits(hit):
            crashes[index] = crashes.get(index, 0) + 1
    leanest = candidates & ~crashing
    if not leanest:
        best_crashes = min(crashes.values())
        for index, count in crashes.items():
            if count == best_crashes:
                leanest |= 1 << index
    weakest = [
        index for index in iter_bits(leanest) if not lattice.beaten_at(index, leanest)
    ]
    if len(weakest) == 1:
        return lattice.instances[weakest[0]]
    # Tie-break: prefer the candidate covering more of the observed
    # non-crashing fundamentals (it rejects fewer legitimate values),
    # then the deterministic rendered name.
    weakest.sort(
        key=lambda index: (
            -_contained_in(index, cover_ups),
            lattice.instances[index].render(),
        )
    )
    return lattice.instances[weakest[0]]


def _is_safe(
    lattice: Lattice,
    candidate: TypeInstance,
    pairs: list[tuple[TypeInstance, TestResult]],
) -> bool:
    """The paper's safe-argument-type test: no contained test case
    crashed, and every excluded test case crashed."""
    index = lattice.index(candidate)
    for fundamental, result in pairs:
        inside = lattice.up_mask(fundamental) >> index & 1
        if inside and result is TestResult.FAILURE:
            return False
        if not inside and result is not TestResult.FAILURE:
            return False
    return True
