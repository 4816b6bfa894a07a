"""Executable specification of the type order and the robust-type search.

The straightforward forms that :class:`repro.typelattice.lattice.Lattice`
and :func:`repro.typelattice.robust.compute_robust_type` must agree
with: the direct edges come from testing ``is_direct_subtype`` on every
ordered pair of instances, the closure is a depth-first search from
each instance, and the robust type is found by scanning the candidate
list once per question, over every observation.  Slow on purpose —
the differential tests in ``test_lattice_differential.py`` compare the
fast bitmask forms against this module on generated inputs.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.typelattice.instances import TypeInstance
from repro.typelattice.robust import (
    CheckablePredicate,
    Observation,
    RobustType,
    TestResult,
)
from repro.typelattice.rules import is_direct_subtype
from repro.typelattice.vectors import VectorObservation


class ReferenceOrder:
    """``(T, <=)`` over a finite instance set, by n² scan and DFS."""

    def __init__(self, instances: Iterable[TypeInstance]) -> None:
        self.instances = list(dict.fromkeys(instances))
        successors = {
            sub: [
                sup
                for sup in self.instances
                if sub != sup and is_direct_subtype(sub, sup)
            ]
            for sub in self.instances
        }
        self._supertypes: dict[TypeInstance, frozenset[TypeInstance]] = {}
        for start in self.instances:
            seen: set[TypeInstance] = set()
            stack = list(successors[start])
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(successors[node])
            seen.discard(start)
            self._supertypes[start] = frozenset(seen)

    def is_subtype(self, sub: TypeInstance, sup: TypeInstance) -> bool:
        return sub == sup or sup in self._supertypes.get(sub, frozenset())

    def is_strict_subtype(self, sub: TypeInstance, sup: TypeInstance) -> bool:
        return sub != sup and sup in self._supertypes.get(sub, frozenset())

    def supertypes(self, instance: TypeInstance) -> frozenset[TypeInstance]:
        return self._supertypes.get(instance, frozenset())

    def subtypes(self, instance: TypeInstance) -> frozenset[TypeInstance]:
        return frozenset(
            other for other in self.instances if self.is_strict_subtype(other, instance)
        )

    def weakest(self, candidates: Iterable[TypeInstance]) -> list[TypeInstance]:
        """Candidates no other candidate lies strictly above without also
        lying below (the members of a topmost cycle are all weakest)."""
        pool = list(candidates)
        return [
            t
            for t in pool
            if not any(
                self.is_strict_subtype(t, other) and not self.is_subtype(other, t)
                for other in pool
            )
        ]


def reference_robust_type(
    observations: Iterable[Observation],
    order: ReferenceOrder,
    checkable: Optional[CheckablePredicate] = None,
    conservative: bool = False,
) -> RobustType:
    """Linear-scan robust type, one pass per question (see
    ``repro.typelattice.robust`` for the rules it implements)."""
    obs = [o for o in observations if o.blamed]
    if not obs:
        raise ValueError("cannot compute a robust type without observations")
    anchor_results = {TestResult.SUCCESS}
    if conservative:
        anchor_results.add(TestResult.ERROR)
    successes = {o.fundamental for o in obs if o.result in anchor_results}
    if not successes:
        successes = {o.fundamental for o in obs if o.result is not TestResult.FAILURE}
    failures = {o.fundamental for o in obs if o.result is TestResult.FAILURE}
    observed = {o.fundamental for o in obs}

    feasible = [
        t for t in order.instances if all(order.is_subtype(s, t) for s in successes)
    ]
    if not feasible:
        raise ValueError("lattice has no common supertype for the observed successes")

    ideal = _select(order, feasible, failures, observed)
    if checkable is not None:
        enforceable = [t for t in feasible if checkable(t)]
        robust = _select(order, enforceable, failures, observed) if enforceable else ideal
    else:
        robust = ideal

    safe = all(
        order.is_subtype(o.fundamental, ideal) == (o.result is not TestResult.FAILURE)
        for o in obs
    )
    return RobustType(
        robust=robust,
        ideal=ideal,
        safe=safe,
        crash_free=_crash_count(order, robust, failures) == 0,
        successes=frozenset(successes),
        failures=frozenset(failures),
    )


def _crash_count(order: ReferenceOrder, candidate: TypeInstance, failures) -> int:
    return sum(1 for f in failures if order.is_subtype(f, candidate))


def _select(order: ReferenceOrder, candidates, failures, observed) -> TypeInstance:
    best = min(_crash_count(order, t, failures) for t in candidates)
    leanest = [t for t in candidates if _crash_count(order, t, failures) == best]
    weakest = order.weakest(leanest)

    def coverage(t: TypeInstance) -> int:
        return sum(1 for f in observed - failures if order.is_subtype(f, t))

    weakest.sort(key=lambda t: (-coverage(t), t.render()))
    return weakest[0]


def reference_robust_vector(
    vectors: list[VectorObservation],
    order: ReferenceOrder,
    checkable: Optional[CheckablePredicate] = None,
    conservative: bool = False,
) -> list[RobustType]:
    """Project every call onto each argument (blame-by-elimination for
    unattributed crashes) and run the linear scan per argument."""
    arity = len(vectors[0].fundamentals)
    returning = [
        {v.fundamentals[i] for v in vectors if v.result is not TestResult.FAILURE}
        for i in range(arity)
    ]
    results = []
    for index in range(arity):
        projected = []
        for vector in vectors:
            fundamental = vector.fundamentals[index]
            if vector.result is not TestResult.FAILURE:
                projected.append(Observation(fundamental, vector.result))
            elif vector.blamed_argument == index or (
                vector.blamed_argument is None and fundamental not in returning[index]
            ):
                projected.append(Observation(fundamental, TestResult.FAILURE))
        results.append(reference_robust_type(projected, order, checkable, conservative))
    return results
