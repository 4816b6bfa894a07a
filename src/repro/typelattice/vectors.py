"""Type vectors for n-ary functions (paper section 4.3, "Multiple
Arguments").

The partial order over types lifts pointwise to n-dimensional type
vectors; a test case *vector* (one injected value per argument)
uniquely defines a vector of fundamental types.  The robust type
vector is computed argumentwise from attributed observations — fault
attribution (which generator owns the fault address) decides which
component of a crashing vector is to blame, so crashes never poison
the other arguments' statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.typelattice.instances import TypeInstance
from repro.typelattice.lattice import Lattice
from repro.typelattice.robust import (
    CheckablePredicate,
    Observation,
    RobustType,
    TestResult,
    compute_robust_type,
)


@dataclass(frozen=True)
class VectorObservation:
    """One fault-injection call of an n-ary function.

    Attributes:
        fundamentals: the fundamental type of each argument's value.
        result: the call's outcome class.
        blamed_argument: index of the argument whose generator claimed
            the fault address, or None when the fault could not be
            attributed (hangs, aborts, faults on libc-internal
            addresses).  Only the blamed argument records a FAILURE.
    """

    fundamentals: tuple[TypeInstance, ...]
    result: TestResult
    blamed_argument: Optional[int] = None


class TypeVectorOrder:
    """Pointwise partial order over type vectors (one lattice per
    argument position)."""

    def __init__(self, lattices: Sequence[Lattice]) -> None:
        self.lattices = list(lattices)

    @property
    def arity(self) -> int:
        return len(self.lattices)

    def is_subvector(
        self, sub: Sequence[TypeInstance], sup: Sequence[TypeInstance]
    ) -> bool:
        """``sub <= sup`` pointwise (non-strict)."""
        if len(sub) != self.arity or len(sup) != self.arity:
            raise ValueError("vector arity mismatch")
        return all(
            lattice.is_subtype(s, t)
            for lattice, s, t in zip(self.lattices, sub, sup)
        )


def compute_robust_vector(
    observations: Iterable[VectorObservation],
    lattices: Optional[Sequence[Lattice]] = None,
    checkable: Optional[CheckablePredicate] = None,
    conservative: bool = False,
) -> list[RobustType]:
    """Compute the robust type of every argument of an n-ary function.

    For each argument position the vector observations project to
    per-argument :class:`Observation` streams; a crashing call only
    counts as a FAILURE for the argument its fault was attributed to
    (for the others the call is disregarded, mirroring the paper's
    adaptive attribution loop).
    """
    # Fold: calls with equal fundamentals, result and blame project
    # identically, so each argument only needs the distinct ones.
    vectors = list(
        dict.fromkeys(
            (v.fundamentals, v.result, v.blamed_argument) for v in observations
        )
    )
    if not vectors:
        raise ValueError("no observations")
    arity = len(vectors[0][0])
    if any(len(fundamentals) != arity for fundamentals, _, _ in vectors):
        raise ValueError("inconsistent observation arity")

    # Blame-by-elimination for unattributed crashes (fault address owned
    # by no generator, e.g. a wild read derived from argument content):
    # the crash is charged to every argument position whose fundamental
    # never produced a returning call at that position.  This recovers
    # the paper's vector-level semantics ("each supertype vector
    # contains a crashing test case vector") in the componentwise
    # projection.
    returning: list[set[TypeInstance]] = [set() for _ in range(arity)]
    for fundamentals, result, _ in vectors:
        if result is not TestResult.FAILURE:
            for index, fundamental in enumerate(fundamentals):
                returning[index].add(fundamental)

    results: list[RobustType] = []
    for index in range(arity):
        projected: dict[tuple[TypeInstance, TestResult], None] = {}
        for fundamentals, result, blamed in vectors:
            fundamental = fundamentals[index]
            if result is TestResult.FAILURE:
                if blamed == index or (
                    blamed is None and fundamental not in returning[index]
                ):
                    projected[fundamental, TestResult.FAILURE] = None
                # Other-argument failures are ignored for this component.
                continue
            projected[fundamental, result] = None
        lattice = lattices[index] if lattices is not None else None
        results.append(
            compute_robust_type(
                [Observation(f, result) for f, result in projected],
                lattice=lattice,
                checkable=checkable,
                conservative=conservative,
            )
        )
    return results
