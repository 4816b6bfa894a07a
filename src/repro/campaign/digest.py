"""Content-addressed cache keys for campaign outcomes.

A cached :class:`~repro.injector.InjectionReport` is only valid while
everything that determined it is unchanged.  The digest therefore
covers every input of one per-function injection campaign:

1. the **function spec** — name, prototype, headers, symbol version,
   variadic flag, and the model's import path (a renamed or moved
   model implementation may be a different implementation);
2. the **generator configuration** — the exact per-argument test case
   template sequence the selected generators enumerate (labels are the
   generator DSL: ``RW_FIXED[44]``, ``STRING_RO``, …), so adding a
   template, reordering a sweep, or changing a size invalidates;
3. the **lattice version** — :data:`repro.typelattice.LATTICE_VERSION`
   is bumped whenever the type hierarchy changes;
4. the **injector caps** — the run's ``max_vectors`` and
   ``MAX_RETRIES`` bound vector enumeration and the adaptive retry
   loop;
5. the **planner fingerprint** — the vector-planning engine's
   :data:`~repro.injector.PLAN_VERSION` and
   :data:`~repro.injector.MEMO_POLICY`: a change to plan compilation
   or to the memoization soundness policy reschedules or re-dedups
   the experiment, so cached outcomes must be recomputed;
6. the **armed fault models** — when the run arms fault models, the
   :func:`repro.faults.faults_fingerprint` block (model names,
   versions, parameters, scenario sampling cap) joins the document,
   so faulted and unfaulted outcomes — and outcomes under different
   model parameters — never alias.  An empty model set adds nothing,
   keeping every pre-existing digest stable.

Items 4 and 6 are the run's block (:meth:`repro.injector.RunSpec.
digest_block`): the injector reads the same :class:`RunSpec` the
digest is computed from.

Digests are sha256 over a canonical JSON encoding; two campaign runs
agree on a function's digest iff they would run the identical
injection experiment.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.cdecl import DeclarationParser, typedef_table
from repro.generators.select import generators_for
from repro.injector import MEMO_POLICY, PLAN_VERSION, RunSpec
from repro.libc.catalog import FunctionSpec
from repro.typelattice import LATTICE_VERSION

#: Bump when the on-disk outcome payload layout changes; part of every
#: digest so old payloads can never be deserialized by new code.
CACHE_SCHEMA = 1


def spec_fingerprint(spec: FunctionSpec) -> dict[str, object]:
    """The cache-relevant identity of one catalog function."""
    model = spec.model
    return {
        "name": spec.name,
        "prototype": spec.prototype,
        "headers": list(spec.headers),
        "version": spec.version,
        "variadic": spec.variadic,
        "model": f"{model.__module__}.{model.__qualname__}",
    }


def generator_fingerprint(
    spec: FunctionSpec, parser: Optional[DeclarationParser] = None
) -> list[list[str]]:
    """Per-argument test case template labels, in enumeration order.

    Mirrors :class:`~repro.injector.FaultInjector`'s generator
    selection exactly: the labels enumerate the test case sequence the
    injector will run, so any change to generator selection or
    template content changes the fingerprint.
    """
    parser = parser or DeclarationParser(typedef_table())
    prototype = parser.parse_prototype(spec.prototype)
    fingerprint: list[list[str]] = []
    for parameter in prototype.ftype.parameters:
        resolved = parser.resolve(parameter.ctype)
        generators = generators_for(parameter, resolved, parameter.ctype)
        fingerprint.append(
            [t.label for g in generators for t in g.templates()]
        )
    return fingerprint


def outcome_digest(
    spec: FunctionSpec,
    run: RunSpec = RunSpec(),
    lattice_version: str = LATTICE_VERSION,
    parser: Optional[DeclarationParser] = None,
) -> str:
    """The content address of one function's injection outcome."""
    document = {
        "schema": CACHE_SCHEMA,
        "spec": spec_fingerprint(spec),
        "generators": generator_fingerprint(spec, parser),
        "lattice": lattice_version,
        "planner": {"version": PLAN_VERSION, "memo": MEMO_POLICY},
        **run.digest_block(),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def campaign_id(pairs: list[tuple[str, str]]) -> str:
    """Identity of a whole campaign: the ordered (function, digest)
    list.  Two campaigns share an id iff they run the same functions,
    in the same order, under the same per-function digests."""
    canonical = json.dumps(pairs, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
