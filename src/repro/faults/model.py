"""The fault-model protocol and registry.

HEALERS computes robust argument types by injecting argument-*value*
faults; this package adds the environmental half of the story — the
fault dictionary DAVOS-style tools make customizable.  A
:class:`FaultModel` contributes *scenarios*: deterministic
perturbations of the execution environment (exhausted resources, a
signal mid-call, a hostile callback, a corrupted libc table) that are
armed on the forked per-call runtime before the sandboxed call runs.

Determinism rules (the digest honesty contract):

* A model's behaviour is a pure function of its parameters; the
  parameters are JSON scalars and fold into :func:`faults_fingerprint`,
  which the campaign digest embeds.
  Same models + same parameters = same fingerprint = same digest;
  any change to either must produce a different digest so cached,
  armed, and plain runs never alias.
* :meth:`FaultModel.scenarios` must be deterministic in the function
  spec alone — no entropy, no ambient state.
* :meth:`FaultModel.arm` may only touch the runtime it is handed
  (always a private fork) and the argument list it returns.

``FAULTS_VERSION`` is the schema version of this contract.  Bump it
whenever the meaning of a fingerprint-identical configuration changes
(new arming semantics, different scenario sampling), so stale cache
entries are refused rather than aliased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

#: Schema version of the fault-model contract (see module docstring).
FAULTS_VERSION = 1

#: Cap on baseline vectors re-run under each armed scenario.  Part of
#: the fingerprint: changing it changes every faulted digest.
SCENARIO_VECTOR_CAP = 24


@dataclass(frozen=True)
class FaultScenario:
    """One point on a model's scenario axes.

    ``params`` is a sorted tuple of ``(key, value)`` pairs of JSON
    scalars — hashable, picklable, and canonically serializable.
    """

    model: str
    label: str
    params: tuple[tuple[str, object], ...] = ()

    @property
    def key(self) -> str:
        """Stable identity used in evidence, declarations and docs."""
        return f"{self.model}:{self.label}"


@dataclass(frozen=True)
class ScenarioEvidence:
    """What the injector observed re-running vectors under a scenario."""

    model: str
    scenario: str
    vectors: int
    crashes: int
    hangs: int
    #: crashes + hangs in the *baseline* run of the same vectors; a
    #: scenario is only blamed for failures beyond this floor.
    baseline_failures: int = 0

    @property
    def key(self) -> str:
        return f"{self.model}:{self.scenario}"

    @property
    def unsafe(self) -> bool:
        return (self.crashes + self.hangs) > self.baseline_failures


class FaultModel:
    """Base class for fault models.

    Subclasses set :attr:`name`, :attr:`version` and
    :attr:`default_params`, and override :meth:`scenarios` and
    :meth:`arm`.  Instances are immutable in spirit: parameters are
    fixed at construction and all methods must be deterministic.
    """

    #: registry key, also the token used in ``--fault-models`` specs
    name = "base"
    #: bump when the model's arming semantics change
    version = 1
    #: accepted parameters and their defaults (JSON scalars only)
    default_params: dict[str, object] = {}

    def __init__(self, **params: object) -> None:
        unknown = set(params) - set(self.default_params)
        if unknown:
            raise ValueError(
                f"fault model {self.name!r} has no parameter(s) "
                f"{', '.join(sorted(map(repr, unknown)))}"
            )
        self.params: dict[str, object] = dict(self.default_params)
        self.params.update(params)

    # -- identity -------------------------------------------------------
    def fingerprint(self) -> dict:
        """Canonical identity: folds into digests and wire fingerprints."""
        return {
            "name": self.name,
            "version": self.version,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }

    def spec_string(self) -> str:
        """The ``--fault-models`` token reproducing this instance."""
        extras = [
            f"{k}={self.params[k]}"
            for k in sorted(self.params)
            if self.params[k] != self.default_params.get(k)
        ]
        return ":".join([self.name, *extras])

    # -- behaviour ------------------------------------------------------
    def scenarios(self, spec, prototype) -> tuple[FaultScenario, ...]:
        """The scenario axis for one function; empty when the model
        does not apply to it.  Must be deterministic in ``spec`` and
        ``prototype`` alone."""
        raise NotImplementedError

    def arm(self, scenario: FaultScenario, runtime, args: Sequence, spec) -> list:
        """Apply ``scenario`` to a forked ``runtime`` about to execute
        ``spec.model(ctx, *args)``, returning the (possibly
        substituted) argument list."""
        raise NotImplementedError

    def describe(self) -> str:
        return (self.__doc__ or "").strip().splitlines()[0]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, type[FaultModel]] = {}


def register_model(cls: type[FaultModel]) -> type[FaultModel]:
    """Class decorator: add a model to the global registry.

    Registration is idempotent for the same class but refuses a name
    collision between distinct classes — two models answering to one
    spec token could silently alias digests.
    """
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"fault model name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_models() -> tuple[str, ...]:
    _load_builtins()
    return tuple(sorted(_REGISTRY))


def get_model(name: str) -> type[FaultModel]:
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(f"unknown fault model {name!r} (available: {known})") from None


def _load_builtins() -> None:
    # Deferred so `import repro.faults.model` never cycles through the
    # model modules (which import this one for the base class).
    from repro.faults import bitflip, callbacks, corruption, resource, signals  # noqa: F401


# ---------------------------------------------------------------------------
# spec-string parsing
# ---------------------------------------------------------------------------
FaultModelsSpec = Union[None, str, Iterable[Union[str, FaultModel]]]


def _coerce(value: str) -> object:
    try:
        return int(value)
    except ValueError:
        return value


def _parse_one(token: str) -> FaultModel:
    """Parse one ``name[:key=value...]`` token, e.g. ``signal:offsets=1|64``."""
    parts = token.strip().split(":")
    name, raw_params = parts[0], parts[1:]
    params: dict[str, object] = {}
    for raw in raw_params:
        if "=" not in raw:
            raise ValueError(
                f"bad fault model parameter {raw!r} in {token!r} (want key=value)"
            )
        key, _, value = raw.partition("=")
        params[key.strip()] = _coerce(value.strip())
    return get_model(name)(**params)


def resolve_fault_models(value: FaultModelsSpec) -> tuple[FaultModel, ...]:
    """Normalize every accepted ``fault_models`` input to instances.

    Accepts None/"" (no models), a comma-separated spec string
    (``"resource,signal:offsets=1|64"``), or an iterable of tokens
    and/or :class:`FaultModel` instances.  Order is canonicalized by
    model name so ``"signal,resource"`` and ``"resource,signal"``
    produce identical fingerprints, and duplicate names are refused.
    """
    if not value:
        return ()
    if isinstance(value, str):
        tokens: list[Union[str, FaultModel]] = [
            t for t in value.split(",") if t.strip()
        ]
    else:
        tokens = list(value)
    models = [t if isinstance(t, FaultModel) else _parse_one(t) for t in tokens]
    by_name: dict[str, FaultModel] = {}
    for model in models:
        if model.name in by_name:
            raise ValueError(f"fault model {model.name!r} given more than once")
        by_name[model.name] = model
    return tuple(by_name[name] for name in sorted(by_name))


def canonical_fault_specs(value: FaultModelsSpec) -> tuple[str, ...]:
    """The canonical, picklable spec-string form (used by configs and
    by the pool, where instances must not travel)."""
    return tuple(m.spec_string() for m in resolve_fault_models(value))


def faults_fingerprint(value: FaultModelsSpec) -> dict:
    """The identity block digests embed for an armed model set."""
    models = resolve_fault_models(value)
    return {
        "version": FAULTS_VERSION,
        "cap": SCENARIO_VECTOR_CAP,
        "models": [m.fingerprint() for m in models],
    }


def stride_sample(pool: Sequence, cap: int) -> list:
    """Deterministic stride sample of ``pool`` down to ``cap`` items:
    evenly spaced draws in pool order."""
    items = list(pool)
    if cap <= 0 or len(items) <= cap:
        return items
    stride = len(items) // cap
    return [items[index * stride] for index in range(cap)]


def scenario_sample(pool: Sequence, cap: int = SCENARIO_VECTOR_CAP) -> list:
    """The vectors that run under each scenario: a stride sample of
    ``pool`` down to ``cap`` items.

    Shared by the injector and the benches so "which vectors run
    under a scenario" has exactly one definition; faulted digests and
    scenario evidence depend on it staying stable.
    """
    return stride_sample(pool, cap)


def format_parameter_index(prototype) -> Optional[int]:
    """Index of the format-string parameter of a printf-family
    prototype (the last declared parameter before the ellipsis), or
    None when the prototype does not look like one."""
    from repro.cdecl import BaseType, PointerType

    parameters = prototype.ftype.parameters
    if not parameters:
        return None
    index = len(parameters) - 1
    ctype = parameters[index].ctype
    if not isinstance(ctype, PointerType):
        return None
    pointee = ctype.pointee
    if not (isinstance(pointee, BaseType) and pointee.name == "char"):
        return None
    return index


def function_pointer_indices(prototype) -> tuple[int, ...]:
    """Indices of function-pointer parameters (callback targets)."""
    from repro.cdecl import FunctionType, PointerType

    indices = []
    for index, parameter in enumerate(prototype.ftype.parameters):
        ctype = parameter.ctype
        if isinstance(ctype, PointerType) and isinstance(ctype.pointee, FunctionType):
            indices.append(index)
    return tuple(indices)
