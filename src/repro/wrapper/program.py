"""Compiled wrapper check programs: the wrapper's one check path.

Walking a declaration per call pays, on **every hardened call**, for
work that only depends on the function's *declaration*: a fresh
:class:`~repro.wrapper.checks.CheckLibrary` instance, a zip over the
argument list, a policy branch per argument, and an
``getattr(self, f"_check_{name}")`` dispatch per check.  Table 2 makes
this the product — checking cost is what callers pay per call — so this
module compiles each :class:`~repro.declarations.model.FunctionDeclaration`
once into a :class:`CheckProgram`: a flattened tuple of specialized
step closures with

* **precomputed bounds** — ARRAY sizes, NULL-admissibility, violation
  strings and scalar ranges are burned in at compile time;
* **fused pointer+size validation** — ``R_ARRAY_NULL`` is one step,
  not a NULL test plus a handler dispatch plus a ``memory_ok`` call;
* **hoisted lookups** — check handlers are resolved once at compile
  time, and the per-call runtime state (heap table, address space,
  kernel fd table, funcptr registry) is bound once per call by the
  reusable :class:`ProgramContext`, not re-fetched per check;
* **prototype sharing** — programs are content-addressed by the
  declaration *shape* (robust-type renders, assertions, relational
  plans, policy and config), exactly the way
  :class:`~repro.injector.plan.InjectionPlan` is shared across
  same-shaped prototypes, so the 86-function catalog compiles to a
  far smaller program set and every later ``WrapperLibrary`` in the
  process reuses it.

On top, :class:`ProgramContext` keeps a **revalidation cache**: a small
``(pointer, size, read, write) -> bool`` memo for the content-independent
``memory_ok`` decision, valid only while the address space's
:attr:`~repro.memory.address_space.AddressSpace.generation` counter is
unchanged.  ``map``/``unmap``/``protect`` and ``free`` bump the
counter, so any mapping or heap-table mutation invalidates the cache;
content-dependent decisions (string scans, FILE probes, fd modes) are
never cached.  Repeat-validated arguments — the common case in
call-intensive applications that hammer the same buffers — skip memory
probing entirely.

Soundness contract, pinned by ``tests/test_wrapper_program.py`` and
the generated differential ``tests/test_wrapper_differential.py``:
compiled programs return **decision-identical** results to the
per-argument ``CheckLibrary`` walk kept in ``tests/wrapper_reference.py``
— same accept/reject, same violation strings, same error codes, same
``checks_performed`` accounting — across the whole catalog and every
:class:`CheckConfig` ablation.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.declarations.model import FunctionDeclaration
from repro.memory import NULL
from repro.wrapper.checks import CheckConfig, CheckLibrary
from repro.wrapper.relational import BUFFER_PLANS

#: Bumped whenever compiled program structure or step semantics
#: change; folded into every program digest.
PROGRAM_VERSION = 1

#: Default bound on the per-context revalidation cache.
DEFAULT_REVALIDATE_CAP = 256

#: Types whose check is cheap enough for the MINIMAL wrapper: it only
#: prevents wild pointers, not content-level problems.
MINIMAL_CHECKED = frozenset({"NULL", "FUNCPTR", "FUNCPTR_NULL"})

#: Families the MINIMAL policy treats as pointers (wild-pointer test).
POINTER_FAMILIES = ("ptr", "file", "dir", "string", "funcptr")

#: One compiled step: ``(args, ctx) -> violation | None``.
Step = Callable[[Sequence, "ProgramContext"], Optional[str]]

#: ARRAY-family fusion table: name -> (read, write, allow_null).
_ARRAY_SPECS: dict[str, tuple[bool, bool, bool]] = {
    "R_ARRAY": (True, False, False),
    "W_ARRAY": (False, True, False),
    "RW_ARRAY": (True, True, False),
    "R_ARRAY_NULL": (True, False, True),
    "W_ARRAY_NULL": (False, True, True),
    "RW_ARRAY_NULL": (True, True, True),
}

#: Types whose handler accepts unconditionally (counted no-ops, to
#: keep ``checks_performed`` identical to ``CheckLibrary.check``).
_PASS_TYPES = frozenset(
    {"UNCONSTRAINED", "ANY_INT", "ANY_SIZE", "ANY_REAL", "ANY_FD"}
)

#: Scalar fast paths: name -> predicate over the argument value.
_SCALAR_PREDICATES: dict[str, Callable[[object], bool]] = {
    "CHAR_RANGE": lambda v: -128 <= v <= 255,
    "INT_NONNEG": lambda v: v >= 0,
    "INT_NONPOS": lambda v: v <= 0,
    "REASONABLE_SIZE": lambda v: 0 <= v < 2**31,
    "FINITE_REAL": lambda v: math.isfinite(v),
}


class ProgramContext(CheckLibrary):
    """A reusable, runtime-rebindable check-primitive set.

    Subclasses :class:`CheckLibrary` so every primitive a compiled
    step (or a compile-time-resolved handler) touches is *the same
    code* ``CheckLibrary.check`` runs — decision identity by construction —
    while adding:

    * :meth:`bind` — one-per-call rebinding to the current runtime
      (hoisting the space/heap/funcptr lookups out of the steps) with
      generation-checked cache retention;
    * a bounded revalidation cache over :meth:`memory_ok`, hit when
      the same ``(pointer, size, read, write)`` tuple is re-validated
      under an unchanged mapping generation.
    """

    def __init__(
        self,
        state,
        config: Optional[CheckConfig] = None,
        cache_cap: int = DEFAULT_REVALIDATE_CAP,
    ) -> None:
        # Deliberately does not call CheckLibrary.__init__: the runtime
        # is bound per call, not per instance.
        self.runtime = None
        self.state = state
        self.config = config or CheckConfig()
        self.active_assertions: tuple[str, ...] = ()
        self.checks_performed = 0
        self.probe_bytes = 0
        self.cache_cap = cache_cap
        self._mem_cache: Optional[dict] = {} if cache_cap > 0 else None
        self._space = None
        self._generation = -1
        self.funcptrs: dict = {}
        #: revalidation-cache economics, exported as wrapper.* series
        self.revalidate_hits = 0
        self.revalidate_misses = 0

    # ------------------------------------------------------------------
    def bind(self, runtime) -> None:
        """Bind the context to ``runtime`` for the next program run.

        Re-binding to the same runtime keeps the revalidation cache
        when the address space's mapping generation is unchanged —
        the fast path for call-intensive applications — and clears it
        on any mapping/heap mutation or runtime switch.
        """
        space = runtime.space
        if runtime is self.runtime and space is self._space:
            if space.generation != self._generation:
                self._generation = space.generation
                if self._mem_cache:
                    self._mem_cache.clear()
            return
        self.runtime = runtime
        self._space = space
        self._generation = space.generation
        self.funcptrs = runtime.funcptrs
        if self._mem_cache:
            self._mem_cache.clear()

    # ------------------------------------------------------------------
    def memory_ok(self, pointer: int, size: int, read: bool, write: bool) -> bool:
        """Cache-fronted :meth:`CheckLibrary.memory_ok`.

        Safe to memoize because the decision depends only on the
        mapping table, protections, freed flags, and the heap
        allocation table — all covered by the generation counter —
        never on memory *content*.
        """
        cache = self._mem_cache
        if cache is None:
            return CheckLibrary.memory_ok(self, pointer, size, read, write)
        if pointer == NULL:
            return False
        if size == 0:
            size = 1
        key = (pointer, size, read, write)
        hit = cache.get(key)
        if hit is not None:
            self.revalidate_hits += 1
            return hit
        self.revalidate_misses += 1
        result = CheckLibrary.memory_ok(self, pointer, size, read, write)
        if len(cache) >= self.cache_cap:
            cache.clear()
        cache[key] = result
        return result


@dataclass(frozen=True)
class CheckProgram:
    """A compiled, content-addressable argument-check program.

    ``steps`` run in declaration order (argument checks, then
    executable assertions, then relational buffer plans) and the first
    step returning a violation string short-circuits.
    """

    #: The sharing key (shape + policy + config + assertion/relational
    #: identity); two declarations with equal keys share one program.
    key: tuple
    #: sha256 content address over (PROGRAM_VERSION, key).
    digest: str
    #: assertion names activated while this program runs (consulted by
    #: the OPEN_FILE handler through ``active_assertions``).
    assertions: tuple[str, ...]
    #: ``(arity_bound, step)`` pairs; a step runs only when the call
    #: passed more than ``arity_bound`` arguments.
    steps: tuple[tuple[int, Step], ...]

    def run(self, args: Sequence, ctx: ProgramContext) -> Optional[str]:
        """Evaluate every step; first violation wins."""
        ctx.active_assertions = self.assertions
        nargs = len(args)
        for arity_bound, step in self.steps:
            if arity_bound >= nargs:
                continue
            violation = step(args, ctx)
            if violation is not None:
                return violation
        return None


# ----------------------------------------------------------------------
# step compilers
# ----------------------------------------------------------------------


def _compile_argument(index: int, robust) -> Optional[Step]:
    """One argument's full check as a specialized closure.

    Mirrors ``CheckLibrary.check`` (including the counted KeyError →
    unenforceable-type semantics) with the dispatch, bounds, and
    violation string resolved at compile time.
    """
    name = robust.name
    message = f"arg {index}: not in V({robust.render()})"

    if name in _PASS_TYPES:

        def step(args, ctx):
            ctx.checks_performed += 1
            return None

        return step

    spec = _ARRAY_SPECS.get(name)
    if spec is not None:
        read, write, allow_null = spec
        size = robust.param or 1

        def step(args, ctx):
            ctx.checks_performed += 1
            value = args[index]
            if allow_null and value == NULL:
                return None
            return None if ctx.memory_ok(value, size, read, write) else message

        return step

    if name == "NULL":

        def step(args, ctx):
            ctx.checks_performed += 1
            return None if args[index] == NULL else message

        return step

    if name in ("CSTRING", "CSTRING_NULL"):
        allow_null = name.endswith("_NULL")

        def step(args, ctx):
            ctx.checks_performed += 1
            value = args[index]
            if allow_null and value == NULL:
                return None
            return None if ctx.string_length(value) is not None else message

        return step

    if name in ("WRITABLE_STRING", "WRITABLE_STRING_NULL"):
        allow_null = name.endswith("_NULL")

        def step(args, ctx):
            ctx.checks_performed += 1
            value = args[index]
            if allow_null and value == NULL:
                return None
            length = ctx.string_length(value)
            if length is None:
                return message
            return None if ctx.memory_ok(value, length + 1, True, True) else message

        return step

    predicate = _SCALAR_PREDICATES.get(name)
    if predicate is not None:

        def step(args, ctx):
            ctx.checks_performed += 1
            return None if predicate(args[index]) else message

        return step

    if name in ("FUNCPTR", "FUNCPTR_NULL"):
        allow_null = name.endswith("_NULL")

        def step(args, ctx):
            ctx.checks_performed += 1
            value = args[index]
            if allow_null and value == NULL:
                return None
            return None if value in ctx.funcptrs else message

        return step

    # Everything else (FILE/DIR/FD/MODE/FORMAT checks) reuses the
    # CheckLibrary handler, resolved ONCE here instead of via the
    # per-call f-string getattr dispatch.
    handler = getattr(CheckLibrary, f"_check_{name}", None)
    if handler is None:
        # No checking function: the check is counted and the type
        # treated as unenforceable (CheckLibrary.check's KeyError).

        def step(args, ctx):
            ctx.checks_performed += 1
            return None

        return step

    def step(args, ctx):
        ctx.checks_performed += 1
        return None if handler(ctx, robust, args[index]) else message

    return step


def _compile_minimal(index: int, robust) -> Optional[Step]:
    """The MINIMAL policy's wild-pointer test for one argument
    (not counted: it never goes through ``CheckLibrary.check``)."""
    if robust.family not in POINTER_FAMILIES:
        return None
    message = f"arg {index}: wild pointer"
    null_short = robust.name.endswith("_NULL") or robust.name in (
        "UNCONSTRAINED",
        "NULL",
    )

    def step(args, ctx):
        value = args[index]
        if null_short and value == 0:
            return None
        if ctx.memory_ok(value, 1, True, False) or value == 0:
            return None
        return message

    return step


def _compile_assertion(
    assertion: str, declaration: FunctionDeclaration
) -> Optional[Step]:
    """One executable assertion (section 6 manual-edit plugins) with
    its argument scan hoisted to compile time."""
    if assertion == "track_dir":

        def step(args, ctx):
            if args and not ctx.state.assert_tracked_dir(args[0]):
                return "DIR* was not returned by opendir"
            return None

        return step
    if assertion == "track_file":
        file_index = next(
            (
                i
                for i, arg_decl in enumerate(declaration.arguments)
                if arg_decl.robust_type.family == "file" or "FILE" in arg_decl.ctype
            ),
            None,
        )
        if file_index is None:
            return None
        allow_null = declaration.arguments[file_index].robust_type.name.endswith(
            "_NULL"
        )

        def step(args, ctx):
            if file_index < len(args) and not ctx.state.assert_tracked_file(
                args[file_index], allow_null
            ):
                return "FILE* is not an open stream of this process"
            return None

        return step
    if assertion == "strtok_state":

        def step(args, ctx):
            if args and not ctx.state.assert_strtok_state(ctx.runtime, args[0]):
                return "strtok(NULL, ...) without a saved position"
            return None

        return step
    return None


def _compile_relational(name: str) -> Optional[Step]:
    """The function's relational buffer plans as one step: the first
    plan whose buffer cannot hold the required bytes is the
    violation."""
    plans = BUFFER_PLANS.get(name)
    if not plans:
        return None
    compiled = tuple(
        (plan, f"unmeasurable requirement: {plan.description}") for plan in plans
    )

    def step(args, ctx):
        strlen = ctx.string_length
        for plan, unmeasurable in compiled:
            required = plan.capacity(args, strlen)
            if required is None:
                return unmeasurable
            if required <= 0:
                continue
            if not ctx.memory_ok(
                args[plan.buffer_index], required, not plan.write, plan.write
            ):
                return f"violated: {plan.description} (need {required} bytes)"
        return None

    return step


# ----------------------------------------------------------------------
# compilation + the shared program cache
# ----------------------------------------------------------------------


def _track_file_identity(declaration: FunctionDeclaration):
    """The compile-time facts the track_file assertion depends on
    (folded into the sharing key because they derive from ctypes, not
    from the robust-type shape)."""
    if "track_file" not in declaration.assertions:
        return None
    file_index = next(
        (
            i
            for i, arg_decl in enumerate(declaration.arguments)
            if arg_decl.robust_type.family == "file" or "FILE" in arg_decl.ctype
        ),
        None,
    )
    if file_index is None:
        return ()
    return (
        file_index,
        declaration.arguments[file_index].robust_type.name.endswith("_NULL"),
    )


def program_key(
    declaration: FunctionDeclaration,
    config: CheckConfig,
    *,
    minimal: bool,
    relational: bool,
) -> tuple:
    """The sharing key: everything the compiled steps depend on.

    Deliberately excludes the function name except where semantics are
    name-keyed (relational buffer plans), so same-shaped prototypes
    share one program."""
    shape = tuple(
        (argument.robust_type.render(), argument.robust_type.family)
        for argument in declaration.arguments
    )
    relational_key = (
        declaration.name
        if relational and not minimal and BUFFER_PLANS.get(declaration.name)
        else None
    )
    return (
        "minimal" if minimal else "full",
        (config.stateful, config.page_probe, config.page_granularity),
        shape,
        declaration.assertions,
        _track_file_identity(declaration),
        relational_key,
    )


def compile_program(
    declaration: FunctionDeclaration,
    config: CheckConfig,
    *,
    minimal: bool,
    relational: bool,
) -> CheckProgram:
    """Compile one declaration into a flattened check program."""
    key = program_key(declaration, config, minimal=minimal, relational=relational)
    steps: list[tuple[int, Step]] = []
    for index, argument in enumerate(declaration.arguments):
        robust = argument.robust_type
        if minimal and robust.name not in MINIMAL_CHECKED:
            compiled = _compile_minimal(index, robust)
        else:
            compiled = _compile_argument(index, robust)
        if compiled is not None:
            # Arity bound: declared arguments beyond the args actually
            # passed are skipped, as a zip over both would.
            steps.append((index, compiled))
    for assertion in declaration.assertions:
        compiled = _compile_assertion(assertion, declaration)
        if compiled is not None:
            steps.append((-1, compiled))
    if relational and not minimal:
        compiled = _compile_relational(declaration.name)
        if compiled is not None:
            steps.append((-1, compiled))
    digest = hashlib.sha256(
        repr((PROGRAM_VERSION, key)).encode("utf-8")
    ).hexdigest()
    return CheckProgram(
        key=key,
        digest=digest,
        assertions=declaration.assertions,
        steps=tuple(steps),
    )


_CACHE_LOCK = threading.Lock()
_PROGRAM_CACHE: dict[tuple, CheckProgram] = {}


def program_for(
    declaration: FunctionDeclaration,
    config: CheckConfig,
    *,
    minimal: bool,
    relational: bool,
) -> tuple[CheckProgram, bool]:
    """The shared compiled program for ``declaration``.

    Returns ``(program, shared)`` — ``shared`` is True when a
    same-shaped prototype already compiled it (process-wide, exactly
    like :func:`repro.injector.plan` sharing)."""
    key = program_key(declaration, config, minimal=minimal, relational=relational)
    with _CACHE_LOCK:
        cached = _PROGRAM_CACHE.get(key)
    if cached is not None:
        return cached, True
    program = compile_program(
        declaration, config, minimal=minimal, relational=relational
    )
    with _CACHE_LOCK:
        winner = _PROGRAM_CACHE.setdefault(key, program)
    return winner, winner is not program


def program_cache_size() -> int:
    with _CACHE_LOCK:
        return len(_PROGRAM_CACHE)


def clear_program_cache() -> None:
    """Test hook: drop every shared program."""
    with _CACHE_LOCK:
        _PROGRAM_CACHE.clear()
