"""Reference (interpreted) wrapper argument checks.

:class:`~repro.wrapper.wrapper.WrapperLibrary` checks arguments by
running a compiled :class:`~repro.wrapper.program.CheckProgram`: one
flattened tuple of specialized steps per declaration shape.  That is
performance work only; its decisions must be identical to the plain
per-call walk this reproduction started with — a fresh
:class:`~repro.wrapper.checks.CheckLibrary` per call, a zip over the
declared arguments, ``CheckLibrary.check`` per argument, then the
executable assertions, then the relational buffer plans.

This module keeps that walk alive as :class:`ReferenceWrapper`, which
overrides only the argument-check method, so the golden sweep
(``test_wrapper_program.py``), the generated differential
(``test_wrapper_differential.py``) and the wrapper bench
(``benchmarks/test_bench_wrapper.py``) can diff the compiled checker
against ground truth.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.declarations.model import FunctionDeclaration
from repro.libc.runtime import LibcRuntime
from repro.typelattice.instances import TypeInstance
from repro.wrapper.checks import CheckConfig, CheckLibrary
from repro.wrapper.relational import BUFFER_PLANS
from repro.wrapper.wrapper import WrapperLibrary, WrapperPolicy

#: Every CheckConfig ablation the wrapper tests and benches exercise.
CONFIGS = {
    "default": CheckConfig(),
    "stateless": CheckConfig(stateful=False),
    "exhaustive-probe": CheckConfig(page_probe=False),
    "page-granular": CheckConfig(page_granularity=True),
}

#: Types whose check is cheap enough for the MINIMAL wrapper: it only
#: prevents wild pointers, not content-level problems.
MINIMAL_CHECKED = frozenset({"NULL", "FUNCPTR", "FUNCPTR_NULL"})

#: Families the MINIMAL policy treats as pointers.
POINTER_FAMILIES = ("ptr", "file", "dir", "string", "funcptr")


def relational_violation(
    name: str, args: Sequence[int], checks: CheckLibrary
) -> Optional[str]:
    """Evaluate the function's buffer plans; returns a description of
    the first violated plan, or None when all hold."""
    plans = BUFFER_PLANS.get(name)
    if not plans:
        return None
    for plan in plans:
        required = plan.capacity(args, checks.string_length)
        if required is None:
            return f"unmeasurable requirement: {plan.description}"
        if required <= 0:
            continue
        pointer = args[plan.buffer_index]
        read = not plan.write
        if not checks.memory_ok(pointer, required, read, plan.write):
            return f"violated: {plan.description} (need {required} bytes)"
    return None


class ReferenceWrapper(WrapperLibrary):
    """A :class:`WrapperLibrary` whose argument checks are the
    interpreted walk instead of a compiled program."""

    def _check_arguments(
        self,
        declaration: FunctionDeclaration,
        args: Sequence,
        runtime: LibcRuntime,
        name: str,
    ) -> Optional[str]:
        checks = CheckLibrary(runtime, self.state, self.check_config)
        checks.active_assertions = declaration.assertions
        try:
            for index, (argument, value) in enumerate(
                zip(declaration.arguments, args)
            ):
                robust = argument.robust_type
                if (
                    self.policy is WrapperPolicy.MINIMAL
                    and robust.name not in MINIMAL_CHECKED
                ):
                    if not _minimal_pointer_ok(robust, value, checks):
                        return f"arg {index}: wild pointer"
                    continue
                try:
                    ok = checks.check(robust, value)
                except KeyError:
                    ok = True  # no checking function: type is unenforceable
                if not ok:
                    return f"arg {index}: not in V({robust.render()})"
            for assertion in declaration.assertions:
                failure = self._run_assertion(assertion, declaration, args, runtime)
                if failure is not None:
                    return failure
            if self.relational and self.policy is not WrapperPolicy.MINIMAL:
                violation = relational_violation(name, list(args), checks)
                if violation is not None:
                    return violation
            return None
        finally:
            self.stats.checks += checks.checks_performed

    def _run_assertion(
        self,
        assertion: str,
        declaration: FunctionDeclaration,
        args: Sequence,
        runtime: LibcRuntime,
    ) -> Optional[str]:
        """Executable assertions from the manual edits (section 6)."""
        if assertion == "track_dir":
            if args and not self.state.assert_tracked_dir(args[0]):
                return "DIR* was not returned by opendir"
        elif assertion == "track_file":
            index = next(
                (
                    i
                    for i, arg_decl in enumerate(declaration.arguments)
                    if arg_decl.robust_type.family == "file"
                    or "FILE" in arg_decl.ctype
                ),
                None,
            )
            if index is not None and index < len(args):
                allow_null = declaration.arguments[index].robust_type.name.endswith(
                    "_NULL"
                )
                if not self.state.assert_tracked_file(args[index], allow_null):
                    return "FILE* is not an open stream of this process"
        elif assertion == "strtok_state":
            if args and not self.state.assert_strtok_state(runtime, args[0]):
                return "strtok(NULL, ...) without a saved position"
        return None


def _minimal_pointer_ok(
    robust: TypeInstance, value, checks: CheckLibrary
) -> bool:
    """MINIMAL policy: only reject NULL/unmapped pointers for
    pointer-typed arguments."""
    if robust.family not in POINTER_FAMILIES:
        return True
    if robust.name.endswith("_NULL") or robust.name in ("UNCONSTRAINED", "NULL"):
        if value == 0:
            return True
    return checks.memory_ok(value, 1, True, False) or value == 0
