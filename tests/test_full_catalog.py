"""Broad sweeps over the whole catalog: every function must survive
injection, produce a declaration, and yield valid wrapper C code."""

import pytest

from repro.declarations import declaration_from_report
from repro.injector import FaultInjector, RunSpec
from repro.libc.catalog import BALLISTA_SET, BY_NAME, CATALOG
from repro.wrapper import generate_wrapper_function, generate_wrapper_library

#: Catalog extras beyond the 86-function evaluation set.
EXTRAS = sorted(s.name for s in CATALOG if not s.ballista)


class TestCatalogConsistency:
    def test_86_evaluation_functions(self):
        assert len(BALLISTA_SET) == 86

    def test_all_prototypes_parse_and_match_names(self):
        from repro.cdecl import DeclarationParser, typedef_table

        parser = DeclarationParser(typedef_table())
        for spec in CATALOG:
            prototype = parser.parse_prototype(spec.prototype)
            assert prototype.name == spec.name
            assert prototype.ftype.variadic == spec.variadic, spec.name

    def test_models_are_callable_with_declared_arity(self):
        import inspect

        from repro.cdecl import DeclarationParser, typedef_table

        parser = DeclarationParser(typedef_table())
        for spec in CATALOG:
            arity = parser.parse_prototype(spec.prototype).ftype.arity
            signature = inspect.signature(spec.model)
            fixed = [
                p for p in signature.parameters.values()
                if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            ]
            assert len(fixed) == arity + 1, spec.name  # +1 for ctx

    def test_names_are_unique(self):
        assert len(BY_NAME) == len(CATALOG)


@pytest.mark.parametrize("name", EXTRAS)
def test_extras_survive_injection_and_codegen(name):
    """The non-evaluated functions (unistd raw I/O, sprintf family,
    getenv, …) go through the full phase-1 + codegen path without
    errors and with plausible outputs."""
    report = FaultInjector(BY_NAME[name], run=RunSpec(400)).run()
    declaration = declaration_from_report(report)
    assert declaration.name == name
    assert declaration.arity == report.prototype.ftype.arity
    code = generate_wrapper_function(declaration)
    assert code.count("{") == code.count("}")
    if declaration.unsafe:
        assert f"(*libc_{name})" in code


class TestFullLibrarySource:
    def test_whole_86_function_wrapper_compilation_unit(self, declarations86):
        source = generate_wrapper_library(declarations86)
        assert source.count("{") == source.count("}")
        assert source.count("(") == source.count(")")
        unsafe = [n for n, d in declarations86.items() if d.unsafe]
        for name in unsafe:
            assert f'dlsym(RTLD_NEXT, "{name}")' in source
        # Safe functions must not be wrapped.
        for name in ("abs", "srand", "tcflush"):
            assert f"(*libc_{name})" not in source

    def test_source_is_substantial(self, declarations86):
        source = generate_wrapper_library(declarations86)
        assert len(source.splitlines()) > 1000  # 77 wrappers + preamble
