"""The compiled wrapper's revalidation cache trusts the mapping generation.

:class:`~repro.wrapper.program.ProgramContext` keeps ``memory_ok``
verdicts while ``AddressSpace.generation`` is unchanged, so every
protection change must go through ``AddressSpace.protect`` (which
bumps it).  These tests hold that invariant in code: one drives every
test-case builder that maps memory with a verdict cached while the
fresh region was still RW, the other scans the source for direct
``<region>.prot`` writes outside ``repro.memory``.
"""

import ast
from pathlib import Path

from repro.ballista import pools
from repro.generators.arrays import AdaptiveArrayTemplate
from repro.generators.strings_gen import StringTemplate
from repro.libc.runtime import standard_runtime
from repro.memory import AddressSpace, Protection
from repro.typelattice import registry
from repro.wrapper import CheckConfig, WrapperState
from repro.wrapper.program import ProgramContext

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Every Ballista value pool, including ones added later.
POOLS = [pool for name, pool in vars(pools).items() if name.endswith("_POOL")]


def _builders():
    """(label, build(runtime)) for every pool value and every template
    class that maps a region and then sets its protection."""
    for pool in POOLS:
        for value in pool:
            yield value.label, value.build
    for prot in (Protection.READ, Protection.WRITE, Protection.RW):
        template = AdaptiveArrayTemplate(prot, initial_size=64)
        yield template.label, lambda runtime, t=template: t.materialize(runtime)
    for prot, fundamental in (
        (Protection.READ, registry.STRING_RO),
        (Protection.RW, registry.STRING_RW),
    ):
        template = StringTemplate(b"text", prot, fundamental)
        yield template.label, lambda runtime, t=template: t.materialize(runtime)


def _context(runtime) -> ProgramContext:
    ctx = ProgramContext(WrapperState(), CheckConfig())
    ctx.bind(runtime)
    return ctx


def test_no_cached_verdict_survives_a_protection_change(monkeypatch):
    real_map = AddressSpace.map_region
    changed = 0
    for label, build in _builders():
        runtime = standard_runtime()
        eager = _context(runtime)
        mapped = []

        def map_and_validate(self, size, *args, **kwargs):
            region = real_map(self, size, *args, **kwargs)
            # Cache a verdict while the region still has its mapping
            # protection, as a wrapper call at this point would.
            eager.bind(runtime)
            eager.memory_ok(region.base, size, True, True)
            mapped.append((region, size, region.prot))
            return region

        with monkeypatch.context() as patch:
            patch.setattr(AddressSpace, "map_region", map_and_validate)
            build(runtime)
        eager.bind(runtime)
        fresh = _context(runtime)
        for region, size, mapped_prot in mapped:
            changed += region.prot != mapped_prot
            assert eager.memory_ok(region.base, size, True, True) == fresh.memory_ok(
                region.base, size, True, True
            ), f"{label}: stale verdict after {mapped_prot!r} -> {region.prot!r}"
    # The sweep must include builders that really change protection.
    assert changed > 0


def _direct_prot_writes(tree: ast.AST) -> list[int]:
    """Lines assigning ``<x>.prot`` for any ``x`` other than ``self``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            owner = node.value
            if node.attr == "prot" and not (
                isinstance(owner, ast.Name) and owner.id == "self"
            ):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "prot"
        ):
            lines.append(node.lineno)
    return lines


def test_direct_prot_write_detector():
    source = "region.prot = p\nself.prot = p\nx.y.prot |= p\nsetattr(r, 'prot', p)\n"
    assert _direct_prot_writes(ast.parse(source)) == [1, 3, 4]


def test_protection_changes_only_inside_repro_memory():
    memory = SRC / "memory"
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if memory in path.parents:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.relative_to(SRC)}:{line}" for line in _direct_prot_writes(tree)
        ]
    assert offenders == [], (
        "assign protections through AddressSpace.protect so the mapping "
        f"generation moves: {offenders}"
    )
