"""Campaign output does not depend on worker, shard or completion order.

Serial and pooled runs are bit-identical because no code under
``src/`` draws from the process-global ``random`` state: randomness, where
a module needs it, comes from its own seeded ``random.Random`` (as
``repro.syslib.synthetic`` does with ``CORPUS_SEED``).  This scan holds
that invariant in code, so a stray ``random.choice`` cannot make results
depend on which worker ran a task.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _global_random_uses(tree: ast.AST) -> list[int]:
    """Lines that use the global ``random`` module's functions, or build
    a ``random.Random`` without a seed."""
    modules = set()  # names bound to the random module
    classes = set()  # names bound to random.Random
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "random"}
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name == "Random":
                    classes.add(alias.asname or alias.name)
                else:
                    lines.append(node.lineno)

    def is_random_class(func: ast.AST) -> bool:
        if isinstance(func, ast.Name):
            return func.id in classes
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
            and func.attr == "Random"
        )

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr != "Random"
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and is_random_class(node.func)
            and not (node.args or node.keywords)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_global_random_detector():
    source = (
        "import random\n"
        "random.seed(0)\n"
        "x = random.choice(x)\n"
        "from random import shuffle\n"
        "rng = random.Random(1)\n"
        "def f(rng: random.Random): pass\n"
        "rng = random.Random()\n"
        "import random as r\n"
        "r.random()\n"
        "from random import Random as R\n"
        "R(2)\n"
        "R()\n"
    )
    assert _global_random_uses(ast.parse(source)) == [2, 3, 4, 7, 9, 12]


def test_src_draws_no_global_randomness():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.relative_to(SRC)}:{line}" for line in _global_random_uses(tree)
        ]
    assert offenders == []
