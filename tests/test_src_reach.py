"""Every top-level name in the package is reached from the package's roots.

A function or class that only tests call is dead weight in `src/`: it moves
to `tests/` or leaves.  Reach is followed to a fixed point from the top-level
statements that define no name but dunders (imports, the `__main__` guard)
and from the names kept on purpose: a name mentioned only by dead names is
dead too.  The names kept on purpose are listed in `ALLOWED`, each with its
reason.  An allowed name that the package reaches again, or that is gone,
must leave the list too, so the list never outgrows the code.
"""

import ast
import pathlib

import runcons

SRC = pathlib.Path(runcons.__file__).parent

ALLOWED = {
    "consensus.ConsensusRun": "the dense oracle the tests replay the engine's draws through, under both weight "
                              "schedules; the benchmark tracer (bench/tracing.py) wraps ConsensusRun.step by name",
}


def _defines(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [target.id for target in statement.targets if isinstance(target, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _mentions(statement: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def orphans() -> set[str]:
    """module.name of each top-level name that no other live top-level statement mentions.

    The statements that define no name but dunders (imports, `__all__`, the
    `__main__` guard) are live, and so are those that define an allowed name
    or a name that another live statement mentions.
    """
    statements = [
        ({f"{path.stem}.{name}": name for name in _defines(statement)}, _mentions(statement))
        for path in sorted(SRC.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    roots = {k for k, (defined, _) in enumerate(statements) if all(name.startswith("__") for name in defined.values())}
    kept = {k for k, (defined, _) in enumerate(statements) if defined.keys() & ALLOWED.keys()}
    reached: set[int] = set()
    while True:
        live = roots | kept | reached
        grown = {
            k for k, (defined, _) in enumerate(statements)
            if any(name in statements[j][1] for j in live - {k} for name in defined.values())
        }
        if grown <= reached:
            return {full for k, (defined, _) in enumerate(statements) if k not in roots | reached for full in defined}
        reached |= grown


def test_every_public_name_is_reached_from_the_package():
    found = orphans()
    assert found - ALLOWED.keys() == set(), "reached only from outside src/; delete or move to tests/"
    assert ALLOWED.keys() - found == set(), "allowed names that are reached from src/ again, or gone"
