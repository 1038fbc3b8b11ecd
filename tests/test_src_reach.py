"""Every public top-level name in the package is reached from elsewhere in it.

A function or class that only tests call is dead weight in `src/`: it moves
to `tests/` or leaves.  The names kept on purpose are listed in `ALLOWED`,
each with its reason.  An allowed name that the package reaches again, or
that is gone, must leave the list too, so the list never outgrows the code.
"""

import ast
import pathlib

import runcons

SRC = pathlib.Path(runcons.__file__).parent

ALLOWED = {
    "consensus.ConsensusRun": "the benchmark tracer (bench/tracing.py) wraps ConsensusRun.step by name",
    "montecarlo.estimate_error_moments": "acceptance check C05 measures the error moments with it",
    "analysis.moment_bound_constants": "acceptance check C05 holds those moments to its caps",
    "stats.vector_third_moment": "acceptance check C05 reads xi3 for the third-moment cap from it",
    "analysis.relative_efficiencies": "acceptance check C12 reads the accurate efficiencies from it",
    "scenario.serialize": "the planned per-output manifest records the resolved scenario text with it",
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
    """module.name of each public top-level name that no other top-level statement mentions."""
    statements = [
        (path.stem, statement)
        for path in sorted(SRC.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    mentions = [_mentions(statement) for _, statement in statements]
    return {
        f"{module}.{name}"
        for k, (module, statement) in enumerate(statements)
        for name in _defines(statement)
        if not name.startswith("_")
        and not any(name in seen for j, seen in enumerate(mentions) if j != k)
    }


def test_every_public_name_is_reached_from_the_package():
    found = orphans()
    assert found - ALLOWED.keys() == set(), "reached only from outside src/; delete or move to tests/"
    assert ALLOWED.keys() - found == set(), "allowed names that are reached from src/ again, or gone"
