"""Every top-level definition under `src/` has a caller outside the tests.

A top-level `def`, `class` or constant of a package module must be named by
code elsewhere in `src/` (not counting the re-exports of `__init__.py`), or
by `perfbench/`, whose tracer resolves package functions by name, or be in
`ALLOWED` with its reason.  A name only the tests use belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewpbw"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    "run_all": "every applicable theorem check on one instance: layer 5's library entry point",
    "replay_violation": "replays a violation witness at the caps that produced it, as the exactness contract asks",
    "standard_rings": "the ring-level corpus; moving it to the tests would take field4 and trunc_poly_grading along",
}


def _top_level(tree):
    """(name, statement) of every top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _names(stmt) -> set:
    """Every identifier the statement uses: names, attributes, imports and string constants."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)  # a forward reference in an annotation
    return out


def unused_definitions(allowed: dict) -> list:
    """(module, name) of every top-level definition with no caller, in file order."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    perfbench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    uses = [(stmt, _names(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for module, tree in trees.items():
        for name, stmt in _top_level(tree):
            if name.startswith("__") or name in allowed:
                continue
            if not any(name in used for other, used in uses if other is not stmt) and not re.search(
                rf"\b{re.escape(name)}\b", perfbench
            ):
                unused.append((module, name))
    return unused


def test_every_top_level_definition_has_a_caller():
    assert unused_definitions(ALLOWED) == []


def test_every_allowed_name_would_fail_the_guard():
    # an entry whose name gained a caller, or left the package, is stale
    assert sorted(name for _, name in unused_definitions({})) == sorted(ALLOWED)
