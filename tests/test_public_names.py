"""Every public module-level name of the package is used by the program.

A name counts as used when another package module, other code of its own
module, or a benchmark file refers to it: as a name, an attribute, an
imported name or a string equal to it (the benchmark patches functions by
name).  Tests do not count, so a name that only tests reach fails here:
it belongs in the tests as an oracle, or nowhere.  Methods, dunder names
and ``_``-prefixed names are out of scope.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "complexitylab"
BENCHMARK = ROOT / "perfbench"


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines (imports bind, they do not define)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(node: ast.AST) -> set[str]:
    """Every identifier the node refers to."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def unused_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {stem: [_referenced(stmt) for stmt in tree.body] for stem, tree in trees.items()}
    benchmark = set().union(*(_referenced(ast.parse(path.read_text(), str(path))) for path in BENCHMARK.glob("*.py")))
    unused = []
    for stem, tree in trees.items():
        elsewhere = benchmark.union(*(r for other, rs in refs.items() if other != stem for r in rs))
        for i, stmt in enumerate(tree.body):
            here = set().union(*(r for j, r in enumerate(refs[stem]) if j != i))
            unused += [f"{stem}.{name}" for name in _defined(stmt) if not name.startswith("_") and name not in elsewhere | here]
    return unused


def test_every_public_name_is_used_by_the_program():
    assert unused_public_names() == []
