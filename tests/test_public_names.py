"""Every public top-level function or class of the package is used by the
program itself: by ``src/``, ``bench/`` or ``tools/``, not only by tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tests/conftest.py turns the per-op finiteness check on for every test, and
# the planned diagnosis of a non-finite training loss is to call it from src/.
CALLED_ONLY_FROM_TESTS = {"autodiff.set_debug"}


def identifiers(node: ast.AST) -> Counter:
    """Uses of each identifier under ``node``: names, attributes, imported
    names and identifier strings (the bench looks functions up by name)."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found[child.name.rpartition(".")[2]] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) and child.value.isidentifier():
            found[child.value] += 1
    return found


def test_every_public_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "bench", "tools")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    uses = sum((identifiers(tree) for tree in trees.values()), Counter())
    unused = set()
    for path in sorted((ROOT / "src" / "gridrank").glob("*.py")):
        for node in trees[path].body:
            public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            # uses inside the definition itself (recursion, annotations) do not count
            if public and uses[node.name] == identifiers(node)[node.name]:
                unused.add(f"{path.stem}.{node.name}")
    assert unused <= CALLED_ONLY_FROM_TESTS, sorted(unused - CALLED_ONLY_FROM_TESTS)
