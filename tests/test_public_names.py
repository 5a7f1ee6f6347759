"""Every public top-level function or class of the package is used by the
program itself: by ``src/``, ``bench/`` or ``tools/``, not only by tests."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

from gridrank import crossk, model

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


def test_every_traced_function_is_a_callable_of_the_package():
    """bench/tracer.py wraps these functions by name for ``--trace 1``: the
    timed spans and the cross_k call counter."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name in [*tracer.SPANNED, (crossk, "cross_k")]:
        assert module.__name__.startswith("gridrank."), module.__name__
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


# Autodiff internals that the model and the graph build read on purpose:
# the grad-mode flag, the gradient accumulator and the stable sigmoid.
PRIVATE_READS_ALLOWED = {"autodiff._grad_enabled", "autodiff._accum", "autodiff._stable_sigmoid"}


def private_reads(tree: ast.Module) -> set[str]:
    """``module._name`` for every private name of another package module
    that ``tree`` imports or reads as an attribute of an imported module."""
    modules, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import module [as name]
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_module_s_private_names():
    reads = {f"{path.stem}: {name}" for path in sorted((ROOT / "src" / "gridrank").glob("*.py"))
             for name in private_reads(ast.parse(path.read_text())) - PRIVATE_READS_ALLOWED}
    assert not reads, sorted(reads)


def test_no_module_but_the_model_names_a_parameter():
    """``model._shapes`` declares the parameters, so no other module holds
    a string that names one: the graph functions take arrays."""
    names = set(model._shapes(model.ModelConfig(rows=8, cols=8, d_t=1, d_s=1, d_st=1)))
    found = {f"{path.stem}: {node.value}" for path in sorted((ROOT / "src" / "gridrank").glob("*.py"))
             if path.stem != "model" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names}
    assert not found, sorted(found)
