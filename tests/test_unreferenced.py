"""Every function and class of the package is used by the package itself."""

import ast
import collections
from pathlib import Path

import stormlet

SRC = Path(stormlet.__file__).parent

# no caller in the package; the benchmark's tracer looks them up by name
ALLOWED = {"matvec_rational", "gauss_seidel_sweep"}


def _references(node):
    """How often each name is read, as a name, an attribute or an import."""
    out = collections.Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            out[child.id] += 1
        elif isinstance(child, ast.Attribute):
            out[child.attr] += 1
        elif isinstance(child, ast.alias):
            out[child.name.rsplit(".", 1)[-1]] += 1
    return out


def test_every_function_and_class_is_referenced_outside_its_definition():
    total, own, defined = collections.Counter(), collections.Counter(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        total += _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.relative_to(SRC)}:{node.lineno}"))
                own[node.name] += _references(node)[node.name]  # recursion, say
    unused = sorted((name, where) for name, where in defined
                    if total[name] == own[name] and not (name.startswith("__") and name.endswith("__")))
    assert [name for name, _ in unused] == sorted(ALLOWED), unused
