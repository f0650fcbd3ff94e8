"""No library name is reached from the tests alone: every function, class
and public method of ``trumpbench`` is used by the program itself."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trumpbench"


def program_files() -> list[Path]:
    """The package's and the benchmark's sources, without their tests."""
    files = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    return [path for path in files if not path.name.startswith("test_")]


def references(node: ast.AST) -> Counter:
    """How often each name is used inside ``node``: as a variable, an
    attribute, an imported name, or a string that is exactly the name (the
    benchmark wraps its trace sites by attribute name)."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names[sub.value] += 1
    return names


def definitions(tree: ast.Module):
    """Module-level functions and classes, and the public methods of the classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                item for item in node.body
                if isinstance(item, functions) and not item.name.startswith("_")
            )


def console_scripts() -> list[str]:
    """The functions ``pyproject.toml`` installs as commands."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.findall(r'"trumpbench\.[\w.]+:(\w+)"', text)


def test_every_library_name_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in program_files()}
    used = sum((references(tree) for tree in trees.values()), Counter(console_scripts()))
    # A name used only inside its own body (a recursion) is not used.
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for node in definitions(tree)
        if used[node.name] <= references(node)[node.name]
    ]
    assert not unused, "reached only from tests: " + ", ".join(unused)
