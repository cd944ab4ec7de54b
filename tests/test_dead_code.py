"""Every module-level function and class in ``src/hyperstp`` has a user.

A definition counts as used when ``hyperstp/__init__`` imports it or any
module of the package names it outside its own body.  Code that only
tests call is dead to the library, and this test names it.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperstp"


def _names(node: ast.AST):
    """Every name a node's subtree refers to: variables, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_module_level_definition_is_exported_or_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    refs = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and refs[node.name] == Counter(_names(node))[node.name]
    ]
    assert unused == []
