"""Every module-level function and class in ``src/hyperstp`` has a user, and every import a reader.

A definition counts as used when ``hyperstp/__init__`` exports it (imports
it, or names it in ``_LAZY``, its table of names served on first use) or
any module of the package names it outside its own body.  A module-level
dunder such as ``__getattr__`` is called by Python, so it counts as used.
Code that only tests call is dead to the library, and this test names it.  An import
that its module never reads is named too, except in ``__init__`` (which
re-exports) and on lines marked ``# noqa: F401``.
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


def _lazy_exports(tree: ast.Module) -> list[str]:
    """Every string in the ``_LAZY`` table: the names served on first use and their modules."""
    tables = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets)
    ]
    strings = (c.value for table in tables for c in ast.walk(table) if isinstance(c, ast.Constant))
    return [v for v in strings if isinstance(v, str)]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_module_level_definition_is_exported_or_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    refs = Counter(name for tree in trees.values() for name in _names(tree))
    refs.update(_lazy_exports(trees["__init__.py"]))
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _is_dunder(node.name)
        and refs[node.name] == Counter(_names(node))[node.name]
    ]
    assert unused == []


def _unused_imports(tree: ast.Module, lines: list[str]):
    """Names a module imports and never reads; ``__future__`` and ``# noqa: F401`` lines are exempt."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                yield f"{node.lineno} {bound}"


def test_every_import_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    unused = [
        f"{module}:{entry}"
        for module, text in sources.items()
        if module != "__init__.py"
        for entry in _unused_imports(ast.parse(text), text.splitlines())
    ]
    assert unused == []
