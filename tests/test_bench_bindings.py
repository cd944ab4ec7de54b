"""The benchmark's tracer and smoke test name library bindings.

``perfbench/tracer.py`` wraps the targets listed in its ``ENTRIES`` and
``perfbench/smoke.py`` checks that ``build_perm_matrix`` is patched in a
fixed list of modules.  A rename or a removed import would otherwise fail
only when the benchmark runs; these tests read both files, change
neither, and fail in the test suite instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import hyperstp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_entries() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRIES


def _smoke_binding_modules() -> list[str]:
    """Module names in smoke.py's ``bindings = [hs.<module>, ..., hs]`` list."""
    tree = ast.parse((PERFBENCH / "smoke.py").read_text("utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["bindings"]:
            return [f"hyperstp.{e.attr}" if isinstance(e, ast.Attribute) else "hyperstp" for e in node.value.elts]
    raise AssertionError("smoke.py has no `bindings = [...]` list")


@pytest.mark.parametrize(
    "target", [t for targets, _, _ in _tracer_entries().values() for t in targets]
)
def test_tracer_target_resolves(target):
    mod_name, attr = target.split(":")
    module = importlib.import_module(f"hyperstp.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), target
    else:
        assert callable(getattr(module, attr, None)), target


def test_smoke_modules_bind_build_perm_matrix():
    modules = _smoke_binding_modules()
    assert "hyperstp.permutation" in modules
    for name in modules:
        module = importlib.import_module(name)
        assert vars(module).get("build_perm_matrix") is hyperstp.permutation.build_perm_matrix, name
