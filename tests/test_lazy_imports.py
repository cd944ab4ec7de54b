"""The import contract: ``import hyperstp`` loads the kernel, the rest loads on first use.

The suite's own process has imported every module long before these tests
run, so each check of what loads runs in a fresh interpreter.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperstp

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL = {"core", "permutation", "expression", "stp", "contraction"}

# Every public name of the package before its top modules loaded on first
# use: the API that ``dir`` and ``__all__`` must keep.
PUBLIC_API = [
    "DocumentError", "GamePayoff", "Hypermatrix", "LogicalMatrix", "MatrixExpression", "Permutation",
    "YbeInstance", "appendix", "appendix_families", "appendix_labels", "appendix_sigma", "appendix_table",
    "applications", "as_scalars", "as_scalars_joint", "binary_apply", "build_perm_matrix", "check_dims", "cli",
    "cli_main", "contract", "contract_bruteforce", "contract_via_expression", "contraction", "convert_expression",
    "core", "cross_product", "cross_product_expression", "delinearize", "delta_I", "densify", "dumps_hm",
    "eval_multilinear_scalar", "eval_multilinear_vector", "eval_tensor", "example_table", "expression",
    "expression_to_hypermatrix", "game_payoff", "gl2_bracket", "gl2_published_errata", "gl2_published_matrix",
    "gl2_structure_matrix", "hypervector_expand", "io", "is_skew_symmetric", "is_symmetric", "iter_indices",
    "kary_apply", "kron", "kron_chain", "linearize", "load_errata", "loads_hm", "matrix_expression",
    "matrix_form_to_vec", "mm_stp", "mv_stp", "onto_contract", "parse_delta", "perm_compose", "permutation",
    "print_delta", "read_hm", "same_kind", "sigma_transpose", "sigma_transpose_via_perm", "size_of", "stp",
    "stp_distance", "stp_inner", "stp_norm", "transpose_expr", "unary_apply", "vc", "vcs", "vec_oplus",
    "vec_to_matrix_form", "verification_ok", "verify_appendix", "verify_example_tables", "vr", "vrs", "vv_stp",
    "write_hm", "ybe_residual", "ybe_sides",
]

# Prints, as JSON, the package's modules and whether difflib is loaded.
LOADED = (
    "import json, sys; print(json.dumps([sorted(m.partition('.')[2] for m in sys.modules"
    " if m.startswith('hyperstp.')), 'difflib' in sys.modules]))"
)


def _python(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True, env=env,
                          timeout=120, check=True)


def _loaded_after(statement: str) -> tuple[set[str], bool]:
    modules, difflib = json.loads(_python("-c", f"import hyperstp\n{statement}\n{LOADED}").stdout)
    return set(modules), difflib


def test_a_fresh_import_loads_exactly_the_kernel():
    modules, difflib = _loaded_after("pass")
    assert modules == KERNEL
    assert not difflib


@pytest.mark.parametrize("statement, added", [
    ("hyperstp.ybe_sides", {"applications"}),
    ("hyperstp.read_hm", {"io"}),
    ("hyperstp.cli_main", {"cli", "io"}),
    ("hyperstp.load_errata", {"appendix", "_appendix_data"}),
])
def test_a_name_loads_its_module_and_no_other_top_module(statement, added):
    modules, difflib = _loaded_after(statement)
    assert modules == KERNEL | added
    assert not difflib


def test_every_lazy_name_resolves_to_its_modules_object_and_is_bound():
    script = """
import importlib, json, hyperstp
bad = []
for name, module_name in hyperstp._LAZY.items():
    module = importlib.import_module("hyperstp." + module_name)
    want = module if name == module_name else getattr(module, "main" if name == "cli_main" else name)
    if getattr(hyperstp, name) is not want or vars(hyperstp).get(name) is not want:
        bad.append(name)
namespace = {}
exec("from hyperstp import *", namespace)
print(json.dumps([bad, sorted(set(hyperstp.__all__) - namespace.keys())]))
"""
    assert json.loads(_python("-c", script).stdout) == [[], []]


def test_dir_and_all_cover_the_public_api_before_anything_loads():
    script = "import json, hyperstp; print(json.dumps([dir(hyperstp), hyperstp.__all__]))"
    names, exported = json.loads(_python("-c", script).stdout)
    assert set(PUBLIC_API) <= set(names)
    assert exported == PUBLIC_API
    assert hyperstp.__all__ == PUBLIC_API


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as info:
        hyperstp.nope
    assert str(info.value) == "module 'hyperstp' has no attribute 'nope'"
    assert not hasattr(hyperstp, "nope")


def test_the_commands_that_load_top_modules_run_through_main():
    report = _python("-m", "hyperstp", "verify-appendix").stdout
    assert hashlib.md5(report.encode()).hexdigest() == "a7fa2a69da028189c3df766f78bcbd58"
    identity = '{"shape":[2,2,2,2],"data":[1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1],"scalar_kind":"int"}'
    assert _python("-m", "hyperstp", "ybe", "--r", "/dev/stdin", stdin=identity).stdout == "1\n"
