"""Dense hypermatrix algebra with semi-tensor products.

Order-d arrays with 1-based ID-order indexing, sparse permutation
matrices over Kronecker chains, the full lattice of 2-D matrix
expressions with conversions, the semi-tensor product family, and
contracted products realised equivalently by direct summation, by
matrix-expression multiplication and by one semi-tensor product.

``import hyperstp`` loads the five kernel modules the products run on:
``core``, ``permutation``, ``expression``, ``stp`` and ``contraction``.
The modules built on them load on first use: ``applications``,
``appendix`` (with its golden tables), ``io`` (the ``.hm`` codec and
delta-notation) and ``cli``.  Any of their names here, such as
``hyperstp.read_hm``, imports its module when it is first read and is
then bound in this package, so later reads are plain attribute lookups.
"""

from .core import (
    Hypermatrix,
    as_scalars,
    as_scalars_joint,
    check_dims,
    delinearize,
    iter_indices,
    linearize,
    same_kind,
    size_of,
)
from .permutation import LogicalMatrix, Permutation, build_perm_matrix, perm_compose
from .expression import (
    MatrixExpression,
    convert_expression,
    expression_to_hypermatrix,
    is_skew_symmetric,
    is_symmetric,
    matrix_expression,
    matrix_form_to_vec,
    sigma_transpose,
    sigma_transpose_via_perm,
    transpose_expr,
    vc,
    vcs,
    vec_to_matrix_form,
    vr,
    vrs,
)
from .stp import (
    delta_I,
    kron,
    kron_chain,
    mm_stp,
    mv_stp,
    stp_distance,
    stp_inner,
    stp_norm,
    vec_oplus,
    vv_stp,
)
from .contraction import (
    binary_apply,
    contract,
    contract_bruteforce,
    contract_via_expression,
    eval_multilinear_scalar,
    eval_multilinear_vector,
    eval_tensor,
    hypervector_expand,
    kary_apply,
    onto_contract,
    unary_apply,
)
__version__ = "0.1.0"

# Every name served on first use -> the module that defines it.  A module's
# own name is the module; ``cli_main`` is ``cli.main``.
_LAZY = {
    **dict.fromkeys(
        (
            "applications",
            "GamePayoff",
            "YbeInstance",
            "cross_product",
            "cross_product_expression",
            "game_payoff",
            "gl2_bracket",
            "gl2_published_errata",
            "gl2_published_matrix",
            "gl2_structure_matrix",
            "ybe_residual",
            "ybe_sides",
        ),
        "applications",
    ),
    **dict.fromkeys(
        (
            "appendix",
            "appendix_families",
            "appendix_labels",
            "appendix_sigma",
            "appendix_table",
            "example_table",
            "load_errata",
            "verification_ok",
            "verify_appendix",
            "verify_example_tables",
        ),
        "appendix",
    ),
    **dict.fromkeys(
        (
            "io",
            "DocumentError",
            "densify",
            "dumps_hm",
            "loads_hm",
            "parse_delta",
            "print_delta",
            "read_hm",
            "write_hm",
        ),
        "io",
    ),
    **dict.fromkeys(("cli", "cli_main"), "cli"),
}


def __getattr__(name):
    """Import the module of a name served on first use, and bind the name here (PEP 562)."""
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, "main" if name == "cli_main" else name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__all__ = sorted(name for name in globals().keys() | _LAZY.keys() if not name.startswith("_"))
