"""Dense hypermatrix algebra with semi-tensor products.

Order-d arrays with 1-based ID-order indexing, sparse permutation
matrices over Kronecker chains, the full lattice of 2-D matrix
expressions with conversions, the semi-tensor product family, and
contracted products realised equivalently by direct summation, by
matrix-expression multiplication and by one semi-tensor product.
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
from .applications import (
    GamePayoff,
    YbeInstance,
    cross_product,
    cross_product_expression,
    game_payoff,
    gl2_bracket,
    gl2_published_errata,
    gl2_published_matrix,
    gl2_structure_matrix,
    ybe_residual,
    ybe_sides,
)
from .appendix import (
    appendix_families,
    appendix_labels,
    appendix_sigma,
    appendix_table,
    example_table,
    load_errata,
    verification_ok,
    verify_appendix,
    verify_example_tables,
)
from .io import (
    DocumentError,
    densify,
    dumps_hm,
    loads_hm,
    parse_delta,
    print_delta,
    read_hm,
    write_hm,
)
from .cli import main as cli_main

__version__ = "0.1.0"
