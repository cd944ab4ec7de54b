"""Contracted products of hypermatrices, three equivalent routes.

``contract_bruteforce`` sums over the paired axes directly (explicit
loops in ID order, which also fixes the float accumulation order); it is
the oracle and no production path calls it.  ``contract_via_expression``
multiplies two matrix expressions through ``np.dot`` (float sums in
BLAS's order).  The ``stp`` route is the paper's ``M_A |x V(B)``, whose
block-form semi-tensor product does the same multiply-adds.  Int products
on both go through ``core.narrow``: int64 when ``max|a| * max|b| * K``
proves no partial sum can wrap (K the paired size, or the lcm on the
``stp`` route), Python ints otherwise, and Python ints out; on exact
data the three routes agree bit for bit.  An int64 product of the
expression route keeps its int64 form, and the next expression-route
product reads that form instead of scanning and re-casting ``data``.  ``contract`` is the one table
from method name to route: ``onto_contract`` and the Yang-Baxter sides
in ``applications`` call it, and the block operators chain the
expression route.  Rank-one hypervectors and multilinear evaluation by
semi-tensor chains complete the module.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

import numpy as np

from .core import Hypermatrix, _from_int64, narrow, same_kind
from .expression import MatrixExpression, _lay_out, matrix_expression
# build_perm_matrix stays bound here for perfbench/smoke.py, which checks that
# the benchmark's tracer patches it in every module that binds it.
from .permutation import Permutation, build_perm_matrix, perm_gather  # noqa: F401
from .stp import kron_chain, mm_stp


def _check_axes(label: str, order: int, axes: Sequence[int]) -> tuple[int, ...]:
    axes = tuple(int(a) for a in axes)
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate axis in {label} axes {axes}")
    for a in axes:
        if not 1 <= a <= order:
            raise ValueError(f"{label} axis {a} out of range 1..{order}")
    return axes


def check_contraction_spec(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes):
    """Validate a pairing of axes of ``a`` against axes of ``b``."""
    a_axes = _check_axes("first", a.order, a_axes)
    b_axes = _check_axes("second", b.order, b_axes)
    if len(a_axes) != len(b_axes):
        raise ValueError(f"{len(a_axes)} axes paired with {len(b_axes)}")
    for t, (ax, bx) in enumerate(zip(a_axes, b_axes), start=1):
        if a.dims[ax - 1] != b.dims[bx - 1]:
            raise ValueError(
                f"pair {t} contracts axis {ax} (dim {a.dims[ax - 1]}) with axis {bx} (dim {b.dims[bx - 1]})"
            )
    same_kind(a, b)
    return a_axes, b_axes


def _free_axes(order: int, axes: Sequence[int]) -> tuple[int, ...]:
    taken = set(axes)
    return tuple(k for k in range(1, order + 1) if k not in taken)


def _layout(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes):
    """Checked pairing, both free-axis tuples, and the output dims (a's free, then b's)."""
    a_axes, b_axes = check_contraction_spec(a, b, a_axes, b_axes)
    a_free = _free_axes(a.order, a_axes)
    b_free = _free_axes(b.order, b_axes)
    out_dims = tuple(a.dims[x - 1] for x in a_free) + tuple(b.dims[x - 1] for x in b_free)
    return a_axes, b_axes, a_free, b_free, out_dims


def _strides(dims: tuple[int, ...]) -> list[int]:
    out = [1] * len(dims)
    for k in range(len(dims) - 2, -1, -1):
        out[k] = out[k + 1] * dims[k + 1]
    return out


def contract_bruteforce(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> Hypermatrix:
    """Contracted product by direct summation.

    Output axes are a's free axes (ascending) followed by b's free axes
    (ascending); each entry sums products over the paired index ranges in
    ID order.  No paired axes gives the outer product; pairing all axes
    of both gives an order-0 scalar.
    """
    a_axes, b_axes, a_free, b_free, out_dims = _layout(a, b, a_axes, b_axes)
    sa, sb = _strides(a.dims), _strides(b.dims)
    af_str = [sa[x - 1] for x in a_free]
    bf_str = [sb[x - 1] for x in b_free]
    ac_str = [sa[x - 1] for x in a_axes]
    bc_str = [sb[x - 1] for x in b_axes]
    ell = [a.dims[x - 1] for x in a_axes]
    con = [
        (sum(k * s for k, s in zip(ks, ac_str)), sum(k * s for k, s in zip(ks, bc_str)))
        for ks in product(*(range(n) for n in ell))
    ]
    da, db = a.data, b.data
    zero = 0 if a.kind == "int" else 0.0
    out = []
    nf = len(a_free)
    for fs in product(*(range(a.dims[x - 1]) for x in a_free), *(range(b.dims[x - 1]) for x in b_free)):
        a_base = sum(k * s for k, s in zip(fs[:nf], af_str))
        b_base = sum(k * s for k, s in zip(fs[nf:], bf_str))
        acc = zero
        for oa, ob in con:
            acc += da[a_base + oa] * db[b_base + ob]
        out.append(acc)
    return Hypermatrix(out_dims, out, a.kind)


def contract_via_expression(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> Hypermatrix:
    """Contracted product through matrix expressions.

    Flattens ``a`` with its free axes as rows and the paired axes (in
    listed order) as columns, ``b`` the other way round, multiplies, and
    reads the product off as the output's row-major data.  An operand
    that holds an int64 form is laid out from it; an int64 product is
    kept as the result's int64 form.
    """
    a_axes, b_axes, a_free, b_free, out_dims = _layout(a, b, a_axes, b_axes)
    ma = _operand(a, a_free, a_axes)
    mb = _operand(b, b_axes, b_free)
    mat = np.dot(*narrow(ma, mb, ma.shape[1]))
    if mat.dtype == np.int64:
        return _from_int64(out_dims, mat)
    return Hypermatrix(out_dims, mat, a.kind)


def _operand(h: Hypermatrix, rows, cols) -> np.ndarray:
    """The matrix of ``h`` split ``rows`` x ``cols``, from its int64 form when it has one."""
    return _lay_out(h.data if h._int64 is None else h._int64, h.dims, rows, cols)


def _contract_stp(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> Hypermatrix:
    """The paper's route: ``M_A |x V(B)``, one semi-tensor product.

    ``M_A`` is a's data re-laid to ``a_free + a_axes`` with one row per
    free index, ``V(B)`` b's data re-laid to ``b_axes + b_free`` as one
    column; their product is the output data, already in order.
    """
    a_axes, b_axes, a_free, b_free, out_dims = _layout(a, b, a_axes, b_axes)
    k = math.prod(a.dims[x - 1] for x in a_axes)
    m_a = perm_gather(a.data, a.dims, Permutation(a_free + a_axes)).reshape(-1, k)
    v_b = perm_gather(b.data, b.dims, Permutation(b_axes + b_free)).reshape(-1, 1)
    return Hypermatrix(out_dims, mm_stp(m_a, v_b), a.kind)


def contract(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes, method: str = "expression") -> Hypermatrix:
    """Contracted product on the route ``method`` names, the only such table.

    Names resolve at call time, so a rebound module global is what runs.
    """
    if method in ("expression", "expr", "matrix"):
        return contract_via_expression(a, b, a_axes, b_axes)
    if method == "stp":
        return _contract_stp(a, b, a_axes, b_axes)
    if method in ("bruteforce", "brute"):
        return contract_bruteforce(a, b, a_axes, b_axes)
    raise ValueError(f"unknown contraction method {method!r}")


def onto_contract(a: Hypermatrix, b: Hypermatrix, rs, method: str = "expression") -> Hypermatrix:
    """Pair a whole hypermatrix against a subset of a's axes.

    ``b``'s shape must equal a's dims at the axes ``rs``, in any order;
    axis t of b pairs with axis rs[t] of a.  This is
    ``contract(a, b, rs, (1, ..., k), method)``.
    """
    rs = _check_axes("contracted", a.order, rs)
    expect = tuple(a.dims[x - 1] for x in rs)
    if b.dims != expect:
        raise ValueError(f"operand shape {b.dims} does not match dims {expect} at axes {rs}")
    return contract(a, b, rs, tuple(range(1, b.order + 1)), method)


# -- hypervectors and multilinear evaluation ----------------------------


def hypervector_expand(factors, kind: str | None = None) -> Hypermatrix:
    """Rank-one hypermatrix whose entries are the factor products.

    The flat data is the Kronecker chain of the factors, so the entry at
    (i_1, ..., i_d) is ``x_1[i_1] * ... * x_d[i_d]``.
    """
    dims = tuple(np.asarray(f).size for f in factors)
    return Hypermatrix(dims, kron_chain(factors), kind)


def _fold(acc, xs, dims) -> np.ndarray:
    """Semi-tensor chain of ``acc`` with argument columns, one per dim.

    Argument k must have length ``dims[k]``; each factor peels one axis.
    """
    xs = list(xs)
    if len(xs) != len(dims):
        raise ValueError(f"{len(xs)} arguments for {len(dims)} axes")
    for k, (n, x) in enumerate(zip(dims, xs), start=1):
        x = np.asarray(x)
        if x.size != n:
            raise ValueError(f"argument {k} has length {x.size}, expected {n}")
        acc = mm_stp(acc, x.reshape(-1, 1))
    return acc.reshape(-1)


def eval_multilinear_scalar(pi: Hypermatrix, xs) -> object:
    """Scalar multilinear form: fold the flat row through the arguments.

    The semi-tensor chain of the 1 x n flat expression with the argument
    columns peels one axis per factor; with basis arguments it reads the
    coefficient entries straight off.
    """
    return _fold(pi.data.reshape(1, -1), xs, pi.dims)[0]


def eval_multilinear_vector(m: MatrixExpression, xs) -> np.ndarray:
    """Vector-valued multilinear map from a one-row-axis expression.

    ``m`` must have exactly one row axis; the arguments follow the
    column-axis order and are folded in by semi-tensor products.
    """
    if len(m.row_axes) != 1:
        raise ValueError(f"expression has row axes {m.row_axes}; need exactly one")
    return _fold(m.mat, xs, [m.dims[ax - 1] for ax in m.col_axes])


def eval_tensor(omega: Hypermatrix, covectors, vectors) -> object:
    """Mixed tensor evaluation through the general matrix expression.

    ``omega`` has order r+s over one dimension n, with the first r axes
    fed by column vectors and the last s by row covectors.  The covector
    chain is folded right to left (a row semi-tensor chain reverses the
    Kronecker order), the expression sits in the middle, and the vectors
    fold in on the right.
    """
    covectors = [np.asarray(w).reshape(-1) for w in covectors]
    vectors = [np.asarray(x).reshape(-1) for x in vectors]
    r, s = len(vectors), len(covectors)
    if omega.order != r + s:
        raise ValueError(f"order {omega.order} tensor with {r} vectors and {s} covectors")
    if omega.order and len(set(omega.dims)) != 1:
        raise ValueError(f"shape {omega.dims} is not hypercubic")
    n = omega.dims[0] if omega.order else 1
    for w in covectors:
        if w.size != n:
            raise ValueError(f"argument of length {w.size}, expected {n}")
    m = matrix_expression(omega, rows=tuple(range(r + 1, r + s + 1)), cols=tuple(range(1, r + 1)))
    acc = None
    for j in range(1, s + 1):
        w = covectors[s - j].reshape(1, -1)
        acc = w if acc is None else mm_stp(acc, w)
    acc = m.mat if acc is None else mm_stp(acc, m.mat)
    return _fold(acc, vectors, (n,) * r)[0]


# -- block operators -----------------------------------------------------


def _check_blocks(a: Hypermatrix, block_dims: tuple[int, ...], k: int):
    if a.order != (k + 1) * len(block_dims):
        raise ValueError(f"operator of order {a.order} cannot take {k} operands of order {len(block_dims)}")
    for blk in range(k + 1):
        lo = blk * len(block_dims)
        got = a.dims[lo : lo + len(block_dims)]
        if got != block_dims:
            raise ValueError(f"block {blk + 1} has dims {got}, expected {block_dims}")


def unary_apply(a: Hypermatrix, b: Hypermatrix) -> Hypermatrix:
    """Order-2d operator acting on one order-d operand: ``kary_apply(a, [b])``."""
    return kary_apply(a, [b])


def binary_apply(a: Hypermatrix, b: Hypermatrix, c: Hypermatrix) -> Hypermatrix:
    """Order-3d operator on two order-d operands: ``kary_apply(a, [b, c])``.

    The first operand binds the last axis block, then the second operand
    binds the block before it; the nesting is literal, not fused.
    """
    return kary_apply(a, [b, c])


def kary_apply(a: Hypermatrix, operands) -> Hypermatrix:
    """Order-(k+1)d operator acting on k order-d operands.

    Extends the binary pattern: operand t binds what is then the last
    axis block, working inward from the end.
    """
    operands = list(operands)
    if not operands:
        raise ValueError("need at least one operand")
    d = operands[0].order
    for b in operands:
        if b.dims != operands[0].dims:
            raise ValueError(f"operand shapes differ: {operands[0].dims} vs {b.dims}")
    k = len(operands)
    _check_blocks(a, operands[0].dims, k)
    acc = a
    for t, b in enumerate(operands):
        lo = (k - t) * d
        acc = contract_via_expression(acc, b, tuple(range(lo + 1, lo + d + 1)), tuple(range(1, d + 1)))
    return acc
