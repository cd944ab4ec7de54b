"""Contracted products of hypermatrices, three equivalent routes.

``contract_bruteforce`` sums over the paired axes directly (explicit
loops in ID order, which also fixes the float accumulation order); it is
the oracle and no production path calls it.  ``contract_via_expression``
multiplies two matrix expressions through ``np.dot`` (float sums in
BLAS's order).  The ``stp`` route is the paper's ``M_A |x V(B)``, whose
block-form semi-tensor product does the same multiply-adds.  Int products
on both go through ``core.checked_product``, on the tier that
``core.narrow`` picks from ``max|a| * max|b| * K``, K the paired size that
a result entry sums on either route: float32 BLAS up to 2**24, float64
BLAS up to 2**53, int64 up to 2**63 - 1, Python ints past that; on exact
data the three routes agree bit for bit.  The tier is picked from the
operands' int64 forms before the layout, which the expression route then
copies straight into the tier's dtype; a float32 product is cast back
into a fresh int64 store, a float64 one in its own buffer.  Every int
value that fits int64 holds only its int64 form, and the next product on
either route reads it instead of scanning and re-casting ``data``;
``narrow`` measures both forms, on every product, and no value keeps a
magnitude.  What a pairing fixes whatever the values (the checked axes,
the output dims, the inner size and both operands' transpose orders and
matrix shapes) is planned once per (dims, dims, axes, axes) key by
``_plan`` and kept in a bounded memo, so a small product pays for its arithmetic, not for re-deriving its layout.  The plan also checks the
result's size against ``core.MAX_ENTRIES``, so all three routes refuse
the same pairings before allocating anything.  ``contract`` is the one
table from method name to route: ``onto_contract`` and the Yang-Baxter sides'
checks in ``applications`` call it, that module reads its expression-route
names to pick its own chain, and the block operators chain the
expression route.  Rank-one hypervectors and multilinear evaluation
complete the module: one column chain (``_fold``, ``acc ⋉ x_1 ⋉ ... ⋉
x_k``) runs on the evaluated value's store, an expression's matrix or a
game's stacked payoff stores (``applications.game_payoff``), checks each
raw argument once, keeps each int product in its tier between steps and
widens once, at the end; a mixed tensor is the scalar form on its r + s
slots.  Each route fills its result unscanned.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Hypermatrix, _check_budget, _checked_int, _owned, _stored, as_scalars_joint, check_dims, checked_product,
    same_kind, widen,
)
from .expression import MatrixExpression, _laid_out
# build_perm_matrix stays bound here for perfbench/smoke.py, which checks that
# the benchmark's tracer patches it in every module that binds it.
from .permutation import _relayout, build_perm_matrix  # noqa: F401
from .stp import _stp_dot, kron_chain


def _check_axes(label: str, order: int, axes: Sequence[int]) -> tuple[int, ...]:
    axes = tuple(map(_checked_int, axes))
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate axis in {label} axes {axes}")
    for a in axes:
        if not 1 <= a <= order:
            raise ValueError(f"{label} axis {a} out of range 1..{order}")
    return axes


class _Plan(NamedTuple):
    """What a pairing fixes whatever the values: the checked axes, the output, both layouts.

    ``a_order``/``b_order`` are the 0-based transpose orders that put a's
    free axes before its paired ones and b's paired axes before its free
    ones; ``a_shape``/``b_shape`` are the matrices they lay out as.
    """

    a_axes: tuple[int, ...]
    b_axes: tuple[int, ...]
    a_free: tuple[int, ...]
    b_free: tuple[int, ...]
    out_dims: tuple[int, ...]
    inner: int
    a_order: tuple[int, ...]
    a_shape: tuple[int, int]
    b_order: tuple[int, ...]
    b_shape: tuple[int, int]


@functools.lru_cache(maxsize=512)
def _plan(a_dims: tuple[int, ...], b_dims: tuple[int, ...], a_axes: tuple, b_axes: tuple) -> _Plan:
    """The checked plan of pairing ``a_axes`` of ``a_dims`` with ``b_axes`` of ``b_dims``.

    Built once per key and kept (at most 512 keys); an invalid pairing,
    or one whose result would pass ``core.MAX_ENTRIES`` entries, raises on
    every call and is never kept, so every route refuses it before
    allocating anything.
    """
    a_axes = _check_axes("first", len(a_dims), a_axes)
    b_axes = _check_axes("second", len(b_dims), b_axes)
    if len(a_axes) != len(b_axes):
        raise ValueError(f"{len(a_axes)} axes paired with {len(b_axes)}")
    for t, (ax, bx) in enumerate(zip(a_axes, b_axes), start=1):
        if a_dims[ax - 1] != b_dims[bx - 1]:
            raise ValueError(
                f"pair {t} contracts axis {ax} (dim {a_dims[ax - 1]}) with axis {bx} (dim {b_dims[bx - 1]})"
            )
    a_free = _free_axes(len(a_dims), a_axes)
    b_free = _free_axes(len(b_dims), b_axes)
    rows = tuple(a_dims[x - 1] for x in a_free)
    cols = tuple(b_dims[x - 1] for x in b_free)
    _check_budget(math.prod(rows + cols), "contracted product of shape {}", rows + cols)
    inner = math.prod(a_dims[x - 1] for x in a_axes)
    return _Plan(
        a_axes, b_axes, a_free, b_free, rows + cols, inner,
        tuple(x - 1 for x in a_free + a_axes), (math.prod(rows), inner),
        tuple(x - 1 for x in b_axes + b_free), (inner, math.prod(cols)),
    )


def _layout(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> _Plan:
    """The plan of a pairing of ``a``'s axes with ``b``'s; then the scalar kinds must match."""
    # Ints before the memo: its keys would take True or 1.0 for 1.
    plan = _plan(a.dims, b.dims, tuple(map(_checked_int, a_axes)), tuple(map(_checked_int, b_axes)))
    same_kind(a, b)
    return plan


def _free_axes(order: int, axes: Sequence[int]) -> tuple[int, ...]:
    taken = set(axes)
    return tuple(k for k in range(1, order + 1) if k not in taken)


def _offsets(dims: tuple[int, ...], axes: Sequence[int]) -> list[int]:
    """The flat offset over ``dims`` of every multi-index over ``axes``, in ID order, one add per entry."""
    out = [0]
    for x in axes:
        s = math.prod(dims[x:])
        out = [o + k for o in out for k in range(0, dims[x - 1] * s, s)]
    return out


def contract_bruteforce(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> Hypermatrix:
    """Contracted product by direct summation.

    Output axes are a's free axes (ascending) followed by b's free axes
    (ascending); each entry sums products over the paired index ranges in
    ID order.  No paired axes gives the outer product; pairing all axes
    of both gives an order-0 scalar.  The sums are Python ints or floats,
    so ``core._owned`` fills the result unscanned.
    """
    plan = _layout(a, b, a_axes, b_axes)
    con = list(zip(_offsets(a.dims, plan.a_axes), _offsets(b.dims, plan.b_axes)))
    # Python lists of the stores: no widened copy is kept, and a Python float rounds as np.float64 does.
    da, db = a._flat().tolist(), b._flat().tolist()
    zero = 0 if a.kind == "int" else 0.0
    out = []
    b_bases = _offsets(b.dims, plan.b_free)
    for a_base in _offsets(a.dims, plan.a_free):
        for b_base in b_bases:
            acc = zero
            for oa, ob in con:
                acc += da[a_base + oa] * db[b_base + ob]
            out.append(acc)
    return _owned(plan.out_dims, out, a.kind)


def contract_via_expression(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> Hypermatrix:
    """Contracted product through matrix expressions.

    Flattens ``a`` with its free axes as rows and the paired axes (in
    listed order) as columns, ``b`` the other way round, multiplies, and
    reads the product off as the output's row-major data.  The pairing's
    plan (``_plan``) gives both layouts; the tier is picked from the
    operands' int64 forms (``Hypermatrix._flat``), measured by ``narrow``,
    and each is laid out straight in the tier's dtype; an int64 product is
    kept as the result's int64 form.
    """
    p = _layout(a, b, a_axes, b_axes)

    def dot(fa, fb, dtype):
        fa = _laid_out(fa, a.dims, p.a_order, p.a_shape, dtype)
        return np.dot(fa, _laid_out(fb, b.dims, p.b_order, p.b_shape, dtype))

    out = checked_product(dot, a._flat(), b._flat(), p.inner)
    return _stored(p.out_dims, out, a.kind)


def _contract_stp(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> Hypermatrix:
    """The paper's route: ``M_A |x V(B)``, one semi-tensor product.

    ``M_A`` is a's data re-laid to ``a_free + a_axes`` with one row per
    free index, ``V(B)`` b's data re-laid to ``b_axes + b_free`` as one
    column; their product is the output data, already in order.  ``M_A``
    has K columns, so like the expression route it takes K's tier, read
    from the gathered int64 forms, and keeps an int64 product.
    """
    p = _layout(a, b, a_axes, b_axes)
    m_a = _relayout(a._flat(), a.dims, tuple(range(1, a.order + 1)), p.a_free + p.a_axes).reshape(p.a_shape)
    v_b = _relayout(b._flat(), b.dims, tuple(range(1, b.order + 1)), p.b_axes + p.b_free).reshape(-1, 1)
    return _stored(p.out_dims, _stp_dot(m_a, v_b), a.kind)


# The names of the expression route, which ``applications`` also reads to pick the Yang-Baxter chain.
_EXPRESSION_NAMES = ("expression", "expr", "matrix")


def contract(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes, method: str = "expression") -> Hypermatrix:
    """Contracted product on the route ``method`` names, the only such table.

    Names resolve at call time, so a rebound module global is what runs.
    """
    if method in _EXPRESSION_NAMES:
        return contract_via_expression(a, b, a_axes, b_axes)
    if method == "stp":
        return _contract_stp(a, b, a_axes, b_axes)
    if method in ("bruteforce", "brute"):
        return contract_bruteforce(a, b, a_axes, b_axes)
    raise ValueError(f"unknown contraction method {method!r}")


def _agreement_bound(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> np.ndarray:
    """Entrywise bound on how far two routes' float results of one pairing may differ.

    An entry sums K products, K the paired size.  In any order, with or
    without FMA and with no underflow, it is computed within
    ``γ_K·Σ|a_k b_k|`` of the exact sum, ``γ_K = K·u / (1 − K·u)``,
    ``u = 2**-53`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.1).  So two routes differ by at most
    ``2·γ_K·(|a| ⋆ |b|)·(1 + γ_K)``, the last factor for computing the
    contraction of absolute values ``|a| ⋆ |b|`` itself; inf on overflow.
    """
    p = _layout(a, b, a_axes, b_axes)
    gamma = p.inner * 2.0 ** -53 / (1 - p.inner * 2.0 ** -53)
    fa = _laid_out(np.abs(a.data), a.dims, p.a_order, p.a_shape)
    fb = _laid_out(np.abs(b.data), b.dims, p.b_order, p.b_shape)
    with np.errstate(over="ignore"):
        return 2 * gamma * (1 + gamma) * np.dot(fa, fb).reshape(-1)


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
    dims = check_dims(np.asarray(f).size for f in factors)
    return _stored(dims, kron_chain(factors), kind)


def _fold(acc, kind: str, xs, dims) -> np.ndarray:
    """Semi-tensor chain ``acc ⋉ x_1 ⋉ ... ⋉ x_d`` on the store ``acc``, widened once.

    ``acc`` has one row per result entry (a flat store, an expression's
    matrix, a game's stacked payoffs) and argument column k, of length
    ``dims[k]``, peels one axis off every row.  The raw arguments are
    checked once, by ``as_scalars_joint``, which also decides the chain's
    kind from theirs and the store's ``kind``; ``acc``, checked or made by
    the library, converts directly, and only when a float argument puts an
    int chain on binary64.  Each step is one ``_stp_dot`` whose ``narrow``
    picks the tier from both factors, and an int product stays int64, or
    Python ints past it, until the chain ends.
    """
    xs = list(xs)
    if len(xs) != len(dims):
        raise ValueError(f"{len(xs)} arguments for {len(dims)} axes")
    xs, chain = as_scalars_joint(*xs, kind=kind)
    for k, (n, x) in enumerate(zip(dims, xs), start=1):
        if x.size != n:
            raise ValueError(f"argument {k} has length {x.size}, expected {n}")
    return _fold_checked(acc, kind, chain, xs)


def _fold_checked(acc, kind: str, chain: str, xs) -> np.ndarray:
    """``_fold`` past its check: the arguments are already on the backend ``chain`` and of the right lengths.

    The one way in for arguments a caller checked itself
    (``applications.gl2_bracket``), so they are not read a second time.
    """
    if chain != kind:
        acc = acc.astype(np.float64)
    for x in xs:
        acc = _stp_dot(acc, x.reshape(-1, 1))
    return widen(acc.reshape(-1))


def eval_multilinear_scalar(pi: Hypermatrix, xs) -> object:
    """Scalar multilinear form: fold the flat row through the arguments.

    The semi-tensor chain of the 1 x n flat expression with the argument
    columns peels one axis per factor; with basis arguments it reads the
    coefficient entries straight off.
    """
    return _fold(pi._flat().reshape(1, -1), pi.kind, xs, pi.dims)[0]


def eval_multilinear_vector(m: MatrixExpression, xs) -> np.ndarray:
    """Vector-valued multilinear map from a one-row-axis expression.

    ``m`` must have exactly one row axis; the arguments follow the
    column-axis order and are folded in by semi-tensor products:
    ``out[p] = sum_{q_1..q_k} m.mat[p, (q_1, ..., q_k)] x_1[q_1] ... x_k[q_k]``.
    """
    if len(m.row_axes) != 1:
        raise ValueError(f"expression has row axes {m.row_axes}; need exactly one")
    return _fold(m.mat, m.kind, xs, [m.dims[ax - 1] for ax in m.col_axes])


def eval_tensor(omega: Hypermatrix, covectors, vectors) -> object:
    """Mixed tensor evaluation: the scalar multilinear form on its r + s slots.

    ``omega`` has order r+s over one dimension n, with the first r axes
    fed by column vectors and the last s by row covectors, so the value is
    ``sum_{i,j} omega[i_1..i_r, j_1..j_s] x_1[i_1] ... x_r[i_r] w_1[j_1] ... w_s[j_s]``,
    which is ``eval_multilinear_scalar(omega, vectors + covectors)``.
    """
    covectors, vectors = list(covectors), list(vectors)
    if omega.order != len(vectors) + len(covectors):
        raise ValueError(f"order {omega.order} tensor with {len(vectors)} vectors and {len(covectors)} covectors")
    if omega.order and len(set(omega.dims)) != 1:
        raise ValueError(f"shape {omega.dims} is not hypercubic")
    return eval_multilinear_scalar(omega, vectors + covectors)


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
    binds the block before it; the nesting is literal, not fused:
    ``out[i] = sum_{j,k} a[i, k, j] b[j] c[k]`` over d-tuples i, j, k.
    """
    return kary_apply(a, [b, c])


def kary_apply(a: Hypermatrix, operands) -> Hypermatrix:
    """Order-(k+1)d operator acting on k order-d operands.

    Extends the binary pattern: operand t binds what is then the last
    axis block, working inward from the end, so with d-tuples i, j_t
    ``out[i] = sum_{j_1..j_k} a[i, j_k, ..., j_1] b_1[j_1] ... b_k[j_k]``.
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
