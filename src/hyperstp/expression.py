"""Matrix expressions of hypermatrices and conversions between them.

An order-d hypermatrix has a 2-D "matrix expression" for every split of
its axes into an ordered row tuple and column tuple: rows enumerate the
row-axis indices in ID order, columns the column-axis indices.  The empty
row tuple gives the 1 x n vector expression.  Each conversion between
expressions (and the vector form) is one ``permutation._relayout``, and
``sigma_transpose_via_perm`` one ``perm_gather``, its checked public
entry: a row gather through the index of one permutation matrix, for any
axis order on either side, with no ``Permutation`` or ``LogicalMatrix``
built.  A re-layout of a value's ``data`` reads no entry: ``as_scalars``
takes what a value handed out unread.  The conversions are verified
against direct index-shuffle construction.  That index shuffle is one helper, ``_lay_out``:
``matrix_expression``, the sigma-transpose, ``expression_to_hypermatrix``
and the expression contraction route all lay data out through it.  The
public ``MatrixExpression`` constructor and ``vec_to_matrix_form`` check
a caller's matrix or vector by ``as_scalars``; results come through the
trusted ``core._stored`` and ``_expression``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import _INT64_MAX, Hypermatrix, _checked_int, _Frozen, _stored, as_scalars, check_dims, size_of
# build_perm_matrix stays bound here for perfbench/smoke.py, which checks that
# the benchmark's tracer patches it in every module that binds it.
from .permutation import Permutation, _checked_perm, _relayout, build_perm_matrix, perm_gather  # noqa: F401

# -- stacking forms ----------------------------------------------------


def vr(mat) -> np.ndarray:
    """Row stacking: entries row by row, as a flat vector."""
    return np.asarray(mat).reshape(-1).copy()


def vc(mat) -> np.ndarray:
    """Column stacking: entries column by column, as a flat vector."""
    return np.asarray(mat).reshape(-1, order="F").copy()


def vrs(x, s: int) -> np.ndarray:
    """s-row stacking: lay the (row-stacked) entries out s per row."""
    flat, s = vr(x), _checked_int(s)
    if s < 1 or flat.size % s:
        raise ValueError(f"{s} does not divide the {flat.size} entries")
    return flat.reshape(-1, s)


def vcs(x, s: int) -> np.ndarray:
    """s-column stacking: lay the (column-stacked) entries out s per column."""
    flat, s = vc(x), _checked_int(s)
    if s < 1 or flat.size % s:
        raise ValueError(f"{s} does not divide the {flat.size} entries")
    return flat.reshape(s, -1, order="F")


# -- sigma-transpose ---------------------------------------------------


def sigma_transpose(a: Hypermatrix, sigma) -> Hypermatrix:
    """Axis permutation: entry at (m_sigma(1), ..., m_sigma(d)) is a_m.

    Result shape is (n_sigma(1), ..., n_sigma(d)); at d = 2 with
    sigma = (2, 1) this is the ordinary matrix transpose.
    """
    sigma = _checked_perm(sigma, a.order)
    dims = tuple(a.dims[ax - 1] for ax in sigma.image)
    return _stored(dims, _lay_out(a._flat(), a.dims, sigma.image, ()), a.kind)


def sigma_transpose_via_perm(a: Hypermatrix, sigma) -> Hypermatrix:
    """Same transpose computed through the permutation matrix.

    The flat vector of the result is ``W^sigma`` applied to the flat
    vector of ``a``, computed by ``perm_gather`` as one gather through
    the index of ``W^{sigma^-1}`` over the result's dims.
    """
    sigma = _checked_perm(sigma, a.order)
    dims = tuple(a.dims[ax - 1] for ax in sigma.image)
    return _stored(dims, perm_gather(a._flat(), a.dims, sigma), a.kind)


# -- matrix expressions ------------------------------------------------


def _check_partition(d: int, rows: Sequence[int], cols: Sequence[int] | None = None):
    """Validated ``(rows, cols)`` tuples; ``cols`` defaults to the increasing complement of ``rows``."""
    rows = tuple(map(_checked_int, rows))
    cols = tuple(k for k in range(1, d + 1) if k not in rows) if cols is None else tuple(map(_checked_int, cols))
    if sorted(rows + cols) != list(range(1, d + 1)):
        raise ValueError(f"row axes {rows} and column axes {cols} do not partition 1..{d}")
    return rows, cols


class MatrixExpression(_Frozen):
    """A 2-D flattening of a hypermatrix, tagged with its axis split; checked as ``Hypermatrix`` data is."""

    __slots__ = ("mat", "row_axes", "col_axes", "dims", "kind")
    _args = __slots__

    def __init__(self, mat, row_axes, col_axes, dims, kind: str):
        dims = check_dims(dims)
        row_axes, col_axes = _check_partition(len(dims), row_axes, col_axes)
        mat, kind = as_scalars(np.array(mat) if isinstance(mat, np.ndarray) else mat, kind)
        s = math.prod(dims[r - 1] for r in row_axes)
        t = math.prod(dims[c - 1] for c in col_axes)
        if mat.shape != (s, t):
            raise ValueError(f"matrix of shape {mat.shape}, expected {(s, t)} for split {row_axes} x {col_axes}")
        self._fill(mat, row_axes, col_axes, dims, kind)

    def __repr__(self):
        return f"MatrixExpression(rows={self.row_axes}, cols={self.col_axes}, dims={self.dims}, shape={self.mat.shape})"


def _expression(mat, row_axes, col_axes, dims, kind) -> MatrixExpression:
    """Trusted construction from parts the caller has already validated."""
    return object.__new__(MatrixExpression)._fill(mat, row_axes, col_axes, dims, kind)


def matrix_expression(a: Hypermatrix, rows: Sequence[int], cols: Sequence[int] | None = None) -> MatrixExpression:
    """Direct construction of the expression with the given axis split.

    ``rows`` and ``cols`` may list axes in any order (not only
    increasing); ``cols`` defaults to the complement of ``rows`` in
    increasing order.  Rows enumerate the row-axis indices in ID order
    under the listed axis order, columns likewise.
    """
    rows, cols = _check_partition(a.order, rows, cols)
    return _expression(_lay_out(a.data, a.dims, rows, cols), rows, cols, a.dims, a.kind)


def _lay_out(flat: np.ndarray, dims, rows, cols) -> np.ndarray:
    """Flat ID-order data as the matrix of a validated split ``rows`` x ``cols``."""
    s = math.prod(dims[r - 1] for r in rows)
    t = math.prod(dims[c - 1] for c in cols)
    return _laid_out(flat, dims, [ax - 1 for ax in rows + cols], (s, t))


def _laid_out(flat: np.ndarray, dims, axes, shape, dtype=None) -> np.ndarray:
    """``_lay_out`` with the split given as 0-based transpose ``axes`` and the matrix ``shape``."""
    return np.ascontiguousarray(flat.reshape(dims).transpose(axes), dtype).reshape(shape)


def expression_to_hypermatrix(m: MatrixExpression) -> Hypermatrix:
    """Reassemble the source hypermatrix from any of its expressions.

    The matrix is the data over the dims in ``row_axes + col_axes`` order;
    laying it out with each natural axis's position there restores ID order.
    """
    order = m.row_axes + m.col_axes
    back = tuple(order.index(k) + 1 for k in range(1, len(order) + 1))
    return _stored(m.dims, _lay_out(m.mat, [m.dims[ax - 1] for ax in order], back, ()), m.kind)


# -- conversions through permutation matrices --------------------------


def vec_to_matrix_form(v, dims, rows, kind: str | None = None) -> MatrixExpression:
    """Vector form to matrix form.

    Re-lays the flat vector from natural axis order to ``rows`` followed
    by their increasing complement, and reshapes with one row per row-axis
    index combination.  ``rows`` may list axes in any order.  ``v`` is
    checked by ``as_scalars``, which reads no entry of a value's own
    ``data``.
    """
    dims = check_dims(dims)
    rows, cols = _check_partition(len(dims), rows)
    flat, kind = as_scalars(v, kind)
    if flat.size != size_of(dims):
        raise ValueError(f"vector of length {flat.size} for shape {dims}")
    shuffled = _relayout(flat, dims, tuple(range(1, len(dims) + 1)), rows + cols)
    t = math.prod(dims[c - 1] for c in cols)
    return _expression(shuffled.reshape(-1, t), rows, cols, dims, kind)


def matrix_form_to_vec(m: MatrixExpression) -> np.ndarray:
    """Matrix form back to the flat vector form.

    The row stacking of the matrix is the flat data laid out in the axis
    order ``row_axes + col_axes``; one gather restores natural order.
    """
    return _relayout(m.mat, m.dims, m.row_axes + m.col_axes, tuple(range(1, len(m.dims) + 1)))


def convert_expression(m: MatrixExpression, new_rows) -> MatrixExpression:
    """Re-split an expression without going through the hypermatrix.

    One gather re-lays the row stacking from ``row_axes + col_axes`` to
    ``new_rows`` followed by their increasing complement.  Both splits may
    list axes in any order.
    """
    new_rows, new_cols = _check_partition(len(m.dims), new_rows)
    shuffled = _relayout(m.mat, m.dims, m.row_axes + m.col_axes, new_rows + new_cols)
    t = math.prod(m.dims[c - 1] for c in new_cols)
    return _expression(shuffled.reshape(-1, t), new_rows, new_cols, m.dims, m.kind)


def transpose_expr(m: MatrixExpression) -> MatrixExpression:
    """Swap the axis tuples; the matrix transposes."""
    return _expression(m.mat.T.copy(), m.col_axes, m.row_axes, m.dims, m.kind)


# -- symmetry ----------------------------------------------------------


def _adjacent_transpositions(d: int):
    for i in range(1, d):
        image = list(range(1, d + 1))
        image[i - 1], image[i] = image[i], image[i - 1]
        yield Permutation(image)


def _require_hypercubic(a: Hypermatrix):
    if a.order > 1 and len(set(a.dims)) != 1:
        raise ValueError(f"shape {a.dims} is not hypercubic")


def is_symmetric(a: Hypermatrix) -> bool:
    """True when every axis permutation leaves the hypermatrix unchanged.

    Checking the adjacent transpositions suffices: they generate the full
    permutation group and invariance is closed under composition.
    """
    _require_hypercubic(a)
    return all(sigma_transpose(a, tau) == a for tau in _adjacent_transpositions(a.order))


def is_skew_symmetric(a: Hypermatrix) -> bool:
    """True when every axis permutation scales the hypermatrix by its sign."""
    _require_hypercubic(a)
    # Negating -2**63 wraps in int64, so a value that holds it compares Python ints.
    exact = (a._max_abs() or 0) > _INT64_MAX
    neg = -(a.data if exact else a._flat())
    flips = (sigma_transpose(a, tau) for tau in _adjacent_transpositions(a.order))
    return all(np.array_equal(f.data if exact else f._flat(), neg) for f in flips)
