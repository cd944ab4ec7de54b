"""Matrix expressions of hypermatrices and conversions between them.

An order-d hypermatrix has a 2-D "matrix expression" for every split of
its axes into an ordered row tuple and column tuple: rows enumerate the
row-axis indices in ID order, columns the column-axis indices.  The empty
row tuple gives the 1 x n vector expression.  Each conversion between
expressions (and the vector form) is one row gather through one
permutation matrix, for any axis order on either side; the conversions
are verified against direct index-shuffle construction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import Hypermatrix, as_scalars, check_dims, size_of
# build_perm_matrix stays bound here for perfbench/smoke.py, which checks that
# the benchmark's tracer patches it in every module that binds it.
from .permutation import Permutation, build_perm_matrix, perm_gather  # noqa: F401

# -- stacking forms ----------------------------------------------------


def vr(mat) -> np.ndarray:
    """Row stacking: entries row by row, as a flat vector."""
    return np.asarray(mat).reshape(-1).copy()


def vc(mat) -> np.ndarray:
    """Column stacking: entries column by column, as a flat vector."""
    return np.asarray(mat).reshape(-1, order="F").copy()


def vrs(x, s: int) -> np.ndarray:
    """s-row stacking: lay the (row-stacked) entries out s per row."""
    flat = vr(x)
    if s < 1 or flat.size % s:
        raise ValueError(f"{s} does not divide the {flat.size} entries")
    return flat.reshape(-1, s)


def vcs(x, s: int) -> np.ndarray:
    """s-column stacking: lay the (column-stacked) entries out s per column."""
    flat = vc(x)
    if s < 1 or flat.size % s:
        raise ValueError(f"{s} does not divide the {flat.size} entries")
    return flat.reshape(s, -1, order="F")


# -- sigma-transpose ---------------------------------------------------


def _as_perm(sigma, d: int) -> Permutation:
    if not isinstance(sigma, Permutation):
        sigma = Permutation(sigma)
    if sigma.degree != d:
        raise ValueError(f"permutation of degree {sigma.degree} for order {d}")
    return sigma


def sigma_transpose(a: Hypermatrix, sigma) -> Hypermatrix:
    """Axis permutation: entry at (m_sigma(1), ..., m_sigma(d)) is a_m.

    Result shape is (n_sigma(1), ..., n_sigma(d)); at d = 2 with
    sigma = (2, 1) this is the ordinary matrix transpose.
    """
    sigma = _as_perm(sigma, a.order)
    axes = [sigma(k) - 1 for k in range(1, a.order + 1)]
    nd = np.ascontiguousarray(np.transpose(a.nd, axes))
    dims = tuple(a.dims[ax] for ax in axes)
    return Hypermatrix(dims, nd.reshape(-1), a.kind)


def sigma_transpose_via_perm(a: Hypermatrix, sigma) -> Hypermatrix:
    """Same transpose computed through the permutation matrix.

    The flat vector of the result is ``W^sigma`` applied to the flat
    vector of ``a``, computed by ``perm_gather``.
    """
    sigma = _as_perm(sigma, a.order)
    dims = tuple(a.dims[sigma(k) - 1] for k in range(1, a.order + 1))
    return Hypermatrix(dims, perm_gather(a.data, a.dims, sigma), a.kind)


# -- matrix expressions ------------------------------------------------


def _check_partition(d: int, rows: Sequence[int], cols: Sequence[int] | None = None):
    """Validated ``(rows, cols)`` tuples; ``cols`` defaults to the increasing complement of ``rows``."""
    rows = tuple(int(r) for r in rows)
    cols = tuple(k for k in range(1, d + 1) if k not in rows) if cols is None else tuple(int(c) for c in cols)
    if sorted(rows + cols) != list(range(1, d + 1)):
        raise ValueError(f"row axes {rows} and column axes {cols} do not partition 1..{d}")
    return rows, cols


class MatrixExpression:
    """A 2-D flattening of a hypermatrix, tagged with its axis split."""

    __slots__ = ("mat", "row_axes", "col_axes", "dims", "kind")

    def __init__(self, mat, row_axes, col_axes, dims, kind: str):
        dims = check_dims(dims)
        row_axes, col_axes = _check_partition(len(dims), row_axes, col_axes)
        mat = np.asarray(mat)
        s = math.prod(dims[r - 1] for r in row_axes)
        t = math.prod(dims[c - 1] for c in col_axes)
        if mat.shape != (s, t):
            raise ValueError(f"matrix of shape {mat.shape}, expected {(s, t)} for split {row_axes} x {col_axes}")
        self._fill(mat, row_axes, col_axes, dims, kind)

    def _fill(self, mat, row_axes, col_axes, dims, kind):
        for name, value in zip(self.__slots__, (mat, row_axes, col_axes, dims, kind)):
            object.__setattr__(self, name, value)
        mat.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixExpression is immutable")

    def __reduce__(self):
        # Copies and pickles rebuild through the validating constructor.
        return MatrixExpression, (self.mat, self.row_axes, self.col_axes, self.dims, self.kind)

    def __repr__(self):
        return f"MatrixExpression(rows={self.row_axes}, cols={self.col_axes}, dims={self.dims}, shape={self.mat.shape})"


def _expression(mat, row_axes, col_axes, dims, kind) -> MatrixExpression:
    """Trusted construction from parts the caller has already validated."""
    m = object.__new__(MatrixExpression)
    m._fill(mat, row_axes, col_axes, dims, kind)
    return m


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
    axes = [ax - 1 for ax in rows + cols]
    return np.ascontiguousarray(np.transpose(flat.reshape(dims), axes)).reshape(s, t)


def expression_to_hypermatrix(m: MatrixExpression) -> Hypermatrix:
    """Reassemble the source hypermatrix from any of its expressions."""
    axes = [ax - 1 for ax in m.row_axes + m.col_axes]
    permuted_dims = tuple(m.dims[ax] for ax in axes)
    inv = np.argsort(axes)
    nd = np.ascontiguousarray(np.transpose(m.mat.reshape(permuted_dims), inv))
    return Hypermatrix(m.dims, nd.reshape(-1), m.kind)


# -- conversions through permutation matrices --------------------------


def _relayout(data, dims, src, dst) -> np.ndarray:
    """Re-lay flat data from axis order ``src`` to axis order ``dst``.

    One gather through the permutation matrix of the relative permutation
    ``tau(k) = position of dst[k] in src``, over the dims in ``src`` order.
    """
    tau = Permutation(src.index(ax) + 1 for ax in dst)
    return perm_gather(data, [dims[ax - 1] for ax in src], tau)


def vec_to_matrix_form(v, dims, rows, kind: str | None = None) -> MatrixExpression:
    """Vector form to matrix form.

    Re-lays the flat vector from natural axis order to ``rows`` followed
    by their increasing complement, and reshapes with one row per row-axis
    index combination.  ``rows`` may list axes in any order.
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
    for tau in _adjacent_transpositions(a.order):
        flipped = sigma_transpose(a, tau)
        if not all(x == -y for x, y in zip(flipped.data, a.data)):
            return False
    return True
