"""Permutations of axis positions and their sparse permutation matrices.

A permutation of degree d is stored as its image array
``(sigma(1), ..., sigma(d))`` with 1-based values.  The associated
permutation matrix ``W`` acting on Kronecker chains is kept in logical
(column-index) form: an m x n matrix whose column j is the basis vector
``delta_m^{c_j}`` is stored as a read-only numpy ``intp`` array of the
0-based row positions ``(c_1 - 1, ..., c_n - 1)``.  The public ``cols``
view gives them back as a 1-based tuple of Python ints.  All matrix
actions (apply, gather, compose, transpose) are index operations on that
array, never dense multiplies.

One index rule, ``_perm_index``, computes every column of ``W^sigma`` at
once by mixed-radix stride arithmetic, suffix first: each axis is
prepended to the index of the axes after it, so every add runs its inner
loop over a long contiguous suffix (the layout that keeps a transposition
bandwidth-bound; Springer, Su and Bientinesi, *HPTT*, 2017).
``build_perm_matrix`` is its checks, that rule and a ``LogicalMatrix``.
``_relayout``, the re-layout that the other modules' permutation-matrix
routes call, is one gather through the rule's index between two axis
orders: it builds no ``Permutation`` or ``LogicalMatrix`` and checks
nothing, since its callers checked their inputs.  ``perm_gather`` is its
public entry, ``build_perm_matrix``'s checks made once.  Both, and the
sigma-transposes, check sigma by one rule, ``_checked_perm``.  Both
count the columns of the index they build against ``core.MAX_ENTRIES``
before building it.  None of them calls ``np.transpose``: the
permutation-matrix route stays independent of the index-shuffle route
it is tested against.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

from .core import _check_budget, _checked_int, _Frozen, as_scalars_joint, check_dims, size_of


class Permutation(_Frozen):
    """Element of S_d as the 1-based image array (sigma(1), ..., sigma(d))."""

    __slots__ = ("image",)
    _args = ("image",)

    def __init__(self, image: Iterable[int]):
        image = tuple(map(_checked_int, image))
        if sorted(image) != list(range(1, len(image) + 1)):
            raise ValueError(f"{image} is not a bijection of 1..{len(image)}")
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(1, _checked_int(d) + 1))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, k: int) -> int:
        """sigma(k) for an integer k (``_checked_int``) in [1, d]; out of range raises ``IndexError`` naming it."""
        k = _checked_int(k)
        if not 1 <= k <= len(self.image):
            raise IndexError(f"index {k} out of range [1, {len(self.image)}]")
        return self.image[k - 1]

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Permutation{self.image}"

    def parity(self) -> int:
        """Sign of the permutation (+1 even, -1 odd) via cycle counting."""
        seen = [False] * self.degree
        sign = 1
        for start in range(self.degree):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = self.image[k] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for k, v in enumerate(self.image, start=1):
            inv[v - 1] = k
        return Permutation(inv)


def perm_compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition oriented so the matrix product law holds.

    Returns the permutation ``r`` with
    ``build_perm_matrix(dims, r) == build_perm_matrix(dims, p) * build_perm_matrix(dims, q)``
    for uniform dims, which works out to ``r(k) = q(p(k))``.
    """
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation(q(p(k)) for k in range(1, p.degree + 1))


def _row_count(rows) -> int:
    rows = _checked_int(rows)
    if rows < 1:
        raise ValueError("a logical matrix needs at least one row")
    return rows


class LogicalMatrix(_Frozen):
    """m x n matrix of basis-vector columns, stored as 0-based row positions."""

    __slots__ = ("rows", "_idx")
    _args = ("rows", "cols")

    def __init__(self, rows: int, cols: Iterable[int]):
        rows = _row_count(rows)
        # Python ints first, so a value past the index type fails the range
        # check below instead of overflowing the conversion.
        idx = np.array([_checked_int(c) for c in cols], dtype=object) - 1
        if idx.size and (idx.min() < 0 or idx.max() >= rows):
            j = int(np.flatnonzero((idx < 0) | (idx >= rows))[0])
            raise ValueError(f"column {j + 1} points at row {idx[j] + 1}, outside [1, {rows}]")
        self._fill(rows, idx.astype(np.intp))

    @classmethod
    def _from_index(cls, rows: int, idx: np.ndarray) -> "LogicalMatrix":
        """Wrap a fresh 0-based intp index array that the library built in range (frozen, unchecked)."""
        return object.__new__(cls)._fill(rows, idx)

    @classmethod
    def identity(cls, n: int) -> "LogicalMatrix":
        n = _check_budget(_row_count(n), "identity of order {}", n, unit="columns")
        return cls._from_index(n, np.arange(n, dtype=np.intp))

    @property
    def cols(self) -> tuple[int, ...]:
        """1-based row position of each column, as Python ints."""
        return tuple((self._idx + 1).tolist())

    @property
    def n_cols(self) -> int:
        return self._idx.size

    def is_permutation(self) -> bool:
        return self.rows == self.n_cols and bool(np.all(np.bincount(self._idx, minlength=self.rows) == 1))

    def __eq__(self, other):
        if not isinstance(other, LogicalMatrix):
            return NotImplemented
        return self.rows == other.rows and np.array_equal(self._idx, other._idx)

    def __hash__(self):
        return hash((self.rows, self._idx.tobytes()))

    def __repr__(self):
        return f"LogicalMatrix(rows={self.rows}, cols={self.cols})"

    # -- actions -----------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Gather-product ``W @ x``: out[r] = sum of x[j] over cols[j] == r."""
        (x,), _ = as_scalars_joint(x)
        if x.size != self.n_cols:
            raise ValueError(f"vector of length {x.size} against {self.n_cols} columns")
        rows = _check_budget(self.rows, "gather-product of a {} x {} logical matrix", self.rows, self.n_cols)
        out = np.zeros(rows, dtype=x.dtype)
        np.add.at(out, self._idx, x.reshape(-1))
        return out

    def gather_row(self, v) -> np.ndarray:
        """Row-vector product ``v @ W``: out[j] = v[cols[j]]."""
        v = np.asarray(v)
        if v.size != self.rows:
            raise ValueError(f"row vector of length {v.size} against {self.rows} rows")
        return v.reshape(-1)[self._idx]

    def compose(self, other: "LogicalMatrix") -> "LogicalMatrix":
        """Matrix product of two logical matrices (stays logical)."""
        if self.n_cols != other.rows:
            raise ValueError(f"size mismatch: {self.rows}x{self.n_cols} times {other.rows}x{other.n_cols}")
        return LogicalMatrix._from_index(self.rows, self._idx[other._idx])

    def transpose(self) -> "LogicalMatrix":
        """Transpose, which is also the inverse; only defined when the columns form a permutation."""
        if not self.is_permutation():
            raise ValueError("transpose of a non-permutation logical matrix is not logical")
        inv = np.empty(self.rows, dtype=np.intp)
        inv[self._idx] = np.arange(self.rows, dtype=np.intp)
        return LogicalMatrix._from_index(self.rows, inv)


def _perm_index(dims: tuple[int, ...], image: Sequence[int]) -> np.ndarray:
    """0-based row of every column of ``W^sigma`` over checked ``dims``; sigma given by its image.

    Column c is the multi-index ``m`` of rank c over ``dims``, and its row
    is ``sum_a (m_a - 1) * weight[a]``, where ``weight[sigma(k) - 1]`` is
    the stride of position k over the permuted dims.  The sum is built
    suffix first: each axis, last to first, is prepended to the index of
    the axes after it, so every add's inner loop runs over that whole
    suffix, not over one small dim.
    """
    weight = [0] * len(dims)
    stride = 1
    for s in reversed(image):
        weight[s - 1] = stride
        stride *= dims[s - 1]
    idx = np.zeros(1, dtype=np.intp)
    for size, w in zip(reversed(dims), reversed(weight)):
        idx = np.add.outer(np.arange(0, size * w, w, dtype=np.intp), idx).reshape(-1)
    return idx


def _checked_perm(sigma, order: int) -> Permutation:
    """``sigma``, a ``Permutation`` or its image, as a permutation of degree ``order``; else ``ValueError``."""
    if not isinstance(sigma, Permutation):
        sigma = Permutation(sigma)
    if sigma.degree != order:
        raise ValueError(f"permutation of degree {sigma.degree} for shape of order {order}")
    return sigma


def _columns(dims: tuple[int, ...]) -> int:
    """The column count of a permutation matrix over ``dims``, within ``core.MAX_ENTRIES``."""
    return _check_budget(size_of(dims), "permutation matrix over {}", dims, unit="columns")


def build_perm_matrix(dims: Sequence[int], sigma) -> LogicalMatrix:
    """Permutation matrix reordering a Kronecker chain of d vectors.

    ``W`` is the n x n logical matrix (n = prod dims) with
    ``W @ (x_1 kron ... kron x_d) = x_sigma(1) kron ... kron x_sigma(d)``
    for any vectors ``x_i`` of lengths ``dims[i]``.

    Construction: column c corresponds to the multi-index ``m`` of rank c
    over ``dims``; the column content is the chain
    ``delta^{j_1} kron ... kron delta^{j_d}`` with ``j_k = m[sigma(k)]``
    over the permuted dims, i.e. the single 1 sits at row
    ``linearize((j_1, ..., j_d))`` over ``(dims[sigma(1)], ..., dims[sigma(d)])``.
    ``_perm_index`` computes all those rows at once by that stride rule.

    Shapes above ``core.MAX_ENTRIES`` columns raise ``OverflowError``
    before anything is allocated; the intp index takes 8 bytes per column
    on 64-bit hosts, 128 MiB at the budget.  Dimensions below 2 degenerate
    gracefully but always raise a ``UserWarning``, since such matrices
    rarely mean what the caller hoped.
    """
    dims = check_dims(dims)
    sigma = _checked_perm(sigma, len(dims))
    n = _columns(dims)
    if any(size < 2 for size in dims):
        warnings.warn("permutation matrix over dims with entries < 2 degenerates", stacklevel=2)
    return LogicalMatrix._from_index(n, _perm_index(dims, sigma.image))


def perm_gather(flat, dims: Sequence[int], sigma) -> np.ndarray:
    """``W^sigma @ flat``, as one row gather: the flat data of the sigma-transpose.

    This is the public entry of ``_relayout``, from natural axis order to
    sigma's.  Its checks are ``build_perm_matrix``'s and
    ``LogicalMatrix.gather_row``'s, with the same exception types and
    messages, made once: the degree, the permuted dims, the budget and the
    length of ``flat``.  The identity is a copy, and no budget applies to it.
    """
    image = _checked_perm(sigma, len(dims)).image
    permuted = check_dims([dims[s - 1] for s in image])
    flat = np.asarray(flat)
    natural = tuple(range(1, len(dims) + 1))
    if image != natural or flat.size != size_of(permuted):
        n = _columns(permuted)
        if flat.size != n:
            raise ValueError(f"row vector of length {flat.size} against {n} rows")
    return _relayout(flat, dims, natural, image)


def _relayout(flat: np.ndarray, dims, src: tuple[int, ...], dst: tuple[int, ...]) -> np.ndarray:
    """Flat data over ``dims`` with its axes in order ``src``, re-laid to order ``dst``: one gather.

    ``dims`` is indexed by axis and the caller has checked everything:
    ``src`` and ``dst`` order the same axes and ``flat`` has their size.
    The identity is a copy.  Any other order gathers through the index of
    ``W^tau`` over the dims in ``dst`` order, tau taking each axis of
    ``src`` to its position in ``dst``; no ``Permutation`` or
    ``LogicalMatrix`` is built.  That index needs no range check:
    ``_perm_index`` ranks each multi-index, its axes reordered, over the
    reordered dims, a bijection onto ``range(flat.size)``.
    """
    if src == dst:
        return flat.reshape(-1).copy()
    return flat.reshape(-1)[_perm_index([dims[ax - 1] for ax in dst], [1 + dst.index(ax) for ax in src])]
