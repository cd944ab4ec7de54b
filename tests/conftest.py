"""Shared helpers: random hypermatrices and independent loop oracles.

The oracles here recompute results entry by entry from the definitions,
deliberately avoiding the library's stride arithmetic and gather paths,
so equivalence tests check two genuinely different routes.
"""

import functools
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

import hyperstp.core as core
from hyperstp import Hypermatrix, Permutation, delinearize, iter_indices, linearize, mm_stp, size_of


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_dims(rng, max_order=4, max_dim=5, max_size=400):
    while True:
        d = int(rng.integers(1, max_order + 1))
        dims = tuple(int(v) for v in rng.integers(1, max_dim + 1, d))
        if np.prod(dims) <= max_size:
            return dims


@st.composite
def mixed_dims(draw, max_size=2000):
    """Order 1-5, each dim 1-9, total size at most ``max_size``."""
    dims, budget = [], max_size
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, min(9, budget)))
        dims.append(n)
        budget //= n
    return tuple(dims)


# |v| <= 9, |v| near 2**26.5, near 2**31.5 or past 2**63: products of
# the large values fall on both sides of the float64 tier's bound and of
# the int64 tier's, so all three tiers of the kernel meet here.
NEAR_FLOAT64 = 94906265  # NEAR_FLOAT64**2 < 2**53 < (NEAR_FLOAT64 + 1)**2
NEAR_BOUND = 3037000499  # NEAR_BOUND**2 < 2**63 - 1 < (NEAR_BOUND + 1)**2


def signed(magnitudes):
    return st.builds(lambda v, s: v * s, magnitudes, st.sampled_from([1, -1]))


def tier_values(scale=1):
    """One family of int entries, drawn once per array; ``scale`` divides the squares that set the near bounds."""
    return st.sampled_from([
        st.integers(-9, 9),
        signed(st.integers(math.isqrt(NEAR_FLOAT64 ** 2 // scale) - 2, math.isqrt(NEAR_FLOAT64 ** 2 // scale) + 2)),
        signed(st.integers(math.isqrt(NEAR_BOUND ** 2 // scale) - 2, math.isqrt(NEAR_BOUND ** 2 // scale) + 2)),
        signed(st.integers(2 ** 63, 2 ** 63 + 9)),
    ])


def tier_spy(monkeypatch) -> list:
    """The (inner length, tier) of every ``core.narrow`` call from now on."""
    calls = []
    narrow = core.narrow
    monkeypatch.setattr(core, "narrow", lambda *args: (out := narrow(*args), calls.append((args[2], out[2])))[0])
    return calls


def random_hm(rng, dims, lo=-9, hi=9, kind="int"):
    size = int(np.prod(dims, dtype=np.int64)) if dims else 1
    if kind == "int":
        values = [int(v) for v in rng.integers(lo, hi + 1, size)]
    else:
        values = [float(v) for v in rng.uniform(lo, hi, size)]
    return Hypermatrix.from_flat(dims, values, kind)


def transpose_oracle(a: Hypermatrix, sigma: Permutation) -> Hypermatrix:
    """Entrywise axis permutation straight from the index rule."""
    d = a.order
    dims = tuple(a.dims[sigma(k) - 1] for k in range(1, d + 1))
    values = {}
    for idx, v in a.items():
        new_idx = tuple(idx[sigma(k) - 1] for k in range(1, d + 1))
        values[new_idx] = v
    return Hypermatrix.from_flat(dims, [values[i] for i in iter_indices(dims)], a.kind)


def perm_matrix_oracle(dims, sigma: Permutation) -> tuple[int, ...]:
    """Columns of W^sigma, one delinearize/linearize round per column.

    Column c holds the multi-index m of rank c over ``dims``; its single 1
    sits at the rank of ``(m[sigma(1)], ..., m[sigma(d)])`` over the
    permuted dims.
    """
    d = len(dims)
    permuted = tuple(dims[sigma(k) - 1] for k in range(1, d + 1))
    cols = []
    for c in range(1, size_of(dims) + 1):
        m = delinearize(dims, c)
        cols.append(linearize(permuted, tuple(m[sigma(k) - 1] for k in range(1, d + 1))))
    return tuple(cols)


def expression_oracle(a: Hypermatrix, rows, cols) -> np.ndarray:
    """Entrywise matrix expression straight from the row/column ID ranks."""
    rows, cols = tuple(rows), tuple(cols)
    row_dims = tuple(a.dims[r - 1] for r in rows)
    col_dims = tuple(a.dims[c - 1] for c in cols)
    s = int(np.prod(row_dims, dtype=np.int64)) if rows else 1
    t = int(np.prod(col_dims, dtype=np.int64)) if cols else 1
    out = np.zeros((s, t), dtype=object)
    for idx, v in a.items():
        r = linearize(row_dims, tuple(idx[ax - 1] for ax in rows))
        c = linearize(col_dims, tuple(idx[ax - 1] for ax in cols))
        out[r - 1, c - 1] = v
    return out


def contract_oracle(a: Hypermatrix, b: Hypermatrix, a_axes, b_axes) -> Hypermatrix:
    """Entrywise contracted product using only .get() and explicit sums."""
    a_axes, b_axes = tuple(a_axes), tuple(b_axes)
    a_free = [k for k in range(1, a.order + 1) if k not in a_axes]
    b_free = [k for k in range(1, b.order + 1) if k not in b_axes]
    out_dims = tuple(a.dims[k - 1] for k in a_free) + tuple(b.dims[k - 1] for k in b_free)
    ell = [a.dims[k - 1] for k in a_axes]
    values = []
    for out_idx in iter_indices(out_dims):
        fa = out_idx[: len(a_free)]
        fb = out_idx[len(a_free):]
        total = 0 if a.kind == "int" else 0.0
        for ks in product(*(range(1, n + 1) for n in ell)):
            ia = [0] * a.order
            ib = [0] * b.order
            for ax, v in zip(a_free, fa):
                ia[ax - 1] = v
            for ax, v in zip(b_free, fb):
                ib[ax - 1] = v
            for ax, bx, k in zip(a_axes, b_axes, ks):
                ia[ax - 1] = k
                ib[bx - 1] = k
            total += a.get(tuple(ia)) * b.get(tuple(ib))
        values.append(total)
    return Hypermatrix.from_flat(out_dims, values, a.kind)


def kron_pad(a: np.ndarray, k: int) -> np.ndarray:
    """``a kron I_k`` for a matrix, ``a kron ones_k`` for a vector, built densely."""
    return np.kron(a, np.eye(k, dtype=a.dtype) if a.ndim == 2 else np.ones(k, dtype=a.dtype))


def stp_oracle(a: np.ndarray, b: np.ndarray):
    """The semi-tensor product from its definition: both factors padded to the lcm, then ``@``.

    Matrix-matrix, matrix-vector or vector-vector, as the operands' ndims
    say; a vector factor is ones-replicated, a matrix identity-padded.
    """
    t = math.lcm(a.shape[-1], b.shape[0])
    return kron_pad(a, t // a.shape[-1]) @ kron_pad(b, t // b.shape[0])


def stp_chain(factors) -> np.ndarray:
    """A semi-tensor chain as a fold of the public ``mm_stp``, which widens every step to Python ints."""
    return functools.reduce(mm_stp, factors).reshape(-1)


def assert_same_result(got, ref, kind):
    """Python ints equal to ``ref``'s on the int backend; binary64 with ``ref``'s bits on float."""
    if isinstance(got, np.ndarray):
        assert got.dtype == (object if kind == "int" else np.float64)
        got, ref = list(got.reshape(-1)), list(np.asarray(ref).reshape(-1))
    else:
        assert type(got) is (int if kind == "int" else np.float64)
        got, ref = [got], [ref]
    if kind == "int":
        assert all(type(v) is int for v in got) and got == ref
    else:
        assert [float(v).hex() for v in got] == [float(v).hex() for v in ref]


def basis_vec(n, i, dtype=np.int64):
    out = np.zeros(n, dtype=dtype)
    out[i - 1] = 1
    return out
