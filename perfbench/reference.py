"""Reference results computed without any of hyperstp's routes.

Every check in the benchmark compares a library result against a value
built here from plain numpy (``einsum``, ``transpose``, ``kron``) or from
the published appendix data.  Integer references run in int64, so each
one first proves from the input magnitudes that int64 cannot overflow;
float references are compared with the tolerance stated below.
"""

from __future__ import annotations

import string

import numpy as np

# Largest magnitude an int64 reference may reach: 2^62 leaves a factor of
# two of headroom below the int64 limit.
INT64_LIMIT = 2 ** 62

# Float results may differ from the reference by this share of the
# magnitude bound of the computation (sum of |products|).  Summation order
# differs between BLAS, einsum and the library's own loops.
FLOAT_RTOL = 1e-9


def require_int64_safe(bound: int) -> None:
    """Raise unless every partial sum of the reference stays below 2^62."""
    if bound >= INT64_LIMIT:
        raise OverflowError(f"magnitude bound {bound} would overflow the int64 reference")


def contract_ref(a: np.ndarray, b: np.ndarray, a_axes, b_axes) -> np.ndarray:
    """Contracted product by einsum; output is a's free axes then b's."""
    letters = iter(string.ascii_letters)
    sa = [next(letters) for _ in range(a.ndim)]
    sb = [next(letters) for _ in range(b.ndim)]
    for x, y in zip(a_axes, b_axes):
        sb[y - 1] = sa[x - 1]
    out = [sa[i] for i in range(a.ndim) if i + 1 not in a_axes]
    out += [sb[i] for i in range(b.ndim) if i + 1 not in b_axes]
    return np.einsum(f"{''.join(sa)},{''.join(sb)}->{''.join(out)}", a, b)


def perm_cols_ref(dims, sigma) -> np.ndarray:
    """Column row-positions (1-based) of W^sigma, from an index transpose.

    Transposing ``arange`` lays each source rank at its destination rank,
    so inverting that layout gives the row hit by each column.
    """
    n = int(np.prod(dims))
    moved = np.transpose(np.arange(n).reshape(dims), [s - 1 for s in sigma]).reshape(-1)
    cols = np.empty(n, dtype=np.int64)
    cols[moved] = np.arange(1, n + 1)
    return cols


def expression_ref(a: np.ndarray, rows) -> np.ndarray:
    """Matrix expression with the given increasing row axes, by transpose."""
    d = a.ndim
    cols = [k for k in range(1, d + 1) if k not in rows]
    s = int(np.prod([a.shape[r - 1] for r in rows]))
    return np.transpose(a, [k - 1 for k in list(rows) + cols]).reshape(s, -1)


def stp_mm_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a kron I_{t/n}) @ (b kron I_{t/p}) with dense identity blocks."""
    n, p = a.shape[1], b.shape[0]
    t = np.lcm(n, p)
    return np.kron(a, np.eye(t // n, dtype=a.dtype)) @ np.kron(b, np.eye(t // p, dtype=b.dtype))


def stp_mv_ref(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a kron I_{t/n}) @ (x kron ones_{t/p})."""
    n, p = a.shape[1], x.size
    t = np.lcm(n, p)
    return np.kron(a, np.eye(t // n, dtype=a.dtype)) @ np.kron(x, np.ones(t // p, dtype=x.dtype))


def stp_vv_ref(x: np.ndarray, y: np.ndarray):
    """(x kron ones_{t/|x|}) . (y kron ones_{t/|y|})."""
    t = np.lcm(x.size, y.size)
    return np.kron(x, np.ones(t // x.size, dtype=x.dtype)) @ np.kron(y, np.ones(t // y.size, dtype=y.dtype))


def ybe_refs(r: np.ndarray):
    """Both sides of the Yang-Baxter constraint for an order-4 array ``r``.

    ``t`` pairs the last axis of one copy with the first of the other;
    the sides pair ``t`` with a third copy as the library documents:
    lhs pairs t's axes (2, 6) with r's (3, 4), rhs pairs r's (1, 2) with
    t's (3, 4).
    """
    t = np.einsum("abck,kefg->abcefg", r, r)
    lhs = np.einsum("abcefg,pqbg->acefpq", t, r)
    rhs = np.einsum("uvxy,abuvfg->xyabfg", r, t)
    return lhs, rhs


def same(got, ref: np.ndarray, kind: str, bound: int) -> bool:
    """Exact equality on int, ``FLOAT_RTOL * bound`` closeness on float.

    The scalar kind must survive too: int results are Python integers
    (object arrays), float results binary64.
    """
    ref = np.asarray(ref)
    if ref.ndim == 0:
        if kind == "int":
            return isinstance(got, int) and got == int(ref)
        return isinstance(got, (float, np.float64)) and abs(got - float(ref)) <= FLOAT_RTOL * max(bound, 1)
    got = np.asarray(got)
    if got.shape != ref.shape:
        return False
    if kind == "int":
        if got.dtype != object:
            return False
        return bool(np.array_equal(got.astype(np.int64), ref))
    if got.dtype != np.float64:
        return False
    return bool(np.all(np.abs(got - ref) <= FLOAT_RTOL * max(bound, 1)))
