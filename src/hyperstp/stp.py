"""Semi-tensor products and the dimension-free vector operations.

The matrix-matrix product ``(a kron I_{t/n}) @ (b kron I_{t/p})``, with t
the lcm of the inner dimensions n and p, is computed block by block with
no padded factor built (Cheng, Qi and Zhao, 2012); the matrix-vector and
vector-vector variants replicate the vector side with ones instead.  With
these, vectors of different lengths can be added, compared and measured.

Operands go through ``core.as_scalars_joint``: any float operand puts the
whole product on binary64, and integer data stays exact.  Products run
through ``np.matmul``, so float results follow its summation order; int
products go through ``core.checked_product`` bounded by what a result row
sums: an entry sums gcd(n, p) products and a row of ``mv_stp``'s n, so
``core.narrow`` picks the tier from ``max|a| * max|b| * n``: float64 BLAS
up to 2**53 (the block result cast back to int64 in its own buffer),
int64 up to 2**63 - 1, Python ints past that.  ``vv_stp`` and
``stp_inner`` add their rows, t products, after widening.  When n divides
p, or p divides n, the product is one (batched) matrix product that
repeats neither factor.  The public products return Python ints, and
``vec_oplus``, a sum that no product bound covers, stays on them.

Each product counts what it allocates against ``core.MAX_ENTRIES`` before
allocating: its result, and in the general case the two repeated factors
too; so do the Kronecker products, the dimension-free sum and the
stacked identity.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _check_budget, _checked_int, as_scalars, as_scalars_joint, checked_product, widen


def _matrix(a: np.ndarray) -> np.ndarray:
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {a.ndim}")
    return a


def _vector(x: np.ndarray) -> np.ndarray:
    if x.ndim == 2 and 1 in x.shape:
        x = x.reshape(-1)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    return x


def _vectors(x, y) -> tuple[np.ndarray, np.ndarray, str]:
    """Two raw vector operands on one backend, and that backend."""
    (x, y), kind = as_scalars_joint(x, y)
    return _vector(x), _vector(y), kind


def _stp_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a kron I_α) @ (b kron I_β)``, not widened; t = lcm(n, p), α = t/n, β = t/p.

    α and β are coprime, so inner index s feeds only block (s mod α, s mod β):
    ``a[:, s // α]`` and ``b[s // β]``, split by s mod αβ, give every block in
    one batched product.  With β = 1 every block multiplies ``a`` itself, by
    b's rows s ≡ u (mod α) for block u, so the product is one ``a @ b`` with b
    read as n × (α q), no repeat built.  With α = 1 every block multiplies b
    itself: row r of the product, read as q × β, is ``b.T @`` row r of ``a``
    read as p × β, one batched product over a's rows with b broadcast, no
    repeat built either.  An entry sums gcd(n, p) products and a row of a
    one-column product n, so with n as inner length an int product comes
    back, rows summable, as int64 or Python ints (``checked_product``,
    whose ``narrow`` measures both factors).
    The budget counts the result, m·α × q·β, and only in the general case
    the repeats of a (m × t) and b (t × q) as well.
    """
    (m, n), (p, q) = a.shape, b.shape
    t = _checked_lcm(n, p)
    al, be = t // n, t // p
    result = m * al * q * be
    entries = result if 1 in (al, be) else max(m * t, t * q, result)
    _check_budget(entries, "semi-tensor product of {} and {}", a.shape, b.shape)
    k = al * be

    def blocks(a, b, dtype):
        a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        if be == 1:
            return np.matmul(a, b.reshape(n, al * q)).reshape(m * al, q)
        if al == 1:
            return np.matmul(b.T, a.reshape(m, p, be)).reshape(m, q * be)
        ga = np.repeat(a, al, axis=1).reshape(m, t // k, k).transpose(2, 0, 1)
        gb = np.repeat(b, be, axis=0).reshape(t // k, k, q).transpose(1, 0, 2)
        # α and β are coprime, so by the CRT the αβ blocks write every output block.
        out = np.empty((m, al, q, be), dtype=dtype)
        out[:, np.arange(k) % al, :, np.arange(k) % be] = np.matmul(ga, gb)
        return out.reshape(m * al, q * be)

    return checked_product(blocks, a, b, n)


def _checked_lcm(n: int, p: int) -> int:
    if min(n, p) < 1:
        raise ValueError(f"lengths {n} and {p}: a semi-tensor operand needs length >= 1")
    return math.lcm(n, p)


def kron(a, b) -> np.ndarray:
    """Kronecker product (dense)."""
    (a, b), _ = as_scalars_joint(a, b)
    _check_budget(a.size * b.size, "Kronecker product")
    return np.kron(a, b)


def kron_chain(vectors) -> np.ndarray:
    """Kronecker chain of column vectors, as a 1-D array.

    Entry at the ID rank of (i_1, ..., i_d) is the product
    ``x_1[i_1] * ... * x_d[i_d]``.
    """
    if not vectors:
        raise ValueError("empty chain")
    vectors, _ = as_scalars_joint(*vectors)
    _check_budget(math.prod(np.size(v) for v in vectors), "Kronecker chain")
    out = _vector(vectors[0])
    for v in vectors[1:]:
        out = np.kron(out, _vector(v))
    return out


def mm_stp(a, b) -> np.ndarray:
    """Matrix-matrix semi-tensor product.

    ``(a kron I_{t/n}) @ (b kron I_{t/p})`` with t the lcm of a's column
    count n and b's row count p; reduces to the ordinary product when
    n equals p.
    """
    (a, b), _ = as_scalars_joint(a, b)
    return widen(_stp_dot(_matrix(a), _matrix(b)))


def mv_stp(a, x) -> np.ndarray:
    """Matrix-vector semi-tensor product.

    ``(a kron I_{t/n}) @ (x kron ones_{t/p})``; the vector side is
    replicated entrywise rather than identity-padded, so the result is a
    vector of length ``rows(a) * t / n``.
    """
    (a, x), _ = as_scalars_joint(a, x)
    return widen(_stp_dot(_matrix(a), _vector(x).reshape(-1, 1)).sum(axis=1))


def vv_stp(x, y):
    """Vector-vector semi-tensor product (a scalar)."""
    x, y, _ = _vectors(x, y)
    return _vv_sum(x, y)


def _vv_sum(x: np.ndarray, y: np.ndarray):
    """The sum of ``x ⋉ y``'s α·β entries, added after widening: t products may pass int64."""
    return widen(_stp_dot(x.reshape(1, -1), y.reshape(-1, 1))).sum()


def vec_oplus(x, y, sign: int = +1) -> np.ndarray:
    """Dimension-free vector addition (subtraction with sign=-1).

    Both vectors are ones-replicated up to the lcm of their lengths and
    then combined entrywise.
    """
    if _checked_int(sign) not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    x, y, _ = _vectors(x, y)
    t = _checked_lcm(x.size, y.size)
    _check_budget(t, "sum of lengths {} and {}", x.size, y.size)
    x, y = np.repeat(x, t // x.size), np.repeat(y, t // y.size)
    return x + y if sign > 0 else x - y


def stp_inner(x, y):
    """Dimension-free inner product: the vector-vector product over t.

    Exact integer inputs stay exact when t divides the raw product and
    raise otherwise; float inputs divide in binary64.
    """
    x, y, kind = _vectors(x, y)
    t = _checked_lcm(x.size, y.size)
    raw = _vv_sum(x, y)
    if kind == "float":
        return float(raw) / t
    if raw % t == 0:
        return raw // t
    raise ValueError(f"inner product {raw}/{t} is not integral; use the float backend")


def stp_norm(x) -> float:
    """Norm induced by the dimension-free inner product (float backend)."""
    x, kind = as_scalars(x)
    if kind != "float":
        raise ValueError("norm needs the float backend (square roots are irrational)")
    return math.sqrt(stp_inner(x, x))


def stp_distance(x, y) -> float:
    """Distance: norm of the dimension-free difference (float backend)."""
    return stp_norm(vec_oplus(x, y, -1))


def delta_I(n: int) -> np.ndarray:
    """The stacked identity columns: row stacking of I_n, length n*n, as Python ints.

    Right semi-tensor multiplication by it row-stacks a matrix: the
    product of an m x n matrix with it is the column vector of the
    matrix's rows laid end to end.
    """
    n = _checked_int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_budget(n * n, "stacked identity of order {}", n)
    return np.eye(n, dtype=object).reshape(-1)
