import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperstp.core as core
from hyperstp import (
    Permutation,
    build_perm_matrix,
    delta_I,
    hypervector_expand,
    kron,
    kron_chain,
    mm_stp,
    mv_stp,
    stp_distance,
    stp_inner,
    stp_norm,
    vc,
    vec_oplus,
    vr,
    vv_stp,
)

from conftest import basis_vec, kron_pad, stp_oracle, tier_spy, tier_values


def rand_int_mat(rng, m, n, lo=-6, hi=6):
    return np.array([[int(v) for v in row] for row in rng.integers(lo, hi + 1, (m, n))], dtype=object)


# -- kronecker -------------------------------------------------------------


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_row_by_identity():
    got = kron(np.array([[1, 2]], dtype=object), np.eye(2, dtype=np.int64))
    assert got.tolist() == [[1, 0, 2, 0], [0, 1, 0, 2]]


def test_kron_chain_basis_arithmetic():
    got = kron_chain([basis_vec(2, 1), basis_vec(3, 2)])
    assert list(got) == list(basis_vec(6, 2))


def test_kron_chain_orders_products_by_id():
    got = kron_chain([np.array([1, 2]), np.array([10, 20, 30])])
    assert list(got) == [10, 20, 30, 20, 40, 60]


# -- the three products -----------------------------------------------------


def test_mm_matching_dims_is_plain_product(rng):
    for _ in range(100):
        m, n, q = (int(v) for v in rng.integers(1, 7, 3))
        a, b = rand_int_mat(rng, m, n), rand_int_mat(rng, n, q)
        assert np.array_equal(mm_stp(a, b), np.dot(a, b))


def test_mm_identity_absorbs():
    b = np.array([[1, 2], [3, 4]], dtype=object)
    assert np.array_equal(mm_stp(np.eye(2, dtype=np.int64), b), b)


def test_mm_frozen_expansion():
    a = np.array([[1, 2]], dtype=object)
    b = np.array([[1], [0], [0], [0]], dtype=object)
    assert mm_stp(a, b).tolist() == [[1], [0]]


def test_mm_associative(rng):
    for _ in range(200):
        dims = [int(v) for v in rng.integers(1, 7, 6)]
        a = rand_int_mat(rng, dims[0], dims[1])
        b = rand_int_mat(rng, dims[2], dims[3])
        c = rand_int_mat(rng, dims[4], dims[5])
        assert np.array_equal(mm_stp(mm_stp(a, b), c), mm_stp(a, mm_stp(b, c)))


def test_mixed_associativity_with_vector(rng):
    for _ in range(200):
        m, n, p, q, r = (int(v) for v in rng.integers(1, 7, 5))
        a, b = rand_int_mat(rng, m, n), rand_int_mat(rng, p, q)
        x = np.array([int(v) for v in rng.integers(-6, 7, r)], dtype=object)
        assert np.array_equal(mv_stp(mm_stp(a, b), x), mv_stp(a, mv_stp(b, x)))


def test_distributivity_identities(rng):
    for _ in range(200):
        m, n, p, q = (int(v) for v in rng.integers(1, 7, 4))
        a, b = rand_int_mat(rng, m, n), rand_int_mat(rng, m, n)
        c = rand_int_mat(rng, p, q)
        x = np.array([int(v) for v in rng.integers(-6, 7, p)], dtype=object)
        y = np.array([int(v) for v in rng.integers(-6, 7, p)], dtype=object)
        z = np.array([int(v) for v in rng.integers(-6, 7, q)], dtype=object)
        assert np.array_equal(mm_stp(a + b, c), mm_stp(a, c) + mm_stp(b, c))
        assert np.array_equal(mm_stp(c, a + b), mm_stp(c, a) + mm_stp(c, b))
        assert np.array_equal(mv_stp(a + b, x), mv_stp(a, x) + mv_stp(b, x))
        assert np.array_equal(mv_stp(a, x + y), mv_stp(a, x) + mv_stp(a, y))
        assert vv_stp(x + y, z) == vv_stp(x, z) + vv_stp(y, z)
        assert vv_stp(z, x + y) == vv_stp(z, x) + vv_stp(z, y)


@st.composite
def int_array(draw, shape):
    size = math.prod(shape)
    values = draw(tier_values())
    return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=object).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distributivity_across_the_int64_bound(data):
    m, n, p, q = (data.draw(st.integers(1, 6)) for _ in range(4))
    a, b, c = data.draw(int_array((m, n))), data.draw(int_array((m, n))), data.draw(int_array((p, q)))
    x, y, z = data.draw(int_array((p,))), data.draw(int_array((p,))), data.draw(int_array((q,)))
    pairs = [
        (mm_stp(a + b, c), mm_stp(a, c) + mm_stp(b, c)),
        (mm_stp(c, a + b), mm_stp(c, a) + mm_stp(c, b)),
        (mv_stp(a + b, x), mv_stp(a, x) + mv_stp(b, x)),
        (mv_stp(a, x + y), mv_stp(a, x) + mv_stp(a, y)),
        (vv_stp(x + y, z), vv_stp(x, z) + vv_stp(y, z)),
        (vv_stp(z, x + y), vv_stp(z, x) + vv_stp(z, y)),
    ]
    for left, right in pairs:
        left, right = np.ravel(np.array(left, dtype=object)), np.ravel(np.array(right, dtype=object))
        assert left.tolist() == right.tolist()
        assert all(type(v) is int for v in left)


def assert_python_ints_equal(got, want):
    got, want = np.ravel(np.array(got, dtype=object)), np.ravel(np.array(want, dtype=object))
    assert got.tolist() == want.tolist()
    assert all(type(v) is int for v in got)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_products_match_the_dense_kronecker_oracle(data):
    m, n, p, q = (data.draw(st.integers(1, 8)) for _ in range(4))
    split = data.draw(st.sampled_from(["any", "n | p", "p | n"]))
    if split == "n | p":
        # alpha = p / n > 1 and beta = 1: one product with b read as n x (alpha q).
        p = n * data.draw(st.integers(2, 4))
    elif split == "p | n":
        # alpha = 1 and beta = n / p > 1: one batched product over a's rows.
        n = p * data.draw(st.integers(2, 4))
    shapes = {"a": (m, n), "b": (p, q), "x": (p,), "y": (n,)}
    ints = {name: data.draw(int_array(shape)) for name, shape in shapes.items()}
    floats = {name: v.astype(np.float64) / 7 for name, v in ints.items()}
    t = math.lcm(n, p)

    def close(got, want, scale):
        # Within 1e-12 of the oracle, relative to the sum of |terms|.
        assert np.all(np.abs(np.ravel(got) - np.ravel(want)) <= 1e-12 * np.ravel(scale))

    for product, (u, v) in ((mm_stp, "ab"), (mv_stp, "ax"), (vv_stp, "yx")):
        assert_python_ints_equal(product(ints[u], ints[v]), stp_oracle(ints[u], ints[v]))
        fu, fv = floats[u], floats[v]
        close(product(fu, fv), stp_oracle(fu, fv), stp_oracle(np.abs(fu), np.abs(fv)))
    for sign in (1, -1):
        y, x = ints["y"], ints["x"]
        assert_python_ints_equal(vec_oplus(y, x, sign), kron_pad(y, t // n) + sign * kron_pad(x, t // p))
        y, x = floats["y"], floats["x"]
        assert vec_oplus(y, x, sign).tolist() == (kron_pad(y, t // n) + sign * kron_pad(x, t // p)).tolist()
    y, x = ints["y"], ints["x"]
    raw = stp_oracle(y, x)
    if raw % t:
        with pytest.raises(ValueError, match="not integral"):
            stp_inner(y, x)
    else:
        assert_python_ints_equal(stp_inner(y, x), raw // t)
    y, x = floats["y"], floats["x"]
    close(stp_inner(y, x), stp_oracle(y, x) / t, stp_oracle(np.abs(y), np.abs(x)) / t)


def test_mv_identity_multiple():
    x = np.array([1, 2, 3, 4], dtype=object)
    assert list(mv_stp(np.eye(2, dtype=np.int64), x)) == [1, 2, 3, 4]
    assert list(mv_stp(np.eye(2, dtype=np.int64), np.array([3, 5], dtype=object))) == [3, 5]


def test_mv_frozen_expansion():
    a = np.array([[1, 1], [1, -1]], dtype=object)
    assert list(mv_stp(a, np.array([1, 2, 3, 4], dtype=object))) == [4, 6, -2, -2]


def test_mv_matching_dims_is_plain(rng):
    for _ in range(100):
        m, n = (int(v) for v in rng.integers(1, 7, 2))
        a = rand_int_mat(rng, m, n)
        x = np.array([int(v) for v in rng.integers(-6, 7, n)], dtype=object)
        assert np.array_equal(mv_stp(a, x), np.dot(a, x))


def test_vv_examples():
    assert vv_stp([1], [1]) == 1
    assert vv_stp([1, 2], [1, 1, 1]) == 9
    assert vv_stp([1, 2, 3], [1, 1, 1]) == 6  # equal length: plain dot


def test_vec_oplus_examples():
    assert list(vec_oplus([1], [2])) == [3]
    assert list(vec_oplus([1, 2], [10, 20, 30])) == [11, 11, 21, 22, 32, 32]
    x = np.array([4, 5], dtype=object)
    assert list(vec_oplus(x, x, -1)) == [0, 0]


def test_vec_oplus_sign_is_an_integer():
    # True and 1.0 once added as +1.  The slot refuses 2, so it cannot join test_core's INDEX_ENTRIES table.
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match=f"^{bad!r} is not an integer$"):
            vec_oplus([1], [2], bad)
    assert list(vec_oplus([1], [2], np.int64(-1))) == [-1]
    with pytest.raises(ValueError, match="sign must be"):
        vec_oplus([1], [2], 2)


def test_vec_oplus_commutes(rng):
    x = np.array([int(v) for v in rng.integers(-9, 10, 4)], dtype=object)
    y = np.array([int(v) for v in rng.integers(-9, 10, 6)], dtype=object)
    assert list(vec_oplus(x, y)) == list(vec_oplus(y, x))


def test_vec_oplus_is_exact_past_int64():
    # A sum is not a product: the int64 kernel's bound does not cover it.
    up = vec_oplus([2 ** 63 - 1], [1])
    down = vec_oplus([-(2 ** 63 - 1)], [2], -1)
    assert list(up) == [2 ** 63] and list(down) == [-(2 ** 63) - 1]
    assert type(up[0]) is int and type(down[0]) is int


def test_vv_adds_its_rows_past_int64_exactly(monkeypatch):
    # Each of the 3 rows sums n = 2 products, 2·M² < 2**63, so the product runs on int64;
    # the total 6·M² passes 2**63 and would wrap if the rows were added in int64.
    M = 1_600_000_000
    tiers = tier_spy(monkeypatch)
    x, y = [M, M], [M, M, M]
    assert 2 * M * M < 2 ** 63 - 1 < 6 * M * M
    total, inner = vv_stp(x, y), stp_inner(x, y)
    assert tiers == [(2, np.int64)] * 2
    assert type(total) is int and total == 6 * M * M == 15360000000000000000
    assert type(inner) is int and inner == M * M
    assert_python_ints_equal(mv_stp([x], y), [2 * M * M] * 3)


def test_inner_norm_distance():
    assert stp_inner([1, 1], [1, 1, 1]) == 1
    assert stp_norm(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(25 / 2), abs=1e-15)
    x = np.array([1.0, 2.0, 3.0])
    assert stp_distance(x, x) == 0.0


def test_norm_rejects_exact_backend():
    with pytest.raises(ValueError):
        stp_norm(np.array([3, 4], dtype=object))
    with pytest.raises(ValueError):
        stp_distance([1, 2], [1, 2, 3])


def test_inner_exact_backend_rejects_fractions():
    with pytest.raises(ValueError):
        stp_inner([1, 0], [1, 1, 1])  # raw 2, t 6


@pytest.mark.parametrize(
    "op, x, y",
    [
        (vv_stp, [], [1, 2]),
        (mm_stp, np.zeros((2, 0)), np.zeros((3, 2))),
        (vec_oplus, [], [1]),
        (stp_inner, [], [1]),
    ],
)
def test_empty_operands_raise_value_error(op, x, y):
    with pytest.raises(ValueError, match="length >= 1"):
        op(x, y)


# -- entry budget -----------------------------------------------------------


def test_padding_over_budget_is_refused_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the entry budget")

    row, col = np.ones((1, 10000), dtype=np.int64), np.ones((10001, 1), dtype=np.int64)
    for name in ("kron", "eye", "zeros", "matmul", "repeat"):
        monkeypatch.setattr(np, name, refuse)
    with pytest.raises(OverflowError, match="budget"):
        mm_stp(row, col)
    with pytest.raises(OverflowError, match="budget"):
        mv_stp(row, col.reshape(-1))
    with pytest.raises(OverflowError, match="budget"):
        vv_stp(row.reshape(-1), col.reshape(-1))
    with pytest.raises(OverflowError, match="budget"):
        vec_oplus(row.reshape(-1), col.reshape(-1))
    big = np.ones(4097, dtype=np.int64)
    with pytest.raises(OverflowError, match="budget"):
        kron_chain([big, big])
    with pytest.raises(OverflowError, match="budget"):
        hypervector_expand([big, big])
    with pytest.raises(OverflowError, match="budget"):
        kron(big, big)


def test_padding_budget_bounds_the_padded_entries(monkeypatch):
    # The budget bounds each array the block kernel allocates: the result
    # always, and only where the general case builds them, a with its
    # columns repeated to t and b with its rows repeated to t.
    monkeypatch.setattr(core, "MAX_ENTRIES", 24)
    within = {
        ((2, 3), (12, 1)): (8, 1),
        ((1, 12), (3, 2)): (1, 8),
        ((4, 1), (1, 6)): (4, 6),
        # β = 1 and α = 1: a 10-entry result, and no repeat is built.
        ((2, 3), (15, 1)): (10, 1),
        ((1, 15), (3, 2)): (1, 10),
        # General case, t = 12: both repeats (24 and 12 entries) are within the budget.
        ((2, 4), (6, 1)): (6, 2),
    }
    for (sa, sb), shape in within.items():
        assert mm_stp(np.ones(sa, dtype=np.int64), np.ones(sb, dtype=np.int64)).shape == shape
    # A 25-entry result; then 18-entry results whose repeat of a, or of b, has 36 entries.
    for sa, sb, entries in [((5, 1), (1, 5), 25), ((3, 4), (6, 1), 36), ((1, 4), (6, 3), 36)]:
        with pytest.raises(OverflowError, match=f"has {entries} entries, above the budget of 24"):
            mm_stp(np.ones(sa, dtype=np.int64), np.ones(sb, dtype=np.int64))
    assert vec_oplus(np.ones(3), np.ones(8)).size == 24
    with pytest.raises(OverflowError, match="budget"):
        vec_oplus(np.ones(5), np.ones(7))
    assert kron_chain([np.ones(4), np.ones(6)]).size == 24
    with pytest.raises(OverflowError, match="budget"):
        kron_chain([np.ones(5), np.ones(5)])


# -- stacked identity and the stacking identities ----------------------------


def test_delta_I_values():
    assert list(delta_I(1)) == [1]
    assert list(delta_I(2)) == [1, 0, 0, 1]


def test_delta_I_over_the_budget_is_refused_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the entry budget")

    monkeypatch.setattr(np, "eye", refuse)
    with pytest.raises(OverflowError, match="stacked identity of order 4097 has 16785409 entries"):
        delta_I(4097)


def test_row_stack_via_stp(rng):
    for _ in range(100):
        m, n = (int(v) for v in rng.integers(1, 6, 2))
        a = rand_int_mat(rng, m, n)
        assert list(mm_stp(a, delta_I(n).reshape(-1, 1)).reshape(-1)) == list(vr(a))
        assert list(mm_stp(a.T, delta_I(m).reshape(-1, 1)).reshape(-1)) == list(vc(a))


def test_product_stacking_identities(rng):
    # row stacking of a product, and column stacking of the mirrored product
    for _ in range(100):
        m, n, q, p = (int(v) for v in rng.integers(1, 6, 4))
        a = rand_int_mat(rng, m, n)
        x = rand_int_mat(rng, n, q)
        y = rand_int_mat(rng, p, m)
        lhs = vr(np.dot(a, x))
        rhs = mm_stp(a, vr(x).reshape(-1, 1)).reshape(-1)
        assert list(lhs) == list(rhs)
        lhs_c = vc(np.dot(y, a))
        rhs_c = mm_stp(a.T, vc(y).reshape(-1, 1)).reshape(-1)
        assert list(lhs_c) == list(rhs_c)


def test_roundtrip_identity_2311(rng):
    from hyperstp import vcs, vrs

    for _ in range(100):
        m, n = (int(v) for v in rng.integers(1, 6, 2))
        a = rand_int_mat(rng, m, n)
        assert np.array_equal(vrs(vr(a), n), a)
        assert np.array_equal(vcs(vc(a), m), a)


def test_chain_reorder_through_matrix_float(rng):
    # the permutation matrix reorders real Kronecker chains within 1e-12
    dims = (2, 3, 4)
    for _ in range(50):
        xs = [np.asarray(rng.uniform(-1, 1, n)) for n in dims]
        p = Permutation(tuple(int(v) for v in rng.permutation(3) + 1))
        lhs = kron_chain([xs[p(k) - 1] for k in range(1, 4)])
        rhs = build_perm_matrix(dims, p).apply(kron_chain(xs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
