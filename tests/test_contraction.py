import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperstp.contraction as contraction
import hyperstp.core as core
from hyperstp import (
    Hypermatrix,
    binary_apply,
    contract,
    contract_bruteforce,
    contract_via_expression,
    eval_multilinear_scalar,
    eval_multilinear_vector,
    eval_tensor,
    hypervector_expand,
    kary_apply,
    matrix_expression,
    onto_contract,
    sigma_transpose,
    size_of,
    unary_apply,
)

from conftest import (
    assert_same_result,
    basis_vec,
    contract_oracle,
    mixed_dims,
    random_dims,
    random_hm,
    stp_chain,
    tier_spy,
    tier_values,
)


def random_spec(rng, a, b, max_pairs=None):
    """A random axis pairing between two hypermatrices (may be empty)."""
    by_dim = {}
    for k, n in enumerate(b.dims, start=1):
        by_dim.setdefault(n, []).append(k)
    a_axes, b_axes = [], []
    avail = {n: list(ks) for n, ks in by_dim.items()}
    order = list(rng.permutation(a.order) + 1)
    for ax in order:
        n = a.dims[ax - 1]
        if avail.get(n) and (max_pairs is None or len(a_axes) < max_pairs) and rng.random() < 0.7:
            pick = avail[n].pop(int(rng.integers(0, len(avail[n]))))
            a_axes.append(int(ax))
            b_axes.append(int(pick))
    return tuple(a_axes), tuple(b_axes)


# -- the two contraction routes ---------------------------------------------


def test_single_pair_is_matrix_product(rng):
    a = random_hm(rng, (3, 4))
    b = random_hm(rng, (4, 5))
    got = contract_bruteforce(a, b, (2,), (1,))
    assert got.dims == (3, 5)
    assert np.array_equal(got.nd, np.dot(a.nd, b.nd))
    assert contract_via_expression(a, b, (2,), (1,)) == got


def test_example_pipeline_shape_and_values(rng):
    a = random_hm(rng, (2, 3, 4))
    b = random_hm(rng, (4, 5, 3))
    c = contract_bruteforce(a, b, (2, 3), (3, 1))
    assert c.dims == (2, 5)
    # entry (i1, j2) sums a[i1, k2, k3] * b[k3, j2, k2]
    expected = 0
    for k2 in range(1, 4):
        for k3 in range(1, 5):
            expected += a.get((2, k2, k3)) * b.get((k3, 4, k2))
    assert c.get((2, 4)) == expected
    assert contract_via_expression(a, b, (2, 3), (3, 1)) == c


def test_expression_route_matches_printed_factorisation(rng):
    a = random_hm(rng, (2, 3, 4))
    b = random_hm(rng, (4, 5, 3))
    ma = matrix_expression(a, rows=(1,), cols=(2, 3))
    mb = matrix_expression(b, rows=(3, 1), cols=(2,))
    mc = np.dot(ma.mat, mb.mat)
    c = contract_via_expression(a, b, (2, 3), (3, 1))
    assert np.array_equal(mc, matrix_expression(c, rows=(1,), cols=(2,)).mat)


def test_self_pairing_vector_norm():
    v = Hypermatrix.from_flat((4,), [1, -2, 3, -4])
    got = contract_bruteforce(v, v, (1,), (1,))
    assert got.order == 0 and got.to_scalar() == 30


def test_outer_product_empty_spec(rng):
    a = random_hm(rng, (2, 3))
    b = random_hm(rng, (4,))
    c = contract_bruteforce(a, b, (), ())
    assert c.dims == (2, 3, 4)
    assert c.get((2, 1, 3)) == a.get((2, 1)) * b.get((3,))
    assert contract_via_expression(a, b, (), ()) == c


def test_contract_all_axes_gives_scalar(rng):
    a = random_hm(rng, (2, 3))
    b = random_hm(rng, (2, 3))
    c = contract_bruteforce(a, b, (1, 2), (1, 2))
    assert c.dims == ()
    assert c.to_scalar() == sum(x * y for x, y in zip(a.data, b.data))


def test_contract_validation(rng):
    a = random_hm(rng, (2, 3))
    b = random_hm(rng, (3, 2))
    with pytest.raises(ValueError, match="pair 1"):
        contract_bruteforce(a, b, (1,), (1,))
    with pytest.raises(ValueError, match="duplicate"):
        contract_bruteforce(a, b, (1, 1), (2, 1))
    with pytest.raises(ValueError):
        contract_bruteforce(a, b, (1,), (2, 1))


def test_routes_agree_on_random_cases(rng):
    for _ in range(60):
        a = random_hm(rng, random_dims(rng, max_order=4, max_dim=5, max_size=300))
        b = random_hm(rng, random_dims(rng, max_order=4, max_dim=5, max_size=300))
        a_axes, b_axes = random_spec(rng, a, b)
        brute = contract_bruteforce(a, b, a_axes, b_axes)
        assert contract_via_expression(a, b, a_axes, b_axes) == brute


def test_routes_agree_with_loop_oracle(rng):
    for _ in range(15):
        a = random_hm(rng, random_dims(rng, max_order=3, max_dim=4, max_size=48))
        b = random_hm(rng, random_dims(rng, max_order=3, max_dim=4, max_size=48))
        a_axes, b_axes = random_spec(rng, a, b)
        expected = contract_oracle(a, b, a_axes, b_axes)
        assert contract_bruteforce(a, b, a_axes, b_axes) == expected


def test_the_brute_route_reads_the_stores_unwidened(rng):
    a = Hypermatrix((2, 3), [int(v) for v in rng.integers(-9, 10, 6)])
    b = Hypermatrix((3, 2), [int(v) for v in rng.integers(-9, 10, 6)])
    got = contract(a, b, (2,), (1,), "brute")
    assert a._data is None and b._data is None
    assert got.nd.tolist() == np.dot(a.nd, b.nd).tolist()


def test_the_brute_route_sums_floats_as_float64_scalars_do(rng):
    a = Hypermatrix((1, 64), rng.uniform(-1, 1, 64) * 1e8)
    b = Hypermatrix((64, 1), rng.uniform(-1, 1, 64))
    acc = np.float64(0.0)
    for x, y in zip(a.data, b.data):
        acc += x * y
    assert contract_bruteforce(a, b, (2,), (1,)).data.tolist() == [float(acc)]


def test_contract_dispatcher(rng):
    a = random_hm(rng, (2, 2))
    b = random_hm(rng, (2, 2))
    assert contract(a, b, (2,), (1,), "brute") == contract(a, b, (2,), (1,), "expr")
    with pytest.raises(ValueError):
        contract(a, b, (2,), (1,), "nope")


@st.composite
def pairings(draw, kind="int", near_bounds=False):
    """Two hypermatrices of order 0-4 over dims 1-3 and a random axis pairing.

    The pairing takes an ordered subset of a's axes and places the matching
    dims at random positions of b, among b's own free axes.  With
    ``near_bounds`` each operand's int entries come from one ``tier_values``
    family scaled by the paired size K, so ``max|a| * max|b| * K`` lands
    around 2**53 or 2**63.
    """
    a_dims = tuple(draw(st.lists(st.integers(1, 3), max_size=4)))
    a_axes = tuple(draw(st.permutations(range(1, len(a_dims) + 1)))[: draw(st.integers(0, len(a_dims)))])
    b_free = draw(st.lists(st.integers(1, 3), max_size=4 - len(a_axes)))
    b_order = len(a_axes) + len(b_free)
    b_axes = tuple(draw(st.permutations(range(1, b_order + 1)))[: len(a_axes)])
    b_dims = [0] * b_order
    for ax, bx in zip(a_axes, b_axes):
        b_dims[bx - 1] = a_dims[ax - 1]
    free = iter(b_free)
    b_dims = tuple(n or next(free) for n in b_dims)
    values = st.integers(-9, 9) if kind == "int" else st.floats(-9, 9, allow_nan=False)
    inner = math.prod(a_dims[x - 1] for x in a_axes)
    a_values, b_values = (draw(tier_values(inner)) for _ in "ab") if near_bounds else (values, values)
    a = Hypermatrix(a_dims, draw(st.lists(a_values, min_size=size_of(a_dims), max_size=size_of(a_dims))), kind)
    b = Hypermatrix(b_dims, draw(st.lists(b_values, min_size=size_of(b_dims), max_size=size_of(b_dims))), kind)
    return a, b, a_axes, b_axes


_A = Hypermatrix((2, 3), [1, -2, 3, -4, 5, -6])
_B = Hypermatrix((3, 2), [7, 8, -9, 1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(pairings())
@example((_A, _B, (), ()))
@example((_A, _B, (1, 2), (2, 1)))
def test_every_route_equals_the_oracle_on_int(case):
    a, b, a_axes, b_axes = case
    brute = contract_bruteforce(a, b, a_axes, b_axes)
    for method in ("expression", "stp", "bruteforce"):
        assert contract(a, b, a_axes, b_axes, method) == brute


@settings(max_examples=30, deadline=None)
@given(pairings(kind="float"))
def test_every_route_matches_the_oracle_on_float(case):
    a, b, a_axes, b_axes = case
    brute = contract_bruteforce(a, b, a_axes, b_axes)
    for method in ("expression", "stp"):
        assert contract(a, b, a_axes, b_axes, method).approx_equal(brute, 1e-9)


@st.composite
def cancelling_pairings(draw):
    """An m x K by K x q float pairing whose row ``r`` sits at scale 1e8 and cancels against column 1 of b."""
    m, k, q = draw(st.integers(1, 3)), draw(st.integers(2, 64)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = rng.uniform(-1, 1, (m, k)), rng.uniform(-1, 1, (k, q))
    r = draw(st.integers(0, m - 1))
    a[r] *= 1e8
    a[r, -1] = -np.dot(a[r, :-1], b[:-1, 0]) / b[-1, 0]
    return Hypermatrix((m, k), a.reshape(-1), "float"), Hypermatrix((k, q), b.reshape(-1), "float")


def test_cancelling_float_pairings_agree_within_the_derived_bound():
    # The routes sum K products in different orders, so near a cancelled 0 they can be far
    # apart relative to their results, but never past 2·γ_K·(|a| ⋆ |b|)·(1 + γ_K).
    gaps = []

    @settings(max_examples=60, deadline=None)
    @given(cancelling_pairings())
    def routes_agree(case):
        a, b = case
        brute = contract_bruteforce(a, b, (2,), (1,)).data
        bound = contraction._agreement_bound(a, b, (2,), (1,))
        for method in ("expression", "stp"):
            gap = np.abs(contract(a, b, (2,), (1,), method).data - brute)
            assert np.all(gap <= bound), method
            gaps.append(float(np.max(gap / bound)))

    routes_agree()
    # The bound is not vacuous: some gap comes within 0.1 % of it.
    assert max(gaps) >= 1e-3


# -- one entry budget -----------------------------------------------------------


def refuse_products(mp):
    def refuse(*args, **kwargs):
        raise AssertionError("a product ran past the entry budget")

    mp.setattr(np, "dot", refuse)
    mp.setattr(np, "matmul", refuse)


def test_every_route_refuses_the_same_pairings_before_allocating(monkeypatch):
    # Under a budget of 64 entries, all three routes return one result or raise one error.
    monkeypatch.setattr(core, "MAX_ENTRIES", 64)
    contraction._plan.cache_clear()
    square = Hypermatrix((3, 3), range(9))
    drawn = []

    @settings(max_examples=80, deadline=None)
    @given(pairings())
    @example((square, square, (), ()))
    @example((square, square, (2,), (1,)))
    def routes_agree(case):
        a, b, a_axes, b_axes = case
        out_dims = tuple(n for ax, n in enumerate(a.dims, 1) if ax not in a_axes)
        out_dims += tuple(n for bx, n in enumerate(b.dims, 1) if bx not in b_axes)
        entries = size_of(out_dims)
        drawn.append(entries > 64)
        if entries <= 64:
            results = [contract(a, b, a_axes, b_axes, method) for method in ("expression", "stp", "bruteforce")]
            assert results[0] == results[1] == results[2]
            return
        with monkeypatch.context() as mp:
            refuse_products(mp)
            for method in ("expression", "stp", "bruteforce"):
                with pytest.raises(OverflowError) as raised:
                    contract(a, b, a_axes, b_axes, method)
                assert str(raised.value) == (
                    f"contracted product of shape {out_dims} has {entries} entries, above the budget of 64"
                ), method

    routes_agree()
    # Both kinds of draw ran.
    assert set(drawn) == {False, True}


def test_an_outer_product_past_the_budget_is_refused_alike_on_every_route(monkeypatch):
    x = Hypermatrix((4200,), [1] * 4200)
    refuse_products(monkeypatch)
    for method in ("expression", "stp", "bruteforce"):
        with pytest.raises(OverflowError) as raised:
            contract(x, x, (), (), method)
        assert str(raised.value) == (
            "contracted product of shape (4200, 4200) has 17640000 entries, above the budget of 16777216"
        )


# -- one plan per (dims, axes) key --------------------------------------------

# Axes as callers pass them; the plan's memo must key them all alike.
AXES_FORMS = {
    "tuple": tuple,
    "list": list,
    "np.int64 entries": lambda axes: [np.int64(x) for x in axes],
    "np.int64 array": lambda axes: np.array(axes, dtype=np.int64),
}


@settings(max_examples=60, deadline=None)
@given(pairings(), st.sampled_from(sorted(AXES_FORMS)))
def test_a_cold_then_a_warm_plan_equals_the_oracle(case, form):
    a, b, a_axes, b_axes = case
    brute = contract_bruteforce(a, b, a_axes, b_axes)
    as_form = AXES_FORMS[form]
    contraction._plan.cache_clear()
    for memo in ("cold", "warm"):
        for method in ("expression", "stp"):
            assert contract(a, b, as_form(a_axes), as_form(b_axes), method) == brute, (memo, method)


def test_plans_tell_apart_the_second_operand_and_the_axis_order(rng):
    # Each case shares a's dims and a key part with the one before it.
    a = random_hm(rng, (2, 3, 2))
    cases = [
        (random_hm(rng, (3, 4)), (2,), (1,)),
        (random_hm(rng, (3, 5)), (2,), (1,)),
        (random_hm(rng, (2, 2, 5)), (1, 3), (1, 2)),
        (random_hm(rng, (2, 2, 5)), (3, 1), (1, 2)),
        (random_hm(rng, (2, 2, 5)), (1, 3), (2, 1)),
    ]
    contraction._plan.cache_clear()
    for _ in range(2):
        for b, a_axes, b_axes in cases:
            for method in ("expression", "stp"):
                assert contract(a, b, a_axes, b_axes, method) == contract_oracle(a, b, a_axes, b_axes)
    with pytest.raises(ValueError, match="pair 1"):
        contract(a, random_hm(rng, (4, 5)), (2,), (1,))


@pytest.mark.parametrize(
    "a_axes, b_axes, message",
    [
        ((1,), (1,), "pair 1 contracts axis 1 (dim 2) with axis 1 (dim 3)"),
        ((1, 1), (2, 1), "duplicate axis in first axes (1, 1)"),
        ((3,), (1,), "first axis 3 out of range 1..2"),
        ((2,), (0,), "second axis 0 out of range 1..2"),
        ((1,), (2, 1), "1 axes paired with 2"),
    ],
)
def test_an_invalid_pairing_raises_alike_every_time_and_is_never_kept(rng, a_axes, b_axes, message):
    a, b = random_hm(rng, (2, 3)), random_hm(rng, (3, 2))
    contraction._plan.cache_clear()
    for _ in range(2):
        for method in ("expression", "stp", "bruteforce"):
            with pytest.raises(ValueError, match=re.escape(message)):
                contract(a, b, a_axes, b_axes, method)
        assert contraction._plan.cache_info().currsize == 0


def test_a_bad_axis_is_reported_before_a_kind_mismatch(rng):
    a, b = random_hm(rng, (2, 3)), random_hm(rng, (3, 2))
    other = random_hm(rng, (3, 2), kind="float")
    with pytest.raises(ValueError, match="first axis 3 out of range"):
        contract(a, other, (3,), (1,))
    # A kept plan still leaves the kinds to be checked on every call.
    contract(a, b, (2,), (1,))
    for method in ("expression", "stp", "bruteforce"):
        with pytest.raises(ValueError, match="scalar kind mismatch: int vs float"):
            contract(a, other, (2,), (1,), method)


def test_the_plan_memo_stays_bounded():
    contraction._plan.cache_clear()
    for n in range(1, 601):
        x = Hypermatrix.zeros((n,))
        assert contract(x, x, (1,), (1,)).to_scalar() == 0
    info = contraction._plan.cache_info()
    assert info.maxsize == 512 and info.currsize == 512


# -- onto contraction ---------------------------------------------------------


def test_onto_full_pairing_is_total_sum(rng):
    a = random_hm(rng, (2, 3))
    b = random_hm(rng, (2, 3))
    for method in ("expression", "stp"):
        got = onto_contract(a, b, (1, 2), method)
        assert got.dims == () and got.to_scalar() == sum(x * y for x, y in zip(a.data, b.data))


def test_onto_single_axis_is_matvec(rng):
    a = random_hm(rng, (2, 3))
    b = random_hm(rng, (3,))
    expected = np.dot(a.nd, b.nd)
    for method in ("expression", "stp"):
        got = onto_contract(a, b, (2,), method)
        assert got.dims == (2,) and list(got.data) == list(expected)


def test_onto_methods_match_bruteforce(rng):
    for _ in range(60):
        dims = random_dims(rng, max_order=4, max_dim=4, max_size=256)
        a = random_hm(rng, dims)
        d = len(dims)
        r = int(rng.integers(1, d + 1))
        rs = tuple(sorted(int(v) + 1 for v in rng.choice(d, size=r, replace=False)))
        b = random_hm(rng, tuple(a.dims[x - 1] for x in rs))
        brute = contract_bruteforce(a, b, rs, tuple(range(1, len(rs) + 1)))
        assert onto_contract(a, b, rs, "expression") == brute
        assert onto_contract(a, b, rs, "stp") == brute


def test_onto_validation(rng):
    a = random_hm(rng, (2, 3, 4))
    b = random_hm(rng, (4, 2))
    assert onto_contract(a, b, (3, 1)) == contract_bruteforce(a, b, (3, 1), (1, 2))
    with pytest.raises(ValueError, match="shape"):
        onto_contract(a, random_hm(rng, (3,)), (1,))


@st.composite
def hm_and_ordered_axes(draw):
    """An int hypermatrix, an ordered subset ``rs`` of its axes, and a matching operand."""
    dims = draw(mixed_dims(max_size=120))
    axes = draw(st.permutations(range(1, len(dims) + 1)))
    rs = tuple(axes[: draw(st.integers(0, len(dims)))])
    values = st.integers(-9, 9)
    a = Hypermatrix(dims, draw(st.lists(values, min_size=size_of(dims), max_size=size_of(dims))))
    b_dims = tuple(dims[x - 1] for x in rs)
    b = Hypermatrix(b_dims, draw(st.lists(values, min_size=size_of(b_dims), max_size=size_of(b_dims))))
    return a, b, rs


@given(hm_and_ordered_axes())
def test_onto_methods_match_bruteforce_for_any_axis_order(case):
    a, b, rs = case
    brute = contract_bruteforce(a, b, rs, tuple(range(1, len(rs) + 1)))
    assert onto_contract(a, b, rs, "expression") == brute
    assert onto_contract(a, b, rs, "stp") == brute


# -- hypervectors -------------------------------------------------------------


def test_hypervector_basis_factors():
    h = hypervector_expand([basis_vec(2, 1), basis_vec(3, 2)])
    assert h.dims == (2, 3)
    assert h.get((1, 2)) == 1 and sum(abs(v) for v in h.data) == 1


def test_hypervector_products_in_id_order():
    h = hypervector_expand([np.array([1, 2]), np.array([1, 1])])
    assert list(h.data) == [1, 1, 2, 2]


def test_hypervector_single_factor():
    h = hypervector_expand([np.array([5, 6, 7])])
    assert h.dims == (3,) and list(h.data) == [5, 6, 7]


def test_hypervector_entry_formula(rng):
    xs = [np.array([int(v) for v in rng.integers(-4, 5, n)], dtype=object) for n in (2, 3, 2)]
    h = hypervector_expand(xs)
    for idx, v in h.items():
        assert v == xs[0][idx[0] - 1] * xs[1][idx[1] - 1] * xs[2][idx[2] - 1]


# -- multilinear evaluation ----------------------------------------------------


def test_scalar_eval_reads_entries_on_basis(rng):
    pi = random_hm(rng, (2, 3, 2))
    for idx, v in pi.items():
        xs = [basis_vec(n, i) for n, i in zip(pi.dims, idx)]
        assert eval_multilinear_scalar(pi, xs) == v


def test_scalar_eval_all_ones_sums_dims():
    pi = Hypermatrix.from_flat((2, 3, 2), [1] * 12)
    ones = [np.ones(n, dtype=np.int64) for n in (2, 3, 2)]
    assert eval_multilinear_scalar(pi, ones) == 12


def test_scalar_eval_is_total_weighted_sum(rng):
    pi = random_hm(rng, (2, 2, 3))
    xs = [np.array([int(v) for v in rng.integers(-3, 4, n)], dtype=object) for n in pi.dims]
    expected = 0
    for idx, v in pi.items():
        term = v
        for x, i in zip(xs, idx):
            term *= x[i - 1]
        expected += term
    assert eval_multilinear_scalar(pi, xs) == expected
    assert eval_multilinear_scalar(pi, xs) == onto_contract(pi, hypervector_expand(xs), (1, 2, 3)).to_scalar()


def test_scalar_eval_multilinearity(rng):
    pi = random_hm(rng, (2, 3))
    x1, x2 = (np.array([int(v) for v in rng.integers(-3, 4, 2)], dtype=object) for _ in range(2))
    y = np.array([int(v) for v in rng.integers(-3, 4, 3)], dtype=object)
    lhs = eval_multilinear_scalar(pi, [x1 + 3 * x2, y])
    rhs = eval_multilinear_scalar(pi, [x1, y]) + 3 * eval_multilinear_scalar(pi, [x2, y])
    assert lhs == rhs


def test_vector_eval_reproduces_columns(rng):
    pi = random_hm(rng, (2, 3, 2))
    m = matrix_expression(pi, rows=(1,))
    for i in range(1, 4):
        for j in range(1, 3):
            got = eval_multilinear_vector(m, [basis_vec(3, i), basis_vec(2, j)])
            expected = [pi.get((k, i, j)) for k in (1, 2)]
            assert list(got) == expected


def test_vector_eval_needs_single_row_axis(rng):
    pi = random_hm(rng, (2, 3, 2))
    with pytest.raises(ValueError):
        eval_multilinear_vector(matrix_expression(pi, rows=(1, 2)), [basis_vec(2, 1)])


def test_eval_tensor_identity_pairing(rng):
    omega = Hypermatrix.from_flat((3, 3), [1, 0, 0, 0, 1, 0, 0, 0, 1])
    w = np.array([int(v) for v in rng.integers(-4, 5, 3)], dtype=object)
    x = np.array([int(v) for v in rng.integers(-4, 5, 3)], dtype=object)
    assert eval_tensor(omega, [w], [x]) == np.dot(w, x)


def test_eval_tensor_basis_reads_entries(rng):
    omega = random_hm(rng, (2, 2, 2))  # r=1 vector slot, s=2 covector slots
    for idx, v in omega.items():
        x = basis_vec(2, idx[0])
        ws = [basis_vec(2, idx[1]), basis_vec(2, idx[2])]
        assert eval_tensor(omega, ws, [x]) == v


def test_eval_tensor_matches_bruteforce(rng):
    n, r, s = 2, 2, 2
    omega = random_hm(rng, (n,) * (r + s))
    vecs = [np.array([int(v) for v in rng.integers(-3, 4, n)], dtype=object) for _ in range(r)]
    covs = [np.array([int(v) for v in rng.integers(-3, 4, n)], dtype=object) for _ in range(s)]
    expected = 0
    for idx, v in omega.items():
        term = v
        for x, i in zip(vecs, idx[:r]):
            term *= x[i - 1]
        for w, j in zip(covs, idx[r:]):
            term *= w[j - 1]
        expected += term
    assert eval_tensor(omega, covs, vecs) == expected


# -- multilinear chains on the store ---------------------------------------------


def _ints(rng, size, lo=-9, hi=9):
    return np.array([int(v) for v in rng.integers(lo, hi + 1, size)], dtype=object)


def test_scalar_eval_scans_only_the_raw_arguments(rng, monkeypatch):
    dims = (10, 10, 13)
    pi = Hypermatrix(dims, _ints(rng, 1300))
    xs = [_ints(rng, n) for n in dims]
    seen = []
    scanned = core._scanned
    monkeypatch.setattr(core, "_scanned", lambda arr: (seen.append(arr.size), scanned(arr))[1])
    got = eval_multilinear_scalar(pi, xs)
    monkeypatch.undo()
    assert seen == [10, 10, 13]
    assert pi._data is None
    assert type(got) is int
    assert got == stp_chain([pi.data.reshape(1, -1)] + [x.reshape(-1, 1) for x in xs])[0]


@st.composite
def chain_cases(draw):
    """A backend, a seed, an entry scale, and an order-1..4 shape of dims 1..6 (hypercubic for ``eval_tensor``)."""
    kind = draw(st.sampled_from(["int", "float"]))
    order = draw(st.integers(1, 4))
    if draw(st.booleans()):
        dims = (draw(st.integers(1, 6)),) * order
    else:
        dims = tuple(draw(st.integers(1, 6)) for _ in range(order))
    return kind, dims, draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from([4, 20, 40]))


@settings(max_examples=80, deadline=None)
@given(chain_cases())
def test_chains_match_the_public_stp_fold(case):
    kind, dims, seed, bits = case
    rng = np.random.default_rng(seed)

    def draw(size):
        if kind == "int":
            return _ints(rng, size, -(2 ** bits), 2 ** bits)
        return rng.uniform(-(2.0 ** bits), 2.0 ** bits, size)

    pi = Hypermatrix(dims, draw(size_of(dims)), kind)
    xs = [draw(n) for n in dims]
    cols = [x.reshape(-1, 1) for x in xs]
    ref = stp_chain([pi.data.reshape(1, -1)] + cols)[0]
    got = eval_multilinear_scalar(pi, [list(x) for x in xs])
    assert_same_result(got, ref, kind)
    m = matrix_expression(pi, rows=(1,))
    assert_same_result(eval_multilinear_vector(m, xs[1:]), stp_chain([m.mat] + cols[1:]), kind)
    if len(set(dims)) == 1:
        # The first r axes take vectors, the rest covectors: the scalar form on all r + s slots.
        r = int(rng.integers(0, len(dims) + 1))
        assert_same_result(eval_tensor(pi, xs[r:], xs[:r]), ref, kind)


def test_int_chain_crosses_every_tier(monkeypatch):
    values = [2 ** 20, -(2 ** 20) + 3, 2 ** 20 - 1, 7, 2 ** 20, 5, -3, 2 ** 20 - 5]
    pi = Hypermatrix((2, 2, 2), values)
    xs = [[2 ** 20, 2 ** 20 - 1], [2 ** 18, -(2 ** 18) + 1], [2 ** 10, 3]]
    tiers = []
    narrow = core.narrow
    monkeypatch.setattr(core, "narrow", lambda *args: (out := narrow(*args), tiers.append(out[2]))[0])
    got = eval_multilinear_scalar(pi, xs)
    assert tiers == [np.float64, np.int64, object]
    expected = sum(
        v * xs[0][i] * xs[1][j] * xs[2][k] for (i, j, k), v in zip(product(range(2), repeat=3), values)
    )
    assert type(got) is int and got == expected and got > 2 ** 63


@pytest.mark.parametrize("n, bits, brute", [(4, 17, True), (6, 16, False)])
def test_both_fast_routes_bound_the_ybe_rhs_pairing_by_its_paired_size(rng, monkeypatch, n, bits, brute):
    # The rhs pairing of ybe_sides: M_A has K = n**2 columns, V(B) n**6 rows.  Bounded by
    # the lcm n**6 its product would leave int64 for Python ints on the stp route alone.
    r = Hypermatrix((n,) * 4, rng.integers(2 ** bits - 9, 2 ** bits + 10, n ** 4))
    t = contract(r, r, (4,), (1,))
    tiers = tier_spy(monkeypatch)
    got = {method: contract(r, t, (1, 2), (3, 4), method) for method in ("expression", "stp")}
    assert tiers == [(n * n, np.int64)] * 2
    assert got["expression"] == got["stp"]
    if brute:
        assert contract_bruteforce(r, t, (1, 2), (3, 4)) == got["stp"]


@settings(max_examples=80, deadline=None)
@given(pairings(near_bounds=True))
def test_both_fast_routes_take_the_same_tier_for_every_pairing(case):
    a, b, a_axes, b_axes = case
    with pytest.MonkeyPatch.context() as mp:
        tiers = tier_spy(mp)
        got = contract(a, b, a_axes, b_axes, "expression")
        assert contract(a, b, a_axes, b_axes, "stp") == got
    assert len(tiers) == 2 and tiers[0] == tiers[1]


@pytest.mark.parametrize(
    "args, error, message",
    [
        ([np.array([True, False]), [1, 2, 3]], TypeError, "arrays of dtype bool do not hold scalars"),
        ([np.array([1, True], dtype=object), [1, 2, 3]], TypeError, "True at position 2 is not a scalar"),
        ([[1, 2], [1.0, float("nan"), 3.0]], ValueError, "non-finite value nan at position 2"),
        ([[1, 2], [1, 2]], ValueError, "argument 2 has length 2, expected 3"),
        ([[1, 2]], ValueError, "1 arguments for 2 axes"),
    ],
)
def test_chain_errors_are_unchanged(args, error, message):
    pi = Hypermatrix((2, 3), [1, 2, 3, 4, 5, 6])
    with pytest.raises(error, match=re.escape(message)):
        eval_multilinear_scalar(pi, args)
    with pytest.raises(error, match=re.escape(message)):
        eval_multilinear_vector(matrix_expression(Hypermatrix((1, 2, 3), list(range(6))), rows=(1,)), args)


def test_int_store_with_float_arguments_gives_float():
    pi = Hypermatrix((2, 3), [1, -2, 3, 4, 5, -6])
    xs = [np.array([0.5, -1.25]), np.array([1.0, 0.0, 2.0])]
    got = eval_multilinear_scalar(pi, xs)
    assert_same_result(got, stp_chain([pi.data.reshape(1, -1)] + [x.reshape(-1, 1) for x in xs])[0], "float")
    # sum of omega[i, j] * x[i] * w[j]
    omega = Hypermatrix((2, 2), [1, 2, 3, 4])
    assert_same_result(eval_tensor(omega, [[0.5, 2.0]], [[1, 3]]), np.float64(33.0), "float")


# -- definition oracles: each composite product against its index sum ------------------------


def obj_ints(rng, shape, lo=-9, hi=9):
    """Python ints in an object array, on which ``np.einsum`` is exact."""
    return rng.integers(lo, hi + 1, shape).astype(object)


def einsum_list(spec, *operands) -> list:
    return np.asarray(np.einsum(spec, *operands), dtype=object).reshape(-1).tolist()


@pytest.mark.parametrize("d, k", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
def test_kary_apply_is_its_index_sum(rng, d, k):
    # out[i] = sum over j_1..j_k of a[i, j_k, ..., j_1] b_1[j_1] ... b_k[j_k], each index a d-tuple.
    blocks = ["abcdefgh"[t * d : (t + 1) * d] for t in range(k + 1)]
    spec = f"{blocks[0]}{''.join(blocks[:0:-1])},{','.join(blocks[1:])}->{blocks[0]}"
    a = obj_ints(rng, (2,) * ((k + 1) * d))
    bs = [obj_ints(rng, (2,) * d) for _ in range(k)]
    hms = [Hypermatrix(x.shape, x.reshape(-1)) for x in [a, *bs]]
    expected = einsum_list(spec, a, *bs)
    assert kary_apply(hms[0], hms[1:]).data.tolist() == expected
    if k == 2:
        assert binary_apply(*hms).data.tolist() == expected


@pytest.mark.parametrize("dims", [(3,), (2, 3), (3, 1, 4), (2, 3, 2, 2)])
def test_eval_multilinear_vector_is_its_index_sum(rng, dims):
    # out[p] = sum over q of pi[...p at the row axis, q_t at column axis t...] x_1[q_1] ... x_k[q_k].
    letters = "abcd"[: len(dims)]
    pi = obj_ints(rng, dims)
    for _ in range(4):
        row, *cols = (int(v) + 1 for v in rng.permutation(len(dims)))
        xs = [obj_ints(rng, dims[c - 1]) for c in cols]
        spec = f"{','.join([letters, *(letters[c - 1] for c in cols)])}->{letters[row - 1]}"
        m = matrix_expression(Hypermatrix(dims, pi.reshape(-1)), rows=(row,), cols=tuple(cols))
        assert eval_multilinear_vector(m, xs).tolist() == einsum_list(spec, pi, *xs)


@pytest.mark.parametrize("r, s", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)])
def test_eval_tensor_is_its_index_sum(rng, r, s):
    # sum over i, j of omega[i_1..i_r, j_1..j_s] x_1[i_1] ... x_r[i_r] w_1[j_1] ... w_s[j_s].
    letters = "abcd"[: r + s]
    omega = obj_ints(rng, (3,) * (r + s))
    vectors, covectors = [obj_ints(rng, 3) for _ in range(r)], [obj_ints(rng, 3) for _ in range(s)]
    spec = f"{letters},{','.join(letters)}->"
    got = eval_tensor(Hypermatrix(omega.shape, omega.reshape(-1)), covectors, vectors)
    assert [got] == einsum_list(spec, omega, *vectors, *covectors)


@st.composite
def relabelled_pairings(draw):
    """A pairing of a's axes with b's, a permutation of each operand's axes, an entry scale and a seed."""
    a_dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    b_dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    k = draw(st.integers(0, min(len(a_dims), len(b_dims))))
    a_axes = draw(st.permutations(range(1, len(a_dims) + 1)))[:k]
    b_axes = draw(st.permutations(range(1, len(b_dims) + 1)))[:k]
    for x, y in zip(a_axes, b_axes):
        b_dims[y - 1] = a_dims[x - 1]
    sigma = draw(st.permutations(range(1, len(a_dims) + 1)))
    tau = draw(st.permutations(range(1, len(b_dims) + 1)))
    scale, seed = draw(st.sampled_from([9, 2 ** 31, 2 ** 62])), draw(st.integers(0, 2 ** 32 - 1))
    return tuple(a_dims), tuple(b_dims), tuple(a_axes), tuple(b_axes), tuple(sigma), tuple(tau), scale, seed


@settings(max_examples=120, deadline=None)
@given(relabelled_pairings(), st.sampled_from(["expression", "stp", "bruteforce"]))
def test_contraction_commutes_with_relabelling_the_axes(case, method):
    a_dims, b_dims, a_axes, b_axes, sigma, tau, scale, seed = case
    rng = np.random.default_rng(seed)
    a = Hypermatrix(a_dims, obj_ints(rng, size_of(a_dims), -scale, scale))
    b = Hypermatrix(b_dims, obj_ints(rng, size_of(b_dims), -scale, scale))
    # Axis x of an operand sits at position pos[x] of its sigma-transpose (tau for b).
    pos_a = {x: k for k, x in enumerate(sigma, start=1)}
    pos_b = {y: k for k, y in enumerate(tau, start=1)}
    got = contract(
        sigma_transpose(a, sigma), sigma_transpose(b, tau), [pos_a[x] for x in a_axes], [pos_b[y] for y in b_axes], method
    )
    # Output axis k of ``got`` is the k-th free position of a transposed operand; rho maps it to its axis in ``want``.
    a_free = [x for x in range(1, len(a_dims) + 1) if x not in a_axes]
    b_free = [y for y in range(1, len(b_dims) + 1) if y not in b_axes]
    rho = [a_free.index(sigma[k - 1]) + 1 for k in sorted(pos_a[x] for x in a_free)]
    rho += [len(a_free) + b_free.index(tau[k - 1]) + 1 for k in sorted(pos_b[y] for y in b_free)]
    want = contract(a, b, a_axes, b_axes, method)
    assert got == sigma_transpose(want, rho)


@st.composite
def nested_pairings(draw):
    """Dims of a, b and c, a's axes paired with some of b's, others of b's with some of c's, a scale and a seed."""
    a_dims, b_dims, c_dims = (draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)) for _ in range(3))
    b_order = draw(st.permutations(range(1, len(b_dims) + 1)))
    k = draw(st.integers(0, min(len(a_dims), len(b_dims))))
    m = draw(st.integers(0, min(len(b_dims) - k, len(c_dims))))
    a_axes = draw(st.permutations(range(1, len(a_dims) + 1)))[:k]
    c_axes = draw(st.permutations(range(1, len(c_dims) + 1)))[:m]
    ab_axes, bc_axes = b_order[:k], b_order[k:k + m]
    for x, y in zip(a_axes, ab_axes):
        b_dims[y - 1] = a_dims[x - 1]
    for y, z in zip(bc_axes, c_axes):
        c_dims[z - 1] = b_dims[y - 1]
    scale, seed = draw(st.sampled_from([9, 2 ** 31, 2 ** 62])), draw(st.integers(0, 2 ** 32 - 1))
    return tuple(a_dims), tuple(b_dims), tuple(c_dims), a_axes, ab_axes, bc_axes, c_axes, scale, seed


@settings(max_examples=120, deadline=None)
@given(nested_pairings(), st.sampled_from(["expression", "stp", "bruteforce"]))
def test_contraction_nests_either_way(case, method):
    # (a b) c and a (b c) both lay their axes out as a's free axes, then b's, then c's.
    a_dims, b_dims, c_dims, a_axes, ab_axes, bc_axes, c_axes, scale, seed = case
    rng = np.random.default_rng(seed)
    a, b, c = (Hypermatrix(dims, obj_ints(rng, size_of(dims), -scale, scale)) for dims in (a_dims, b_dims, c_dims))
    a_free = len(a_dims) - len(a_axes)
    b_left = [y for y in range(1, len(b_dims) + 1) if y not in ab_axes]
    b_right = [y for y in range(1, len(b_dims) + 1) if y not in bc_axes]
    ab, bc = contract(a, b, a_axes, ab_axes, method), contract(b, c, bc_axes, c_axes, method)
    left = contract(ab, c, [a_free + b_left.index(y) + 1 for y in bc_axes], c_axes, method)
    right = contract(a, bc, a_axes, [b_right.index(y) + 1 for y in ab_axes], method)
    assert left == right


# -- block operators ------------------------------------------------------------


def test_unary_d1_is_matvec(rng):
    a = random_hm(rng, (3, 3))
    b = random_hm(rng, (3,))
    got = unary_apply(a, b)
    assert got.dims == (3,) and list(got.data) == list(np.dot(a.nd, b.nd))


def test_binary_d1_is_bilinear_form(rng):
    a = random_hm(rng, (2, 2, 2))
    b = random_hm(rng, (2,))
    c = random_hm(rng, (2,))
    got = binary_apply(a, b, c)
    assert got.dims == (2,)
    expected = [
        sum(a.get((i, j, k)) * c.get((j,)) * b.get((k,)) for j in (1, 2) for k in (1, 2))
        for i in (1, 2)
    ]
    assert list(got.data) == expected


def test_binary_nesting_is_literal(rng):
    # contracting the last block with the first operand, then the middle
    # block with the second, equals the fused triple sum
    d = 2
    a = random_hm(rng, (2, 3) * 3)
    b = random_hm(rng, (2, 3))
    c = random_hm(rng, (2, 3))
    got = binary_apply(a, b, c)
    step1 = contract_bruteforce(a, b, (5, 6), (1, 2))
    step2 = contract_bruteforce(step1, c, (3, 4), (1, 2))
    assert got == step2
    expected = contract_oracle(contract_oracle(a, b, (5, 6), (1, 2)), c, (3, 4), (1, 2))
    assert got == expected


def test_kary_reduces_to_unary_and_binary(rng):
    a2 = random_hm(rng, (2, 2, 2, 2))
    b = random_hm(rng, (2, 2))
    assert kary_apply(a2, [b]) == unary_apply(a2, b)
    a3 = random_hm(rng, (2,) * 6)
    c = random_hm(rng, (2, 2))
    assert kary_apply(a3, [b, c]) == binary_apply(a3, b, c)


def test_kary_three_operands(rng):
    a = random_hm(rng, (2,) * 4)
    ops = [random_hm(rng, (2,)) for _ in range(3)]
    got = kary_apply(a, ops)
    acc = a
    for t, b in enumerate(ops):
        acc = contract_bruteforce(acc, b, ((3 - t) + 1,), (1,))
    assert got == acc and got.dims == (2,)


def test_block_validation(rng):
    a = random_hm(rng, (2, 2, 2))
    with pytest.raises(ValueError):
        unary_apply(a, random_hm(rng, (2,)))
    with pytest.raises(ValueError, match="block"):
        unary_apply(random_hm(rng, (2, 3)), random_hm(rng, (3,)))
