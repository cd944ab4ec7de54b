import math
import re
import warnings
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hyperstp.core as core
import hyperstp.permutation as permutation_module
from hyperstp import (
    Hypermatrix,
    LogicalMatrix,
    Permutation,
    build_perm_matrix,
    contract_bruteforce,
    densify,
    kron_chain,
    onto_contract,
    perm_compose,
    sigma_transpose,
    sigma_transpose_via_perm,
)
from hyperstp.appendix import EXAMPLE_235_TABLES  # re-exported data for cross-checks
from hyperstp.core import MAX_ENTRIES
from hyperstp.permutation import perm_gather

from conftest import basis_vec, mixed_dims, perm_matrix_oracle


def test_parity_examples():
    assert Permutation((1, 2, 3)).parity() == 1
    assert Permutation((2, 1, 3)).parity() == -1
    assert Permutation((2, 3, 1)).parity() == 1


def test_parity_is_homomorphism_on_s4():
    for p in permutations(range(1, 5)):
        for q in permutations(range(1, 5)):
            P, Q = Permutation(p), Permutation(q)
            assert perm_compose(P, Q).parity() == P.parity() * Q.parity()


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_build_example_235_sigma5():
    w = build_perm_matrix((2, 3, 5), Permutation((1, 3, 2)))
    assert w.cols == (1, 4, 7, 10, 13, 2, 5, 8, 11, 14, 3, 6, 9, 12, 15,
                      16, 19, 22, 25, 28, 17, 20, 23, 26, 29, 18, 21, 24, 27, 30)


def test_build_identity_is_identity():
    w = build_perm_matrix((2, 3, 5), Permutation((1, 2, 3)))
    assert w == LogicalMatrix.identity(30)


def test_build_appendix_1_iv():
    w = build_perm_matrix((2, 2, 2), Permutation((2, 3, 1)))
    assert w.cols == (1, 3, 5, 7, 2, 4, 6, 8)


def test_build_all_example_235_tables():
    images = {1: (1, 2, 3), 2: (1, 3, 2), 3: (2, 1, 3), 4: (2, 3, 1), 5: (3, 1, 2), 6: (3, 2, 1)}
    for label, image in images.items():
        w = build_perm_matrix((2, 3, 5), Permutation(image))
        assert w.cols == EXAMPLE_235_TABLES[label], label


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_perm_matrix((2, 2), Permutation((1, 2, 3)))
    with pytest.raises(ValueError):
        build_perm_matrix((2, 2), (1, 1))


def test_build_warns_on_degenerate_dims():
    with pytest.warns(UserWarning):
        w = build_perm_matrix((1, 3), Permutation((2, 1)))
    assert w.is_permutation()


@pytest.mark.parametrize("dims", [(2, 3, 5), (2, 2, 2), (3, 3, 3), (2, 3, 2, 2), (4, 4), (2,), (3, 4)])
def test_chain_permutation_property_exhaustive(dims):
    # defining property: reordering the Kronecker chain equals applying W
    d = len(dims)
    for p in permutations(range(1, d + 1)):
        sigma = Permutation(p)
        w = build_perm_matrix(dims, sigma)
        for basis in product(*(range(1, n + 1) for n in dims)):
            xs = [basis_vec(n, i) for n, i in zip(dims, basis)]
            lhs = kron_chain([xs[sigma(k) - 1] for k in range(1, d + 1)])
            rhs = w.apply(kron_chain(xs))
            assert list(lhs) == list(rhs)


def test_identity_is_built_on_a_trusted_fill(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("the validating constructor ran")

    monkeypatch.setattr(LogicalMatrix, "__init__", refuse)
    w = LogicalMatrix.identity(5)
    assert (w.rows, w.cols) == (5, (1, 2, 3, 4, 5)) and w._idx.dtype == np.intp and not w._idx.flags.writeable
    for n in (0, -3):
        with pytest.raises(ValueError, match="a logical matrix needs at least one row"):
            LogicalMatrix.identity(n)


def test_apply_identity_and_swap():
    assert list(LogicalMatrix.identity(3).apply([5, 6, 7])) == [5, 6, 7]
    assert list(LogicalMatrix(2, (2, 1)).apply([5, 7])) == [7, 5]


def test_apply_basis_reordering_235():
    w = build_perm_matrix((2, 3, 5), Permutation((1, 3, 2)))
    x = kron_chain([basis_vec(2, 2), basis_vec(3, 1), basis_vec(5, 4)])
    expected = kron_chain([basis_vec(2, 2), basis_vec(5, 4), basis_vec(3, 1)])
    assert list(w.apply(x)) == list(expected)


def test_apply_accumulates_repeated_rows():
    w = LogicalMatrix(2, (1, 1, 2))
    assert list(w.apply([3, 4, 5])) == [7, 5]


def test_apply_length_mismatch():
    with pytest.raises(ValueError):
        LogicalMatrix.identity(3).apply([1, 2])


@pytest.mark.parametrize("permutation", [True, False])
def test_gather_row_is_the_row_vector_product(rng, permutation):
    for _ in range(20):
        rows = int(rng.integers(1, 8))
        # Any column count but ``rows`` makes a non-permutation, repeats and missed rows included.
        n_cols = rows if permutation else int(rng.choice([n for n in range(1, 10) if n != rows]))
        cols = rng.permutation(rows) + 1 if permutation else rng.integers(1, rows + 1, n_cols)
        w = LogicalMatrix(rows, cols.tolist())
        assert w.is_permutation() == permutation
        v = rng.integers(-9, 10, rows)
        assert w.gather_row(v).tolist() == (v @ densify(w)).tolist()


def test_gather_row_length_mismatch():
    with pytest.raises(ValueError, match="^row vector of length 2 against 3 rows$"):
        LogicalMatrix.identity(3).gather_row([1, 2])


@pytest.mark.parametrize(
    "v, error, message",
    [
        (["a", "b", "c"], TypeError, "^'a' at position 1 is not a scalar$"),
        ([1.0, float("nan"), 2.0], ValueError, "^non-finite value nan at position 2$"),
        ([1, True, 0], TypeError, "^True at position 2 is not a scalar$"),
        (np.array([True, False, True]), TypeError, "^arrays of dtype bool do not hold scalars$"),
    ],
    ids=["strings", "nan", "bool list", "bool array"],
)
def test_gather_row_checks_its_vector_as_apply_does(v, error, message):
    w = LogicalMatrix(3, (2, 1, 3))
    for op in (w.apply, w.gather_row):
        with pytest.raises(error, match=message):
            op(v)


def test_gather_row_keeps_the_backend():
    w = LogicalMatrix(3, (2, 1, 3))
    ints = w.gather_row(np.array([4, -5, 2 ** 40]))
    assert ints.tolist() == [-5, 4, 2 ** 40] and all(type(x) is int for x in ints)
    floats = w.gather_row([0.5, 1, 2])
    assert floats.dtype == np.float64 and floats.tolist() == [1.0, 0.5, 2.0]


def test_compose_with_inverse_is_identity():
    for p in permutations(range(1, 4)):
        w = build_perm_matrix((2, 2, 2), Permutation(p))
        assert w.compose(w.transpose()) == LogicalMatrix.identity(8)


def test_compose_frozen_example():
    w = build_perm_matrix((2, 2, 2), Permutation((2, 3, 1)))
    expected = build_perm_matrix((2, 2, 2), Permutation((3, 1, 2)))
    assert w.compose(w) == expected


def test_transpose_frozen_example():
    assert LogicalMatrix(8, (1, 3, 5, 7, 2, 4, 6, 8)).transpose() == LogicalMatrix(8, (1, 5, 2, 6, 3, 7, 4, 8))


def test_transpose_rejects_non_permutation():
    with pytest.raises(ValueError):
        LogicalMatrix(2, (1, 1)).transpose()


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        LogicalMatrix(2, (1, 2)).compose(LogicalMatrix(3, (1, 2, 3)))


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3)])
def test_product_law_exhaustive_d3(dims):
    for p in permutations(range(1, 4)):
        for q in permutations(range(1, 4)):
            P, Q = Permutation(p), Permutation(q)
            lhs = build_perm_matrix(dims, P).compose(build_perm_matrix(dims, Q))
            assert lhs == build_perm_matrix(dims, perm_compose(P, Q))


def test_product_law_exhaustive_d4_n2():
    dims = (2, 2, 2, 2)
    mats = {p: build_perm_matrix(dims, Permutation(p)) for p in permutations(range(1, 5))}
    for p, wp in mats.items():
        for q, wq in mats.items():
            assert wp.compose(wq) == mats[perm_compose(Permutation(p), Permutation(q)).image]


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_transpose_equals_inverse_sigma_uniform(dims):
    for p in permutations(range(1, len(dims) + 1)):
        sigma = Permutation(p)
        w = build_perm_matrix(dims, sigma)
        assert w.transpose() == build_perm_matrix(dims, sigma.inverse())


def test_transpose_mixed_dims_lives_over_permuted_dims():
    # with unequal dims the inverse-permutation matrix is built over the
    # permuted dims; the same-dims shortcut only works in the uniform case
    dims = (2, 3, 5)
    for p in permutations(range(1, 4)):
        sigma = Permutation(p)
        permuted = tuple(dims[sigma(k) - 1] for k in range(1, 4))
        assert build_perm_matrix(dims, sigma).transpose() == build_perm_matrix(permuted, sigma.inverse())


def test_perm_compose_identity_and_invert():
    sigma = Permutation((2, 3, 1))
    assert perm_compose(sigma, Permutation.identity(3)) == sigma
    assert perm_compose(Permutation.identity(3), sigma) == sigma
    assert sigma.inverse() == Permutation((3, 1, 2))
    with pytest.raises(ValueError):
        perm_compose(sigma, Permutation((1, 2)))


def test_logical_matrix_validation():
    with pytest.raises(ValueError, match="column 2"):
        LogicalMatrix(2, (1, 3))
    assert not LogicalMatrix(2, (1, 1)).is_permutation()
    assert LogicalMatrix(2, (2, 1)).is_permutation()


def test_logical_matrix_rejects_row_past_index_type():
    with pytest.raises(ValueError, match="column 2 points at row 1000000000000000000000000000000"):
        LogicalMatrix(2, (1, 10 ** 30))


# -- entry budget --------------------------------------------------------------


def test_build_entry_budget_boundary(monkeypatch):
    monkeypatch.setattr(core, "MAX_ENTRIES", 30)
    assert build_perm_matrix((2, 3, 5), Permutation((3, 1, 2))).n_cols == 30
    with pytest.raises(OverflowError, match="budget of 30"):
        build_perm_matrix((2, 3, 6), Permutation((3, 1, 2)))


def test_build_entry_budget_just_over_constant():
    with pytest.raises(OverflowError, match=f"budget of {MAX_ENTRIES}"):
        build_perm_matrix((4097, MAX_ENTRIES // 4096), Permutation((2, 1)))


def test_logical_identity_and_apply_are_budgeted(monkeypatch):
    monkeypatch.setattr(core, "MAX_ENTRIES", 30)
    assert LogicalMatrix.identity(30).n_cols == 30
    with pytest.raises(OverflowError, match="identity of order 31 has 31 columns, above the budget of 30"):
        LogicalMatrix.identity(31)
    assert LogicalMatrix(30, (30,)).apply([5]).tolist() == [0] * 29 + [5]
    with pytest.raises(OverflowError, match="gather-product of a 31 x 1 logical matrix has 31 entries"):
        LogicalMatrix(31, (31,)).apply([5])


def test_a_huge_row_count_is_refused_before_applying():
    # The result has one entry per row, however few columns the matrix has.
    with pytest.raises(OverflowError, match=f"above the budget of {MAX_ENTRIES}"):
        LogicalMatrix(10 ** 13, (1,)).apply([5])


# -- independence from the index-shuffle route ----------------------------------


def test_build_and_gather_never_call_np_transpose(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.transpose called on the permutation-matrix route")

    monkeypatch.setattr(np, "transpose", refuse)
    for image in permutations((1, 2, 3)):
        sigma = Permutation(image)
        oracle = perm_matrix_oracle((2, 3, 5), sigma)
        assert build_perm_matrix((2, 3, 5), sigma).cols == oracle
        gathered = perm_gather(np.arange(1, 31), (2, 3, 5), sigma)
        assert [int(v) for v in gathered] == [oracle.index(r) + 1 for r in range(1, 31)]


@pytest.fixture
def builds(monkeypatch):
    """The dims of every permutation-matrix index that ``perm_gather`` builds."""
    seen = []
    real = permutation_module._perm_index

    def spy(dims, image):
        seen.append(tuple(dims))
        return real(dims, image)

    monkeypatch.setattr(permutation_module, "_perm_index", spy)
    return seen


def test_identity_gather_builds_nothing_and_copies(builds):
    flat = np.arange(1, 31)
    out = perm_gather(flat, (2, 3, 5), Permutation.identity(3))
    assert builds == [] and out.tolist() == flat.tolist()
    out[0] = 99
    assert flat[0] == 1
    perm_gather(flat, (2, 3, 5), Permutation((1, 3, 2)))
    assert builds == [(2, 5, 3)]
    with pytest.raises(ValueError):
        perm_gather(flat, (2, 3, 4), Permutation.identity(3))


def test_onto_stp_on_trailing_axes_builds_no_permutation(builds):
    rng = np.random.default_rng(7)
    a = Hypermatrix.from_flat((5, 5, 4, 4), [int(v) for v in rng.integers(-9, 10, 400)])
    b = Hypermatrix.from_flat((4, 4), [int(v) for v in rng.integers(-9, 10, 16)])
    assert onto_contract(a, b, (3, 4), "stp") == contract_bruteforce(a, b, (3, 4), (1, 2))
    assert builds == []
    assert onto_contract(a, b, (4, 3), "stp") == contract_bruteforce(a, b, (4, 3), (1, 2))
    assert builds == [(5, 5, 4, 4)]


# The errors of a re-layout, as the gather through a built ``LogicalMatrix`` raised them:
# dims are checked in the permuted order, the budget before the length, and a
# permutation shorter or longer than the shape fails on its length or its indexing.
GATHER_ERRORS = [
    ((np.arange(29), (2, 3, 5), (1, 3, 2)), ValueError, "row vector of length 29 against 30 rows"),
    ((np.arange(24), (2, 3, 5), (1, 2, 3)), ValueError, "row vector of length 24 against 30 rows"),
    ((list(range(31)), [2, 3, 5], (3, 1, 2)), ValueError, "row vector of length 31 against 30 rows"),
    ((np.arange(6), (2, 3), (1,)), ValueError, "permutation of degree 1 for shape of order 2"),
    ((np.arange(6), (2, 3), (1, 3, 2)), ValueError, "permutation of degree 3 for shape of order 2"),
    ((np.arange(6), [2, 3], (1, 3, 2)), ValueError, "permutation of degree 3 for shape of order 2"),
    ((np.arange(6), (2, 0, 3), (3, 1, 2)), ValueError, "dimension at axis 3 must be >= 1, got 0"),
    ((np.arange(6), (2, 0, 3), (1, 2, 3)), ValueError, "dimension at axis 2 must be >= 1, got 0"),
    # Once returned a gather: the axis left out has size 1.
    ((np.arange(3), (3, 1), (1,)), ValueError, "permutation of degree 1 for shape of order 2"),
]


SIGMA_ENTRIES = {
    "build_perm_matrix": lambda a, sigma: build_perm_matrix(a.dims, sigma).cols,
    "perm_gather": lambda a, sigma: perm_gather(a.data, a.dims, sigma).tolist(),
    "sigma_transpose": lambda a, sigma: sigma_transpose(a, sigma),
    "sigma_transpose_via_perm": lambda a, sigma: sigma_transpose_via_perm(a, sigma),
}


@pytest.mark.parametrize("entry", sorted(SIGMA_ENTRIES))
def test_every_sigma_entry_takes_an_image_and_checks_its_degree_alike(entry):
    run, a = SIGMA_ENTRIES[entry], Hypermatrix((2, 3, 2), list(range(12)))
    assert run(a, (3, 1, 2)) == run(a, Permutation((3, 1, 2)))
    for sigma in ((2, 1), Permutation((2, 1))):
        with pytest.raises(ValueError) as raised:
            run(a, sigma)
        assert str(raised.value) == "permutation of degree 2 for shape of order 3"
    with pytest.raises(ValueError, match=re.escape("(1, 1, 2) is not a bijection of 1..3")):
        run(a, (1, 1, 2))


@pytest.mark.parametrize("args, error, message", GATHER_ERRORS)
def test_gather_errors_keep_their_type_and_message(args, error, message):
    flat, dims, image = args
    with pytest.raises(error) as raised:
        perm_gather(flat, dims, Permutation(image))
    assert str(raised.value) == message


def test_gather_and_build_budget_errors_keep_their_type_and_message(monkeypatch):
    monkeypatch.setattr(core, "MAX_ENTRIES", 29)
    for flat in (np.arange(30), np.arange(31)):
        with pytest.raises(OverflowError) as raised:
            perm_gather(flat, (2, 3, 5), Permutation((1, 3, 2)))
        assert str(raised.value) == "permutation matrix over (2, 5, 3) has 30 columns, above the budget of 29"
    # The identity is a copy and builds nothing, so no budget applies to it.
    assert perm_gather(np.arange(30), (2, 3, 5), Permutation.identity(3)).tolist() == list(range(30))
    with pytest.raises(OverflowError) as raised:
        build_perm_matrix((2, 3, 5), Permutation((3, 1, 2)))
    assert str(raised.value) == "permutation matrix over (2, 3, 5) has 30 columns, above the budget of 29"
    with pytest.raises(ValueError) as raised:
        build_perm_matrix((2, 2), Permutation((1, 2, 3)))
    assert str(raised.value) == "permutation of degree 3 for shape of order 2"


# -- properties over random shapes and permutations ------------------------------


@st.composite
def gather_cases(draw):
    """Dims with size-1 axes and small trailing dims, a permutation and flat data of one dtype."""
    lead = draw(st.lists(st.integers(1, 7), max_size=3))
    trail = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    dims = tuple(lead + trail)
    sigma = Permutation(draw(st.permutations(range(1, len(dims) + 1))))
    n = math.prod(dims)
    dtype = draw(st.sampled_from(["object", "int64", "float64"]))
    flat = {
        "object": lambda: np.array([2 ** 70 + k for k in range(n)], dtype=object),
        "int64": lambda: np.arange(n, dtype=np.int64) * 3 - n,
        "float64": lambda: np.arange(n) / 7 - n,
    }[dtype]()
    return flat, dims, sigma


@given(gather_cases())
def test_gather_equals_the_transpose_oracle(case):
    flat, dims, sigma = case
    out = perm_gather(flat, dims, sigma)
    want = np.transpose(flat.reshape(dims), [s - 1 for s in sigma.image]).reshape(-1)
    assert out.dtype == flat.dtype and out.shape == want.shape
    assert out.tolist() == want.tolist()
    assert not np.shares_memory(out, flat)


@st.composite
def dims_and_sigma(draw):
    dims = draw(mixed_dims())
    return dims, Permutation(draw(st.permutations(range(1, len(dims) + 1))))


@st.composite
def uniform_dims_and_pair(draw, max_size=2000):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, max(k for k in range(1, 10) if k ** d <= max_size)))
    perm = st.permutations(range(1, d + 1))
    return (n,) * d, Permutation(draw(perm)), Permutation(draw(perm))


def quiet_build(dims, sigma):
    """``build_perm_matrix`` with its degenerate-dims warning silenced: the draws include dims of 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_perm_matrix(dims, sigma)


@given(dims_and_sigma())
def test_build_matches_loop_oracle(case):
    dims, sigma = case
    assert quiet_build(dims, sigma).cols == perm_matrix_oracle(dims, sigma)


@given(uniform_dims_and_pair())
def test_product_law_uniform_dims(case):
    dims, p, q = case
    lhs = quiet_build(dims, p).compose(quiet_build(dims, q))
    assert lhs == quiet_build(dims, perm_compose(p, q))


@given(dims_and_sigma())
def test_transpose_is_inverse_over_permuted_dims(case):
    dims, sigma = case
    permuted = tuple(dims[sigma(k) - 1] for k in range(1, len(dims) + 1))
    w = quiet_build(dims, sigma)
    assert w.transpose() == quiet_build(permuted, sigma.inverse())


@given(dims_and_sigma())
def test_logical_matrix_rebuilt_from_cols_is_equal(case):
    w = quiet_build(*case)
    rebuilt = LogicalMatrix(w.rows, w.cols)
    assert rebuilt == w and hash(rebuilt) == hash(w)
