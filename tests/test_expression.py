from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hyperstp.expression as expression_mod
from hyperstp import (
    Hypermatrix,
    MatrixExpression,
    Permutation,
    convert_expression,
    expression_to_hypermatrix,
    is_skew_symmetric,
    is_symmetric,
    linearize,
    matrix_expression,
    matrix_form_to_vec,
    perm_compose,
    sigma_transpose,
    sigma_transpose_via_perm,
    transpose_expr,
    vc,
    vcs,
    vec_to_matrix_form,
    vr,
    vrs,
)

from conftest import expression_oracle, mixed_dims, random_dims, random_hm, transpose_oracle


def all_increasing_subsets(d):
    for r in range(d + 1):
        yield from combinations(range(1, d + 1), r)


# -- stacking ------------------------------------------------------------


def test_vr_vc_examples():
    m = np.array([[1, 2], [3, 4]], dtype=object)
    assert list(vr(m)) == [1, 2, 3, 4]
    assert list(vc(m)) == [1, 3, 2, 4]


def test_vrs_vcs_examples():
    assert vrs([1, 2, 3, 4, 5, 6], 3).tolist() == [[1, 2, 3], [4, 5, 6]]
    assert vcs([1, 2, 3, 4, 5, 6], 3).tolist() == [[1, 4], [2, 5], [3, 6]]
    with pytest.raises(ValueError):
        vrs([1, 2, 3], 2)


def test_stacking_roundtrip_random(rng):
    for _ in range(100):
        m0, n0 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        mat = np.array([[int(v) for v in row] for row in rng.integers(-9, 10, (m0, n0))], dtype=object)
        assert np.array_equal(vrs(vr(mat), n0), mat)
        assert np.array_equal(vcs(vc(mat), m0), mat)


def test_matrix_stacking_forms_factor_through_vectors():
    mat = np.arange(12).reshape(3, 4)
    assert np.array_equal(vrs(mat, 6), vrs(vr(mat), 6))
    assert np.array_equal(vcs(mat, 6), vcs(vc(mat), 6))


# -- sigma transpose -----------------------------------------------------


def test_sigma_transpose_matrix_case(rng):
    a = random_hm(rng, (2, 3))
    t = sigma_transpose(a, Permutation((2, 1)))
    assert t.dims == (3, 2)
    assert np.array_equal(t.nd, a.nd.T)


def test_sigma_transpose_identity(rng):
    a = random_hm(rng, (2, 3, 2))
    assert sigma_transpose(a, Permutation((1, 2, 3))) == a
    assert sigma_transpose_via_perm(a, Permutation((1, 2, 3))) == a


def test_sigma_transpose_index_rule():
    a = Hypermatrix.from_flat((2, 3, 2), list(range(1, 13)))
    t = sigma_transpose(a, Permutation((2, 1, 3)))
    assert t.dims == (3, 2, 2)
    assert t.get((2, 1, 2)) == a.get((1, 2, 2))


def test_sigma_transpose_matches_loop_oracle(rng):
    for _ in range(50):
        dims = random_dims(rng, max_order=4, max_dim=4, max_size=256)
        a = random_hm(rng, dims)
        p = Permutation(tuple(int(v) for v in rng.permutation(len(dims)) + 1))
        assert sigma_transpose(a, p) == transpose_oracle(a, p)


def test_via_perm_equals_direct_100_random(rng):
    for _ in range(100):
        dims = random_dims(rng, max_order=4, max_dim=4, max_size=256)
        a = random_hm(rng, dims)
        p = Permutation(tuple(int(v) for v in rng.permutation(len(dims)) + 1))
        assert sigma_transpose_via_perm(a, p) == sigma_transpose(a, p)


def test_transpose_composition_orientation(rng):
    # exhaustive at order 3 over dimension 2: transposing by p then q is a
    # single transpose by the sequential composition
    a = random_hm(rng, (2, 2, 2))
    for p in permutations(range(1, 4)):
        for q in permutations(range(1, 4)):
            P, Q = Permutation(p), Permutation(q)
            assert sigma_transpose(sigma_transpose(a, P), Q) == sigma_transpose(a, perm_compose(Q, P))


# -- matrix expressions --------------------------------------------------


@pytest.fixture
def ex215():
    return Hypermatrix.from_flat((2, 3, 2), list(range(1, 13)))


def test_expression_single_row_axis(ex215):
    m = matrix_expression(ex215, rows=(2,))
    assert m.mat.shape == (3, 4)
    # row 2 lists a_{121}, a_{122}, a_{221}, a_{222}
    assert [ex215.get(i) for i in ((1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2))] == list(m.mat[1])
    assert m.mat[1, 2] == ex215.get((2, 2, 1))


def test_expression_rows_13(ex215):
    m = matrix_expression(ex215, rows=(1, 3))
    assert m.mat.shape == (4, 3)
    assert list(m.mat[1]) == [ex215.get((1, 1, 2)), ex215.get((1, 2, 2)), ex215.get((1, 3, 2))]


def test_expression_empty_rows_is_flat(ex215):
    m = matrix_expression(ex215, rows=())
    assert m.mat.shape == (1, 12)
    assert list(m.mat[0]) == list(ex215.data)


def test_expression_full_rows_is_column(ex215):
    m = matrix_expression(ex215, rows=(1, 2, 3))
    assert m.mat.shape == (12, 1)
    assert list(m.mat[:, 0]) == list(ex215.data)


def test_expression_matches_loop_oracle(rng):
    for _ in range(25):
        dims = random_dims(rng, max_order=4, max_dim=4, max_size=256)
        a = random_hm(rng, dims)
        axes = list(rng.permutation(len(dims)) + 1)
        cut = int(rng.integers(0, len(dims) + 1))
        rows, cols = tuple(int(x) for x in axes[:cut]), tuple(int(x) for x in axes[cut:])
        m = matrix_expression(a, rows, cols)
        assert np.array_equal(m.mat, expression_oracle(a, rows, cols))


def test_expression_rejects_bad_partitions(ex215):
    with pytest.raises(ValueError):
        matrix_expression(ex215, rows=(1, 1))
    with pytest.raises(ValueError):
        matrix_expression(ex215, rows=(1,), cols=(2,))


def test_expression_validates_its_split_once(rng, monkeypatch):
    calls = []
    real = expression_mod._check_partition

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(expression_mod, "_check_partition", spy)
    a = random_hm(rng, (2, 3, 4))
    for rows in [(), (2,), (3, 1), (1, 2, 3)]:
        calls.clear()
        m = matrix_expression(a, rows)
        assert len(calls) == 1
        assert np.array_equal(m.mat, expression_oracle(a, m.row_axes, m.col_axes))


def test_public_expression_constructor_validates(ex215):
    m = matrix_expression(ex215, (1,))
    assert repr(MatrixExpression(m.mat, m.row_axes, m.col_axes, m.dims, m.kind)) == repr(m)
    with pytest.raises(ValueError, match="partition"):
        MatrixExpression(m.mat, (1,), (1, 3), m.dims, m.kind)
    with pytest.raises(ValueError, match="expected"):
        MatrixExpression(m.mat.T, m.row_axes, m.col_axes, m.dims, m.kind)
    with pytest.raises(ValueError, match="dimension"):
        MatrixExpression(m.mat, m.row_axes, m.col_axes, (2, 0, 5), m.kind)


@pytest.mark.parametrize(
    "mat, kind, error, message",
    [
        ([[1, 2]], "complex", ValueError, "unknown scalar kind 'complex'"),
        (np.array([[True, False]]), "int", TypeError, "arrays of dtype bool do not hold scalars"),
        (np.array([["1", "2"]]), "int", TypeError, "arrays of dtype <U1 do not hold scalars"),
        (np.array([[1, 0.5]], dtype=object), "int", TypeError, "float 0.5 at position 2 is not an int-backend value"),
        (np.array([[1, True]], dtype=object), "float", TypeError, "True at position 2 is not a scalar"),
        (np.array([[1.0, 0.5]]), "int", TypeError, "float data does not convert to the int backend"),
        ([[1, True]], "int", TypeError, "True at position 2 is not a scalar"),
        ([[1.0, float("inf")]], "float", ValueError, "non-finite value inf at position 2"),
    ],
    ids=["kind", "bool-array", "str-array", "float-in-int", "bool-in-object", "float-array", "bool-in-list", "inf"],
)
def test_expression_constructor_checks_its_matrix(mat, kind, error, message):
    # The constructor's rule is the Hypermatrix constructor's, so nothing downstream reads an entry's type.
    with pytest.raises(error) as raised:
        MatrixExpression(mat, (1,), (2,), (1, 2), kind)
    assert str(raised.value) == message


def test_expression_constructor_puts_ints_on_the_declared_backend():
    m = MatrixExpression(np.array([[1, 2], [3, 4]]), (1,), (2,), (2, 2), "float")
    assert m.mat.dtype == np.float64 and m.kind == "float"
    m = MatrixExpression(np.array([[np.int8(1), 2 ** 70]], dtype=object), (1,), (2,), (1, 2), "int")
    assert m.mat.dtype == object and [type(v) for v in m.mat.reshape(-1)] == [int, int]
    assert expression_to_hypermatrix(m) == Hypermatrix((1, 2), [1, 2 ** 70])


def test_expression_roundtrip_hypermatrix(rng):
    for _ in range(20):
        dims = random_dims(rng, max_order=4, max_dim=4, max_size=256)
        a = random_hm(rng, dims)
        axes = list(rng.permutation(len(dims)) + 1)
        cut = int(rng.integers(0, len(dims) + 1))
        m = matrix_expression(a, tuple(axes[:cut]), tuple(axes[cut:]))
        assert expression_to_hypermatrix(m) == a


# -- vector form <-> matrix form ----------------------------------------


def test_vec_to_matrix_form_full_and_empty(ex215):
    full = vec_to_matrix_form(ex215.data, ex215.dims, (1, 2, 3))
    assert full.mat.shape == (12, 1) and list(full.mat[:, 0]) == list(ex215.data)
    empty = vec_to_matrix_form(ex215.data, ex215.dims, ())
    assert empty.mat.shape == (1, 12) and list(empty.mat[0]) == list(ex215.data)


def test_vec_to_matrix_form_matches_direct(ex215, rng):
    for rows in all_increasing_subsets(3):
        m = vec_to_matrix_form(ex215.data, ex215.dims, rows)
        direct = matrix_expression(ex215, rows)
        assert np.array_equal(m.mat, direct.mat)
        assert m.row_axes == direct.row_axes and m.col_axes == direct.col_axes


def test_matrix_form_to_vec_roundtrip(rng):
    for _ in range(20):
        dims = random_dims(rng, max_order=4, max_dim=4, max_size=256)
        a = random_hm(rng, dims)
        for rows in all_increasing_subsets(len(dims)):
            m = matrix_expression(a, rows)
            assert list(matrix_form_to_vec(m)) == list(a.data)


def test_matrix_form_to_vec_d2_row_split_is_vr(rng):
    mat = np.array([[1, 2, 3], [4, 5, 6]], dtype=object)
    a = Hypermatrix.from_flat((2, 3), list(vr(mat)))
    m = matrix_expression(a, rows=(1,))
    assert list(matrix_form_to_vec(m)) == list(vr(mat))


def test_vec_to_matrix_form_accepts_decreasing(ex215):
    m = vec_to_matrix_form(ex215.data, ex215.dims, (3, 1))
    direct = matrix_expression(ex215, (3, 1))
    assert np.array_equal(m.mat, direct.mat)
    assert m.row_axes == direct.row_axes == (3, 1) and m.col_axes == direct.col_axes == (2,)


def test_conversions_read_non_increasing_column_axes():
    # Regression: the columns (3, 1) were once read as the increasing
    # complement (1, 3), which returned wrong data without an error.
    a = Hypermatrix.from_flat((2, 3, 5), list(range(30)))
    m = matrix_expression(a, (2,), (3, 1))
    assert list(matrix_form_to_vec(m)) == list(a.data)
    assert np.array_equal(convert_expression(m, (1,)).mat, matrix_expression(a, (1,)).mat)


def test_convert_expression_identity(ex215):
    m = matrix_expression(ex215, rows=(2,))
    again = convert_expression(m, (2,))
    assert np.array_equal(again.mat, m.mat)


def test_convert_expression_example(ex215):
    m1 = matrix_expression(ex215, rows=(1,))
    m12 = convert_expression(m1, (1, 2))
    assert np.array_equal(m12.mat, matrix_expression(ex215, rows=(1, 2)).mat)


def test_convert_expression_closure(rng):
    for _ in range(6):
        dims = random_dims(rng, max_order=4, max_dim=3, max_size=128)
        a = random_hm(rng, dims)
        splits = list(all_increasing_subsets(len(dims)))
        for src in splits:
            m = matrix_expression(a, src)
            for dst in splits:
                got = convert_expression(m, dst)
                assert np.array_equal(got.mat, matrix_expression(a, dst).mat)


@st.composite
def ordered_split(draw, d):
    """Any ordered row tuple and column tuple partitioning 1..d."""
    axes = draw(st.permutations(range(1, d + 1)))
    cut = draw(st.integers(0, d))
    return tuple(axes[:cut]), tuple(axes[cut:])


@st.composite
def hm_and_two_splits(draw):
    dims = draw(mixed_dims())
    # Distinct entries, so any misplaced entry shows.
    a = Hypermatrix.from_flat(dims, list(range(int(np.prod(dims)))))
    return a, draw(ordered_split(len(dims))), draw(ordered_split(len(dims)))


@given(hm_and_two_splits())
def test_conversions_match_direct_for_any_axis_order(case):
    a, (rows, cols), (rows2, _) = case
    direct = matrix_expression(a, rows)
    m = vec_to_matrix_form(a.data, a.dims, rows)
    assert np.array_equal(m.mat, direct.mat) and (m.row_axes, m.col_axes) == (direct.row_axes, direct.col_axes)
    m = matrix_expression(a, rows, cols)
    assert list(matrix_form_to_vec(m)) == list(a.data)
    converted, direct2 = convert_expression(m, rows2), matrix_expression(a, rows2)
    assert np.array_equal(converted.mat, direct2.mat)
    assert (converted.row_axes, converted.col_axes) == (direct2.row_axes, direct2.col_axes)


# -- expression transpose -------------------------------------------------


def test_transpose_expr_flat_vs_column(ex215):
    flat = matrix_expression(ex215, rows=())
    assert np.array_equal(transpose_expr(flat).mat, matrix_expression(ex215, rows=(1, 2, 3)).mat)


def test_transpose_expr_double_is_identity(ex215):
    m = matrix_expression(ex215, rows=(2,))
    back = transpose_expr(transpose_expr(m))
    assert np.array_equal(back.mat, m.mat) and back.row_axes == m.row_axes


def test_transpose_expr_swaps_axes(ex215, rng):
    for rows in all_increasing_subsets(3):
        m = matrix_expression(ex215, rows)
        t = transpose_expr(m)
        assert t.row_axes == m.col_axes and t.col_axes == m.row_axes
        assert np.array_equal(t.mat, matrix_expression(ex215, m.col_axes, m.row_axes).mat)


# -- symmetry --------------------------------------------------------------


def test_symmetric_matrix_case():
    sym = Hypermatrix.from_flat((2, 2), [1, 5, 5, 2])
    assert is_symmetric(sym)
    m = matrix_expression(sym, rows=(1,))
    assert np.array_equal(m.mat, m.mat.T)
    assert not is_symmetric(Hypermatrix.from_flat((2, 2), [1, 5, 4, 2]))


def test_zero_hypercubic_both():
    z = Hypermatrix.zeros((2, 2, 2))
    assert is_symmetric(z) and is_skew_symmetric(z)


def test_not_symmetric_when_entries_differ():
    a = Hypermatrix.zeros((2, 2, 2))
    data = list(a.data)
    data[linearize((2, 2, 2), (1, 2, 1)) - 1] = 7  # a_121 != a_211
    a = Hypermatrix.from_flat((2, 2, 2), data)
    assert a.get((1, 2, 1)) != a.get((2, 1, 1))
    assert not is_symmetric(a)


def test_skew_symmetric_d2():
    skew = Hypermatrix.from_flat((2, 2), [0, 3, -3, 0])
    assert is_skew_symmetric(skew)
    assert not is_skew_symmetric(Hypermatrix.from_flat((2, 2), [0, 3, 3, 0]))
    # -(-2**63) is 2**63, which int64 negation would wrap back to -2**63.
    for data in ([-(2 ** 63), 0, 0, 0], [0, -(2 ** 63), -(2 ** 63), 0]):
        assert not is_skew_symmetric(Hypermatrix.from_flat((2, 2), data))
    assert is_skew_symmetric(Hypermatrix.from_flat((2, 2), [0, -(2 ** 63) + 1, 2 ** 63 - 1, 0]))


def test_symmetric_d3_constructed(rng):
    # symmetrise a random cube by summing over all transposes
    a = random_hm(rng, (2, 2, 2))
    total = np.zeros(8, dtype=object)
    for p in permutations(range(1, 4)):
        total = total + sigma_transpose(a, Permutation(p)).data
    sym = Hypermatrix.from_flat((2, 2, 2), list(total))
    assert is_symmetric(sym)


def test_symmetry_needs_hypercubic():
    with pytest.raises(ValueError):
        is_symmetric(Hypermatrix.from_flat((2, 3), [0] * 6))


def test_prop_d2_equivalence(rng):
    # a 2-hypercubic is symmetric exactly when its one-row-axis expression is
    for _ in range(20):
        a = random_hm(rng, (3, 3))
        m = matrix_expression(a, rows=(1,))
        assert is_symmetric(a) == bool(np.array_equal(m.mat, m.mat.T))
