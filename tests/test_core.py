import copy
import pickle
from itertools import product

import numpy as np
import pytest

from hyperstp import (
    Hypermatrix,
    check_dims,
    contract_via_expression,
    delinearize,
    iter_indices,
    linearize,
    matrix_expression,
    size_of,
)

from conftest import random_hm


def test_linearize_examples():
    assert linearize((2, 3, 2), (1, 2, 1)) == 3
    assert linearize((2, 3, 2), (1, 1, 1)) == 1
    assert linearize((2, 3, 2), (2, 3, 2)) == 12


def test_delinearize_examples():
    assert delinearize((2, 3, 2), 3) == (1, 2, 1)
    assert delinearize((2, 3, 2), 1) == (1, 1, 1)
    assert delinearize((5,), 4) == (4,)


@pytest.mark.parametrize("dims", [(2, 3, 2), (1,), (4, 4), (2, 2, 2, 2), (7, 11, 13), (3, 1, 5), ()])
def test_roundtrip_exhaustive(dims):
    for rank in range(1, size_of(dims) + 1):
        assert linearize(dims, delinearize(dims, rank)) == rank


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3), (2, 2, 2)])
def test_id_order_monotone(dims):
    ranks = [linearize(dims, idx) for idx in iter_indices(dims)]
    assert ranks == sorted(ranks) == list(range(1, size_of(dims) + 1))
    # the iteration order is exactly the lexicographic order on tuples
    idxs = list(iter_indices(dims))
    assert idxs == sorted(idxs)


def test_bounds_errors_name_axis():
    with pytest.raises(IndexError, match="axis 2"):
        linearize((2, 3, 2), (1, 4, 1))
    with pytest.raises(IndexError):
        delinearize((2, 3), 7)
    with pytest.raises(ValueError):
        linearize((2, 3), (1, 1, 1))


def test_check_dims():
    assert check_dims([2, 3]) == (2, 3)
    with pytest.raises(ValueError, match="axis 2"):
        check_dims([2, 0])
    with pytest.raises(OverflowError):
        check_dims([2 ** 40, 2 ** 40])


def test_from_flat_2x2():
    a = Hypermatrix.from_flat((2, 2), [1, 2, 3, 4])
    assert a.nd.tolist() == [[1, 2], [3, 4]]
    assert a.kind == "int"


def test_from_flat_scalar():
    a = Hypermatrix.from_flat((), [7])
    assert a.order == 0 and a.to_scalar() == 7


def test_from_flat_layout_232():
    # flat order (1,1,1),(1,1,2),(1,2,1),...: third entry is a_121
    a = Hypermatrix.from_flat((2, 3, 2), list(range(1, 13)))
    assert a.get((1, 2, 1)) == 3
    assert a.get((2, 3, 2)) == 12
    assert list(a.data) == list(range(1, 13))


def test_from_flat_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        Hypermatrix.from_flat((2, 2), [1, 2, 3])


def test_get_and_items():
    a = Hypermatrix.from_flat((2, 2), [1, 0, 0, 1])
    assert a.get((1, 2)) == 0
    seen = list(a.items())
    assert [idx for idx, _ in seen] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert [v for _, v in seen] == [1, 0, 0, 1]
    with pytest.raises(IndexError):
        a.get((3, 1))


def test_approx_equal_int_exact():
    a = Hypermatrix.from_flat((2,), [1, 2])
    b = Hypermatrix.from_flat((2,), [1, 2])
    c = Hypermatrix.from_flat((2,), [2, 2])
    assert a.approx_equal(b)
    assert not a.approx_equal(c)
    assert a == b and a != c


def test_approx_equal_float_tolerance():
    a = Hypermatrix.from_flat((2,), [1.0, 0.5])
    b = Hypermatrix.from_flat((2,), [1.0 + 1e-15, 0.5])
    assert a.approx_equal(b, 1e-12)
    assert not a.approx_equal(Hypermatrix.from_flat((2,), [1.1, 0.5]), 1e-12)


def test_approx_equal_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Hypermatrix.from_flat((2,), [1, 2]).approx_equal(Hypermatrix.from_flat((3,), [1, 2, 3]))


def test_int_backend_is_exact_beyond_64_bits(rng):
    big = 2 ** 70
    a = random_hm(rng, (3, 3))
    scaled = Hypermatrix.from_flat((3, 3), [v * big for v in a.data])
    assert scaled.get((1, 1)) == a.get((1, 1)) * big


def test_kind_inference_and_mixing():
    assert Hypermatrix.from_flat((2,), [1, 2]).kind == "int"
    assert Hypermatrix.from_flat((2,), [1.0, 2]).kind == "float"
    with pytest.raises(TypeError):
        Hypermatrix.from_flat((2,), [1, 2.5], kind="int")


def test_flat_readback_bit_exact(rng):
    values = [float(v) for v in rng.uniform(-1, 1, 12)]
    a = Hypermatrix.from_flat((3, 4), values, "float")
    assert list(a.data) == values


def test_immutable():
    a = Hypermatrix.from_flat((2,), [1, 2])
    with pytest.raises(AttributeError):
        a.kind = "float"
    with pytest.raises(ValueError):
        a.data[0] = 5
    with pytest.raises(ValueError):
        a.nd[0] = 9


def _copies(value):
    return [pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)]


def test_hypermatrix_copies_and_pickles():
    beyond_int64 = Hypermatrix.from_flat((2,), [3 ** 50, -(2 ** 70)])
    a, b = Hypermatrix.from_flat((2, 2), [1, 2, 3, 4]), Hypermatrix.from_flat((2,), [5, 6])
    with_int64_form = contract_via_expression(a, b, (2,), (1,))
    assert with_int64_form._int64 is not None
    floats = Hypermatrix.from_flat((3,), [0.1, -2.5, 1e300], "float")
    for original in (beyond_int64, with_int64_form, floats):
        for dup in _copies(original):
            assert dup == original and dup.kind == original.kind
            assert dup._int64 is None
            assert not dup.data.flags.writeable
            assert all(type(x) is type(y) for x, y in zip(dup.data, original.data))


def test_matrix_expression_copies_and_pickles():
    m = matrix_expression(Hypermatrix.from_flat((2, 3, 2), list(range(12))), rows=(3, 1))
    for dup in _copies(m):
        assert (dup.row_axes, dup.col_axes, dup.dims, dup.kind) == (m.row_axes, m.col_axes, m.dims, m.kind)
        assert dup.mat.tolist() == m.mat.tolist()
        assert not dup.mat.flags.writeable


def test_dim_one_axes_allowed():
    a = Hypermatrix.from_flat((2, 1, 3), [1, 2, 3, 4, 5, 6])
    assert a.get((2, 1, 3)) == 6
