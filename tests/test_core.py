import copy
import pickle
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

import hyperstp.core as core
from hyperstp import (
    GamePayoff,
    Hypermatrix,
    LogicalMatrix,
    MatrixExpression,
    Permutation,
    YbeInstance,
    appendix_labels,
    appendix_sigma,
    appendix_table,
    build_perm_matrix,
    check_dims,
    contract,
    contract_via_expression,
    delinearize,
    delta_I,
    example_table,
    iter_indices,
    linearize,
    matrix_expression,
    onto_contract,
    sigma_transpose,
    size_of,
    vcs,
    vrs,
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
    # The int64 form and a float64 array of the same entries compare equal in numpy: the kinds differ.
    floats = Hypermatrix((2,), [1.0, 2.0])
    assert a != floats and floats != a


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
            # A copy rebuilds through the constructor, which keeps an int64 form when one fits.
            assert (dup._int64 is None) == (original is not with_int64_form)
            assert not dup.data.flags.writeable
            assert all(type(x) is type(y) for x, y in zip(dup.data, original.data))


def test_copies_and_pickles_carry_the_store_unwidened():
    a = Hypermatrix.from_flat((3,), [1, -2, 2 ** 62])
    payload = pickle.dumps(a)
    assert a._data is None
    for dup in [pickle.loads(payload), copy.copy(a), copy.deepcopy(a)]:
        assert a._data is None and dup._data is None
        assert dup == a and dup._int64 is not None
    assert a.__reduce__()[1][1] is a._int64


class _ParentPickle:
    """Reduces as a value was pickled before pickles carried the store: dims, ``data`` and kind."""

    def __init__(self, dims, data, kind):
        self.args = (dims, np.array(data, dtype=object if kind == "int" else np.float64), kind)

    def __reduce__(self):
        return Hypermatrix, self.args


def test_pickles_that_carry_data_still_load():
    for dims, data, kind in [((2,), [3, -4], "int"), ((2,), [3 ** 50, -1], "int"), ((1, 2), [0.5, -2.0], "float")]:
        h = pickle.loads(pickle.dumps(_ParentPickle(dims, data, kind)))
        assert h == Hypermatrix.from_flat(dims, data, kind)
        assert (h._int64 is not None) == (kind == "int" and max(map(abs, data)) < 2 ** 63)


def test_matrix_expression_copies_and_pickles():
    m = matrix_expression(Hypermatrix.from_flat((2, 3, 2), list(range(12))), rows=(3, 1))
    for dup in _copies(m):
        assert (dup.row_axes, dup.col_axes, dup.dims, dup.kind) == (m.row_axes, m.col_axes, m.dims, m.kind)
        assert dup.mat.tolist() == m.mat.tolist()
        assert not dup.mat.flags.writeable


def test_dim_one_axes_allowed():
    a = Hypermatrix.from_flat((2, 1, 3), [1, 2, 3, 4, 5, 6])
    assert a.get((2, 1, 3)) == 6


def test_zeros_are_budgeted(monkeypatch):
    with pytest.raises(OverflowError, match=f"zero hypermatrix of shape \\(4097, 4096\\) has {4097 * 4096} entries"):
        Hypermatrix.zeros((4097, 4096))
    monkeypatch.setattr(core, "MAX_ENTRIES", 12)
    assert Hypermatrix.zeros((2, 3, 2)).data.tolist() == [0] * 12
    with pytest.raises(OverflowError, match="above the budget of 12"):
        Hypermatrix.zeros((13,))


@pytest.mark.parametrize(
    "dims, data, kind",
    [((2, 3), [1, -2, 3, 2 ** 62, 0, -7], "int"), ((3,), [3 ** 50, -1, 0], "int"), ((1, 2), [0.5, -2.0], "float")],
    ids=["int64", "past-int64", "float"],
)
def test_one_entry_reads_yield_what_data_holds_and_fill_no_cache(dims, data, kind):
    h, twin = Hypermatrix.from_flat(dims, data, kind), Hypermatrix.from_flat(dims, data, kind)
    items = list(h.items())
    assert [v for _, v in items] == [h.get(idx) for idx, _ in items] == twin.data.tolist()
    assert [type(v) for _, v in items] == [type(v) for v in twin.data]
    scalar = Hypermatrix.from_flat((1,) * len(dims), data[:1], kind)
    assert scalar.to_scalar() == data[0] and type(scalar.to_scalar()) is type(twin.data[0])
    # An int64 store is read entry by entry: its Python-int cache stays empty.
    assert (h._data is None) is (scalar._data is None) is (h._int64 is not None)


def test_one_get_on_a_large_value_allocates_nothing_of_its_size():
    h = Hypermatrix.from_nd(np.arange(2 ** 22, dtype=np.int64).reshape(2048, 2048))
    tracemalloc.start()
    try:
        v = h.get((5, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == 4 * 2048 + 6 and type(v) is int
    assert h._data is None and peak < 2 ** 20


# -- index arguments ---------------------------------------------------------

_SQUARE = Hypermatrix((3, 3), list(range(9)))
_COLUMN = Hypermatrix((3,), [1, -2, 3])

# Every entry point that takes dims, axes, an image or a count, with ``v`` in one slot.
INDEX_ENTRIES = {
    "Hypermatrix dims": lambda v: Hypermatrix((v, 2), [1, 2, 3, 4]),
    "check_dims": lambda v: check_dims((2, v)),
    "build_perm_matrix dims": lambda v: build_perm_matrix((v, 2), (2, 1)),
    "contract axes": lambda v: contract(_SQUARE, _COLUMN, (v,), (1,)),
    "contract stp axes": lambda v: contract(_SQUARE, _SQUARE, (1,), (v,), "stp"),
    "onto_contract axes": lambda v: onto_contract(_SQUARE, _COLUMN, (v,)),
    "matrix_expression rows": lambda v: matrix_expression(_SQUARE, (v,)),
    "matrix_expression cols": lambda v: matrix_expression(_SQUARE, (1,), (v,)),
    "MatrixExpression axes": lambda v: MatrixExpression(np.zeros((3, 3), int), (1,), (v,), (3, 3), "int"),
    "Permutation image": lambda v: Permutation((v, 1)),
    "sigma_transpose sigma": lambda v: sigma_transpose(_SQUARE, (v, 1)),
    "LogicalMatrix rows": lambda v: LogicalMatrix(v, [1]),
    "LogicalMatrix cols": lambda v: LogicalMatrix(3, [v, 1]),
    "GamePayoff strategy_counts": lambda v: GamePayoff((v,), (Hypermatrix((2,), [1, 2]),)),
    "Hypermatrix.get index": lambda v: _SQUARE.get((1, v)),
    "linearize index": lambda v: linearize((3, 3), (v, 1)),
    "delinearize rank": lambda v: delinearize((2, 3), v),
    "YbeInstance n": lambda v: YbeInstance(v, Hypermatrix((2,) * 4, [0] * 16)),
    "delta_I n": lambda v: delta_I(v),
    "Permutation call": lambda v: Permutation((2, 3, 1))(v),
    "Permutation.identity d": lambda v: Permutation.identity(v),
    "appendix_labels n": lambda v: appendix_labels(3, v),
    "appendix_table n": lambda v: appendix_table(3, v, 1),
    "appendix_table label": lambda v: appendix_table(3, 2, v),
    "appendix_sigma label": lambda v: appendix_sigma(3, v),
    "example_table label": lambda v: example_table(v),
    "vrs s": lambda v: vrs([1, 2, 3, 4], v),
    "vcs s": lambda v: vcs([1, 2, 3, 4], v),
}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
@pytest.mark.parametrize("bad", [2.7, True, np.float64(2.0), np.bool_(True)], ids=repr)
def test_index_arguments_refuse_floats_and_booleans(entry, bad):
    # Warm the contraction plan memo first: it keys on axes, and 2.0 == 2 and True == 1 hash alike.
    for axes in ((1,), (2,)):
        contract(_SQUARE, _COLUMN, axes, (1,))
    with pytest.raises(TypeError, match=re.escape(f"{bad!r} is not an integer")):
        INDEX_ENTRIES[entry](bad)


def test_appendix_degrees_are_integers():
    # The bundled degrees are 3 and 4, so the degree slot cannot take the shared value 2.
    for read in (lambda v: appendix_labels(v, 2), lambda v: appendix_table(v, 2, 1), lambda v: appendix_sigma(v, 1)):
        for bad in (3.0, True, np.float64(3.0), np.bool_(True)):
            with pytest.raises(TypeError, match=f"^{re.escape(repr(bad))} is not an integer$"):
                read(bad)
        assert read(np.int64(3)) == read(3)


def test_permutation_call_is_one_based_and_range_checked():
    # Once read as a tuple index: p(0) gave sigma(3), p(-1) sigma(2), p(4) a bare IndexError.
    p = Permutation((2, 3, 1))
    assert [p(k) for k in (1, 2, 3)] == [2, 3, 1]
    for k in (0, -1, 4):
        with pytest.raises(IndexError, match=rf"^index {k} out of range \[1, 3\]$"):
            p(k)


def test_entry_reads_name_a_float_or_bool_index():
    # Once truncated or read by numpy: get((True,)) gave the first entry, delinearize((2, 3), True) gave (1, 1).
    h = Hypermatrix((2,), [5, 6])
    for read, bad in [(lambda: h.get((True,)), True), (lambda: delinearize((2, 3), True), True),
                      (lambda: YbeInstance(True, Hypermatrix((1,) * 4, [1])), True), (lambda: h.get((1.0,)), 1.0)]:
        with pytest.raises(TypeError, match=f"^{bad!r} is not an integer$"):
            read()


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
def test_index_arguments_take_numpy_integers(entry):
    assert INDEX_ENTRIES[entry](np.int64(2)) is not None
