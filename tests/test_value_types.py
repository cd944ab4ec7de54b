"""One discipline for the value types: immutable, copyable, owning their data.

``Hypermatrix``, ``MatrixExpression``, ``LogicalMatrix`` and ``Permutation``
share one immutable base whose copies and pickles rebuild through the
public constructor; public constructors never alias a caller's array; and
library results come through the trusted path, not the public constructor.
"""

import copy
import pickle

import numpy as np
import pytest

from hyperstp import (
    Hypermatrix,
    LogicalMatrix,
    MatrixExpression,
    Permutation,
    YbeInstance,
    binary_apply,
    build_perm_matrix,
    contract,
    contract_via_expression,
    expression_to_hypermatrix,
    hypervector_expand,
    loads_hm,
    matrix_expression,
    sigma_transpose,
    sigma_transpose_via_perm,
    ybe_sides,
)
from hyperstp import core

from conftest import random_hm


def _copies(value):
    return [pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)]


VALUES = ("int64 form", "past int64", "float", "expression", "logical", "permutation")


def _values():
    a, b = Hypermatrix.from_flat((2, 2), [1, 2, 3, 4]), Hypermatrix.from_flat((2,), [5, 6])
    with_int64_form = contract_via_expression(a, b, (2,), (1,))
    assert with_int64_form._int64 is not None
    return {
        "int64 form": with_int64_form,
        "past int64": Hypermatrix.from_flat((2,), [3 ** 50, -(2 ** 70)]),
        "float": Hypermatrix.from_flat((3,), [0.1, -2.5, 1e300], "float"),
        "expression": matrix_expression(Hypermatrix.from_flat((2, 3, 2), list(range(12))), rows=(3, 1)),
        "logical": build_perm_matrix((2, 3), Permutation((2, 1))),
        "permutation": Permutation((2, 1, 3)),
    }


def _fields(value):
    if isinstance(value, MatrixExpression):
        return value.mat.tolist(), value.row_axes, value.col_axes, value.dims, value.kind
    return value


def _arrays(value):
    return [getattr(value, name) for name in value.__slots__ if isinstance(getattr(value, name), np.ndarray)]


@pytest.mark.parametrize("name", VALUES)
def test_every_value_type_copies_and_pickles(name):
    original = _values()[name]
    for dup in _copies(original):
        assert type(dup) is type(original)
        assert _fields(dup) == _fields(original)
        assert all(not arr.flags.writeable for arr in _arrays(dup))
        if isinstance(dup, Hypermatrix):
            assert dup.kind == original.kind and (dup._int64 is None) == (name != "int64 form")
            # One store: a copy with an int64 form has widened nothing.
            assert dup._int64 is None or dup._data is None
            assert all(type(x) is type(y) for x, y in zip(dup.data, original.data))


@pytest.mark.parametrize("name", VALUES)
def test_every_value_type_refuses_attribute_writes(name):
    value = _values()[name]
    kind = type(value).__name__
    for attr in (value.__slots__[0], "extra"):
        with pytest.raises(AttributeError, match=f"{kind} is immutable"):
            setattr(value, attr, None)
    with pytest.raises(AttributeError, match=f"{kind} is immutable"):
        delattr(value, value.__slots__[0])
    assert _fields(value) == _fields(_values()[name])
    assert all(not arr.flags.writeable for arr in _arrays(value))


def _built_results_and_loaded():
    a = Hypermatrix((2, 3, 2), np.arange(12))
    b = Hypermatrix.from_flat((3, 2), [2, -1, 0, 3, -4, 5])
    f = Hypermatrix.from_flat((2, 3), [0.1, -2.5, 3.25, 1e8, -0.3, 7.0], "float")
    frozen = np.arange(6)
    frozen.setflags(write=False)  # a read-only array reaches the fill step as it is
    return [
        a, b, f, Hypermatrix.from_flat((2,), [3 ** 50, -(2 ** 70)]), Hypermatrix.from_nd([[1, 2], [3, 4]]),
        core._stored((6,), frozen, "int"),
        *(contract(a, b, (2, 3), (1, 2), method) for method in ("expr", "stp", "brute")),
        contract(f, f, (2,), (2,)), sigma_transpose(a, (3, 1, 2)), Hypermatrix.zeros((2, 2)),
        matrix_expression(a, rows=(3, 1)), build_perm_matrix((2, 3), Permutation((2, 1))),
        loads_hm('{"shape":[2,2],"data":[1,2,3,4],"scalar_kind":"int"}'),
        loads_hm('{"shape":[2],"data":[0.5,1e300],"scalar_kind":"float"}'),
        loads_hm('{"shape":[2],"data":[9223372036854775808,-1],"scalar_kind":"int"}'),
    ]


def test_every_array_slot_is_read_only():
    for value in _built_results_and_loaded():
        if isinstance(value, Hypermatrix):
            value.data  # fills the cache slot of a value over an int64 form
        slots = [getattr(value, name) for name in value.__slots__]
        assert any(isinstance(slot, np.ndarray) for slot in slots)
        for slot in slots:
            assert not isinstance(slot, np.ndarray) or slot.flags.writeable is False


def test_logical_matrix_pickle_carries_rows_and_cols_only():
    m = LogicalMatrix(4, (2, 2, 4))
    assert m.__reduce__() == (LogicalMatrix, (4, (2, 2, 4)))


@pytest.mark.parametrize("build", [lambda x: Hypermatrix(x.shape, x), Hypermatrix.from_nd])
@pytest.mark.parametrize("dtype", [object, np.float64, np.int64])
def test_constructors_do_not_alias_the_callers_array(build, dtype):
    x = np.array([[1, 2], [3, 4]], dtype=dtype)
    if dtype is object:
        x[0, 0] = 1  # a Python int, as the int backend holds
    h = build(x)
    before, digest = h.data.tolist(), hash(h)
    x[0, 0] = np.inf if dtype is np.float64 else 99
    assert h.data.tolist() == before and hash(h) == digest
    if h.kind == "float":
        assert np.isfinite(h.data).all()


def test_a_flat_view_of_the_callers_array_is_copied_too():
    x = np.arange(6, dtype=np.float64)
    h = Hypermatrix((2, 3), x[:])
    x[1] = np.inf
    assert np.isfinite(h.data).all() and x.flags.writeable


def test_matrix_expression_copies_instead_of_freezing_the_callers_matrix():
    z = np.arange(6, dtype=np.float64).reshape(2, 3)
    m = MatrixExpression(z, (1,), (2,), (2, 3), "float")
    assert z.flags.writeable and not m.mat.flags.writeable
    z[0, 0] = 99.0
    assert m.mat[0, 0] == 0.0


@pytest.fixture
def init_calls(monkeypatch):
    """Count calls of the public ``Hypermatrix`` constructor from here on."""
    calls = []
    original = Hypermatrix.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Hypermatrix, "__init__", spy)
    return calls


def test_library_results_skip_the_public_constructor(rng, init_calls, monkeypatch):
    a, b = random_hm(rng, (2, 3, 4)), random_hm(rng, (4, 3))
    f = random_hm(rng, (2, 3, 4), kind="float")
    r = YbeInstance(4, random_hm(rng, (4,) * 4))
    op, x, y = random_hm(rng, (2,) * 6), random_hm(rng, (2, 2)), random_hm(rng, (2, 2))
    m = matrix_expression(a, rows=(3, 1))
    sigma = Permutation((3, 1, 2))
    init_calls.clear()
    results = [
        contract(a, b, (2, 3), (2, 1), "expression"),
        contract(a, b, (2, 3), (2, 1), "stp"),
        contract(f, f, (1, 3), (1, 3), "expression"),
        sigma_transpose(a, sigma),
        sigma_transpose_via_perm(f, sigma),
        expression_to_hypermatrix(m),
        ybe_sides(r, "lhs"),
        ybe_sides(r, "rhs"),
        binary_apply(op, x, y),
        hypervector_expand([[1, 2], [3.5, 4, 5]]),
    ]
    assert init_calls == []
    monkeypatch.undo()
    assert expression_to_hypermatrix(m) == a
    for h in results:
        assert not h.data.flags.writeable
        assert h.data.dtype == (object if h.kind == "int" else np.float64)


def test_trusted_results_keep_the_scalar_policy():
    big = Hypermatrix.from_flat((1,), [1e200], "float")
    for method in ("expression", "stp"):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            contract(big, big, (1,), (1,), method)
    with pytest.raises(ValueError, match="dimension"):
        hypervector_expand([[], [1]])
    with pytest.raises(TypeError):
        hypervector_expand([[1.5]], "int")


@pytest.mark.parametrize("nested", [[[1, 2], [3, 4]], [[0.5, 2.0], [-1.0, 3.0]]])
def test_from_nd_copies_nested_lists_once(nested, monkeypatch):
    built = []
    real = core.as_scalars

    def spy(values, kind=None):
        out = real(values, kind)
        built.append(out[0])
        return out

    monkeypatch.setattr(core, "as_scalars", spy)
    h = Hypermatrix.from_nd(nested)
    # The one copy is the list read into an array.  A float value stores that
    # array; an int value stores its int64 cast alone, and ``data`` is a cache.
    if h.kind == "float":
        assert np.shares_memory(h._flat(), built[0])
    else:
        assert h._data is None and h._int64.tolist() == built[0].reshape(-1).tolist()
    assert h.data.tolist() == [v for row in nested for v in row] and not h.data.flags.writeable
