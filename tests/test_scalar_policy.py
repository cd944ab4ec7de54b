"""The scalar-kind policy (``core.as_scalars``) and the layers that call it.

Object arrays are the int backend and float64 arrays the float backend;
other numpy dtypes convert by dtype, sequences by their values, booleans
are never scalars, float data never becomes int and must be finite.
Raw-array operands promote together; declared hypermatrix kinds must match.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyperstp import (
    Hypermatrix,
    LogicalMatrix,
    as_scalars,
    as_scalars_joint,
    contract,
    contract_via_expression,
    cross_product,
    eval_multilinear_scalar,
    eval_multilinear_vector,
    eval_tensor,
    expression_to_hypermatrix,
    gl2_bracket,
    hypervector_expand,
    kron,
    kron_chain,
    loads_hm,
    mm_stp,
    mv_stp,
    stp_inner,
    stp_norm,
    vec_oplus,
    vec_to_matrix_form,
    vv_stp,
    write_hm,
)
import hyperstp.core as core
from hyperstp.cli import main
from hyperstp.expression import MatrixExpression


def ints(values):
    return np.array([int(v) for v in values], dtype=object)


# -- regressions: each case once changed the scalar kind silently -----------------


@pytest.mark.parametrize(
    "fn, a, b",
    [
        (mm_stp, ints([1, 2, 3, 4]).reshape(2, 2), np.array([[0.5], [1.5]])),
        (mv_stp, ints([1, 2, 3, 4]).reshape(2, 2), np.array([0.5, 1.5, 2.5, 3.5])),
        (vv_stp, ints([1, 2]), np.array([0.5, 1.5, 2.5])),
        (vec_oplus, ints([1, 2]), np.array([0.5, 1.5, 2.5, 3.5])),
    ],
    ids=["mm", "mv", "vv", "oplus"],
)
def test_stp_int_times_float_is_float64(fn, a, b):
    assert getattr(fn(a, b), "dtype", None) == np.float64


def test_hypervector_of_int_and_float_factors_is_float():
    h = hypervector_expand([ints([1, 2]), np.array([0.5, 1.5])])
    assert h.kind == "float" and h.data.dtype == np.float64
    assert list(h.data) == [0.5, 1.5, 1.0, 3.0]


def test_cross_product_of_object_int_vectors_stays_int():
    out = cross_product(ints([1, 0, 0]), ints([0, 1, 0]))
    assert list(out) == [0, 0, 1] and all(type(v) is int for v in out)


def test_float_expression_of_ints_evaluates_to_float64():
    # The kind is the declared one: the expression once evaluated to Python ints.
    m = MatrixExpression([[1, 2], [3, 4]], (1,), (2,), (2, 2), "float")
    got = eval_multilinear_vector(m, [[1, 1]])
    assert got.dtype == np.float64 and got.tolist() == [3.0, 7.0]
    got = eval_multilinear_vector(m, [ints([1, 1])])
    assert got.dtype == np.float64 and got.tolist() == [3.0, 7.0]


def test_vec_to_matrix_form_refuses_float_data_as_int():
    with pytest.raises(TypeError):
        vec_to_matrix_form(np.arange(8.0), (2, 2, 2), (1,), kind="int")


def test_booleans_are_not_scalars():
    with pytest.raises(TypeError):
        Hypermatrix((2,), [True, 1])
    with pytest.raises(TypeError):
        mm_stp(np.array([[True, False]]), ints([1, 2]).reshape(2, 1))


# -- object arrays on the int backend: scanned, never truncated ------------------


@pytest.mark.parametrize("method", ["expression", "stp"])
def test_contract_refuses_a_float_inside_int_data(method):
    # The operand's constructor scans its object data, so the product is never reached.
    b = Hypermatrix.from_flat((3,), [1, 1, 1])
    with pytest.raises(TypeError, match=r"1\.5 at position 2"):
        contract(Hypermatrix((3,), np.array([2, 1.5, 4], dtype=object)), b, (1,), (1,), method)


def test_mm_stp_refuses_a_float_inside_object_ints():
    a = np.array([[1, 2], [3, 1.5]], dtype=object)
    with pytest.raises(TypeError, match=r"1\.5 at position 4"):
        mm_stp(a, ints([1, 1]).reshape(2, 1))
    with pytest.raises(TypeError, match=r"1\.5 at position 4"):
        mm_stp(ints([1, 1]).reshape(1, 2), a)
    # Beside a float operand too: object data is int data, checked before the kinds meet.
    with pytest.raises(TypeError, match=r"float 0\.5 at position 1"):
        mm_stp(np.array([[0.5, 1]], dtype=object), np.ones((2, 1)))


def test_a_boolean_inside_object_ints_is_refused_by_products():
    a = np.array([1, True], dtype=object)
    with pytest.raises(TypeError, match="True at position 2"):
        mm_stp(a.reshape(1, 2), ints([1, 1]).reshape(2, 1))
    with pytest.raises(TypeError, match="True at position 2"):
        contract_via_expression(Hypermatrix((2,), a), Hypermatrix.from_flat((2,), [1, 1]), (1,), (1,))


# Each entry once took an object array as int data unread, so a float or a boolean in it
# came back truncated, or as a float inside an int array.
RAW_ENTRIES = {
    "hypervector_expand": lambda x: hypervector_expand([x]),
    "expression_to_hypermatrix": lambda x: expression_to_hypermatrix(
        MatrixExpression(x.reshape(1, 2), (1,), (2,), (1, 2), "int")
    ),
    "kron": lambda x: kron(ints([1, 2]), x),
    "kron_chain": lambda x: kron_chain([ints([1, 2]), x]),
    "vec_oplus": lambda x: vec_oplus(ints([1, 2]), x),
    "LogicalMatrix.apply": lambda x: LogicalMatrix(2, (2, 1)).apply(x),
    # A caller's object vector, unlike a value's read-only data, is checked even without a kind:
    # the expression it makes is trusted by every reader.
    "vec_to_matrix_form": lambda x: vec_to_matrix_form(x, (2,), ()),
    # The policy itself, asked for either backend: object data is int data.
    "as_scalars": lambda x: as_scalars(x),
    "as_scalars float": lambda x: as_scalars(x, "float"),
    "stp_norm": lambda x: stp_norm(x),
}


@pytest.mark.parametrize("entry", sorted(RAW_ENTRIES))
@pytest.mark.parametrize(
    "bad, message",
    [(0.5, "float 0.5 at position 2 is not an int-backend value"), (True, "True at position 2 is not a scalar")],
    ids=["float", "bool"],
)
def test_raw_object_data_is_checked_where_it_enters(entry, bad, message):
    with pytest.raises(TypeError) as err:
        RAW_ENTRIES[entry](np.array([1, bad], dtype=object))
    assert str(err.value) == message


def test_a_boolean_in_a_list_argument_is_refused_by_a_chain():
    pi = Hypermatrix((2, 3), [1, 2, 3, 4, 5, 6])
    with pytest.raises(TypeError, match="True at position 1 is not a scalar"):
        eval_multilinear_scalar(pi, [[True, 0], [1, 0, 0]])
    omega = Hypermatrix((2, 2), [1, 2, 3, 4])
    for covectors, vectors in (([[True, 0]], [[1, 0]]), ([[1, 0]], [[True, 0]])):
        with pytest.raises(TypeError, match="True at position 1 is not a scalar"):
            eval_tensor(omega, covectors, vectors)


def test_object_data_asked_for_as_float_is_checked_by_the_constructor():
    # Object data is int data whatever backend is asked for: a boolean is never 1.0.
    arr = np.array([True, 0.5], dtype=object)
    for build in (
        lambda: Hypermatrix((2,), arr, "float"),
        lambda: Hypermatrix.from_flat((2,), arr, "float"),
        lambda: Hypermatrix.from_nd(arr, "float"),
    ):
        with pytest.raises(TypeError, match="True at position 1 is not a scalar"):
            build()
    with pytest.raises(TypeError, match=r"float 0\.5 at position 2 is not an int-backend value"):
        Hypermatrix((2,), np.array([1, 0.5], dtype=object), "float")
    h = Hypermatrix((2,), ints([1, 2]), "float")
    assert h.kind == "float" and h.data.tolist() == [1.0, 2.0]


def test_vec_to_matrix_form_checks_object_data_asked_for_a_backend(monkeypatch):
    with pytest.raises(TypeError, match="True at position 1 is not a scalar"):
        vec_to_matrix_form(np.array([True, 0, 0, 1], dtype=object), (2, 2), (1,), kind="float")
    assert vec_to_matrix_form(ints([1, 0, 0, 1]), (2, 2), (1,), kind="float").mat.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    # Without a kind, a value's own data is taken as it stands: no entry is read.
    data, scans = Hypermatrix((2, 2), [1, 2, 3, 4]).data, []
    real = core._scanned
    monkeypatch.setattr(core, "_scanned", lambda arr: scans.append(arr.size) or real(arr))
    assert vec_to_matrix_form(data, (2, 2), (2,)).mat.tolist() == [[1, 3], [2, 4]]
    assert scans == []


def test_vec_to_matrix_form_checks_a_read_only_object_array_that_no_value_handed_out(monkeypatch):
    # A read-only object array is not a value's data: 0.5 must not pass as an int.
    mine = np.array([0.5, 0, 0, 1], dtype=object)
    mine.setflags(write=False)
    for v in (np.broadcast_to(np.array([0.5], dtype=object), (4,)), mine):
        with pytest.raises(TypeError, match=r"0\.5 at position 1"):
            vec_to_matrix_form(v, (2, 2), (1,))
    # A value's own data stays unread, past int64 too, with or without a kind.
    values, scans = (Hypermatrix((2, 2), [1, 2, 3, 4]), Hypermatrix((2, 2), [2 ** 70, 2, 3, 4])), []
    real = core._scanned
    monkeypatch.setattr(core, "_scanned", lambda arr: scans.append(arr.size) or real(arr))
    for h in values:
        assert vec_to_matrix_form(h.data, (2, 2), (2,)).mat.tolist() == [[h.get((1, 1)), 3], [2, 4]]
        assert vec_to_matrix_form(h.data, (2, 2), (2,), kind="float").mat.dtype == np.float64
    assert scans == []


def test_each_raw_operand_is_scanned_once_and_nothing_the_library_made(monkeypatch):
    h = Hypermatrix((2, 2), [1, 2, 3, 4])
    omega = Hypermatrix((2, 2), [1, 2, 3, 4])
    calls = [
        # A value's own data is Python ints by construction: no entry is read.
        (lambda: vv_stp(h.data, h.data), []),
        (lambda: Hypermatrix((4,), h.data), []),
        (lambda: vec_to_matrix_form(h.data, (2, 2), (1,)), []),
        # Each raw operand once; what the library then makes of it is not scanned again.
        (lambda: hypervector_expand([ints([1, 2]), ints([3, 4])], kind="float"), [2, 2]),
        (lambda: cross_product([1.0, 2, 3], [1, 2, 3]), [3, 3]),
        (lambda: eval_tensor(omega, [ints([1, 0])], [np.array([0.5, 1])]), [2]),
        (lambda: mm_stp(ints([1, 2]).reshape(1, 2), np.array([[0.5], [1.0]])), [2]),
    ]
    # The bracket's structure expression is built, and scanned, on the first call alone.
    gl2_bracket([[1, 0], [0, 1]], [[0, 1], [0, 0]])
    calls += [
        # Each matrix once, where it enters; its column stacking is not scanned again, past int64 too.
        (lambda: gl2_bracket(ints([1, 2, 3, 4]).reshape(2, 2), [[0, 1], [0, 0]]), [4, 4]),
        (lambda: gl2_bracket(ints([2 ** 70, 2, 3, 4]).reshape(2, 2), [[0.5, 1], [0, 0]]), [4, 4]),
    ]
    scans, real = [], core._scanned
    monkeypatch.setattr(core, "_scanned", lambda arr: scans.append(arr.size) or real(arr))
    for call, want in calls:
        scans.clear()
        call()
        assert scans == want


def test_a_boolean_in_a_bracket_argument_is_refused():
    with pytest.raises(TypeError, match="True at position 1 is not a scalar"):
        gl2_bracket([[True, 0], [0, 1]], [[0, 1], [0, 0]])
    with pytest.raises(TypeError, match="True at position 2 is not a scalar"):
        gl2_bracket([[0, 1], [0, 0]], [[1, True], [0, 1]])
    # An object matrix is checked where it enters: the position is row-major in the caller's matrix.
    with pytest.raises(TypeError, match=r"float 0\.5 at position 2 "):
        gl2_bracket(np.array([[1, 0.5], [0, 1]], dtype=object), [[0, 1], [0, 0]])
    assert gl2_bracket([[1, 0], [0, 2]], [[0, 1], [0, 0]]).tolist() == [[0, -1], [0, 0]]


_INT64_EDGES = [-(2 ** 63) - 1, -(2 ** 63), 2 ** 63 - 1, 2 ** 63]
_OBJECT_ENTRIES = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from(_INT64_EDGES),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.booleans(),
)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OBJECT_ENTRIES, min_size=1, max_size=6))
def test_the_constructor_scans_int_object_data_once(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    if not all(map(_is_int, values)):
        with pytest.raises(TypeError, match=r"at position \d+") as err:
            Hypermatrix((len(values),), arr)
        pos = int(re.search(r"at position (\d+)", str(err.value)).group(1))
        assert not _is_int(values[pos - 1])
        return
    want = [int(v) for v in values]
    fits = all(-(2 ** 63) <= v < 2 ** 63 for v in want)
    doc = json.dumps({"shape": [len(want)], "data": want, "scalar_kind": "int"})
    for h in (
        Hypermatrix((len(values),), arr),
        Hypermatrix.from_flat((len(values),), arr),
        Hypermatrix.from_nd(arr),
        Hypermatrix.from_nd(list(values)),
        loads_hm(doc),
    ):
        assert h.kind == "int" and (h._int64 is not None) == fits
        if fits:
            assert h._int64.tolist() == h.data.tolist() and not h._int64.flags.writeable
        assert h.data.tolist() == want and all(type(v) is int for v in h.data)


_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_INT_DTYPES).flatmap(
        lambda dt: st.tuples(st.just(dt), st.lists(st.integers(int(np.iinfo(dt).min), int(np.iinfo(dt).max)), min_size=1, max_size=6))
    )
)
@example((np.uint64, [2 ** 64 - 1, 2 ** 63, 0]))
def test_int_arrays_go_to_one_store_with_their_exact_values(case):
    dtype, want = case
    arr = np.array(want, dtype=dtype)
    fits = max(want) < 2 ** 63
    for h in (Hypermatrix(arr.shape, arr), Hypermatrix.from_flat(arr.shape, arr), Hypermatrix.from_nd(arr)):
        # Fits int64: the form alone.  Past it (uint64 only): Python ints, never wrapped.
        assert h.kind == "int" and (h._int64 is not None) == fits and (h._data is None) == fits
        assert not np.shares_memory(h._flat(), arr)
        assert h.data.tolist() == want and all(type(v) is int for v in h.data)


def test_numpy_integers_inside_object_arrays_give_python_ints():
    a = np.array([np.int64(3), np.int32(-4), 5], dtype=object)
    out = mm_stp(a.reshape(1, 3), ints([1, 2, 3]).reshape(3, 1))
    assert out.tolist() == [[10]] and type(out[0, 0]) is int
    big = np.array([np.int64(2 ** 62), np.int64(2 ** 62)], dtype=object)
    total = vv_stp(big, ints([2, 2]))  # 2**64: past int64, exact on Python ints
    assert total == 2 ** 64 and type(total) is int
    hm = contract(Hypermatrix((3,), a), Hypermatrix.from_flat((3,), [1, 1, 1]), (), ())
    assert hm.data.tolist() == [3, 3, 3, -4, -4, -4, 5, 5, 5] and all(type(v) is int for v in hm.data)


@pytest.mark.parametrize("order", [("i", "f"), ("f", "i")])
def test_cli_stp_on_mixed_kinds_is_a_data_error(tmp_path, capsys, order):
    files = {
        "i": Hypermatrix((2, 2), [1, 2, 3, 4], "int"),
        "f": Hypermatrix((2, 2), [1, 2, 3, 4], "float"),
    }
    paths = []
    for key in order:
        paths.append(str(tmp_path / f"{key}.hm"))
        write_hm(files[key], paths[-1])
    assert main(["stp", "--op", "mm", *paths]) == 2
    assert "scalar kind mismatch" in capsys.readouterr().err


# -- properties of the policy ---------------------------------------------------

int_values = st.integers(-(2 ** 70), 2 ** 70)
float_values = st.floats(-1e6, 1e6, allow_nan=False)


@given(st.lists(st.one_of(int_values, float_values), max_size=20))
def test_sequence_kind_rule(values):
    arr, kind = as_scalars(values)
    if all(type(v) is int for v in values):
        assert kind == "int" and arr.dtype == object and all(type(v) is int for v in arr)
        assert list(arr) == values
    else:
        assert kind == "float" and arr.dtype == np.float64
        assert list(arr) == [float(v) for v in values]


@given(
    st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]),
    st.lists(st.integers(0, 100), min_size=1, max_size=10),
)
def test_integer_dtypes_become_python_ints(dtype, values):
    arr, kind = as_scalars(np.array(values, dtype=dtype))
    assert kind == "int" and arr.dtype == object
    assert all(type(v) is int for v in arr) and list(arr) == values


@given(st.sampled_from([np.float16, np.float32, np.float64]), st.lists(st.integers(-100, 100), max_size=10))
def test_float_dtypes_become_float64(dtype, values):
    arr, kind = as_scalars(np.array(values, dtype=dtype))
    assert kind == "float" and arr.dtype == np.float64 and list(arr) == values
    with pytest.raises(TypeError):
        as_scalars(np.array(values, dtype=dtype), "int")


@given(st.lists(int_values, max_size=10), st.integers(0, 10), st.booleans())
def test_a_boolean_anywhere_raises(values, pos, flag):
    values.insert(min(pos, len(values)), flag)
    with pytest.raises(TypeError):
        as_scalars(values)
    with pytest.raises(TypeError):
        as_scalars(np.array([flag]))


@given(st.lists(int_values, max_size=10), st.integers(0, 10), float_values)
def test_float_data_never_converts_to_int(values, pos, x):
    values.insert(min(pos, len(values)), x)
    with pytest.raises(TypeError):
        as_scalars(values, "int")
    converted, kind = as_scalars(values, "float")
    assert kind == "float" and list(converted) == [float(v) for v in values]


@st.composite
def int_matrix(draw, max_dim=4):
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    return ints(draw(st.lists(st.integers(-9, 9), min_size=m * n, max_size=m * n))).reshape(m, n)


@st.composite
def int_vector(draw, max_len=6):
    n = draw(st.integers(1, max_len))
    return ints(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))


def raw_ops(draw):
    """(name, fn, operands) with int operands of compatible shapes."""
    a, x, y = draw(int_matrix()), draw(int_vector()), draw(int_vector())
    return [
        ("mm", mm_stp, (a, draw(int_matrix()))),
        ("mv", mv_stp, (a, x)),
        ("vv", vv_stp, (x, y)),
        ("oplus", vec_oplus, (x, y)),
        ("kron", kron, (a, x)),
        ("chain", lambda *vs: kron_chain(vs), (x, y)),
        ("inner", stp_inner, (x, y)),
        ("apply", LogicalMatrix(len(x), [1 + (5 * j) % len(x) for j in range(len(x))]).apply, (x,)),
    ]


@settings(max_examples=50)
@given(st.data())
def test_int_times_float_equals_the_all_float_computation(data):
    for name, fn, operands in raw_ops(data.draw):
        floated = [op.astype(np.float64) for op in operands]
        want = np.asarray(fn(*floated))
        # every operand in turn on the float backend, the rest left int
        for k in range(len(operands)):
            mixed = [floated[j] if j == k else operands[j] for j in range(len(operands))]
            got = np.asarray(fn(*mixed))
            assert got.dtype == np.float64, name
            assert np.array_equal(got, want), name


@settings(max_examples=50)
@given(st.data())
def test_int_times_int_stays_python_int(data):
    for name, fn, operands in raw_ops(data.draw):
        if name == "inner":
            continue  # exact division may raise; its result type is checked below
        out = np.asarray(fn(*operands), dtype=object).reshape(-1)
        assert all(type(v) is int for v in out), name


def test_inner_on_ints_is_an_int():
    assert type(stp_inner(ints([2, 2]), ints([1, 1, 1]))) is int


def test_joint_promotion():
    (a, b), kind = as_scalars_joint(ints([1]), [2.5])
    assert kind == "float" and a.dtype == b.dtype == np.float64
    (a, b), kind = as_scalars_joint(ints([1]), [2])
    assert kind == "int" and a.dtype == b.dtype == object


def test_declared_kinds_must_match():
    a = Hypermatrix((2,), [1, 2])
    with pytest.raises(ValueError, match="scalar kind mismatch"):
        a.approx_equal(Hypermatrix((2,), [1, 2], "float"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_are_rejected_at_the_core(bad):
    with pytest.raises(ValueError, match="non-finite value .* at position 2"):
        Hypermatrix((2,), [1.0, bad], "float")
    with pytest.raises(ValueError, match="non-finite"):
        mm_stp(np.array([[1.0, bad]]), np.array([[1.0], [2.0]]))


def test_float_contraction_overflowing_to_inf_is_rejected():
    a = Hypermatrix((2,), [1e300, 1e300], "float")
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        contract_via_expression(a, a, (1,), (1,))


# -- algebra on the int backend ------------------------------------------------


@settings(max_examples=100)
@given(int_matrix(), int_matrix(), int_matrix())
def test_mm_stp_is_associative_exactly(a, b, c):
    assert np.array_equal(mm_stp(mm_stp(a, b), c), mm_stp(a, mm_stp(b, c)))
