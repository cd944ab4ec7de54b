"""The checked int product kernel (``core.narrow`` / ``core.checked_product``).

``narrow`` picks a tier from ``max|a| * max|b| * inner``: float64 up to
2**53 (every partial sum is then an integer binary64 holds exactly, and
the product is cast back to int64), int64 up to 2**63 - 1, Python ints
past that.  Each case sits on one side of a bound; results are always
``==`` their Python-int value and ``data`` holds Python ints.  A spy on
``np.dot`` and ``np.matmul`` shows which tier ran, so a kernel that
always falls back cannot pass.  A contraction result keeps the kernel's
int64 product as its int64 form alone, which the next product of a chain
reads without a scan, comparisons read in numpy, and ``data`` widens on
first read; a constructor-built input holds the int64 form its
constructor made after scanning it once.  A float64-tier product is
cast back in its own buffer, and an n = 6 Yang-Baxter side holds two
result-sized arrays at most (four on the ``stp`` route).  Every product measures both of its
int64 factors, counting negative entries; no value keeps a magnitude.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperstp import (
    Hypermatrix,
    YbeInstance,
    binary_apply,
    contract,
    contract_bruteforce,
    contract_via_expression,
    iter_indices,
    loads_hm,
    matrix_expression,
    mm_stp,
    mv_stp,
    sigma_transpose,
    sigma_transpose_via_perm,
    stp_inner,
    vv_stp,
    ybe_residual,
    ybe_sides,
)
from hyperstp import core
from hyperstp.core import narrow, widen

from conftest import random_hm

INT64_MAX = 2 ** 63 - 1
# 2**63 - 1 = 7 * A * B, so a 1 x 7 row of A times a 7 x 1 column of B
# has a bound of exactly 2**63 - 1.
A, B = 7 * 73 * 127 * 337, 92737 * 649657
# 2**53 + 1 = 321 * C, so a single product of 321 and C has a bound of 2**53 + 1.
C = 28059810762433
# NEAR**2 < 2**53 < (NEAR + 1)**2: sums of products near NEAR straddle the float64 tier's bound.
NEAR = 94906265


def ints(values):
    return np.array([int(v) for v in values], dtype=object)


@pytest.fixture
def dots(monkeypatch):
    """The dtypes of the operands of every ``np.dot`` and ``np.matmul`` call."""
    seen = []

    def spy(real):
        def record(a, b, *args):
            seen.append((a.dtype, b.dtype))
            return real(a, b, *args)

        return record

    monkeypatch.setattr(np, "dot", spy(np.dot))
    monkeypatch.setattr(np, "matmul", spy(np.matmul))
    return seen


def python_ints(values) -> bool:
    if not isinstance(values, np.ndarray):
        return type(values) is int
    return all(type(v) is int for v in values.reshape(-1))


def test_bound_exactly_int64_max_takes_int64(dots):
    assert 7 * A * B == INT64_MAX
    *_, tier = narrow(ints([A] * 7), ints([B] * 7), 7)
    assert tier == np.int64
    out = mm_stp(ints([A] * 7).reshape(1, 7), ints([B] * 7).reshape(7, 1))
    assert dots == [(np.int64, np.int64)]
    assert out[0, 0] == INT64_MAX and python_ints(out)


def test_bound_reaching_2_63_stays_on_python_ints(dots):
    *_, tier = narrow(ints([2 ** 31] * 2), ints([2 ** 31] * 2), 2)
    assert tier == object
    out = vv_stp(ints([2 ** 31] * 2), ints([2 ** 31] * 2))
    assert dots == [(object, object)]
    assert out == 2 ** 63 and type(out) is int


def test_operand_beyond_int64_stays_on_python_ints(dots):
    out = mm_stp(ints([10 ** 30, 1]).reshape(1, 2), ints([3, 4]).reshape(2, 1))
    assert dots == [(object, object)]
    assert out[0, 0] == 3 * 10 ** 30 + 4 and python_ints(out)


def test_negative_extremes_count_toward_the_bound():
    # |min| of an int64 array is 2**63, beyond int64 itself.
    *_, tier = narrow(ints([-(2 ** 63)]), ints([1]), 1)
    assert tier == object
    *_, tier = narrow(ints([-(2 ** 62)]), ints([-1]), 1)
    assert tier == np.int64


def test_float_factors_pass_through_untouched():
    a, b = np.ones((2, 3)), np.ones((3, 2))
    na, nb, tier = narrow(a, b, 3)
    assert na is a and nb is b and tier == np.float64
    out = np.dot(a, b)
    assert widen(out) is out
    assert widen(2 ** 70) == 2 ** 70


def test_widen_gives_python_ints():
    assert type(widen(np.int64(5))) is int
    out = widen(np.array([1, -2], dtype=np.int64))
    assert out.dtype == object and python_ints(out)


def rand_ints(rng, *shape):
    return np.array(rng.integers(-9, 10, shape).tolist(), dtype=object)


@pytest.mark.parametrize(
    "a, b, inner, tier",
    [
        ([2 ** 26], [2 ** 27], 1, np.float64),
        ([2 ** 26] * 2, [2 ** 26] * 2, 2, np.float64),
        ([321], [C], 1, np.int64),
        ([NEAR] * 2, [NEAR] * 2, 2, np.int64),
        ([2 ** 31] * 2, [2 ** 31] * 2, 2, object),
    ],
    ids=["2^53", "2^53 over two terms", "2^53 + 1", "2^53 < bound by inner only", "past 2^63 - 1"],
)
def test_each_bound_takes_its_tier(dots, a, b, inner, tier):
    assert len(a) == inner
    *_, got = narrow(ints(a), ints(b), inner)
    assert got == tier
    want = sum(x * y for x, y in zip(a, b))
    out = mm_stp(ints(a).reshape(1, -1), ints(b).reshape(-1, 1))
    assert dots == [(tier, tier)]
    assert out[0, 0] == want and python_ints(out)
    dots.clear()
    h = contract_via_expression(Hypermatrix.from_flat((inner,), a), Hypermatrix.from_flat((inner,), b), (1,), (1,))
    assert dots == [(tier, tier)]
    assert h.to_scalar() == want and python_ints(h.data)
    assert (h._int64 is None) == (tier is object)


def test_a_large_float64_tier_product_is_exact(rng, dots):
    # m * n * k = 96 * 64 * 96 is past the size where a threaded BLAS splits
    # the work; every sum lies within 2**52 of 0 (the bound is exactly 2**52),
    # where binary64 still resolves every integer.
    top = 2 ** 23
    a = np.array(rng.integers(top - 2 ** 10, top + 1, (96, 64)).tolist(), dtype=object)
    b = np.array((rng.integers(top - 2 ** 10, top + 1, (64, 96)) * rng.choice([1, -1], (64, 96))).tolist(), dtype=object)
    a[0, 0], b[0, 0] = top, -top
    out = contract_via_expression(Hypermatrix(a.shape, a), Hypermatrix(b.shape, b), (2,), (1,))
    assert dots == [(np.float64, np.float64)]
    assert out.data.tolist() == np.dot(a, b).reshape(-1).tolist()


def test_every_product_reaches_the_float64_tier(rng, dots):
    a = Hypermatrix.from_flat((3, 4, 2), rand_ints(rng, 24).tolist())
    b = Hypermatrix.from_flat((4, 2, 5), rand_ints(rng, 40).tolist())
    cases = {
        "contract_via_expression": lambda: contract_via_expression(a, b, (2, 3), (1, 2)).data,
        "contract stp": lambda: contract(a, b, (2, 3), (1, 2), "stp").data,
        "mm_stp": lambda: mm_stp(rand_ints(rng, 3, 4), rand_ints(rng, 6, 2)),
        "mv_stp": lambda: mv_stp(rand_ints(rng, 3, 4), rand_ints(rng, 6)),
        "vv_stp": lambda: vv_stp(rand_ints(rng, 4), rand_ints(rng, 6)),
        "stp_inner": lambda: stp_inner(ints([3, 3]), ints([2, 2, 2])),
    }
    for name, run in cases.items():
        dots.clear()
        out = run()
        assert dots and all(d == (np.float64, np.float64) for d in dots), name
        assert python_ints(out), name
    want = contract_bruteforce(a, b, (2, 3), (1, 2))
    assert contract_via_expression(a, b, (2, 3), (1, 2)) == want
    assert contract(a, b, (2, 3), (1, 2), "stp") == want


def test_contraction_near_the_bound_is_exact_on_both_paths():
    big = 3037000499  # big**2 < 2**63 - 1 < (big + 1)**2
    for v in (big, big + 1):
        a = Hypermatrix.from_flat((2,), [v, -v])
        b = Hypermatrix.from_flat((2,), [v, v])
        for method in ("expression", "stp"):
            out = contract(a, b, (), (), method)
            assert out == contract_bruteforce(a, b, (), ())
            assert python_ints(out.data)
        assert contract(a, b, (1,), (1,)).to_scalar() == 0


# -- chained contractions --------------------------------------------------

BIG = 3037000499  # BIG**2 < 2**63 - 1 < 2 * BIG**2


def test_int64_form_is_read_only_and_equals_data(rng):
    a, b = random_hm(rng, (3, 4, 2)), random_hm(rng, (4, 2, 5))
    out = contract_via_expression(a, b, (2, 3), (1, 2))
    form = out._int64
    assert form.dtype == np.int64 and not form.flags.writeable
    with pytest.raises(ValueError):
        form[0] = 1
    assert form.tolist() == list(out.data) and python_ints(out.data)
    # Each constructor-built input holds its int64 form from construction.
    for h in (a, b):
        assert h._int64.dtype == np.int64 and not h._int64.flags.writeable
        assert h._int64.tolist() == h.data.tolist() and python_ints(h.data)
    # Python-int and float products hold no int64 form; float inputs keep none.
    big = Hypermatrix.from_flat((2,), [BIG, BIG])
    assert contract_via_expression(big, big, (1,), (1,))._int64 is None
    floats = Hypermatrix.from_flat((2,), [1.5, 2.0])
    assert contract_via_expression(floats, floats, (1,), (1,))._int64 is None and floats._int64 is None


def test_int64_form_past_the_bound_falls_back_to_python_ints(dots):
    t = contract_via_expression(Hypermatrix.from_flat((2,), [BIG, BIG]), Hypermatrix.from_flat((1,), [1]), (), ())
    assert t._int64 is not None
    # One int64 form meets each tier: bound 2 * BIG, 2**22 * BIG, then 2 * BIG**2.
    for small, tier in (([1, -1], np.float64), ([2 ** 21, -(2 ** 21)], np.int64)):
        dots.clear()
        assert contract_via_expression(t, Hypermatrix.from_flat((2,), small), (1,), (1,)).data.tolist() == [0]
        assert dots == [(tier, tier)]
    dots.clear()
    c = Hypermatrix.from_flat((2,), [BIG, BIG])
    out = contract_via_expression(t, c, (1,), (1,))
    assert dots == [(object, object)]
    assert out.to_scalar() == 2 * BIG ** 2 > INT64_MAX
    assert out == contract_bruteforce(t, c, (1,), (1,)) and python_ints(out.data) and out._int64 is None


def test_data_widens_on_first_read_to_read_only_python_ints(rng):
    a, b = random_hm(rng, (3, 4, 2)), random_hm(rng, (4, 2, 5))
    r = YbeInstance(3, random_hm(rng, (3,) * 4))
    results = [
        contract(a, b, (2, 3), (1, 2), "expression"),
        contract(a, b, (2, 3), (1, 2), "stp"),
        ybe_sides(r, "lhs"),
        ybe_sides(r, "rhs", "stp"),
    ]
    results.append(sigma_transpose(results[2], (3, 1, 2, 6, 4, 5)))
    results.append(sigma_transpose_via_perm(results[3], (2, 3, 1, 5, 6, 4)))
    for h in results:
        assert h._int64 is not None and h._data is None
        data = h.data
        assert data is h.data
        assert data.dtype == object and not data.flags.writeable
        assert all(type(v) is int for v in data) and data.tolist() == h._int64.tolist()
        with pytest.raises(ValueError):
            data[0] = 1


_BUILT = [3, -1, 0, 2 ** 62, -(2 ** 63), 2 ** 63 - 1]


def _built_values(shape, flat):
    """``flat`` built by every public constructor and by ``loads_hm``."""
    nested = np.array(flat, dtype=object).reshape(shape).tolist()
    return [
        Hypermatrix(shape, flat),
        Hypermatrix.from_flat(shape, np.array(flat, dtype=object)),
        Hypermatrix.from_nd(nested),
        Hypermatrix.from_nd(np.array(flat).reshape(shape)),
        loads_hm(json.dumps({"shape": list(shape), "data": flat, "scalar_kind": "int"})),
    ]


_READERS = {
    "data": lambda h: list(h.data),
    "nd": lambda h: list(h.nd.reshape(-1)),
    "get": lambda h: [h.get(idx) for idx in iter_indices(h.dims)],
    "items": lambda h: [v for _, v in h.items()],
    "mat": lambda h: list(matrix_expression(h, rows=(2, 1)).mat.reshape(-1)),
    "to_scalar": lambda h: [h.to_scalar()],
}


@pytest.mark.parametrize("reader", _READERS)
def test_a_built_value_holds_only_its_form_until_data_is_read(reader):
    shape, flat = ((), _BUILT[4:5]) if reader == "to_scalar" else ((2, 3), _BUILT)
    for h in _built_values(shape, flat):
        assert h._int64.tolist() == flat and h._data is None
        got = _READERS[reader](h)
        assert all(type(v) is int for v in got) and sorted(got) == sorted(flat)


def test_equal_values_hash_alike_whichever_form_they_hold(rng):
    a, b = random_hm(rng, (3, 4, 2)), random_hm(rng, (4, 2, 5))
    fast = contract(a, b, (2, 3), (1, 2), "expression")
    stp = contract(a, b, (2, 3), (1, 2), "stp")
    slow = contract_bruteforce(a, b, (2, 3), (1, 2))
    # Every value that fits int64 holds its int64 form alone, a library
    # result built from an object array of Python ints too.
    rebuilt = core._stored(fast.dims, np.array(slow.data), "int")
    assert rebuilt._data is None
    assert all(h._int64 is not None for h in (fast, stp, slow, rebuilt))
    assert fast == stp and fast.approx_equal(stp) and hash(fast) == hash(stp)
    # Comparing and hashing two int64 forms reads them in numpy: neither widens.
    assert fast._data is None and stp._data is None
    assert fast == slow == rebuilt and hash(fast) == hash(slow) == hash(rebuilt)
    assert len({fast, stp, slow, rebuilt}) == 1
    other = contract(a, b, (2, 3), (1, 2), "expression")
    bumped = Hypermatrix(slow.dims, [slow.data[0] + 1, *slow.data[1:]])
    assert other != bumped and bumped != other
    floats = Hypermatrix.from_flat((2,), [0.0, 1.5], "float"), Hypermatrix.from_flat((2,), [-0.0, 1.5], "float")
    assert floats[0] == floats[1] and hash(floats[0]) == hash(floats[1])
    past = [Hypermatrix.from_flat((2,), [2 ** 70, -1]) for _ in range(2)]
    assert past[0] == past[1] and hash(past[0]) == hash(past[1])


def test_a_second_hash_reads_no_data(rng, monkeypatch):
    a, b = random_hm(rng, (3, 4, 2)), random_hm(rng, (4, 2, 5))
    values = [
        contract(a, b, (2, 3), (1, 2)),
        contract_bruteforce(a, b, (2, 3), (1, 2)),
        Hypermatrix.from_flat((2,), [2 ** 70, -1]),
        Hypermatrix.from_flat((2,), [0.5, 1.5], "float"),
    ]
    first = [hash(h) for h in values]

    def unread(*_):
        raise AssertionError("hash read the entries again")

    monkeypatch.setattr(Hypermatrix, "_flat", unread)
    monkeypatch.setattr(Hypermatrix, "data", property(unread))
    assert [hash(h) for h in values] == first


@st.composite
def _operand(draw, dims):
    """Values |v| <= 9, or all near 2**26.5 or 2**31.5, so a product with it may take any of the three tiers."""
    size = math.prod(dims)
    near = draw(st.sampled_from([None, NEAR, BIG]))
    if near is None:
        values = st.integers(-9, 9)
    else:
        values = st.builds(lambda v, sign: sign * v, st.integers(near - 9, near + 9), st.sampled_from([1, -1]))
    return Hypermatrix(dims, draw(st.lists(values, min_size=size, max_size=size)))


@st.composite
def contraction_chains(draw):
    """A first operand and two or three steps (operand, its pairing, which side the chain sits on).

    Operands have order 1-4 and dims 1-3; each result has order 4 at most.
    """
    first = draw(_operand(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))))
    dims, steps = first.dims, []
    for _ in range(draw(st.integers(2, 3))):
        order = draw(st.integers(1, 4))
        k = draw(st.integers(max(0, math.ceil((len(dims) + order - 4) / 2)), min(len(dims), order)))
        acc_axes = tuple(draw(st.permutations(range(1, len(dims) + 1)))[:k])
        new_axes = tuple(draw(st.permutations(range(1, order + 1)))[:k])
        new_dims = [draw(st.integers(1, 3)) for _ in range(order)]
        for x, y in zip(acc_axes, new_axes):
            new_dims[y - 1] = dims[x - 1]
        new = draw(_operand(tuple(new_dims)))
        acc_first = draw(st.booleans())
        steps.append((new, acc_axes, new_axes, acc_first))
        acc_free = [n for x, n in enumerate(dims, start=1) if x not in acc_axes]
        new_free = [n for y, n in enumerate(new_dims, start=1) if y not in new_axes]
        dims = tuple(acc_free + new_free if acc_first else new_free + acc_free)
    return first, steps


@settings(max_examples=150, deadline=None)
@given(contraction_chains())
def test_chained_contractions_equal_the_bruteforce_chain(chain):
    first, steps = chain
    fast = slow = first
    for new, acc_axes, new_axes, acc_first in steps:
        if acc_first:
            fast = contract_via_expression(fast, new, acc_axes, new_axes)
            slow = contract_bruteforce(slow, new, acc_axes, new_axes)
        else:
            fast = contract_via_expression(new, fast, new_axes, acc_axes)
            slow = contract_bruteforce(new, slow, new_axes, acc_axes)
        assert fast == slow and python_ints(fast.data)
        assert fast._int64 is None or fast._int64.tolist() == fast.data.tolist()


def watch_scans(monkeypatch) -> list:
    """From now on, the sizes of the arrays ``core._scanned`` reads."""
    seen = []
    real = core._scanned
    monkeypatch.setattr(core, "_scanned", lambda arr: seen.append(arr.size) or real(arr))
    return seen


def test_products_of_built_values_scan_nothing(rng, monkeypatch):
    insts = [YbeInstance(6, random_hm(rng, (6,) * 4)) for _ in range(2)]
    a, b, c = random_hm(rng, (3,) * 6), random_hm(rng, (3, 3)), random_hm(rng, (3, 3))
    past, small = Hypermatrix.from_flat((3,), [2 ** 63, 1, 1]), Hypermatrix.from_flat((2,), [1, 1])
    # The constructor scanned every input once; products scan nothing more.
    scans = watch_scans(monkeypatch)
    for method in ("matrix", "stp"):
        ybe_residual(insts[0], method)
        for side in ("lhs", "rhs"):
            ybe_sides(insts[1], side, method)
        contract(binary_apply(a, b, c), b, (1, 2), (1, 2), method)
    assert scans == []
    # A value past int64 keeps no form, but its object store was checked when it was built.
    for method in ("expression", "stp"):
        contract(past, small, (), (), method)
    assert scans == []


def test_library_results_are_filled_without_a_scan(monkeypatch):
    a, b = Hypermatrix((2, 3), [1, -2, 3, 4, 5, -6]), Hypermatrix((3, 3), list(range(-4, 5)))
    past = Hypermatrix((2,), [2 ** 63, -1])
    hot = Hypermatrix((2,), [1e200, 1.0], "float")
    scans = watch_scans(monkeypatch)
    # The oracle's sums are Python ints by construction, and zeros are int64 zeros: neither is scanned.
    out = contract_bruteforce(a, b, (2,), (1,))
    zeros = [Hypermatrix.zeros((3, 3)), Hypermatrix.zeros((2,), "float")]
    wide = contract_bruteforce(past, past, (), ())
    assert scans == []
    assert out == contract_via_expression(a, b, (2,), (1,)) and out.size == 6
    assert [z.data.tolist() for z in zeros] == [[0] * 9, [0.0, 0.0]] and zeros[1].data.dtype == np.float64
    assert wide._int64 is None and wide.data.tolist() == [2 ** 126, -(2 ** 63), -(2 ** 63), 1]
    # A float sum that overflows is still refused where the result is filled.
    with pytest.raises(ValueError, match="non-finite value inf at position 1"):
        contract_bruteforce(hot, hot, (), ())
    with pytest.raises(ValueError, match="unknown scalar kind 'complex'"):
        Hypermatrix.zeros((2,), "complex")


def test_gathers_transposes_and_equality_scan_nothing(rng, monkeypatch):
    a = random_hm(rng, (2, 3, 4))
    same = Hypermatrix(a.dims, list(a.data))
    scans = watch_scans(monkeypatch)
    gathered = [sigma_transpose_via_perm(a, (3, 1, 2)), sigma_transpose(a, (2, 3, 1))]
    matrix_expression(a, rows=(3, 1))
    assert a == same
    assert scans == [] and a._int64.tolist() == same._int64.tolist() == a.data.tolist()
    # A gather of an int64 form is an int64 form.
    assert all(h._int64 is not None for h in gathered)


@pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0)], ids=["float", "bool", "np.float64"])
def test_a_failed_scan_keeps_nothing_so_every_product_raises(bad):
    # The constructor scans int object data, so no value, and no product, ever holds ``bad``.
    data = np.array([2, bad, 4], dtype=object)
    for build in (Hypermatrix, Hypermatrix.from_flat):
        with pytest.raises(TypeError, match="at position 2"):
            build((3,), data)
    with pytest.raises(TypeError, match="at position 2"):
        Hypermatrix.from_nd(data)
    assert data[1] is bad


def test_a_value_past_int64_keeps_nothing_and_stays_exact(dots):
    past = Hypermatrix.from_flat((2,), [2 ** 63, -3])
    small = Hypermatrix.from_flat((2,), [1, 2])
    for _ in range(2):
        for method in ("expression", "stp"):
            dots.clear()
            assert contract(past, small, (1,), (1,), method).to_scalar() == 2 ** 63 - 6
            assert contract(small, past, (1,), (1,), method).to_scalar() == 2 ** 63 - 6
            assert dots == [(object, object)] * 2
        assert past._int64 is None and python_ints(past.data)
    assert small._int64 is not None and small._int64.tolist() == [1, 2]


def test_a_float64_tier_product_is_cast_back_in_its_own_buffer(rng, monkeypatch):
    products = []

    def spy(real):
        def record(*args):
            products.append(real(*args))
            return products[-1]

        return record

    monkeypatch.setattr(np, "dot", spy(np.dot))
    a, b = random_hm(rng, (3, 4, 2)), random_hm(rng, (4, 2, 5))
    out = contract_via_expression(a, b, (2, 3), (1, 2))
    assert [p.dtype for p in products] == [np.float64]
    assert out._int64.dtype == np.int64 and np.shares_memory(out._int64, products[0])
    assert out == contract_bruteforce(a, b, (2, 3), (1, 2))


@pytest.mark.parametrize("side, budget", [("lhs", 2.1), ("rhs", 2.1), ("residual", 3.1)])
def test_an_n6_yang_baxter_product_stays_within_its_allocation_budget(rng, side, budget):
    # In results of 6**6 int64 entries: the batched product W and the dot's
    # result, cast back in its own buffer, make two; the residual also holds
    # the first side while the second is made, then the difference in one buffer.
    inst = YbeInstance(6, random_hm(rng, (6,) * 4))
    run = (lambda: ybe_residual(inst)) if side == "residual" else (lambda: ybe_sides(inst, side))
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget * 6 ** 6 * 8


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_an_n6_stp_route_side_stays_within_its_allocation_budget(rng, side):
    # In results of 6**6 int64 entries: t, its gather into M_A, that gather
    # in float64 and the product make four; no factor is repeated.
    inst = YbeInstance(6, random_hm(rng, (6,) * 4))
    tracemalloc.start()
    try:
        ybe_sides(inst, side, "stp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * 6 ** 6 * 8


@pytest.fixture
def measured(monkeypatch):
    """The sizes of the arrays ``core._magnitude`` measures."""
    seen = []
    real = core._magnitude

    def spy(arr):
        seen.append(arr.size)
        return real(arr)

    monkeypatch.setattr(core, "_magnitude", spy)
    return seen


def test_each_product_measures_its_own_int64_factors(rng, measured):
    # matrix: each side's chain bound reads r, the wrap check both sides.
    # stp: t = r (4)x(1) r reads r twice, each side reads t and r, then the wrap check.
    for method, sizes in (("matrix", [81, 81, 729, 729]), ("stp", [81] * 4 + [729] * 4)):
        measured.clear()
        ybe_residual(YbeInstance(3, random_hm(rng, (3,) * 4)), method)
        assert sorted(measured) == sizes, method


def test_a_kept_magnitude_counts_negative_entries(dots):
    # C * 321 = 2**53 + 1, so a's magnitude C puts this product on int64;
    # measured by its largest entry (1) it would take the float64 tier, which rounds.
    a = Hypermatrix.from_flat((2, 2), [-C, 1, 0, 1])
    b = Hypermatrix.from_flat((2,), [321, 0])
    for method in ("expression", "stp"):
        dots.clear()
        assert contract(a, b, (1,), (1,), method).data.tolist() == [-(2 ** 53 + 1), 321]
        assert dots == [(np.int64, np.int64)], method
    # A gather's product measures the gathered entries, -C among them, so it stays on int64 too.
    for gather in (sigma_transpose, sigma_transpose_via_perm):
        for method in ("expression", "stp"):
            t = gather(a, (2, 1))
            dots.clear()
            assert contract(t, b, (2,), (1,), method).data.tolist() == [-(2 ** 53 + 1), 321]
            assert dots == [(np.int64, np.int64)], (gather, method)
