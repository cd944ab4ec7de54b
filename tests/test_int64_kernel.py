"""The checked int64 product kernel (``core.narrow`` / ``core.widen``).

Int products run on int64 only when ``max|a| * max|b| * inner`` proves
that no partial sum can pass 2**63 - 1, and on Python ints otherwise.
Each case sits on one side of that bound; results are always ``==``
their Python-int value and hold Python ints.  A spy on ``np.dot`` and
``np.matmul`` shows which path ran, so a kernel that always falls back
cannot pass.  A contraction result keeps the kernel's int64 product as
its int64 form, which the next product of a chain reads without a scan.
"""

import math

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
    mm_stp,
    mv_stp,
    stp_inner,
    vv_stp,
    ybe_sides,
)
from hyperstp import core
from hyperstp.core import narrow, widen

from conftest import random_hm

INT64_MAX = 2 ** 63 - 1
# 2**63 - 1 = 7 * A * B, so a 1 x 7 row of A times a 7 x 1 column of B
# has a bound of exactly 2**63 - 1.
A, B = 7 * 73 * 127 * 337, 92737 * 649657


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
    a, b = narrow(ints([A] * 7), ints([B] * 7), 7)
    assert a.dtype == b.dtype == np.int64
    out = mm_stp(ints([A] * 7).reshape(1, 7), ints([B] * 7).reshape(7, 1))
    assert dots == [(np.int64, np.int64)]
    assert out[0, 0] == INT64_MAX and python_ints(out)


def test_bound_reaching_2_63_stays_on_python_ints(dots):
    a, b = narrow(ints([2 ** 31] * 2), ints([2 ** 31] * 2), 2)
    assert a.dtype == b.dtype == object
    out = vv_stp(ints([2 ** 31] * 2), ints([2 ** 31] * 2))
    assert dots == [(object, object)]
    assert out == 2 ** 63 and type(out) is int


def test_operand_beyond_int64_stays_on_python_ints(dots):
    out = mm_stp(ints([10 ** 30, 1]).reshape(1, 2), ints([3, 4]).reshape(2, 1))
    assert dots == [(object, object)]
    assert out[0, 0] == 3 * 10 ** 30 + 4 and python_ints(out)


def test_negative_extremes_count_toward_the_bound():
    # |min| of an int64 array is 2**63, beyond int64 itself.
    a, b = narrow(ints([-(2 ** 63)]), ints([1]), 1)
    assert a.dtype == object
    a, b = narrow(ints([-(2 ** 62)]), ints([-1]), 1)
    assert a.dtype == np.int64


def test_float_factors_pass_through_untouched():
    a, b = np.ones((2, 3)), np.ones((3, 2))
    na, nb = narrow(a, b, 3)
    assert na is a and nb is b
    out = np.dot(a, b)
    assert widen(out) is out
    assert widen(2 ** 70) == 2 ** 70


def test_widen_gives_python_ints():
    assert type(widen(np.int64(5))) is int
    out = widen(np.array([1, -2], dtype=np.int64))
    assert out.dtype == object and python_ints(out)


def rand_ints(rng, *shape):
    return np.array(rng.integers(-9, 10, shape).tolist(), dtype=object)


def test_every_product_reaches_np_dot_on_int64(rng, dots):
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
        assert dots and all(d == (np.int64, np.int64) for d in dots), name
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
    assert a._int64 is None and b._int64 is None
    # Python-int and float products hold no int64 form.
    big = Hypermatrix.from_flat((2,), [BIG, BIG])
    assert contract_via_expression(big, big, (1,), (1,))._int64 is None
    floats = Hypermatrix.from_flat((2,), [1.5, 2.0])
    assert contract_via_expression(floats, floats, (1,), (1,))._int64 is None


def test_int64_form_past_the_bound_falls_back_to_python_ints(dots):
    t = contract_via_expression(Hypermatrix.from_flat((2,), [BIG, BIG]), Hypermatrix.from_flat((1,), [1]), (), ())
    assert t._int64 is not None
    dots.clear()
    small = Hypermatrix.from_flat((2,), [1, -1])
    assert contract_via_expression(t, small, (1,), (1,)).data.tolist() == [0]
    assert dots == [(np.int64, np.int64)]
    dots.clear()
    c = Hypermatrix.from_flat((2,), [BIG, BIG])
    out = contract_via_expression(t, c, (1,), (1,))
    assert dots == [(object, object)]
    assert out.to_scalar() == 2 * BIG ** 2 > INT64_MAX
    assert out == contract_bruteforce(t, c, (1,), (1,)) and python_ints(out.data) and out._int64 is None


@st.composite
def _operand(draw, dims):
    """Values |v| <= 9, or all near 2**31.5 so a product with it may pass the bound."""
    size = math.prod(dims)
    if draw(st.booleans()):
        values = st.integers(-9, 9)
    else:
        values = st.builds(lambda v, sign: sign * v, st.integers(BIG - 9, BIG + 9), st.sampled_from([1, -1]))
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


@pytest.fixture
def scans(monkeypatch):
    """The sizes of the arrays ``core._scanned`` reads."""
    seen = []
    real = core._scanned

    def spy(arr):
        seen.append(arr.size)
        return real(arr)

    monkeypatch.setattr(core, "_scanned", spy)
    return seen


def test_chained_products_scan_their_inputs_only(rng, scans):
    r = random_hm(rng, (6,) * 4)
    for side in ("lhs", "rhs"):
        scans.clear()
        ybe_sides(YbeInstance(6, r), side)
        assert scans and set(scans) == {r.size}, side
    a, b, c = random_hm(rng, (3,) * 6), random_hm(rng, (3, 3)), random_hm(rng, (3, 3))
    scans.clear()
    binary_apply(a, b, c)
    assert scans and set(scans) <= {a.size, b.size}
