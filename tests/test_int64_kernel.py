"""The checked int64 product kernel (``core.narrow`` / ``core.widen``).

Int products run on int64 only when ``max|a| * max|b| * inner`` proves
that no partial sum can pass 2**63 - 1, and on Python ints otherwise.
Each case sits on one side of that bound; results are always ``==``
their Python-int value and hold Python ints.  A spy on ``np.dot`` shows
which path ran, so a kernel that always falls back cannot pass.
"""

import numpy as np
import pytest

from hyperstp import (
    Hypermatrix,
    contract,
    contract_bruteforce,
    contract_via_expression,
    mm_stp,
    mv_stp,
    stp_inner,
    vv_stp,
)
from hyperstp.core import narrow, widen

INT64_MAX = 2 ** 63 - 1
# 2**63 - 1 = 7 * A * B, so a 1 x 7 row of A times a 7 x 1 column of B
# has a bound of exactly 2**63 - 1.
A, B = 7 * 73 * 127 * 337, 92737 * 649657


def ints(values):
    return np.array([int(v) for v in values], dtype=object)


@pytest.fixture
def dots(monkeypatch):
    """The dtypes of the operands of every ``np.dot`` call."""
    seen = []
    real = np.dot

    def spy(a, b, *args):
        seen.append((a.dtype, b.dtype))
        return real(a, b, *args)

    monkeypatch.setattr(np, "dot", spy)
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


def test_lcm_padding_is_built_on_int64(monkeypatch):
    kron_dtypes = []
    real = np.kron

    def spy(a, b):
        kron_dtypes.append(a.dtype)
        return real(a, b)

    monkeypatch.setattr(np, "kron", spy)
    a = ints(range(6)).reshape(2, 3)
    out = mm_stp(a, ints(range(4)).reshape(2, 2))
    assert kron_dtypes == [np.int64, np.int64]
    want = np.kron(a.astype(np.int64), np.eye(2, dtype=np.int64)) @ np.kron(
        np.arange(4).reshape(2, 2), np.eye(3, dtype=np.int64)
    )
    assert out.tolist() == want.tolist() and python_ints(out)


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
