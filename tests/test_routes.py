"""Production paths run on the fast route; the oracles only check them."""

import pytest

import hyperstp.applications as applications
import hyperstp.contraction as contraction
from hyperstp import YbeInstance, binary_apply, contract_bruteforce, kary_apply, unary_apply, ybe_residual, ybe_sides

from conftest import random_hm


@pytest.fixture
def no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a production path called the brute-force oracle")

    for module in (contraction, applications):
        monkeypatch.setattr(module, "contract_bruteforce", refuse)


def test_block_operators_and_ybe_residual_skip_the_oracle(rng, no_oracle):
    a = random_hm(rng, (2, 3) * 3)
    b, c = random_hm(rng, (2, 3)), random_hm(rng, (2, 3))
    unary_apply(random_hm(rng, (2, 3) * 2), b)
    binary_apply(a, b, c)
    kary_apply(a, [b, c])
    ybe_residual(YbeInstance(2, random_hm(rng, (2,) * 4)))
    ybe_sides(YbeInstance(2, random_hm(rng, (2,) * 4)), "lhs")


@pytest.mark.parametrize("kind", ["int", "float"])
def test_ybe_residual_matches_the_brute_force_sides(rng, kind):
    for n in (2, 3):
        inst = YbeInstance(n, random_hm(rng, (n,) * 4, lo=-3, hi=3, kind=kind))
        lhs, rhs = ybe_sides(inst, "lhs", "bruteforce"), ybe_sides(inst, "rhs", "bruteforce")
        want = max(abs(x - y) for x, y in zip(lhs.data, rhs.data))
        expected = pytest.approx(want, rel=1e-9, abs=1e-12) if kind == "float" else want
        assert ybe_residual(inst) == expected
