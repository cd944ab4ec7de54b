"""Production paths run on the fast route; the oracles only check them."""

from itertools import permutations

import numpy as np
import pytest

import hyperstp.contraction as contraction
from hyperstp import (
    Permutation,
    YbeInstance,
    binary_apply,
    contract,
    contract_bruteforce,
    convert_expression,
    kary_apply,
    matrix_expression,
    matrix_form_to_vec,
    mm_stp,
    mv_stp,
    onto_contract,
    sigma_transpose,
    sigma_transpose_via_perm,
    stp_inner,
    unary_apply,
    vec_oplus,
    vec_to_matrix_form,
    vv_stp,
    ybe_residual,
    ybe_sides,
)

from conftest import kron_pad, random_hm, stp_oracle


@pytest.fixture
def no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a production path called the brute-force oracle")

    monkeypatch.setattr(contraction, "contract_bruteforce", refuse)


def test_block_operators_and_ybe_residual_skip_the_oracle(rng, no_oracle):
    a = random_hm(rng, (2, 3) * 3)
    b, c = random_hm(rng, (2, 3)), random_hm(rng, (2, 3))
    for method in ("expression", "stp"):
        onto_contract(a, b, (3, 4), method)
    contract(a, b, (3, 4), (1, 2))
    with pytest.raises(AssertionError, match="oracle"):
        contract(a, b, (3, 4), (1, 2), "brute")
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


def test_permutation_route_never_calls_np_transpose(rng, monkeypatch):
    a = random_hm(rng, (2, 3, 5))
    b = random_hm(rng, (2, 5))
    splits = [(rows, cols) for p in permutations((1, 2, 3)) for rows, cols in ((p[:1], p[1:]), (p[:2], p[2:]))]
    direct = {split: matrix_expression(a, *split) for split in splits}
    transposed = {p: sigma_transpose(a, Permutation(p)) for p in permutations((1, 2, 3))}
    onto = onto_contract(a, b, (1, 3), "expression")
    c = random_hm(rng, (5, 4, 2))
    general = contract_bruteforce(a, c, (3, 1), (1, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("np.transpose called on the permutation-matrix route")

    monkeypatch.setattr(np, "transpose", refuse)
    for (rows, cols), m in direct.items():
        assert np.array_equal(vec_to_matrix_form(a.data, a.dims, rows).mat, direct[rows, tuple(sorted(cols))].mat)
        assert list(matrix_form_to_vec(m)) == list(a.data)
        for rows2, cols2 in splits:
            if cols2 == tuple(sorted(cols2)):
                assert np.array_equal(convert_expression(m, rows2).mat, direct[rows2, cols2].mat)
    for p, t in transposed.items():
        assert sigma_transpose_via_perm(a, Permutation(p)) == t
    assert onto_contract(a, b, (1, 3), "stp") == onto
    assert contract(a, c, (3, 1), (1, 3), "stp") == general


def test_semi_tensor_products_build_no_kronecker_padding(rng, monkeypatch):
    def ints(*shape):
        return np.array(rng.integers(-9, 10, shape).tolist(), dtype=object)

    a, b, x, y = ints(3, 4), ints(6, 2), ints(6), ints(4)
    products = {
        mm_stp: ((a, b), stp_oracle(a, b)),
        mv_stp: ((a, x), stp_oracle(a, x)),
        vv_stp: ((y, x), stp_oracle(y, x)),
        stp_inner: ((6 * y, 2 * x), stp_oracle(y, x)),  # t = 12 divides 12 * raw
        vec_oplus: ((y, x), kron_pad(y, 3) + kron_pad(x, 2)),
    }
    c, d = random_hm(rng, (3, 4, 2)), random_hm(rng, (4, 2, 5))
    inst = YbeInstance(6, random_hm(rng, (6,) * 4, lo=-3, hi=3))
    want = {side: ybe_sides(inst, side, "matrix") for side in ("lhs", "rhs")}

    def refuse(*args, **kwargs):
        raise AssertionError("np.kron called by a semi-tensor product")

    monkeypatch.setattr(np, "kron", refuse)
    for product, (args, expected) in products.items():
        assert np.array_equal(product(*args), expected), product.__name__
    assert contract(c, d, (2, 3), (1, 2), "stp") == contract(c, d, (2, 3), (1, 2), "expression")
    for side, expected in want.items():
        assert ybe_sides(inst, side, "stp") == expected
