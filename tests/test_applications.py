import numpy as np
import pytest

from hyperstp import (
    GamePayoff,
    Hypermatrix,
    YbeInstance,
    cross_product,
    cross_product_expression,
    game_payoff,
    gl2_bracket,
    gl2_published_errata,
    gl2_published_matrix,
    gl2_structure_matrix,
    ybe_residual,
    ybe_sides,
)

from conftest import basis_vec, random_hm


def classical_cross(x, y):
    return np.array(
        [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]
    )


# -- cross product -----------------------------------------------------------


def test_cross_basis_cases():
    assert list(cross_product(basis_vec(3, 1), basis_vec(3, 2))) == [0, 0, 1]
    assert list(cross_product([1, 0, 0], [0, 0, 1])) == [0, -1, 0]


def test_cross_self_is_zero(rng):
    x = rng.uniform(-2, 2, 3)
    assert np.max(np.abs(cross_product(x, x))) <= 1e-12


def test_cross_matches_component_formula(rng):
    for _ in range(100):
        x = rng.uniform(-5, 5, 3)
        y = rng.uniform(-5, 5, 3)
        got = np.asarray(cross_product(x, y), dtype=np.float64)
        assert np.max(np.abs(got - classical_cross(x, y))) <= 1e-12


def test_cross_bilinear_antisymmetric(rng):
    x, y, z = (rng.uniform(-2, 2, 3) for _ in range(3))
    lhs = cross_product(x + 2 * y, z)
    rhs = np.asarray(cross_product(x, z)) + 2 * np.asarray(cross_product(y, z))
    assert np.max(np.abs(np.asarray(lhs) - rhs)) <= 1e-12
    assert np.max(np.abs(np.asarray(cross_product(x, y)) + np.asarray(cross_product(y, x)))) <= 1e-12


def test_cross_fixture_shape():
    m = cross_product_expression()
    assert m.mat.shape == (3, 9) and m.row_axes == (1,) and m.col_axes == (2, 3)


# -- bracket on 2x2 matrices ---------------------------------------------------


def rand_int22(rng):
    return np.array([[int(v) for v in row] for row in rng.integers(-9, 10, (2, 2))], dtype=object)


def test_bracket_of_basis_pair():
    e11 = np.array([[1, 0], [0, 0]], dtype=object)
    e12 = np.array([[0, 1], [0, 0]], dtype=object)
    assert gl2_bracket(e11, e12).tolist() == e12.tolist()


def test_bracket_self_is_zero(rng):
    x = rand_int22(rng)
    assert gl2_bracket(x, x).tolist() == [[0, 0], [0, 0]]


def test_bracket_equals_commutator(rng):
    for _ in range(100):
        x, y = rand_int22(rng), rand_int22(rng)
        assert gl2_bracket(x, y).tolist() == (np.dot(x, y) - np.dot(y, x)).tolist()


def test_bracket_jacobi(rng):
    for _ in range(20):
        x, y, z = rand_int22(rng), rand_int22(rng), rand_int22(rng)
        total = (
            gl2_bracket(x, gl2_bracket(y, z))
            + gl2_bracket(y, gl2_bracket(z, x))
            + gl2_bracket(z, gl2_bracket(x, y))
        )
        assert total.tolist() == [[0, 0], [0, 0]]


def test_published_table_errata_documented():
    # four columns of the published table deviate from the commutator
    errata = gl2_published_errata()
    assert [e["column"] for e in errata] == [7, 8, 10, 14]
    by_col = {e["column"]: e for e in errata}
    assert by_col[7]["published"] == (1, 0, 0, -4) and by_col[7]["derived"] == (1, 0, 0, -1)
    assert by_col[10]["published"] == (-1, 0, 0, 4) and by_col[10]["derived"] == (-1, 0, 0, 1)
    assert by_col[8]["published"] == (0, 0, 0, 0) and by_col[8]["derived"] == (0, 1, 0, 0)
    assert by_col[14]["published"] == (0, 0, 0, 0) and by_col[14]["derived"] == (0, -1, 0, 0)


def test_published_matrix_is_not_used_for_evaluation():
    assert not np.array_equal(gl2_published_matrix(), gl2_structure_matrix())


# -- finite games ----------------------------------------------------------------


def test_pure_strategy_reads_entries(rng):
    counts = (2, 3)
    payoffs = tuple(random_hm(rng, counts) for _ in range(2))
    game = GamePayoff(counts, payoffs)
    for j1 in (1, 2):
        for j2 in (1, 2, 3):
            xs = [basis_vec(2, j1), basis_vec(3, j2)]
            got = game_payoff(game, xs)
            assert got == [p.get((j1, j2)) for p in payoffs]


def test_single_player_game():
    game = GamePayoff((3,), (Hypermatrix.from_flat((3,), [1, 2, 3]),))
    assert game_payoff(game, [basis_vec(3, 2)]) == [2]


def test_uniform_mixed_strategy_is_average(rng):
    counts = (2, 2)
    d = Hypermatrix.from_flat(counts, [1.0, 2.0, 3.0, 6.0], "float")
    game = GamePayoff(counts, (d,))
    xs = [np.full(2, 0.5), np.full(2, 0.5)]
    got = game_payoff(game, xs)[0]
    assert got == pytest.approx(3.0, abs=1e-12)


def test_game_validation(rng):
    with pytest.raises(ValueError):
        GamePayoff((2, 2), (random_hm(rng, (2, 3)),))
    game = GamePayoff((2, 2), (random_hm(rng, (2, 2)),))
    with pytest.raises(ValueError):
        game_payoff(game, [basis_vec(2, 1)])


# -- Yang-Baxter -------------------------------------------------------------------


def test_ybe_methods_agree_exact_int(rng):
    for n in (2, 3):
        for _ in range(3):
            r = random_hm(rng, (n,) * 4, lo=-3, hi=3)
            inst = YbeInstance(n, r)
            for side in ("lhs", "rhs"):
                assert ybe_sides(inst, side, "matrix") == ybe_sides(inst, side, "bruteforce")


def test_ybe_stp_route_matches_matrix_route(rng):
    for n in (2, 3, 4, 6):
        inst = YbeInstance(n, random_hm(rng, (n,) * 4, lo=-3, hi=3))
        for side in ("lhs", "rhs"):
            assert ybe_sides(inst, side, "stp") == ybe_sides(inst, side, "matrix")


def test_ybe_zero_instance(rng):
    inst = YbeInstance(2, Hypermatrix.zeros((2,) * 4))
    for side in ("lhs", "rhs"):
        assert all(v == 0 for v in ybe_sides(inst, side).data)
    assert ybe_residual(inst) == 0


def test_ybe_float_methods_agree(rng):
    r = random_hm(rng, (3,) * 4, kind="float", lo=-1, hi=1)
    inst = YbeInstance(3, r)
    for side in ("lhs", "rhs"):
        a = ybe_sides(inst, side, "bruteforce")
        b = ybe_sides(inst, side, "matrix")
        assert a.approx_equal(b, 1e-9)


def test_ybe_residual_generally_nonzero(rng):
    r = random_hm(rng, (2,) * 4)
    residual = ybe_residual(YbeInstance(2, r))
    assert residual > 0  # the constraint is not an identity


def test_ybe_residual_methods_agree_float(rng):
    r = random_hm(rng, (2,) * 4, kind="float", lo=-1, hi=1)
    inst = YbeInstance(2, r)
    lhs_b = ybe_sides(inst, "lhs", "bruteforce")
    rhs_b = ybe_sides(inst, "rhs", "bruteforce")
    res_b = max(abs(a - b) for a, b in zip(lhs_b.data, rhs_b.data))
    res_m = ybe_residual(inst)
    assert res_m == pytest.approx(res_b, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "rule",
    [lambda i, j, k, l: 1, lambda i, j, k, l: int(i == j == k == l)],
    ids=["all-ones", "diagonal"],
)
def test_ybe_known_solutions_have_zero_residual(rule):
    n = 2
    data = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    data.append(rule(i, j, k, l))
    inst = YbeInstance(n, Hypermatrix.from_flat((n,) * 4, data))
    assert ybe_residual(inst) == 0


def test_ybe_validation(rng):
    with pytest.raises(ValueError):
        YbeInstance(2, random_hm(rng, (2, 2, 2)))
    inst = YbeInstance(2, random_hm(rng, (2,) * 4))
    with pytest.raises(ValueError):
        ybe_sides(inst, "both")
    with pytest.raises(ValueError):
        ybe_sides(inst, "lhs", "magic")
