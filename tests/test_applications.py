import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperstp.applications as applications
import hyperstp.core as core
from hyperstp import (
    GamePayoff,
    Hypermatrix,
    YbeInstance,
    cross_product,
    cross_product_expression,
    eval_multilinear_scalar,
    game_payoff,
    gl2_bracket,
    gl2_published_errata,
    gl2_published_matrix,
    gl2_structure_matrix,
    matrix_expression,
    vc,
    vcs,
    ybe_residual,
    ybe_sides,
)

from conftest import assert_same_result, basis_vec, random_hm, signed, stp_chain, tier_values


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


def test_a_changed_structure_matrix_leaves_the_next_bracket_alone():
    e11 = np.array([[1, 0], [0, 0]], dtype=object)
    e12 = np.array([[0, 1], [0, 0]], dtype=object)
    gl2_bracket(e11, e12)
    m = gl2_structure_matrix()
    m[:] = 7
    assert gl2_structure_matrix().tolist() != m.tolist()
    assert gl2_bracket(e11, e12).tolist() == e12.tolist()


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


@pytest.mark.parametrize("counts", [(3,), (2, 3), (4, 5, 3), (3, 2, 2, 3)])
def test_game_payoff_is_its_index_sum(rng, counts):
    # Player i: sum over s of d_i[s_1, ..., s_N] x_1[s_1] ... x_N[s_N].
    payoffs = [rng.integers(-9, 10, counts).astype(object) for _ in range(2)]
    xs = [rng.integers(0, 5, n).astype(object) for n in counts]
    game = GamePayoff(counts, tuple(Hypermatrix(counts, d.reshape(-1)) for d in payoffs))
    spec = "abcd"[: len(counts)]
    expected = [np.einsum(f"{spec},{','.join(spec)}->", d, *xs) for d in payoffs]
    assert game_payoff(game, xs) == expected


def test_game_validation(rng):
    with pytest.raises(ValueError):
        GamePayoff((2, 2), (random_hm(rng, (2, 3)),))
    game = GamePayoff((2, 2), (random_hm(rng, (2, 2)),))
    with pytest.raises(ValueError):
        game_payoff(game, [basis_vec(2, 1)])
    # Strategy counts are dims: a count below 1 is refused even in a game with no payoffs.
    for counts, axis, got in (((-3, 0), 1, -3), ((2, 0), 2, 0)):
        with pytest.raises(ValueError, match=f"dimension at axis {axis} must be >= 1, got {got}"):
            GamePayoff(counts, ())


def test_game_payoff_reads_each_payoff_store_unwidened(rng, monkeypatch):
    counts = (4, 5, 3)
    payoffs_np = [rng.integers(-9, 10, counts) for _ in range(2)]
    game = GamePayoff(counts, tuple(Hypermatrix(counts, p) for p in payoffs_np))
    xs = [np.array([int(v) for v in rng.integers(0, 5, n)], dtype=object) for n in counts]
    seen = []
    scanned = core._scanned
    monkeypatch.setattr(core, "_scanned", lambda arr: (seen.append(arr.size), scanned(arr))[1])
    got = game_payoff(game, xs)
    monkeypatch.undo()
    # One chain for both players scans each strategy once, and no payoff store is widened.
    assert seen == [4, 5, 3]
    assert all(p._data is None for p in game.payoffs)
    expected = [int(np.einsum("abc,a,b,c->", p, *(x.astype(np.int64) for x in xs))) for p in payoffs_np]
    assert got == expected and all(type(v) is int for v in got)


@st.composite
def games(draw):
    """1-4 payoffs over an order 1-4 shape, each int from its own ``tier_values`` family or float, and strategies."""
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    size = math.prod(counts)
    payoffs = tuple(
        Hypermatrix(counts, draw(st.lists(draw(st.one_of(tier_values(), st.just(st.floats(-9, 9)))),
                                          min_size=size, max_size=size)))
        for _ in range(draw(st.integers(1, 4)))
    )
    entries = st.floats(-9, 9) if draw(st.booleans()) else draw(tier_values())
    return GamePayoff(counts, payoffs), [draw(st.lists(entries, min_size=n, max_size=n)) for n in counts]


@settings(max_examples=80, deadline=None)
@given(games())
def test_one_chain_equals_a_chain_per_player(case):
    # int64, past-int64 and float stores mix across players, so each kind's structure matrix can take any tier.
    game, xs = case
    got = game_payoff(game, xs)
    want = [eval_multilinear_scalar(d, xs) for d in game.payoffs]
    assert len(got) == len(want)
    for a, b, d in zip(got, want, game.payoffs):
        if type(b) is int:
            assert a == b and type(a) is int
        else:
            # abs over Python ints: numpy's would wrap an int64 array's -2**63 back to itself.
            scale = eval_multilinear_scalar(Hypermatrix(d.dims, np.abs(d.data)), [[abs(v) for v in x] for x in xs])
            assert abs(a - b) <= 1e-9 * max(1, float(scale))


def test_a_game_may_mix_kinds_and_may_have_no_payoffs():
    # Each kind folds as its own chain, so an int player keeps an int result next to a float one.
    ints, floats = Hypermatrix((2,), [1, 2]), Hypermatrix((2,), [0.5, 2.0])
    got = game_payoff(GamePayoff((2,), (ints, floats, ints)), [[3, 1]])
    assert got == [5, 3.5, 5] and [type(v) for v in got] == [int, np.float64, int]
    with pytest.raises(TypeError, match="^payoff 2 is a list, not a Hypermatrix$"):
        GamePayoff((2,), (ints, [1, 2]))
    empty = GamePayoff((2, 3), ())
    assert game_payoff(empty, [[1, 2], [1, 2, 3]]) == []
    with pytest.raises(ValueError, match="^1 strategy vectors for 2 players$"):
        game_payoff(empty, [[1, 2]])


@pytest.mark.parametrize("kind", ["int", "float"])
def test_structure_chains_match_the_public_stp_fold(rng, kind):
    def draw(shape):
        if kind == "int":
            return np.array([int(v) for v in rng.integers(-99, 100, shape).reshape(-1)], dtype=object).reshape(shape)
        return rng.uniform(-99, 99, shape)

    bracket = matrix_expression(Hypermatrix((4, 4, 4), gl2_structure_matrix().reshape(-1), "int"), rows=(1,))
    for _ in range(10):
        x, y = draw(3), draw(3)
        got = cross_product(x, y)
        assert_same_result(got, stp_chain([cross_product_expression(kind).mat, x.reshape(-1, 1), y.reshape(-1, 1)]), kind)
        x, y = draw((2, 2)), draw((2, 2))
        got = gl2_bracket(x, y)
        ref = vcs(stp_chain([bracket.mat, vc(x).reshape(-1, 1), vc(y).reshape(-1, 1)]), 2)
        assert got.shape == (2, 2)
        assert_same_result(got, ref, kind)


# -- Yang-Baxter -------------------------------------------------------------------


def test_ybe_methods_agree_exact_int(rng):
    for n in (2, 3):
        for _ in range(3):
            r = random_hm(rng, (n,) * 4, lo=-3, hi=3)
            inst = YbeInstance(n, r)
            for side in ("lhs", "rhs"):
                assert ybe_sides(inst, side, "matrix") == ybe_sides(inst, side, "bruteforce")


def test_ybe_side_must_be_named():
    inst = YbeInstance(2, Hypermatrix.zeros((2,) * 4))
    for bad in (None, "middle"):
        with pytest.raises(ValueError, match=f"^side must be 'lhs' or 'rhs', got {bad!r}$"):
            ybe_sides(inst, bad)


def test_ybe_instance_takes_an_order_4_hypermatrix():
    with pytest.raises(TypeError, match="^r is a list, not a Hypermatrix$"):
        YbeInstance(2, [1, 2])
    with pytest.raises(ValueError, match=r"^shape \(2, 2\) is not \(2,\)\*4$"):
        YbeInstance(2, Hypermatrix.zeros((2, 2)))


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


# The relation the library computes, as the index sums in ``ybe_sides``'s docstring, and the
# textbook R12 R13 R23 = R23 R13 R12 with r[i,j,k,l] read as R^{ij}_{kl}.  Object einsum is exact on ints.
LIBRARY_YBE = {"lhs": "aybx,xcdz,efyz->abcdef", "rhs": "yzab,cdyx,xzef->abcdef"}
TEXTBOOK_YBE = ("ijab,aklc,bcmn->ijklmn", "jkbc,ican,ablm->ijklmn")


def rule_tensor(n, rule):
    """The order-4 object array over dimension n whose entry at 1-based (i, j, k, l) is rule(i, j, k, l)."""
    return np.array([rule(*m) for m in product(range(1, n + 1), repeat=4)], dtype=object).reshape((n,) * 4)


def solves(r, specs) -> bool:
    lhs, rhs = (np.einsum(spec, r, r, r) for spec in specs)
    return bool(np.array_equal(lhs, rhs))


@pytest.mark.parametrize(
    "rule",
    [lambda i, j, k, l: 1, lambda i, j, k, l: int(i == j == k == l)],
    ids=["all-ones", "diagonal"],
)
def test_ybe_known_solutions_have_zero_residual(rule):
    # Both solve the library's relation and the textbook one.
    for n in (2, 3):
        r = rule_tensor(n, rule)
        assert ybe_residual(YbeInstance(n, Hypermatrix((n,) * 4, r.reshape(-1)))) == 0
        assert solves(r, TEXTBOOK_YBE) and solves(r, LIBRARY_YBE.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_ybe_route_computes_the_library_index_sums(rng, n):
    r = rng.integers(-3, 4, (n,) * 4).astype(object)
    inst = YbeInstance(n, Hypermatrix((n,) * 4, r.reshape(-1)))
    for side, spec in LIBRARY_YBE.items():
        expected = np.einsum(spec, r, r, r).reshape(-1).tolist()
        for method in ("matrix", "stp", "bruteforce"):
            assert ybe_sides(inst, side, method).data.tolist() == expected


@pytest.mark.parametrize("n", [2, 3])
def test_textbook_solutions_do_not_solve_the_library_relation(rng, n):
    a = rng.integers(-3, 4, (n, n)).astype(object)
    families = {
        "identity": rule_tensor(n, lambda i, j, k, l: int(i == k and j == l)),
        "swap": rule_tensor(n, lambda i, j, k, l: int(i == l and j == k)),
        "A(x)A": np.einsum("ik,jl->ijkl", a, a),
    }
    residuals = {}
    for name, r in families.items():
        assert solves(r, TEXTBOOK_YBE), name
        residuals[name] = ybe_residual(YbeInstance(n, Hypermatrix((n,) * 4, r.reshape(-1))))
    assert residuals["identity"] == residuals["swap"] == 1 and residuals["A(x)A"] != 0


def test_both_fast_routes_compute_the_n6_library_index_sums_in_int64(rng):
    # Entries near 2**16 take every second product past the float64 tier.  The einsum sums
    # n**3 products of three entries, so the bound below keeps its int64 arithmetic exact.
    n = 6
    r = rng.integers(-(2 ** 16), 2 ** 16 + 1, (n,) * 4)
    assert n ** 3 * int(np.abs(r).max()) ** 3 <= 2 ** 63 - 1
    inst = YbeInstance(n, Hypermatrix((n,) * 4, r.reshape(-1)))
    for side, spec in LIBRARY_YBE.items():
        expected = np.einsum(spec, r, r, r).reshape(-1).tolist()
        for method in ("matrix", "stp"):
            assert ybe_sides(inst, side, method).data.tolist() == expected, (side, method)


def _icbrt(x: int) -> int:
    """The largest m with m**3 <= x."""
    m = round(x ** (1 / 3))
    while m ** 3 > x:
        m -= 1
    while (m + 1) ** 3 <= x:
        m += 1
    return m


# The bounds at which the matrix route's chain leaves a tier: float32 up to the first, float64 up to the
# second, int64 up to the third.
_CHAIN_EDGES = (2 ** 24, 2 ** 53, 2 ** 63 - 1)


@st.composite
def ybe_tier_cases(draw):
    """n in 1..6 and r's entries: in [-9, 9], past int64, or with n**3 * max|r|**3 on either side of an edge."""
    n = draw(st.integers(1, 6))
    family = draw(st.sampled_from(["small", "past int64", *_CHAIN_EDGES]))
    if family == "small":
        values = st.integers(-9, 9)
    elif family == "past int64":
        values = signed(st.integers(2 ** 63, 2 ** 63 + 9))
    else:
        m = _icbrt(family // n ** 3)
        values = signed(st.integers(m - 1, m + 1))
    return n, draw(st.lists(values, min_size=n ** 4, max_size=n ** 4))


@settings(max_examples=30, deadline=None)
@given(ybe_tier_cases())
# At n = 1 the bound is max|r|**3: exactly 2**24, just past it, just past 2**53, then just past 2**63 - 1.
@example((1, [256]))
@example((1, [-257]))
@example((1, [208064]))
@example((1, [-2097152]))
def test_the_matrix_route_chain_computes_the_library_index_sums_on_every_tier(case):
    n, entries = case
    r = np.array(entries, dtype=object).reshape((n,) * 4)
    m = max(map(abs, entries))
    bound = n ** 3 * m ** 3
    tier = next((t for t, edge in zip((np.float32, np.float64, np.int64), _CHAIN_EDGES) if bound <= edge), object)
    inst = YbeInstance(n, Hypermatrix((n,) * 4, entries))
    rf = r.astype(np.float64) / m if m else r.astype(np.float64)
    floats = YbeInstance(n, Hypermatrix((n,) * 4, rf.reshape(-1)))
    for side, spec in LIBRARY_YBE.items():
        with pytest.MonkeyPatch.context() as mp:
            tiers = []
            mp.setattr(applications, "_tier", lambda b: (t := core._tier(b), tiers.append((b, t)))[0])
            got = ybe_sides(inst, side, "matrix")
        # One tier for the whole chain, from n**3 * max|r|**3; an R past int64 runs on Python ints unmeasured.
        # -2**63 is still int64, so an R holding it is measured.
        past_int64 = not all(-(2 ** 63) <= e <= _CHAIN_EDGES[-1] for e in entries)
        assert tiers == ([] if past_int64 else [(bound, tier)])
        assert got.data.tolist() == np.einsum(spec, r, r, r, optimize=True).reshape(-1).tolist()
        assert got == ybe_sides(inst, side, "stp")
        want, scale = np.einsum(spec, rf, rf, rf), np.einsum(spec, *[np.abs(rf)] * 3)
        assert np.all(np.abs(ybe_sides(floats, side, "matrix").nd - want) <= 1e-9 * scale)


@pytest.mark.parametrize("q, residual", [(2, 48), (3, 648)])
def test_the_scaled_jimbo_r_matrix_solves_the_textbook_relation(q, residual):
    # q times Jimbo's U_q(sl2) R-matrix over the basis 11, 12, 21, 22: rows (i, j), columns (k, l).
    jimbo = np.array(
        [[q * q, 0, 0, 0], [0, q, q * q - 1, 0], [0, 0, q, 0], [0, 0, 0, q * q]], dtype=object
    ).reshape((2,) * 4)
    assert solves(jimbo, TEXTBOOK_YBE)
    assert ybe_residual(YbeInstance(2, Hypermatrix((2,) * 4, jimbo.reshape(-1)))) == residual


@pytest.mark.parametrize("method", ["matrix", "expr", "stp", "bruteforce"])
def test_a_ybe_side_past_the_entry_budget_is_refused_before_any_product(monkeypatch, method):
    # At n = 17 a side has 17**6 entries, past the budget of 2**24: every route refuses it, no product runs.
    n = 17
    assert n ** 6 > core.MAX_ENTRIES >= n ** 4
    inst = YbeInstance(n, Hypermatrix.zeros((n,) * 4))
    for name in ("dot", "matmul"):
        monkeypatch.setattr(np, name, lambda *args, **kwargs: pytest.fail("a product ran past the entry budget"))
    budget = f"has {n ** 6} entries, above the budget of {core.MAX_ENTRIES}"
    for side in ("lhs", "rhs"):
        with pytest.raises(OverflowError, match=budget):
            ybe_sides(inst, side, method)
    with pytest.raises(OverflowError, match=budget):
        ybe_residual(inst, method)


def test_ybe_validation(rng):
    with pytest.raises(ValueError):
        YbeInstance(2, random_hm(rng, (2, 2, 2)))
    inst = YbeInstance(2, random_hm(rng, (2,) * 4))
    with pytest.raises(ValueError):
        ybe_sides(inst, "both")
    with pytest.raises(ValueError):
        ybe_sides(inst, "lhs", "magic")
