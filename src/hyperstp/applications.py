"""Worked multilinear-algebra applications built on the core machinery.

Each application packages a structure-constant fixture plus an evaluator:
the cross product on R^3, the commutator bracket on 2x2 matrices, finite
game payoffs, and both sides of the Yang-Baxter constraint.  On the
``matrix`` route each side is one batched product and one dot, written
from its index sum: the order-6 intermediate is made in the layout the
dot reads, on one tier for the chain bounded by n³·max|r|³, so a side
holds two n⁶ arrays.  The ``stp`` and ``bruteforce`` routes run the
sides as nested ``contract`` calls sharing ``t = r (4)x(1) r``; they
are the chain's independent checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    _INT64_MAX, Hypermatrix, _check_budget, _checked_int, _float64_ints, _stored, _tier, as_scalars_joint,
    check_dims,
)
from .contraction import (
    _EXPRESSION_NAMES, _fold, _fold_checked, contract, eval_multilinear_vector,
)
from .expression import MatrixExpression, vc, vcs, vr, vrs
# build_perm_matrix stays bound here for perfbench/smoke.py, which checks that
# the benchmark's tracer patches it in every module that binds it.
from .permutation import build_perm_matrix  # noqa: F401

# -- cross product -------------------------------------------------------

# Structure-constant matrix of the cross product: one row axis (the
# output), columns over the two argument axes; column (i, j) holds the
# coordinates of e_i x e_j.
_CROSS_COLS = (
    (0, 0, 0),   # (1,1)
    (0, 0, 1),   # (1,2)
    (0, -1, 0),  # (1,3)
    (0, 0, -1),  # (2,1)
    (0, 0, 0),   # (2,2)
    (1, 0, 0),   # (2,3)
    (0, 1, 0),   # (3,1)
    (-1, 0, 0),  # (3,2)
    (0, 0, 0),   # (3,3)
)


def cross_product_expression(kind: str = "int") -> MatrixExpression:
    """The 3 x 9 structure-constant expression of the cross product."""
    return MatrixExpression(np.transpose(_CROSS_COLS), (1,), (2, 3), (3, 3, 3), kind)


# Read-only and built from constants alone, so every call can share it.
_cross_expression = functools.cache(cross_product_expression)


def cross_product(x, y) -> np.ndarray:
    """Cross product on R^3 evaluated through the multilinear machinery.

    The chain checks both vectors and their lengths; a float vector puts
    the int structure constants on binary64.
    """
    return eval_multilinear_vector(_cross_expression(), [x, y])


# -- commutator bracket on 2x2 matrices ----------------------------------


def _structure_matrix(basis, vec_fn) -> np.ndarray:
    """Columns (i, j) of the bracket table [B_i, B_j] under a vectorisation."""
    k = len(basis)
    mat = np.zeros((k, k * k), dtype=object)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            mat[:, i * k + j] = vec_fn(np.dot(bi, bj) - np.dot(bj, bi))
    return mat


def gl2_structure_matrix() -> np.ndarray:
    """Bracket structure constants, column-stacking convention (4 x 16)."""
    return _structure_matrix([vcs(e, 2) for e in np.eye(4, dtype=object)], vc)


def gl2_bracket(x, y) -> np.ndarray:
    """Commutator of two 2x2 matrices via the structure-constant chain.

    The column stacking of the result is the structure matrix folded with
    the column stackings of the arguments; it must (and does) equal
    ``x @ y - y @ x``.
    """
    expr = _gl2_expression()
    (x, y), chain = as_scalars_joint(x, y, kind=expr.kind)
    if x.shape != (2, 2) or y.shape != (2, 2):
        raise ValueError("bracket takes two 2x2 matrices")
    # Each matrix was checked once, just above, so the fold takes its column stacking unread.
    return vcs(_fold_checked(expr.mat, expr.kind, chain, [vc(x), vc(y)]), 2)


@functools.cache
def _gl2_expression() -> MatrixExpression:
    """The read-only 4 x 16 expression of the bracket, built once from its own structure matrix."""
    return MatrixExpression(gl2_structure_matrix(), (1,), (2, 3), (4, 4, 4), "int")


# The published bracket table, column by column, exactly as printed
# (including its glossed dense expansions); columns follow (i, j) with j
# fastest.  Kept verbatim for erratum reporting, never for evaluation.
GL2_PUBLISHED_COLUMNS = (
    (0, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, -1, 0),
    (0, 0, 0, 0),
    (0, -1, 0, 0),
    (0, 0, 0, 0),
    (1, 0, 0, -4),
    (0, 0, 0, 0),
    (0, 0, 1, 0),
    (-1, 0, 0, 4),
    (0, 0, 0, 0),
    (0, 0, -1, 0),
    (0, 0, 0, 0),
    (0, 0, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 0),
)


def gl2_published_matrix() -> np.ndarray:
    return np.array(GL2_PUBLISHED_COLUMNS, dtype=object).T


def gl2_published_errata() -> list[dict]:
    """Columns where the published table deviates from the commutator.

    The published table indexes basis elements row by row (its basis
    labels match row stackings), so the comparison is made in that same
    convention.  Four columns deviate: two glossed entries carry the
    basis label where the coefficient belongs, and two brackets with the
    corner element were dropped to zero.
    """
    derived = _structure_matrix([vrs(e, 2) for e in np.eye(4, dtype=object)], vr)
    published = gl2_published_matrix()
    errata = []
    for col in range(16):
        if list(published[:, col]) != list(derived[:, col]):
            errata.append(
                {
                    "column": col + 1,
                    "pair": (col // 4 + 1, col % 4 + 1),
                    "published": tuple(published[:, col]),
                    "derived": tuple(derived[:, col]),
                }
            )
    return errata


# -- finite games ---------------------------------------------------------


@dataclass(frozen=True)
class GamePayoff:
    """Per-player payoff hypermatrices over the joint strategy space.

    Every strategy count is a positive integer (``core.check_dims``) and
    every payoff a ``Hypermatrix`` of shape ``strategy_counts``; payoffs
    whose stores are alike are folded by ``game_payoff`` as one chain.
    """

    strategy_counts: tuple[int, ...]
    payoffs: tuple[Hypermatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "strategy_counts", check_dims(self.strategy_counts))
        object.__setattr__(self, "payoffs", tuple(self.payoffs))
        for i, d in enumerate(self.payoffs, start=1):
            if not isinstance(d, Hypermatrix):
                raise TypeError(f"payoff {i} is a {type(d).__name__}, not a Hypermatrix")
            if d.dims != self.strategy_counts:
                raise ValueError(f"payoff {i} has shape {d.dims}, expected {self.strategy_counts}")


def game_payoff(game: GamePayoff, xs: Sequence) -> list:
    """Expected payoff of every player under the given strategy vectors.

    Player i's payoff is ``sum_{s_1..s_N} d_i[s_1, ..., s_N] x_1[s_1] ... x_N[s_N]``,
    the structure row V_i folded as ``V_i ⋉ x_1 ⋉ ... ⋉ x_N``.  The rows
    whose stores share a kind and a dtype stack into a structure matrix,
    one row per payoff, which is folded once: no store is widened to
    stack, and a game whose stores are alike checks each strategy vector
    once, whatever the number of players.  Pure strategies are basis
    vectors (the evaluation then reads entries directly); mixed strategies
    are arbitrary distributions.
    """
    xs = list(xs)
    if len(xs) != len(game.strategy_counts):
        raise ValueError(f"{len(xs)} strategy vectors for {len(game.strategy_counts)} players")
    groups, out = {}, {}
    for i, d in enumerate(game.payoffs):
        groups.setdefault((d.kind, d._flat().dtype), []).append(i)
    for (kind, _), rows in groups.items():
        structure = np.stack([game.payoffs[i]._flat() for i in rows])
        out.update(zip(rows, _fold(structure, kind, xs, game.strategy_counts)))
    return [out[i] for i in range(len(game.payoffs))]


# -- Yang-Baxter -----------------------------------------------------------


@dataclass(frozen=True)
class YbeInstance:
    """A candidate solution: an order-4 hypermatrix over one dimension."""

    n: int
    r: Hypermatrix

    def __post_init__(self):
        object.__setattr__(self, "n", _checked_int(self.n))
        if not isinstance(self.r, Hypermatrix):
            raise TypeError(f"r is a {type(self.r).__name__}, not a Hypermatrix")
        if self.r.dims != (self.n,) * 4:
            raise ValueError(f"shape {self.r.dims} is not ({self.n},)*4")


def ybe_sides(inst: YbeInstance, side: str, method: str = "matrix") -> Hypermatrix:
    """One side of the Yang-Baxter constraint, order 6 over dimension n.

    Summing over x, y, z,
    lhs(p) = r[p1,y,p2,x] r[x,p3,p4,z] r[p5,p6,y,z] and
    rhs(p) = r[y,z,p1,p2] r[p3,p4,y,x] r[x,z,p5,p6].  The textbook
    R12 R13 R23 = R23 R13 R12 is another relation, summing over a, b, c:
    r[i,j,a,b] r[a,k,l,c] r[b,c,m,n] = r[j,k,b,c] r[i,c,a,n] r[a,b,l,m].
    ``method`` names a contraction route.  ``matrix`` (the default, like
    ``expression`` and ``expr``) runs each side as one chain of two
    products, both read off its index sum: a batched product makes the
    order-6 intermediate in the layout the final dot reads
    (``_ybe_chain``).  ``stp`` and the oracle ``bruteforce`` (``brute``,
    kept for tests and the CLI's ``--method brute``) are the chain's
    independent checks: each side is two ``contract`` calls on that route,
    the pairing ``t = r (4)x(1) r`` of two copies, then
    ``t (2,6)x(3,4) r`` for the left side and ``r (1,2)x(3,4) t`` for
    the right.  The routes agree entry for entry on int data.
    """
    side = side.lower() if isinstance(side, str) else side
    if side not in ("lhs", "rhs"):
        raise ValueError(f"side must be 'lhs' or 'rhs', got {side!r}")
    return _ybe_sides(inst.r, (side,), method)[0]


def _ybe_sides(r: Hypermatrix, sides, method: str) -> list[Hypermatrix]:
    """The named sides: one chain each on the expression route, else sharing one ``t = r (4)x(1) r``."""
    if method in _EXPRESSION_NAMES:
        return [_ybe_chain(r, side) for side in sides]
    t = contract(r, r, (4,), (1,), method)
    pairings = {"lhs": (t, r, (2, 6), (3, 4)), "rhs": (r, t, (1, 2), (3, 4))}
    return [contract(*pairings[side], method) for side in sides]


def _ybe_chain(r: Hypermatrix, side: str) -> Hypermatrix:
    """One side as one batched product and one dot, written from its index sum.

    lhs(p) = Σ_{y,x} r[p1,y,p2,x] W[y,x,p3,p4,p5,p6], W[y,x,…] = Σ_z r[x,p3,p4,z] r[p5,p6,y,z];
    rhs(p) = Σ_{y,z} r[y,z,p1,p2] W[y,z,p3,p4,p5,p6], W[y,z,…] = Σ_x r[p3,p4,y,x] r[x,z,p5,p6].
    ``W`` is one ``np.matmul`` over the n² summed pairs, each an n² x n
    view of r by an n x n² view (on the lhs a contiguous copy, n⁴
    entries in all).  It lands in (summed, free) order, so
    the dot reads it as an n² x n⁴ matrix without a copy; the other
    factor is an n⁴-entry layout of r, and the dot's result is in natural
    order.  Every partial sum of both steps is at most n³·max|r|³
    (``max|r|`` times ``max|r|²`` over n³ terms), so ``core._tier`` picks
    one tier for the chain from that bound; an int R past int64 runs on
    Python ints, a float R in binary64.  ``W`` stays in the tier's dtype
    and a float64-tier result is cast back in its own buffer, so a side
    holds two n⁶ arrays, ``W`` and the result, each within the entry
    budget, which is checked before either is made.
    """
    n = r.dims[0]
    nn = n * n
    _check_budget(n ** 6, "Yang-Baxter side of shape {}", (n,) * 6)
    m = r._max_abs()
    if r.kind == "float":
        dtype = np.float64
    else:
        dtype = object if m is None else _tier(n ** 3 * m ** 3)
    f = r._flat().astype(dtype, copy=False)
    if side == "lhs":
        # matmul reads the strided n x n² factors at about half speed, so they are copied first.
        b = np.ascontiguousarray(f.reshape(nn, n, n).transpose(1, 2, 0))
        w = np.matmul(f.reshape(1, n, nn, n), b[:, None])
        v = f.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(nn, nn)
    else:
        w = np.matmul(f.reshape(nn, n, n).transpose(1, 0, 2)[:, None], f.reshape(n, n, nn).transpose(1, 0, 2))
        v = f.reshape(nn, nn).T
    out = np.dot(v, w.reshape(nn, -1))
    if dtype is np.float64 and r.kind == "int":
        out = _float64_ints(out)
    return _stored((n,) * 6, out, r.kind)


def ybe_residual(inst: YbeInstance, method: str = "matrix"):
    """Largest absolute entry of LHS minus RHS, both sides by ``ybe_sides(..., method)``.

    When both hold int64 forms whose difference cannot wrap
    (``max|lhs| + max|rhs| <= 2**63 - 1``, each measured from its int64
    form), it is taken in int64, in one buffer, and returned as a Python
    int; otherwise over ``data``.
    """
    lhs, rhs = _ybe_sides(inst.r, ("lhs", "rhs"), method)
    ma, mb = lhs._max_abs(), rhs._max_abs()
    if ma is not None and mb is not None and ma + mb <= _INT64_MAX:
        diff = lhs._int64 - rhs._int64
        return int(np.abs(diff, out=diff).max())
    return np.abs(lhs.data - rhs.data).max()
