"""End-to-end applications: cross product, commutators, games, Yang-Baxter.

Each one is a structure-constant hypermatrix plus the generic evaluation
machinery; nothing application-specific happens at evaluation time.
"""

import numpy as np

import hyperstp as hs

# Cross product on R^3 from its 3 x 9 structure-constant expression.
print("e1 x e2 =", list(hs.cross_product([1, 0, 0], [0, 1, 0])))
x, y = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
print("cross:", np.asarray(hs.cross_product(x, y), dtype=float))

# Commutator of 2x2 matrices through a 4 x 16 structure-constant table.
a = np.array([[1, 2], [3, 4]], dtype=object)
b = np.array([[0, 1], [1, 0]], dtype=object)
print("bracket:\n", hs.gl2_bracket(a, b))
print("equals XY - YX:", np.array_equal(hs.gl2_bracket(a, b), np.dot(a, b) - np.dot(b, a)))
print("published-table errata columns:", [e["column"] for e in hs.gl2_published_errata()])

# A two-player game: payoffs are hypermatrices over the strategy profile.
d1 = hs.Hypermatrix.from_flat((2, 2), [3, 0, 5, 1])
d2 = hs.Hypermatrix.from_flat((2, 2), [3, 5, 0, 1])
game = hs.GamePayoff((2, 2), (d1, d2))
pure = [np.array([0, 1]), np.array([1, 0])]
print("pure-profile payoffs:", hs.game_payoff(game, pure))
mixed = [np.array([0.5, 0.5]), np.array([0.25, 0.75])]
print("mixed-profile payoffs:", [float(p) for p in hs.game_payoff(game, mixed)])

# Yang-Baxter: both sides of the constraint, by direct summation and by
# the flattened matrix pipeline, and the residual between the sides.
rng = np.random.default_rng(3)
r = hs.Hypermatrix.from_flat((2,) * 4, [int(v) for v in rng.integers(-2, 3, 16)])
inst = hs.YbeInstance(2, r)
lhs_b = hs.ybe_sides(inst, "lhs", "bruteforce")
lhs_m = hs.ybe_sides(inst, "lhs", "matrix")
print("lhs methods agree:", lhs_b == lhs_m)
print("residual of a random candidate:", hs.ybe_residual(inst))

ones = hs.Hypermatrix.from_flat((2,) * 4, [1] * 16)
print("residual of the all-ones solution:", hs.ybe_residual(hs.YbeInstance(2, ones)))
