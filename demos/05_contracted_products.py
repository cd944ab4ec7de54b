"""Contracted products: pair up axes, sum them out, three equivalent ways.

The direct route sums entry products over the paired axes; the second
route flattens both operands into matrix expressions and multiplies; the
third is the paper's semi-tensor form.  ``contract`` picks the route by
name.  On the exact backend the agreement is bit-for-bit.
"""

import numpy as np

import hyperstp as hs

rng = np.random.default_rng(11)
a = hs.Hypermatrix.from_flat((2, 3, 4), [int(v) for v in rng.integers(-5, 6, 24)])
b = hs.Hypermatrix.from_flat((4, 5, 3), [int(v) for v in rng.integers(-5, 6, 60)])

# Pair a's axes (2,3) with b's axes (3,1): the result is 2 x 5.
c1 = hs.contract_bruteforce(a, b, (2, 3), (3, 1))
c2 = hs.contract_via_expression(a, b, (2, 3), (3, 1))
print("routes agree:", c1 == c2, " result dims:", c1.dims)

# The expression route is literally a matrix product of two flattenings.
ma = hs.matrix_expression(a, rows=(1,), cols=(2, 3))
mb = hs.matrix_expression(b, rows=(3, 1), cols=(2,))
print("M_C == M_A @ M_B:", np.array_equal(np.dot(ma.mat, mb.mat), c1.nd))

# The paper's form: a's expression (free axes as rows) semi-tensor
# multiplied by b's data re-laid as one column with the paired axes first.
c3 = hs.contract(a, b, (2, 3), (3, 1), "stp")
vb = hs.matrix_expression(b, rows=(3, 1, 2), cols=()).mat
print("stp route agrees:", c3 == c1, " M_A |x V(B) == C:", np.array_equal(hs.mm_stp(ma.mat, vb).reshape(-1), c1.data))

# Matrix product is the single-pair special case.
m = hs.Hypermatrix.from_flat((2, 2), [1, 2, 3, 4])
n = hs.Hypermatrix.from_flat((2, 2), [5, 6, 7, 8])
print("matrix product:", hs.contract_bruteforce(m, n, (2,), (1,)).nd.tolist())

# Pairing a whole smaller array against chosen axes ("onto" form) is
# contract with b's axes in order, on either fast route.
v = hs.Hypermatrix.from_flat((3,), [1, 0, -1])
for method in ("expression", "stp"):
    print("onto", method, ":", list(hs.onto_contract(a, v, (2,), method).data)[:4], "...")

# Rank-one hypermatrices expand from factor vectors.
h = hs.hypervector_expand([np.array([1, 2]), np.array([1, 1, 1])])
print("hypervector entries:", list(h.data))

# Multilinear forms evaluate by folding the flat expression through args.
pi = hs.Hypermatrix.from_flat((2, 2), [1, 0, 0, 1])
print("bilinear form value:", hs.eval_multilinear_scalar(pi, [np.array([1, 2]), np.array([3, 4])]))

# Operators on order-d arrays: an order-2d array acts by block pairing.
op = hs.Hypermatrix.from_flat((2, 2), hs.vr(np.array([[0, 1], [1, 0]])).tolist())
arg = hs.Hypermatrix.from_flat((2,), [5, 7])
print("unary operator (here: a matrix) applied:", list(hs.unary_apply(op, arg).data))
