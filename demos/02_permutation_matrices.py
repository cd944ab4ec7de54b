"""Permutation matrices that reorder Kronecker chains.

For vectors x_i of lengths (n_1, ..., n_d) and a permutation sigma, one
sparse 0/1 matrix W satisfies

    x_sigma(1) kron ... kron x_sigma(d)  =  W @ (x_1 kron ... kron x_d).

W is stored in logical (column-index) form and applied by index gather.
"""

import numpy as np

import hyperstp as hs

dims = (2, 3, 5)
sigma = hs.Permutation((1, 3, 2))      # swap the last two factors
w = hs.build_perm_matrix(dims, sigma)
print("delta-notation:", hs.print_delta(w))

# Check the defining property on a random chain.
rng = np.random.default_rng(7)
xs = [rng.integers(-3, 4, n) for n in dims]
lhs = hs.kron_chain([xs[sigma(k) - 1] for k in (1, 2, 3)])
rhs = w.apply(hs.kron_chain(xs))
print("chain reordered correctly:", list(lhs) == list(rhs))

# Group structure: composing matrices is composing permutations.
tau = hs.Permutation((2, 3, 1))
wt = hs.build_perm_matrix((2, 2, 2), tau)
print("W_tau @ W_tau == W_{tau.tau}:",
      wt.compose(wt) == hs.build_perm_matrix((2, 2, 2), hs.perm_compose(tau, tau)))
print("transpose == W_{tau^-1}:", wt.transpose() == hs.build_perm_matrix((2, 2, 2), tau.inverse()))
print("parity of", tau.image, "is", tau.parity())

# Bundled golden tables, regenerated and compared against the published data.
reports = hs.verify_appendix()
ok = hs.verification_ok(reports)
bad = sum(not r.matches for r in reports)
print(f"{len(reports)} bundled tables checked; {bad} known published errata; registry consistent: {ok}")

# Dense form, if a plain array is ever needed.
print("dense of d2[2,1]:\n", hs.densify(hs.parse_delta("d2[2,1]")))
