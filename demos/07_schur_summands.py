#!/usr/bin/env python3
"""Schur decompositions and the graded pieces of jet-differential bundles.

Products of symmetric powers decompose through iterated Pieri steps; every
partition that appears has at most as many parts as there are factors, which
is the vanishing lever in low dimension.  The graded pieces of the order-k
weight-N bundle are indexed by vectors l with sum j*l_j = N.
"""

from orbichern import (OrbifoldPair, decompose_sym_tensor, graded_summands,
                       projective_space, schur_dimension, weighted_vectors)

print("Sym^2 x Sym^1 =", decompose_sym_tensor([2, 1]))
print("Sym^1^(x3)    =", decompose_sym_tensor([1, 1, 1]))

print()
print("dimension cross-check on a rank-3 space:")
expansion = decompose_sym_tensor([2, 1, 1])
lhs = (schur_dimension((2,), 3) * schur_dimension((1,), 3)
       * schur_dimension((1,), 3))
rhs = sum(mult * schur_dimension(lam, 3) for lam, mult in expansion.terms.items())
print("  product of Sym dims = %d = %d = sum over the expansion" % (lhs, rhs))

print()
print("weight vectors for k=3, N=6 (count = partitions of 6 into parts <= 3):")
for ell in weighted_vectors(3, 6):
    print("  ", ell)

print()
print("graded summands for one multiplicity-5 quartic at k=2, N=2:")
P2 = projective_space(2)
pair = OrbifoldPair(P2, [(P2.generator("h") * 4, 5)])
for ell, factors in graded_summands(pair, 2, 2):
    parts = ["S^%d Omega(order %d), coefficients %s"
             % (lj, j, [str(t.coefficient) for t in profile])
             for j, lj, profile in factors]
    print("  l=%s: %s" % (ell, " (x) ".join(parts) or "trivial"))
