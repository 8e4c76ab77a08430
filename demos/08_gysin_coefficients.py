#!/usr/bin/env python3
"""Flag-bundle Gysin coefficients on abelian varieties.

kappa(lam) scales the top Segre number of the line bundle attached to a
partition lam.  A positive defect (descents before the last slot) pushes the
target monomial past the polynomial degree, so only constant partitions
survive: the tensor powers of the canonical bundle.  On those the Frobenius
formula gives the closed form kappa(c^n) = c^n.
"""

from itertools import combinations_with_replacement

from orbichern import gysin_coefficient, jump_data

print("dimension 3, all partitions with parts <= 3:")
print(" lambda        jumps      defect   kappa")
shapes = [()] + [tuple(sorted(c, reverse=True))
                 for r in range(1, 4)
                 for c in combinations_with_replacement((1, 2, 3), r)]
for lam in shapes:
    data = jump_data(3, lam)
    kappa = gysin_coefficient(3, lam)
    print(" %-12s  %-9s  %-7d  %s" % (lam, data.jumps, data.defect, kappa))

print()
print("homogeneity on constant partitions: kappa(c,...,c) = c^n kappa(1,...,1)")
for n in (2, 3, 4):
    base = gysin_coefficient(n, (1,) * n)
    scaled = [gysin_coefficient(n, (c,) * n) for c in (1, 2, 3)]
    print("  n=%d: base %s, scaled %s" % (n, base, scaled))
