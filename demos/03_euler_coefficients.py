#!/usr/bin/env python3
"""Euler-characteristic coefficients of jet-differential bundles.

chi_k weighs products of Segre components of the order-j cotangent bundles
by j^(-q) and integrates; a positive value (with a positive order-k
canonical class) signals jet differentials at that order.  For large k the
coefficient grows like (K + log part)^n (log k)^n / n!.
"""

import math

from orbichern import (INFINITE_ORDER, OrbifoldPair, canonical_k, chi_k,
                       chi_leading_term, log_asymptotic_coefficient,
                       projective_space)

P2 = projective_space(2)
h = P2.generator("h")

print("== smooth plane curve of degree 12, multiplicity a, order 2 ==")
for a in (100, 106, 107, 120):
    pair = OrbifoldPair(P2, [(h * 12, a)])
    report = chi_leading_term(pair, 2)
    print("  a=%3d: chi_2 = %12s   K+Delta^(2) positive: %s"
          % (a, report.chi, report.canonical_positive))
print("the sign flips between a = 106 and a = 107")

print()
print("== eleven multiplicity-2 lines, order 1 ==")
lines = OrbifoldPair(P2, [(h, 2) for _ in range(11)])
report = chi_leading_term(lines, 1)
print("chi_1 = %s, leading scale %s, canonical positive: %s"
      % (report.chi, report.leading_scale, report.canonical_positive))

print()
print("== logarithmic quintic: chi_k against its (log k)^2 rate ==")
quintic = OrbifoldPair(P2, [(h * 5, "inf")])
rate = log_asymptotic_coefficient(quintic)
print("rate (K + log part)^2 / 2! =", rate)
for k in (10 ** 2, 10 ** 4, 10 ** 6):
    value = chi_k(quintic, k, numeric=True)  # numeric mode for large k
    print("  k=10^%d: chi_k = %10.2f   ratio to rate*(ln k)^2 = %.4f"
          % (round(math.log10(k)), value, value / (float(rate) * math.log(k) ** 2)))

print()
cls, positive = canonical_k(quintic, INFINITE_ORDER)
print("canonical class of the log profile:", cls, " positive:", positive)
