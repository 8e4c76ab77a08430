"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines inline.
All equalities are exact rational comparisons unless a tolerance is part of
the criterion itself.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from orbichern.gysin import gysin_coefficient, jump_data
from orbichern.orbifold import (OrbifoldPair, chi_k,
                                chi_trivial_canonical_closed_form)
from orbichern.partitions import (decompose_sym_tensor, schur_dimension,
                                  weighted_vectors)
from orbichern.ring import abelian_variety, surface_with_invariants
from orbichern.thresholds import (k3_coefficient, k3_ratio_bound,
                                  line_arrangement_pair,
                                  line_arrangement_threshold,
                                  smooth_curve_pair, table1)

F = Fraction

EXPECTED_TABLE = [
    (12, 12, 107), (13, 13, 44), (14, 14, 29), (15, 15, 22), (16, 16, 19),
    (17, 17, 16), (18, 18, 15), (19, 19, 13), (20, 21, 12), (22, 23, 11),
    (24, 25, 10), (26, 30, 9), (31, 38, 8), (39, 60, 7), (61, 245, 6),
    (246, None, 5)]


def _report(num, name, ok, detail=""):
    print("ACCEPTANCE %d (%s): %s%s"
          % (num, name, "PASS" if ok else "FAIL",
             " [%s]" % detail if detail else ""))
    assert ok, "criterion %d (%s) failed %s" % (num, name, detail)


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    rows = table1()
    elapsed = time.perf_counter() - start
    cells = [(r.d_lo, r.d_hi, r.a_min) for r in rows]
    _report(1, "table1 reproduction",
            cells == EXPECTED_TABLE and elapsed < 5.0,
            "16 cells, %.2fs" % elapsed)


def test_criterion_2_chi2_closed_form():
    bad = 0
    checked = 0
    for d in range(4, 121):
        a_low = 2 * d // (d - 3) + 1  # smallest integer with (1-2/a)d > 3
        for a in range(a_low, 151):
            expected = F((48 - 27 * d + 2 * d * d) * a * a
                         - 12 * d * (d - 3) * a + 12 * d * d, 4 * a * a)
            if chi_k(smooth_curve_pair(d, a), 2) != expected:
                bad += 1
            checked += 1
    _report(2, "chi_2 closed form", bad == 0,
            "%d (d, a) pairs, zero tolerance" % checked)


def test_criterion_3_chi1_line_formula_and_threshold():
    ok = True
    for c in range(1, 31):
        for d in range(1, 31):
            expected = 6 - F(3, 2) * c * d + F(c * (c - 3), 8) * d * d
            if chi_k(line_arrangement_pair([d] * c), 1) != expected:
                ok = False
    def positive_at_one(c):
        return c * 1 > 6 and chi_k(line_arrangement_pair([1] * c), 1) > 0
    minimal_c = next(c for c in range(1, 40) if positive_at_one(c))
    ok = ok and minimal_c == 11
    ok = ok and chi_k(line_arrangement_pair([1] * 11), 1) == F(1, 2)
    ok = ok and chi_k(line_arrangement_pair([1] * 10), 1) == F(-1, 4)
    _report(3, "chi_1 line formula and threshold", ok,
            "c,d <= 30; minimal c at d=1 is %d" % minimal_c)


def test_criterion_4_line_arrangement_thresholds():
    expected = {4: 11, 5: 6, 6: 4, 7: 3, 8: 2, 11: 1}
    got = {c: line_arrangement_threshold(c).minimal_value for c in expected}
    _report(4, "line-arrangement thresholds", got == expected, str(got))


def test_criterion_5_trivial_canonical_coefficients():
    ok = k3_coefficient(4) == 0
    first_positive = next(m for m in range(2, 20) if k3_coefficient(m) > 0)
    ok = ok and first_positive == 5
    ok = ok and k3_coefficient(5) == F(23, 120)
    ratio5 = k3_ratio_bound(5)
    ok = ok and 8.5 < ratio5 < 8.7
    ok = ok and all(k3_ratio_bound(m) <= 10 for m in range(5, 201))
    _report(5, "trivial-canonical coefficients", ok,
            "c4=0, first positive m=%d, ratio(5)=%.4f" % (first_positive, ratio5))


def test_criterion_6_closed_form_vs_generic_chi():
    rng = random.Random(1918)
    bad = 0
    for trial in range(50):
        r = rng.randint(1, 3)
        names = ["D%d" % (i + 1) for i in range(r)]
        mat = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                mat[i][j] = mat[j][i] = rng.randint(-1, 6)
        if trial % 2 == 0:
            geom = surface_with_invariants(c2=rng.randint(0, 24),
                                           divisors=names, dd=mat)
        else:
            geom = abelian_variety(2, names=names, pairing=mat)
        mults = [rng.randint(2, 7) for _ in range(r)]
        pair = OrbifoldPair(geom, [(geom.generator(nm), m)
                                   for nm, m in zip(names, mults)])
        for k in range(max(mults), max(mults) + 4):
            if chi_trivial_canonical_closed_form(pair, k) != chi_k(pair, k):
                bad += 1
    _report(6, "closed form vs generic chi", bad == 0,
            "50 randomized pairs, k up to max m + 3, exact")


def test_criterion_7_gysin_vanishing():
    checked = 0
    ok = True
    for n in (2, 3, 4):
        shapes = [()] + [tuple(sorted(c, reverse=True))
                         for length in range(1, n + 1)
                         for c in combinations_with_replacement(range(1, 5), length)]
        for lam in shapes:
            if jump_data(n, lam).defect > 0:
                checked += 1
                if gysin_coefficient(n, lam) != 0:
                    ok = False
    for n in (2, 3, 4):
        base = gysin_coefficient(n, (1,) * n)
        ok = ok and abs(base) == 1
        for c in range(1, 6):
            ok = ok and gysin_coefficient(n, (c,) * n) == c ** n * base
    _report(7, "Gysin vanishing, homogeneity, magnitude", ok,
            "%d positive-defect shapes" % checked)


def test_criterion_8_pieri_suite():
    rng = random.Random(8128)
    ok = True
    for _ in range(100):
        p = rng.randint(1, 4)
        degrees = [rng.randint(0, 5) for _ in range(p)]
        expansion = decompose_sym_tensor(degrees)
        for lam in expansion.terms:
            if len(lam) > p:
                ok = False
        for r in range(1, 6):
            lhs = 1
            for a in degrees:
                lhs *= schur_dimension((a,), r)
            rhs = sum(m * schur_dimension(lam, r)
                      for lam, m in expansion.terms.items())
            if lhs != rhs:
                ok = False
    dp_checked = 0
    for k in range(1, 11):
        counts = [1] + [0] * 60
        for part in range(1, k + 1):
            for v in range(part, 61):
                counts[v] += counts[v - part]
        for n in range(61):
            dp_checked += 1
            if len(weighted_vectors(k, n)) != counts[n]:
                ok = False
    _report(8, "Pieri suite", ok,
            "100 random tensors, %d weight counts" % dp_checked)


def test_criterion_9_log_asymptotics():
    geometry_pair = line_arrangement_pair([5])  # placeholder to reuse P2
    pair = OrbifoldPair(geometry_pair.geometry,
                        [(geometry_pair.geometry.generator("h") * 5, "inf")])
    ratios = []
    for k in (10 ** 2, 10 ** 4, 10 ** 6):
        value = chi_k(pair, k, numeric=True)
        ratios.append(value / ((5 - 3) ** 2 * math.log(k) ** 2 / 2))
    ok = ratios[0] < ratios[1] < ratios[2] and abs(ratios[2] - 1) < 0.2
    _report(9, "log-asymptotics", ok,
            "ratios %.4f, %.4f, %.4f" % tuple(ratios))
