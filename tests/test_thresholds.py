import functools
import math
from fractions import Fraction

import pytest

from orbichern.errors import DomainError
from orbichern.orbifold import canonical_k, chi_k
from orbichern.harmonic import diagonal_coefficient
from orbichern.thresholds import (_k3_coefficients, k3_coefficient,
                                  k3_ratio_bound,
                                  line_arrangement_pair,
                                  line_arrangement_threshold,
                                  min_multiplicity_for_degree,
                                  smooth_curve_pair, table1,
                                  two_component_m2_predicate)

F = Fraction

# the sixteen reference cells: degree range -> minimal order
TABLE_CELLS = [
    (12, 12, 107), (13, 13, 44), (14, 14, 29), (15, 15, 22), (16, 16, 19),
    (17, 17, 16), (18, 18, 15), (19, 19, 13), (20, 21, 12), (22, 23, 11),
    (24, 25, 10), (26, 30, 9), (31, 38, 8), (39, 60, 7), (61, 245, 6),
    (246, None, 5)]


def predicate(d, a):
    return (canonical_k(smooth_curve_pair(d, a), 2)[1]
            and chi_k(smooth_curve_pair(d, a), 2) > 0)


@pytest.mark.parametrize("d,expected", [(12, 107), (16, 19), (246, 5)])
def test_min_multiplicity_reference_values(d, expected):
    rec = min_multiplicity_for_degree(d)
    assert rec.minimal_value == expected


def test_min_multiplicity_witnesses():
    rec = min_multiplicity_for_degree(12)
    assert rec.chi_at_min == F(111, 11449)
    assert rec.chi_below_min == F(-51, 2809)


def test_min_multiplicity_is_minimal():
    for d in (12, 13, 19, 40, 246):
        rec = min_multiplicity_for_degree(d)
        assert predicate(d, rec.minimal_value)
        assert not predicate(d, rec.minimal_value - 1)
        assert rec.chi_at_min > 0
        if rec.minimal_value - 1 >= 2:
            assert rec.chi_below_min == chi_k(
                smooth_curve_pair(d, rec.minimal_value - 1), 2)


def test_min_multiplicity_no_solution_below_twelve():
    for d in range(4, 12):
        assert min_multiplicity_for_degree(d) is None


def test_min_multiplicity_domain_error():
    with pytest.raises(DomainError):
        min_multiplicity_for_degree(3)


def test_table1_matches_reference_cells():
    rows = table1()
    assert [(r.d_lo, r.d_hi, r.a_min) for r in rows] == TABLE_CELLS


def test_table1_row_lookups():
    rows = {r.d_lo: r for r in table1()}
    assert rows[13].a_min == 44
    assert rows[20].a_min == 12 and rows[20].d_hi == 21
    assert rows[61].a_min == 6 and rows[61].d_hi == 245


@pytest.mark.parametrize("c,expected", [(4, 11), (5, 6), (6, 4), (7, 3),
                                        (8, 2), (11, 1)])
def test_line_arrangement_reference_thresholds(c, expected):
    assert line_arrangement_threshold(c).minimal_value == expected


def test_line_arrangement_minimality_witnesses():
    for c in range(4, 15):
        rec = line_arrangement_threshold(c)
        d = rec.minimal_value
        assert c * d > 6 and rec.chi_at_min > 0
        assert rec.chi_at_min == chi_k(line_arrangement_pair([d] * c), 1)
        if d >= 2:
            below_ok = (c * (d - 1) > 6 and rec.chi_below_min > 0)
            assert not below_ok


def test_line_arrangement_no_solution_for_few_components():
    for c in (1, 2, 3):
        assert line_arrangement_threshold(c) is None


def test_line_arrangement_threshold_non_increasing():
    values = [line_arrangement_threshold(c).minimal_value
              for c in range(4, 31)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_k3_coefficient_values():
    assert k3_coefficient(2) == F(-1, 4)
    assert k3_coefficient(4) == 0
    assert k3_coefficient(5) == F(23, 120)


def test_k3_coefficient_brute_force_pairs():
    # independent oracle: enumerate the pairs 2 <= j1 < j2 <= m literally
    for m in range(2, 12):
        pairs = sum(F(1, j1 * j2)
                    for j1 in range(2, m + 1) for j2 in range(j1 + 1, m + 1))
        assert k3_coefficient(m) == pairs - F(m - 1, 2 * m)


def test_k3_first_positive_at_five():
    assert [m for m in range(2, 10) if k3_coefficient(m) > 0][0] == 5


def test_k3_ratio_bound_values():
    assert math.isclose(k3_ratio_bound(5), math.pi ** 2 * 20 / 23, rel_tol=1e-15)
    assert abs(k3_ratio_bound(5) - 8.58226469660) < 1e-9
    assert k3_ratio_bound(6) < k3_ratio_bound(5)


def test_k3_ratio_bound_domain_error():
    with pytest.raises(DomainError):
        k3_ratio_bound(4)  # coefficient is exactly zero there


def test_k3_ratio_bounded_by_ten():
    assert all(k3_ratio_bound(m) <= 10 for m in range(5, 201))


def test_two_component_predicate_boundary_and_failures():
    # int D^2 counts cross terms twice: [[1,2],[2,1]] gives 6 - 6 = 0 (true
    # at the boundary), [[1,1],[1,1]] gives 4 - 6 < 0 (false)
    assert two_component_m2_predicate([[1, 2], [2, 1]], 0) is True
    assert two_component_m2_predicate([[1, 1], [1, 1]], 0) is False
    assert two_component_m2_predicate([[10, 10], [10, 10]], 24) is False


def chi2_quadratic(d, a):
    # 4 a^2 chi_2 = (2d^2 - 27d + 48) a^2 - 12 d (d - 3) a + 12 d^2
    return F((2 * d * d - 27 * d + 48) * a * a - 12 * d * (d - 3) * a
             + 12 * d * d, 4 * a * a)


@functools.lru_cache(maxsize=None)
def exhaustive_min_order(d):
    # slow reference: every a from 2 up, each decided by canonical_k and chi_k
    a = 2
    while not predicate(d, a):
        a += 1
    return a


def test_min_multiplicity_against_exhaustive_search():
    for d in range(12, 301):
        a = exhaustive_min_order(d)
        rec = min_multiplicity_for_degree(d)
        assert rec.minimal_value == a
        assert rec.chi_at_min == chi_k(smooth_curve_pair(d, a), 2)
        assert rec.chi_below_min == chi_k(smooth_curve_pair(d, a - 1), 2)


def test_no_multiplicity_works_below_twelve():
    for d in range(4, 12):
        assert not any(predicate(d, a) for a in range(2, 200))


def test_min_multiplicity_against_integer_quadratic():
    for d in list(range(12, 400)) + list(range(400, 3001, 7)):
        a = 2
        while not (a * (d - 3) > 2 * d and chi2_quadratic(d, a) > 0):
            a += 1
        assert min_multiplicity_for_degree(d) == (
            d, a, chi2_quadratic(d, a), chi2_quadratic(d, a - 1))


def test_line_threshold_against_chi1_closed_form():
    def chi1(c, d):
        return 6 - F(3, 2) * c * d + F(c * (c - 3), 8) * d * d

    for c in range(4, 31):
        d = 1
        while not (c * d > 6 and chi1(c, d) > 0):
            d += 1
        assert line_arrangement_threshold(c) == (
            c, d, chi1(c, d), chi1(c, d - 1) if d >= 2 else None)


def test_searches_evaluate_each_candidate_once(monkeypatch):
    import orbichern.thresholds as thresholds

    calls = []
    chi2 = thresholds._chi2
    monkeypatch.setattr(thresholds, "_chi2",
                        lambda d, a: calls.append((d, a)) or chi2(d, a))
    for d in list(range(4, 301)) + [500, 1000, 2000, 3000]:
        calls.clear()
        thresholds.min_multiplicity_for_degree(d)
        assert len(calls) == len(set(calls)) <= 3
        assert calls or d < 12

    lines = []
    chi1 = thresholds._chi1_lines
    monkeypatch.setattr(thresholds, "_chi1_lines",
                        lambda c, d: lines.append((c, d)) or chi1(c, d))
    for c in range(4, 31):
        lines.clear()
        thresholds.line_arrangement_threshold(c)
        assert len(lines) == len(set(lines))


def test_integer_search_wants_strict_positivity():
    from orbichern.thresholds import _first_positive

    # (x - 2)(x - 3): zero at 2 and 3, positive from 4 on and below 2
    assert _first_positive((1, -5, 6), 0, lambda x: True) == 0
    assert _first_positive((1, -5, 6), 2, lambda x: True) == 4
    assert _first_positive((1, -5, 6), 0, lambda x: x % 2 == 1) == 1
    assert _first_positive((1, -5, 6), 2, lambda x: x % 2 == 1) == 5


def test_table1_against_grouped_exhaustive_search():
    rows = []
    for d in range(12, 301):
        a = exhaustive_min_order(d)
        if rows and rows[-1][2] == a:
            rows[-1][1] = d
        else:
            rows.append([d, d, a, chi_k(smooth_curve_pair(d, a), 2),
                         chi_k(smooth_curve_pair(d, a - 1), 2)])
    rows[-1][1] = None  # proven unbounded
    assert table1() == [tuple(r) for r in rows]


def test_line_threshold_against_exhaustive_chi1_search():
    def chi1(c, d):
        return chi_k(line_arrangement_pair([d] * c), 1)

    for c in range(4, 61):
        d = 1
        while not (c * d > 6 and chi1(c, d) > 0):
            d += 1
        assert line_arrangement_threshold(c) == (
            c, d, chi1(c, d), chi1(c, d - 1) if d >= 2 else None)


def test_k3_running_sums_match_diagonal_coefficient():
    values = list(_k3_coefficients(500))
    assert [m for m, _ in values] == list(range(2, 501))
    assert all(cm == diagonal_coefficient(m) for m, cm in values)
    assert list(_k3_coefficients(1)) == []


def test_chi_is_evaluated_only_for_reported_values(monkeypatch):
    import orbichern.thresholds as thresholds

    calls = []
    chi2 = thresholds._chi2
    monkeypatch.setattr(thresholds, "_chi2",
                        lambda d, a: calls.append((d, a)) or chi2(d, a))
    rows = table1()
    assert sorted(calls) == sorted(
        (r.d_lo, a) for r in rows for a in (r.a_min, r.a_min - 1))
    for d in list(range(4, 301)) + [500, 3000]:
        calls.clear()
        rec = min_multiplicity_for_degree(d)
        if d <= 11:
            assert calls == []
        else:
            assert calls == [(d, rec.minimal_value), (d, rec.minimal_value - 1)]

    lines = []
    chi1 = thresholds._chi1_lines
    monkeypatch.setattr(thresholds, "_chi1_lines",
                        lambda c, d: lines.append((c, d)) or chi1(c, d))
    for c in range(1, 61):
        lines.clear()
        thresholds.line_arrangement_threshold(c)
        assert len(lines) <= 2 and (lines or c <= 3)


def test_reported_chi_values_are_checked_against_the_quadratics(monkeypatch):
    import orbichern.thresholds as thresholds

    chi2, chi1 = thresholds._chi2, thresholds._chi1_lines
    monkeypatch.setattr(thresholds, "_chi2",
                        lambda d, a: chi2(d, a) + F(1, 10 ** 9))
    with pytest.raises(AssertionError):
        min_multiplicity_for_degree(20)
    with pytest.raises(AssertionError):
        table1()
    monkeypatch.setattr(thresholds, "_chi2", chi2)
    monkeypatch.setattr(thresholds, "_chi1_lines",
                        lambda c, d: chi1(c, d) - F(1, 10 ** 9))
    with pytest.raises(AssertionError):
        line_arrangement_threshold(5)


def test_record_types_are_named_tuples():
    rec = min_multiplicity_for_degree(12)
    assert rec == (12, 107, F(111, 11449), F(-51, 2809))
    assert repr(rec) == ("ThresholdRecord(parameter=12, minimal_value=107, "
                         "chi_at_min=Fraction(111, 11449), "
                         "chi_below_min=Fraction(-51, 2809))")
    row = table1()[-1]
    assert row == (246, None, 5, row.chi_at_min, row.chi_below_min)
    assert repr(row) == ("TableRow(d_lo=246, d_hi=None, a_min=5, "
                         "chi_at_min=%r, chi_below_min=%r)"
                         % (row.chi_at_min, row.chi_below_min))


def interpolate(points):
    """Coefficients, highest first, of the polynomial of degree below
    len(points) through the (x, y) points, by exact Lagrange interpolation."""
    coeffs = [F(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [F(1)], 1
        for j, (xj, _) in enumerate(points):
            if j != i:  # basis *= (x - xj)
                basis = [b - xj * c for b, c in zip(basis + [0], [0] + basis)]
                denom *= xi - xj
        coeffs = [c + yi * b / denom for c, b in zip(coeffs, basis)]
    return coeffs


def interpolate_table(value, outer, inner):
    """The table (rows by outer power, each a polynomial in the inner
    variable, highest first) of the polynomial value(x, y), of degree below
    len(outer) in x and len(inner) in y."""
    in_x = [interpolate([(x, value(x, y)) for x in outer]) for y in inner]
    return tuple(tuple(interpolate(list(zip(inner, column))))
                 for column in zip(*in_x))


def scaled_chi2(a, d):
    return 4 * a * a * chi_k(smooth_curve_pair(d, a), 2)


def scaled_chi1(d, c):
    return 8 * chi_k(line_arrangement_pair([d] * c), 1)


def test_tables_are_the_ring_interpolated():
    """Both tables are the ring's chi values, interpolated exactly.

    In dimension n a component of multiplicity a > k is alive at every order
    1..k, with weight (k/a^r - H_k^(r))/r on D^r and D = d h, so a^n chi_k
    has degree <= n in a and, separately, in d; c equal components enter as
    c times one, so degree <= n in c.  Here n = 2, and every grid point has
    a > k (a >= 3 at k = 2, a = 2 at k = 1), so three points per variable
    determine each table; the far points are insurance.
    """
    from orbichern.thresholds import _CHI1, _CHI2, _rows_at, _value

    assert interpolate_table(scaled_chi2, (3, 4, 5), (4, 5, 6)) == _CHI2
    assert interpolate_table(scaled_chi1, (1, 2, 3), (4, 5, 6)) == _CHI1
    for a, d in ((10 ** 6, 300), (7, 1000), (3, 4), (250, 31)):
        assert scaled_chi2(a, d) == _value(_rows_at(_CHI2, d), a)
    for d, c in ((300, 40), (1, 40), (17, 4), (2, 9)):
        assert scaled_chi1(d, c) == _value(_rows_at(_CHI1, c), d)


def test_table_slices_are_the_hand_written_polynomials():
    from orbichern.thresholds import _CHI1, _CHI2, _columns_at, _rows_at

    for d in range(4, 301):  # 4 a^2 chi_2 in a
        assert _rows_at(_CHI2, d) == (2 * d * d - 27 * d + 48,
                                      -12 * d * (d - 3), 12 * d * d)
    for a in range(2, 301):  # 4 a^2 chi_2 in d
        assert _columns_at(_CHI2, a) == (2 * a * a - 12 * a + 12,
                                         -27 * a * a + 36 * a, 48 * a * a)
    for c in range(1, 41):  # 8 chi_1 in d
        assert _rows_at(_CHI1, c) == (c * (c - 3), -12 * c, 48)


def positive_from(coeffs, d0):
    # the quadratic-only tail proof the Taylor shift replaced
    p2, p1, p0 = coeffs
    value = p2 * d0 * d0 + p1 * d0 + p0
    return p2 > 0 and value > 0 and 2 * p2 * d0 + p1 > 0


def negative_from(coeffs, d0):
    p2, p1, p0 = coeffs
    value = p2 * d0 * d0 + p1 * d0 + p0
    return p2 < 0 and value < 0 and 2 * p2 * d0 + p1 < 0


def test_sign_past_is_the_sign_of_the_taylor_shift():
    import random

    from orbichern.thresholds import _sign_past, _value

    rng = random.Random(11)
    decided = 0
    for _ in range(3000):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        x0 = rng.randint(-6, 12)
        n = len(coeffs) - 1
        # p(x0 + t) = sum_j t^j sum_i p_i C(i, j) x0^(i - j), p_i of x^i
        shifted = [sum(coeffs[n - i] * math.comb(i, j) * x0 ** (i - j)
                       for i in range(j, n + 1)) for j in range(n + 1)]
        signs = {(c > 0) - (c < 0) for c in shifted}
        sign = _sign_past(coeffs, x0)
        assert sign == (signs.pop() if len(signs) == 1 else 0)
        if sign:  # brute-force scan: p keeps that sign past x0
            decided += 1
            assert all((_value(coeffs, x) > 0) - (_value(coeffs, x) < 0) == sign
                       for x in range(x0, x0 + 200))
        if n == 2:
            assert sign == (1 if positive_from(coeffs, x0)
                            else -1 if negative_from(coeffs, x0) else 0)
    assert decided > 500


# pi to 50 digits: boundaries computed from it are exact to ~1e-48, far
# inside the 1e-12 offsets the tests put c2 at.
PI = F("3.14159265358979323846264338327950288419716939937510")


def test_zeta2_enclosure():
    from orbichern.thresholds import _zeta2_enclosure

    def g(x):
        return F(1, x) - F(1, 2 * x * x) + F(1, 6 * x ** 3)

    # an independent oracle: g(j) - g(j+1) = 1/(j+1)^2 + 1/(6 j^3 (j+1)^3) and
    # 1/(j^3 (j+1)^3) <= (j^-5 - (j+1)^-5)/5, so telescoping puts pi^2/6 in
    # H_n^(2) + [g(n) - 1/(30 n^5), g(n)]
    for j in range(1, 60):
        assert 6 * j ** 3 * (j + 1) ** 3 * (g(j) - g(j + 1) - F(1, (j + 1) ** 2)) == 1
    for n in (1, 2, 3, 16, 64, 128):
        lo, hi = _zeta2_enclosure(n)
        assert lo < PI * PI / 6 < hi
        top = sum(F(1, j * j) for j in range(1, n + 1)) + g(n)
        assert max(lo, top - F(1, 30 * n ** 5)) < min(hi, top)  # they meet
        if n >= 16:  # and from 16 on, the tail's box lies inside
            assert top - F(1, 30 * n ** 5) < lo and hi < top
    assert hi - lo < F(1, 10 ** 27)


@pytest.mark.parametrize("pairing", [[[0, 5], [5, 0]], [[1, 1], [1, 1]],
                                     [[3, 7, 1], [7, -2, 0], [1, 0, 4]]])
def test_two_component_predicate_at_the_boundary(pairing):
    # lhs = int D^2 - 3 sum int D_i^2; c2 on the boundary is 3 lhs/(4 pi^2)
    r = len(pairing)
    lhs = sum(map(sum, pairing)) - 3 * sum(pairing[i][i] for i in range(r))
    boundary = F(3 * lhs) / (4 * PI * PI)
    eps = F(1, 10 ** 12)
    # c2 further from 0 than the boundary raises (4 pi^2/3) c2 when lhs > 0
    assert two_component_m2_predicate(pairing, boundary * (1 - eps)) is (lhs > 0)
    assert two_component_m2_predicate(pairing, boundary * (1 + eps)) is (lhs < 0)
