"""Exact threshold searches over ramification orders and arrangements.

Each search finds the smallest integer parameter at which a positivity
predicate built from chi values holds.  The chi values involved are integer
polynomials over a positive integer scale, each written once as a table:
one row per power of the outer variable, highest first, each row a
polynomial in the inner variable, highest first.

- `_CHI2` is 4 a^2 chi_2 of the plane pair (d h, a), in a over d:
  (2d^2 - 27d + 48) a^2 - 12d(d - 3) a + 12d^2.
- `_CHI1` is 8 chi_1 of c general components (d h, 2), in d over c:
  c(c - 3) d^2 - 12cd + 48.

In dimension n, a component of multiplicity a > k lives at every order
1..k with weight (k/a^r - H_k^(r))/r on D^r, and D = d h; so a^n chi_k has
degree at most n in a and, separately, in d, and c equal components enter
as c times one, so at most n in c.  Both searches meet only a > k (order-2
admissibility needs a >= 3; arrangements have a = 2 at k = 1).  The tests
derive both tables from the ring.

Candidates are decided in integers alone on slices of a table (`_rows_at`,
`_columns_at`); exact chi is evaluated only for the values a search reports,
and `_record` checks each against its table or raises AssertionError.

For degree d, f = `_rows_at(_CHI2, d)` has f(2) = -4d^2 - 36d + 192 < 0 for
d >= 4 and f(0) = 12d^2 > 0.  For d >= 12 its leading coefficient is
positive, so chi_2 > 0 exactly past the larger root, and the search starts
at that root's isqrt floor; for 4 <= d <= 11 it is negative, the larger root
lies below 2, and no a >= 2 works.  `table1` decides every degree from 12
to _SWEEP_END and proves its last range unbounded (`_verify_last_range`).
`_k3_coefficients` scans the trivial-canonical coefficients with running
harmonic sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError
from .harmonic import _diagonal, _tail, diagonal_coefficient, harmonic_range
from .orbifold import OrbifoldPair, chi_k
from .ring import _as_fraction, _check_int, projective_space

_P2 = projective_space(2)

_CHI2 = ((2, -27, 48), (-12, 36, 0), (12, 0, 0))  # 4 a^2 chi_2: a outer, d inner
_CHI1 = ((1, -3, 0), (0, -12, 0), (0, 0, 48))  # 8 chi_1: d outer, c inner
_SWEEP_END = 300  # table1 decides every degree up to here

#: Largest component count `line_arrangement_threshold` takes: its exact
#: chi_1 check builds all c components, about 0.3 s at c = 10^4.
LINE_COUNT_LIMIT = 10_000

#: Largest k3scan --m-max: the output grows as M^2, 83 MB and 8 s at 8000.
K3_SCAN_LIMIT = 8_000


class ThresholdRecord(NamedTuple):
    """(parameter, minimal value, chi at the minimum and just below it)."""
    parameter: int
    minimal_value: int
    chi_at_min: Fraction
    chi_below_min: Optional[Fraction]


class TableRow(NamedTuple):
    """One cell of the minimal-ramification table: a range of degrees
    sharing the same minimal order.  d_hi is None for the unbounded range."""
    d_lo: int
    d_hi: Optional[int]
    a_min: int
    chi_at_min: Fraction
    chi_below_min: Optional[Fraction]


def smooth_curve_pair(d: int, a) -> OrbifoldPair:
    """The plane pair with one smooth degree-d component of multiplicity a."""
    h = _P2.generator("h")
    return OrbifoldPair(_P2, [(h * d, a)])


def line_arrangement_pair(degrees) -> OrbifoldPair:
    """General-position components of the given degrees, multiplicity 2."""
    h = _P2.generator("h")
    return OrbifoldPair(_P2, [(h * d, 2) for d in degrees])


def _chi2(d: int, a: int) -> Fraction:
    return chi_k(smooth_curve_pair(d, a), 2)


def _order2_admissible(d: int, a: int) -> bool:
    # K + Delta^(2) > 0 on the plane: (1 - 2/a) d > 3.
    return a * (d - 3) > 2 * d


def _value(coeffs, x: int) -> int:
    """The integer polynomial with coefficients coeffs, highest first, at x."""
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def _rows_at(table, y: int):
    """The table's polynomial in its outer variable, the inner one at y."""
    return tuple(_value(row, y) for row in table)


def _columns_at(table, x: int):
    """The table's polynomial in its inner variable, the outer one at x."""
    return tuple(_value(column, x) for column in zip(*table))


def _first_positive(coeffs, start: int, admissible) -> int:
    """Smallest integer x >= start with admissible(x) and the integer
    polynomial coeffs (highest degree first) positive at x.  The caller
    guarantees such an x exists."""
    x = start
    while not (admissible(x) and _value(coeffs, x) > 0):
        x += 1
    return x


def _sign_past(coeffs, x0: int) -> int:
    """1 or -1 when every coefficient of p(x0 + t), p the integer polynomial
    coeffs (highest first), has that sign, so that p has it at every
    x >= x0; otherwise 0.  The shift is repeated synthetic division by
    x - x0."""
    shifted = list(coeffs)
    for end in range(len(shifted) - 1, 0, -1):
        for j in range(1, end + 1):
            shifted[j] += shifted[j - 1] * x0
    signs = {(c > 0) - (c < 0) for c in shifted}
    return signs.pop() if len(signs) == 1 else 0


def _record(chi, table, scale, name, parameter: int, x: int) -> ThresholdRecord:
    """The record of minimal value x: exact chi(parameter, y) at y = x and,
    for x >= 2, y = x - 1, each checked: scale(y) chi must equal the table at
    (y, parameter), or AssertionError names name % (parameter, y)."""
    poly = _rows_at(table, parameter)

    def checked(y):
        value = chi(parameter, y)
        if _value(scale, y) * value != _value(poly, y):
            raise AssertionError("%s is %s, but its integer polynomial gives %s"
                                 % (name % (parameter, y), value,
                                    Fraction(_value(poly, y), _value(scale, y))))
        return value

    return ThresholdRecord(parameter, x, checked(x),
                           checked(x - 1) if x >= 2 else None)


def _plane_record(d: int, a: int) -> ThresholdRecord:
    return _record(_chi2, _CHI2, (4, 0, 0), "chi_2 at d=%d, a=%d", d, a)


def _min_order(d: int) -> Optional[int]:
    """The minimal order a for degree d >= 4 decided from `_CHI2` alone; None
    for d <= 11.  a = 2 is never admissible, and every a >= 3 is for d >= 12."""
    A, B, C = f = _rows_at(_CHI2, d)
    if A < 0:
        return None
    root = (-B + math.isqrt(B * B - 4 * A * C)) // (2 * A)
    return _first_positive(f, max(3, root), lambda a: _order2_admissible(d, a))


def min_multiplicity_for_degree(d: int) -> Optional[ThresholdRecord]:
    """Smallest integer a >= 2 making the degree-d plane pair both
    order-2 positive and chi_2 positive; None when no a exists (d < 12).

    Decided by the sign of 4 a^2 chi_2 from `_CHI2`, with the root bound of
    the module docstring.  Exact chi_2 is evaluated at a and a - 1 only, and
    each value must match `_CHI2` or AssertionError is raised.
    """
    a = _min_order(_check_int(d, 4, "degree d"))
    return None if a is None else _plane_record(d, a)


def _verify_last_range(d_start: int, a: int) -> None:
    """Check with integer arithmetic that a is minimal for every d >= d_start:
    order a's polynomial in d stays positive past d_start, admissibility
    holds there (and beyond, as (a - 2) d > 3a grows with d), and every
    smaller order stays negative."""
    if _sign_past(_columns_at(_CHI2, a), d_start) != 1:
        raise AssertionError("order %d does not stay positive past d=%d" % (a, d_start))
    if not _order2_admissible(d_start, a):
        raise AssertionError("order %d not admissible at d=%d" % (a, d_start))
    # from 3 on: (1 - 2/2) d = 0 is never > 3, so order 2 stays inadmissible
    for aa in range(3, a):
        if _sign_past(_columns_at(_CHI2, aa), d_start) != -1:
            raise AssertionError("order %d works somewhere past d=%d" % (aa, d_start))


def table1() -> list[TableRow]:
    """Ranges of degrees sharing a minimal ramification order, exhaustively
    for 12 <= d <= _SWEEP_END, the last range proven unbounded by
    `_verify_last_range`.

    a_min(d) is decided for every degree from `_CHI2` alone.  Exact chi_2 is
    evaluated only at each row's first degree, at a_min and a_min - 1, and
    checked against `_CHI2`.
    """
    starts = []  # (first degree, a_min) of each row
    for d in range(12, _SWEEP_END + 1):
        a = _min_order(d)
        if not starts or starts[-1][1] != a:
            starts.append((d, a))
    _verify_last_range(*starts[-1])
    ends = [d - 1 for d, _ in starts[1:]] + [None]
    return [TableRow(d_lo, d_hi, a, *_plane_record(d_lo, a)[2:])
            for (d_lo, a), d_hi in zip(starts, ends)]


def _chi1_lines(c: int, d: int) -> Fraction:
    return chi_k(line_arrangement_pair([d] * c), 1)


def _check_line_count(c) -> None:
    if _check_int(c, 1, "c") > LINE_COUNT_LIMIT:
        raise DomainError("component count must be <= LINE_COUNT_LIMIT = %d: "
                          "the exact chi_1 check is linear in c" % LINE_COUNT_LIMIT)


def line_arrangement_threshold(c: int) -> Optional[ThresholdRecord]:
    """Minimal equal degree d for which c multiplicity-2 components give a
    general-type pair (c d > 6) with chi_1 > 0; None when c <= 3, where the
    d^2 coefficient c(c-3) of `_CHI1` rules positivity out.

    Each candidate d is decided by the sign of 8 chi_1 from `_CHI1`.  Exact
    chi_1 is evaluated at d and, when d >= 2, at d - 1, and each value must
    match `_CHI1` or AssertionError is raised.  c > LINE_COUNT_LIMIT is
    refused before any pair is built.
    """
    _check_line_count(c)
    if c <= 3:
        return None  # d^2 coefficient c(c-3) <= 0: chi_1 < 0 wherever cd > 6
    d = _first_positive(_rows_at(_CHI1, c), 1, lambda d: c * d > 6)
    return _record(_chi1_lines, _CHI1, (8,), "chi_1 at c=%d, d=%d", c, d)


#: Self-intersection weight sum_{2<=j1<j2<=m} 1/(j1 j2) - (m-1)/(2m).
k3_coefficient = diagonal_coefficient


def _k3_coefficients(m_max: int):
    """Yield (m, k3_coefficient(m)) for 2 <= m <= m_max, by `_diagonal` from
    running sums L H_m, L^2 H_m^(2) over the running lcm L = lcm(1..m), where
    a k3_coefficient call per m restarts both sums."""
    lcm = s1 = s2 = 1
    for m in range(2, m_max + 1):
        grow = m // math.gcd(lcm, m)
        lcm, s1, s2 = lcm * grow, s1 * grow, s2 * grow * grow
        u = lcm // m
        s1, s2 = s1 + u, s2 + u * u
        yield m, _diagonal(m, lcm, [s1, s2])


def k3_ratio_bound(m: int) -> float:
    """pi^2 / (6 c_m) in binary64; the c2 budget a single component of
    multiplicity m must dominate."""
    return _ratio_bound(m, k3_coefficient(m))


def _ratio_bound(m: int, cm: Fraction) -> float:
    """k3_ratio_bound(m) from its coefficient cm = k3_coefficient(m)."""
    if cm <= 0:
        raise DomainError("ratio undefined: coefficient is not positive at m=%d" % m)
    return math.pi ** 2 / (6 * float(cm))


def _zeta2_enclosure(N: int):
    """Rationals lo < pi^2/6 < hi: H_{N-1}^(2) plus `_tail`(N, None, 2)'s
    value, minus and plus its radius."""
    value, radius = _tail(N, None, 2)
    mid = harmonic_range(1, N - 1, 2) + value
    return mid - radius, mid + radius


def two_component_m2_predicate(pairing, c2) -> bool:
    """For multiplicity-2 components on a trivial-canonical surface:
    int(D^2) - 3 sum_i int(D_i^2) >= (4 pi^2 / 3) c2, with D the total
    boundary.  Decided exactly: the right side is 8 c2 pi^2/6, and the
    rational enclosure of pi^2/6 from `_zeta2_enclosure` is refined (N
    doubling) until it puts the left side on one side.  As pi^2 is
    irrational, this ends for every rational c2 != 0; c2 = 0 is decided by
    the sign of the left side."""
    r = len(pairing)
    lhs = Fraction(0)
    for i in range(r):
        for j in range(r):
            lhs += _as_fraction(pairing[i][j])
        lhs -= 3 * _as_fraction(pairing[i][i])
    c2 = _as_fraction(c2)
    if c2 == 0:
        return lhs >= 0
    N = 64
    while True:
        bounds = sorted(8 * c2 * z for z in _zeta2_enclosure(N))
        if lhs >= bounds[1]:
            return True
        if lhs <= bounds[0]:
            return False
        N *= 2
