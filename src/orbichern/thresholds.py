"""Exact threshold searches over ramification orders and arrangements.

Each search locates the smallest integer parameter for which a positivity
predicate built from chi values holds.  Both chi values involved are integer
quadratics over a positive integer scale, so every candidate is decided in
integer arithmetic alone (`_first_positive`); exact chi is evaluated only for
the values a search reports.

For a smooth plane curve of degree d and multiplicity a, 4 a^2 chi_2 is the
integer quadratic f(a) = A a^2 + B a + C with A = 2d^2 - 27d + 48,
B = -12d(d - 3), C = 12d^2.  At a = 2 it is 4A + 2B + C = -4d^2 - 36d + 192,
negative for every d >= 4, while f(0) = C > 0.  For d >= 12, A > 0, so
a = 2 lies between the roots and chi_2 > 0 exactly past the larger root; the
search starts at the isqrt floor of that root, which never exceeds it.  For
4 <= d <= 11, A < 0 and the larger root lies below 2, so no a >= 2 works.

For c general components of degree d and multiplicity 2, 8 chi_1 is the
integer quadratic c(c - 3) d^2 - 12cd + 48 in d.

Two runtime checks tie these identities to the ring: every reported chi_2
must satisfy 4 a^2 chi_2 = f(a) exactly, and every reported chi_1
8 chi_1 = c(c - 3) d^2 - 12cd + 48; a mismatch raises AssertionError.
`table1` decides a_min(d) for each degree from f alone and evaluates chi only
at the first degree of each row.  `_k3_coefficients` scans the
trivial-canonical coefficients with running harmonic sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError
from .harmonic import diagonal_coefficient, harmonic_range
from .orbifold import OrbifoldPair, chi_k
from .ring import projective_space

_P2 = projective_space(2)


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


def _chi2_quadratic(d: int):
    # 4 a^2 chi_2 = A a^2 + B a + C as integers.
    return 2 * d * d - 27 * d + 48, -12 * d * (d - 3), 12 * d * d


def _value(coeffs, x: int) -> int:
    """The integer polynomial with coefficients coeffs, highest first, at x."""
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def _first_positive(coeffs, start: int, admissible=lambda x: True) -> int:
    """Smallest integer x >= start with admissible(x) and the integer
    polynomial coeffs (highest degree first) positive at x.  The caller
    guarantees such an x exists."""
    x = start
    while not (admissible(x) and _value(coeffs, x) > 0):
        x += 1
    return x


def _checked(value: Fraction, scale: int, expected: int, what: str) -> Fraction:
    """value, once scale * value == expected holds exactly."""
    if scale * value != expected:
        raise AssertionError("%s = %s, but its integer quadratic gives %s"
                             % (what, value, Fraction(expected, scale)))
    return value


def _min_order(d: int) -> Optional[int]:
    """The minimal order a for degree d >= 4 decided from f alone; None for
    d <= 11.  a = 2 is never admissible, and every a >= 3 is for d >= 12."""
    A, B, C = _chi2_quadratic(d)
    if A < 0:
        return None
    root = (-B + math.isqrt(B * B - 4 * A * C)) // (2 * A)
    return _first_positive((A, B, C), max(3, root),
                           lambda a: _order2_admissible(d, a))


def min_multiplicity_for_degree(d: int) -> Optional[ThresholdRecord]:
    """Smallest integer a >= 2 making the degree-d plane pair both
    order-2 positive and chi_2 positive; None when no a exists (d < 12).

    With f(a) = 4 a^2 chi_2 = A a^2 + B a + C, f(2) = 4A + 2B + C =
    -4d^2 - 36d + 192 < 0 for d >= 4.  For d >= 12, A > 0, so a = 2 lies
    between the roots and chi_2 > 0 exactly for a past the larger root r.
    The integer search starts at max(3, root) with
    root = (-B + isqrt(disc)) // 2A, which never exceeds r, and decides each
    candidate by the sign of f.  For 4 <= d <= 11, A < 0 and
    f(0) = C > 0 > f(2) put the larger root below 2, so chi_2 < 0 for every
    a >= 2.  Exact chi_2 is evaluated at a and a - 1 only, and each value
    must satisfy 4 a^2 chi_2 = f(a) or AssertionError is raised.
    """
    if d < 4:
        raise DomainError("degree must be at least 4")
    a = _min_order(d)
    if a is None:
        return None
    f = _chi2_quadratic(d)

    def chi2(x):
        return _checked(_chi2(d, x), 4 * x * x, _value(f, x),
                        "chi_2 at d=%d, a=%d" % (d, x))

    return ThresholdRecord(parameter=d, minimal_value=a,
                           chi_at_min=chi2(a), chi_below_min=chi2(a - 1))


def _verify_last_range(d_start: int, a: int) -> None:
    """Check with integer arithmetic that a is minimal for every d >= d_start:
    the order-a quadratic in d stays positive past d_start, admissibility
    holds there, and every smaller order fails for all such d."""
    def quad_in_d(aa):
        # 4 a^2 chi_2 = P2 d^2 + P1 d + P0 as a polynomial in d.
        return 2 * aa * aa - 12 * aa + 12, -27 * aa * aa + 36 * aa, 48 * aa * aa

    def positive_from(coeffs, d0):
        p2, p1, p0 = coeffs
        value = p2 * d0 * d0 + p1 * d0 + p0
        return p2 > 0 and value > 0 and 2 * p2 * d0 + p1 > 0

    def negative_from(coeffs, d0):
        p2, p1, p0 = coeffs
        value = p2 * d0 * d0 + p1 * d0 + p0
        return p2 < 0 and value < 0 and 2 * p2 * d0 + p1 < 0

    if not positive_from(quad_in_d(a), d_start):
        raise AssertionError("order %d does not stay positive past d=%d" % (a, d_start))
    if not _order2_admissible(d_start, a):
        raise AssertionError("order %d not admissible at d=%d" % (a, d_start))
    # from 3 on: (1 - 2/2) d = 0 is never > 3, so order 2 stays inadmissible
    for aa in range(3, a):
        if not negative_from(quad_in_d(aa), d_start):
            raise AssertionError("order %d works somewhere past d=%d" % (aa, d_start))


def table1(d_max: int = 300) -> list[TableRow]:
    """Ranges of degrees sharing a minimal ramification order, exhaustively
    for 12 <= d <= d_max, plus a root-bound proof that the last range is
    unbounded.

    a_min(d) is decided for every degree from 4 a^2 chi_2 = f(a) in integers
    alone.  Exact chi_2 is evaluated only at each row's first degree, through
    `min_multiplicity_for_degree`, so the printed values are checked against
    f.  The sweep must reach the range proven unbounded: its last row must
    have the limiting order, the smallest a >= 3 at which the d^2 coefficient
    2a^2 - 12a + 12 of 4 a^2 chi_2 is positive, or DomainError is raised.
    """
    starts = []  # (first degree, a_min) of each row
    for d in range(12, d_max + 1):
        a = _min_order(d)
        if not starts or starts[-1][1] != a:
            starts.append((d, a))
    limit = _first_positive((2, -12, 12), 3)
    if not starts or starts[-1][1] != limit:
        raise DomainError(
            "d_max=%d is too small: the sweep must reach the range proven "
            "unbounded, where the minimal order is %d" % (d_max, limit))
    _verify_last_range(*starts[-1])
    rows = []
    for i, (d_lo, a) in enumerate(starts):
        rec = min_multiplicity_for_degree(d_lo)
        d_hi = starts[i + 1][0] - 1 if i + 1 < len(starts) else None
        rows.append(TableRow(d_lo=d_lo, d_hi=d_hi, a_min=a,
                             chi_at_min=rec.chi_at_min,
                             chi_below_min=rec.chi_below_min))
    return rows


def _chi1_lines(c: int, d: int) -> Fraction:
    return chi_k(line_arrangement_pair([d] * c), 1)


def line_arrangement_threshold(c: int) -> Optional[ThresholdRecord]:
    """Minimal equal degree d for which c multiplicity-2 components give a
    general-type pair (c d > 6) with chi_1 > 0; None when c <= 3, where the
    quadratic term c(c-3)/8 rules positivity out.

    Each candidate d is decided by the sign of the integer quadratic
    8 chi_1 = c(c-3) d^2 - 12cd + 48.  Exact chi_1 is evaluated at d and, when
    d >= 2, at d - 1, and each value must match the quadratic or
    AssertionError is raised.
    """
    if c < 1:
        raise DomainError("component count must be >= 1")
    if c <= 3:
        return None  # quadratic term c(c-3)/8 <= 0: chi_1 < 0 wherever cd > 6
    q = (c * (c - 3), -12 * c, 48)
    d = _first_positive(q, 1, lambda d: c * d > 6)

    def chi1(x):
        return _checked(_chi1_lines(c, x), 8, _value(q, x),
                        "chi_1 at c=%d, d=%d" % (c, x))

    return ThresholdRecord(parameter=c, minimal_value=d, chi_at_min=chi1(d),
                           chi_below_min=chi1(d - 1) if d >= 2 else None)


def k3_coefficient(m: int) -> Fraction:
    """Self-intersection weight sum_{2<=j1<j2<=m} 1/(j1 j2) - (m-1)/(2m)."""
    return diagonal_coefficient(m)


def _k3_coefficients(m_max: int):
    """Yield (m, k3_coefficient(m)) for 2 <= m <= m_max, keeping the running
    sums s1 = H_m - 1 and s2 = H_m^(2) - 1: O(m_max) Fraction steps, where a
    k3_coefficient call per m restarts both sums."""
    s1 = s2 = Fraction(0)
    for m in range(2, m_max + 1):
        s1 += Fraction(1, m)
        s2 += Fraction(1, m * m)
        yield m, (s1 * s1 - s2) / 2 - Fraction(m - 1, 2 * m)


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
    """Rationals lo < pi^2/6 < hi, hi - lo = 1/(30 N^5).

    With g(x) = 1/x - 1/(2x^2) + 1/(6x^3), g(j) - g(j+1) = 1/(j+1)^2 +
    1/(6 j^3 (j+1)^3) and 1/(j^3 (j+1)^3) <= (j^-5 - (j+1)^-5)/5, so
    telescoping gives g(N) - 1/(30 N^5) < sum_{j>N} 1/j^2 < g(N).
    """
    hi = harmonic_range(1, N, 2) + Fraction(6 * N * N - 3 * N + 1, 6 * N ** 3)
    return hi - Fraction(1, 30 * N ** 5), hi


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
            lhs += Fraction(pairing[i][j])
        lhs -= 3 * Fraction(pairing[i][i])
    c2 = Fraction(c2)
    if c2 == 0:
        return lhs >= 0
    N = 16
    while True:
        bounds = sorted(8 * c2 * z for z in _zeta2_enclosure(N))
        if lhs >= bounds[1]:
            return True
        if lhs <= bounds[0]:
            return False
        N *= 2
