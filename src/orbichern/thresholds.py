"""Exact threshold searches over ramification orders and arrangements.

Each search locates the smallest integer parameter for which a positivity
predicate built from chi values holds.  Quadratic root bounds (via integer
square roots, never floats) narrow the candidate window; the actual decisions
are exact chi evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .harmonic import diagonal_coefficient
from .orbifold import OrbifoldPair, chi_k
from .ring import projective_space

_P2 = projective_space(2)


@dataclass(frozen=True)
class ThresholdRecord:
    """(parameter, minimal value, chi at the minimum and just below it)."""
    parameter: int
    minimal_value: int
    chi_at_min: Fraction
    chi_below_min: Optional[Fraction]


@dataclass(frozen=True)
class TableRow:
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


def _order2_predicate(d: int, a: int) -> bool:
    return _order2_admissible(d, a) and _chi2(d, a) > 0


def _chi2_quadratic(d: int):
    # 4 a^2 chi_2 = A a^2 + B a + C as integers.
    return 2 * d * d - 27 * d + 48, -12 * d * (d - 3), 12 * d * d


def min_multiplicity_for_degree(d: int) -> Optional[ThresholdRecord]:
    """Smallest integer a >= 2 making the degree-d plane pair both
    order-2 positive and chi_2 positive; None when no a exists (d < 12).

    The quadratic root bound locates the candidate; the two nearest integers
    are then verified by exact chi evaluation.
    """
    if d < 4:
        raise DomainError("degree must be at least 4")
    A, B, C = _chi2_quadratic(d)
    if A <= 0:
        # Downward parabola in a (4 <= d <= 11): chi_2 > 0 only between the
        # roots, so an exhaustive sweep up to past the larger root settles it.
        disc = B * B - 4 * A * C
        bound = 3 + (-B + math.isqrt(max(0, disc))) // (2 * -A)
        for a in range(2, bound + 1):
            if _order2_predicate(d, a):  # pragma: no cover - never fires
                raise AssertionError("unexpected admissible order at d=%d" % d)
        return None
    disc = B * B - 4 * A * C
    lower = 2
    if disc >= 0:
        root = (-B + math.isqrt(disc)) // (2 * A)
        lower = max(2, root - 2)
    a = lower
    while not _order2_predicate(d, a):
        a += 1
    below = _chi2(d, a - 1) if a - 1 >= 2 else None
    return ThresholdRecord(parameter=d, minimal_value=a,
                           chi_at_min=_chi2(d, a), chi_below_min=below)


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
    for aa in range(2, a):
        if aa == 2:
            continue  # (1 - 2/2) d = 0 is never > 3: order 2 stays inadmissible
        if not negative_from(quad_in_d(aa), d_start):
            raise AssertionError("order %d works somewhere past d=%d" % (aa, d_start))


def table1(d_max: int = 300, workers: int = 1) -> list[TableRow]:
    """Ranges of degrees sharing a minimal ramification order, exhaustively
    for 12 <= d <= d_max, plus a root-bound proof that the last range is
    unbounded.  The sweep parallelizes over d; results are order-independent."""
    degrees = range(12, d_max + 1)
    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(min_multiplicity_for_degree, degrees))
    else:
        records = [min_multiplicity_for_degree(d) for d in degrees]
    rows: list[TableRow] = []
    start = 0
    for i in range(1, len(records) + 1):
        if i == len(records) or records[i].minimal_value != records[start].minimal_value:
            rec = records[start]
            d_hi = records[i - 1].parameter
            rows.append(TableRow(d_lo=rec.parameter, d_hi=d_hi,
                                 a_min=rec.minimal_value,
                                 chi_at_min=rec.chi_at_min,
                                 chi_below_min=rec.chi_below_min))
            start = i
    last = rows[-1]
    _verify_last_range(last.d_lo, last.a_min)
    rows[-1] = TableRow(d_lo=last.d_lo, d_hi=None, a_min=last.a_min,
                        chi_at_min=last.chi_at_min,
                        chi_below_min=last.chi_below_min)
    return rows


def _chi1_lines(c: int, d: int) -> Fraction:
    return chi_k(line_arrangement_pair([d] * c), 1)


def line_arrangement_threshold(c: int) -> Optional[ThresholdRecord]:
    """Minimal equal degree d for which c multiplicity-2 components give a
    general-type pair (c d > 6) with chi_1 > 0; None when c <= 3, where the
    quadratic term c(c-3)/8 rules positivity out.
    """
    if c < 1:
        raise DomainError("component count must be >= 1")
    if c <= 3:
        return None  # quadratic term c(c-3)/8 <= 0: chi_1 < 0 wherever cd > 6
    d = 1
    while not (c * d > 6 and _chi1_lines(c, d) > 0):
        d += 1
    below = _chi1_lines(c, d - 1) if d >= 2 else None
    return ThresholdRecord(parameter=c, minimal_value=d,
                           chi_at_min=_chi1_lines(c, d), chi_below_min=below)


def k3_coefficient(m: int) -> Fraction:
    """Self-intersection weight sum_{2<=j1<j2<=m} 1/(j1 j2) - (m-1)/(2m)."""
    if m < 2:
        raise DomainError("m must be an integer >= 2")
    return diagonal_coefficient(m)


def k3_ratio_bound(m: int) -> float:
    """pi^2 / (6 c_m) in binary64; the c2 budget a single component of
    multiplicity m must dominate."""
    return _ratio_bound(m, k3_coefficient(m))


def _ratio_bound(m: int, cm: Fraction) -> float:
    """k3_ratio_bound(m) from its coefficient cm = k3_coefficient(m)."""
    if cm <= 0:
        raise DomainError("ratio undefined: coefficient is not positive at m=%d" % m)
    return math.pi ** 2 / (6 * float(cm))


def two_component_m2_predicate(pairing, c2) -> bool:
    """For multiplicity-2 components on a trivial-canonical surface:
    int(D^2) - 3 sum_i int(D_i^2) >= (4 pi^2 / 3) c2, with D the total
    boundary.  Floating comparison at 1e-9 relative tolerance."""
    r = len(pairing)
    lhs = Fraction(0)
    for i in range(r):
        for j in range(r):
            lhs += Fraction(pairing[i][j])
        lhs -= 3 * Fraction(pairing[i][i])
    lhs_f = float(lhs)
    rhs_f = 4 * math.pi ** 2 / 3 * float(Fraction(c2))
    tol = 1e-9 * max(1.0, abs(lhs_f), abs(rhs_f))
    return lhs_f >= rhs_f - tol
