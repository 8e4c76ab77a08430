"""Partial harmonic sums and the diagonal boundary coefficient.

Exact sums use binary splitting; binary64 sums cost the same at any length.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

# Euler-Maclaurin (derivative order 2p - 1, B_2p / (2p)!) for p = 1..6.
_EULER_MACLAURIN = [(o, Fraction(b) / math.factorial(o + 1)) for o, b in zip(
    (1, 3, 5, 7, 9, 11), ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730"))]


def harmonic_range(a, b, power=1, exact=True):
    """Sum of 1/j**power over a <= j <= b (0 when the range is empty).

    With exact=False the terms j < 64 are summed directly and the rest,
    c = max(a, 64) <= j <= b, by Euler-Maclaurin with B_2..B_12 for
    f(x) = x^-q, q = power: int_c^b f + (f(c) + f(b))/2 + sum_{p=1..6}
    B_2p/(2p)! (f^(2p-1)(b) - f^(2p-1)(c)) + R.  As f^(12) > 0, |R| <=
    2 zeta(12)/(2 pi)^12 int_c^b f^(12) < 5.3e-10 q(q+1)...(q+10) c^-(q+11),
    under 1e-17 f(c) for q <= 8.  Each c^-s - b^-s is c^-s (1 - (c/b)^s) via
    log1p and expm1, so short ranges do not cancel.
    """
    if exact:
        return Fraction(*_split(a, b, power)) if a <= b else Fraction(0)
    c = max(a, 64)
    terms = [1 / j ** power for j in range(a, min(b, c - 1) + 1)]
    if b >= c:
        log_ratio = math.log1p((b - c) / c)
        def drop(s):  # c^-s - b^-s
            return c ** -s * -math.expm1(-s * log_ratio)
        terms.append(log_ratio if power == 1 else drop(power - 1) / (power - 1))
        terms.append((c ** -power + b ** -power) / 2)
        terms += [float(w * math.prod(range(power, power + o))) * drop(power + o)
                  for o, w in _EULER_MACLAURIN]  # -f^(o) = q...(q+o-1) x^-(q+o)
    return math.fsum(terms)


def _split(a, b, power):
    """(p, d), p/d = sum_{j=a..b} j^-power, d = prod j^power, by halving."""
    if a == b:
        return 1, a ** power
    mid = (a + b) // 2
    p1, d1 = _split(a, mid, power)
    p2, d2 = _split(mid + 1, b, power)
    return p1 * d2 + p2 * d1, d1 * d2


def diagonal_coefficient(m) -> Fraction:
    """sum_{2<=j1<j2<=m} 1/(j1 j2) - (m-1)/(2m), for an integer m >= 2.

    This is the self-intersection weight of a boundary component of
    multiplicity m in the trivial-canonical closed form; it vanishes at
    m = 4 and first becomes positive at m = 5.
    """
    if m < 2:
        raise DomainError("m must be an integer >= 2")
    s1, s2 = harmonic_range(2, m, 1), harmonic_range(2, m, 2)
    return (s1 * s1 - s2) / 2 - Fraction(m - 1, 2 * m)  # pair sum (s1^2 - s2)/2
