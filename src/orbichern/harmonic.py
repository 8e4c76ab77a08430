"""Partial harmonic sums and the diagonal boundary coefficient.

Exact sums walk j once, in blocks of at most _BLOCK consecutive integers:
each block is summed over its own lcm and scaled onto the lcm L of all blocks
so far, so a sum of j^-q up to J is one numerator over L^q (about 1.44 q J
bits) and costs one gcd to normalize.  Binary64 sums cost the same at any
length.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

_BLOCK = 64

# Euler-Maclaurin (derivative order 2p - 1, B_2p / (2p)!) for p = 1..6.
_EULER_MACLAURIN = [(o, Fraction(b) / math.factorial(o + 1)) for o, b in zip(
    (1, 3, 5, 7, 9, 11), ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730"))]


def harmonic_prefixes(ends, n, exact=True):
    """{J: [H_J^(1), ..., H_J^(n)]} for every J in ends, H_J^(q) = sum_{j<=J}
    j^-q as Fractions (0 at J = 0).

    With exact=False each interval between consecutive ends is summed by
    harmonic_range(exact=False), and the binary64 values accumulate exactly.
    """
    ends = sorted(set(ends))
    if ends and ends[0] < 0:
        raise DomainError("harmonic sums need ends >= 0")
    if exact:
        return _block_sums(1, ends, range(1, n + 1))
    out, prev, row = {}, 0, [Fraction(0)] * n
    for end in ends:
        row = [h + Fraction(harmonic_range(prev + 1, end, q, exact=False))
               for q, h in enumerate(row, 1)]
        out[end], prev = row, end
    return out


def _block_sums(first, ends, powers):
    """{J: [sum_{j=first..J} j^-q for q in powers]} for sorted ends J >= first - 1.

    A block j..stop - 1 with lcm l adds sum (l/j)^q (L/l)^q to the
    numerators over L^q; when L grows by g, they are scaled by g^q first.
    Every end closes a block.
    """
    out, lcm, sums, j = {}, 1, [0] * len(powers), first
    for end in ends:
        while j <= end:
            stop = min(j + _BLOCK, end + 1)
            block = math.lcm(*range(j, stop))
            grow = block // math.gcd(block, lcm % block)  # lcm(L, l) / L
            lcm *= grow
            scale = lcm // block
            sums = [s * grow ** q + sum((block // t) ** q for t in range(j, stop))
                    * scale ** q for s, q in zip(sums, powers)]
            j = stop
        out[end] = [Fraction(s, lcm ** q) for s, q in zip(sums, powers)]
    return out


def harmonic_range(a, b, power=1, exact=True):
    """Sum of 1/j**power over a <= j <= b, for a >= 1 (0 when b < a).

    With exact=False the terms j < 64 are summed directly and the rest,
    c = max(a, 64) <= j <= b, by Euler-Maclaurin with B_2..B_12 for
    f(x) = x^-q, q = power: int_c^b f + (f(c) + f(b))/2 + sum_{p=1..6}
    B_2p/(2p)! (f^(2p-1)(b) - f^(2p-1)(c)) + R.  As f^(12) > 0, |R| <=
    2 zeta(12)/(2 pi)^12 int_c^b f^(12) < 5.3e-10 q(q+1)...(q+10) c^-(q+11),
    under 1e-17 f(c) for q <= 8.  Each c^-s - b^-s is c^-s (1 - (c/b)^s) via
    log1p and expm1, so short ranges do not cancel.
    """
    if a < 1:
        raise DomainError("harmonic ranges start at j >= 1")
    if exact:
        return _block_sums(a, [b], (power,))[b][0] if a <= b else Fraction(0)
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


def diagonal_coefficient(m) -> Fraction:
    """sum_{2<=j1<j2<=m} 1/(j1 j2) - (m-1)/(2m), for an integer m >= 2.

    This is the self-intersection weight of a boundary component of
    multiplicity m in the trivial-canonical closed form; it vanishes at
    m = 4 and first becomes positive at m = 5.
    """
    if m < 2:
        raise DomainError("m must be an integer >= 2")
    return _diagonal(m, harmonic_prefixes([m], 2)[m])


def _diagonal(m, row) -> Fraction:
    """diagonal_coefficient(m) from row = [H_m, H_m^(2)]."""
    s1, s2 = row[0] - 1, row[1] - 1  # the sums over 2..m
    return (s1 * s1 - s2) / 2 - Fraction(m - 1, 2 * m)  # pair sum (s1^2 - s2)/2
