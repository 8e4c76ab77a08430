"""Partial harmonic sums and the diagonal boundary coefficient.

Exact sums walk j once, in blocks of at most _BLOCK consecutive integers:
each block is summed over its own lcm and scaled onto the lcm L of all blocks
so far, so a sum of j^-q up to J is one numerator over L^q (about 1.44 q J
bits) and costs one gcd to normalize; `_tail` encloses long sums cheaply.
"""

from __future__ import annotations

import math
from decimal import Context
from fractions import Fraction

from .errors import DomainError
from .ring import _is_int

_BLOCK = 64

# (derivative order o, _EM_DEN B_(o+1)/(o+1)!) per Euler-Maclaurin end term, B_1 = 1/2
_EM_DEN = math.factorial(15)  # 2730 * 12!, so every weight is an integer
_EULER_MACLAURIN = [(o, int(_EM_DEN * Fraction(b) / math.factorial(o + 1))) for o, b
                    in zip((0, 1, 3, 5, 7, 9, 11),
                           "1/2 1/6 -1/30 1/42 -1/30 5/66 -691/2730".split())]


def harmonic_prefixes(ends, n, exact=True):
    """{J: [H_J^(1), ..., H_J^(n)]} for every J in ends, H_J^(q) = sum_{j<=J}
    j^-q as Fractions (0 at J = 0); with exact=False, an end J >= 64 gets
    H_63^(q) plus `_tail`(64, J, q)'s value, within 1e-23 of H_J^(q)."""
    if not (_is_int(n) and n >= 1 and all(map(_is_int, ends))):
        raise DomainError("harmonic sums need integer ends and a power n >= 1")
    ends = sorted(set(ends))
    if ends and ends[0] < 0:
        raise DomainError("harmonic sums need ends >= 0")
    if exact:
        return _block_sums(1, ends, range(1, n + 1))
    head = _block_sums(1, [J for J in ends if J < _BLOCK] + [_BLOCK - 1],
                       range(1, n + 1))
    return {J: head[J] if J < _BLOCK else [h + _tail(_BLOCK, J, q)[0] for q, h
                                           in enumerate(head[_BLOCK - 1], 1)]
            for J in ends}


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


def harmonic_range(a, b, power=1):
    """Sum of 1/j**power over a <= j <= b, a Fraction; a >= 1, 0 when b < a."""
    if not (_is_int(a) and _is_int(b) and _is_int(power) and power >= 1):
        raise DomainError("harmonic ranges need integer ends and a power >= 1")
    if a < 1:
        raise DomainError("harmonic ranges start at j >= 1")
    return _block_sums(a, [b], (power,))[b][0] if a <= b else Fraction(0)


def _tail(c, J, q):
    """(value, radius), rationals with |sum_{j=c..J} j^-q - value| < radius
    for 1 <= c <= J; J = None sums to infinity (q >= 2).  Euler-Maclaurin
    with B_2..B_12, f(x) = x^-q: the sum is e(c) - e(J) + f(J) + R, e = F +
    f/2 - sum_{p<=6} B_2p/(2p)! f^(2p-1), F' = -f; as f^(12) > 0, |R| <= 2
    zeta(12)/(2 pi)^12 int_c^J f^(12) < 5.3e-10 q(q+1)...(q+10) c^-(q+11).
    For q = 1, F = -log: decimal rounds J/c, then its log, to 60 digits, and
    the radius adds (1 + log(J/c)) 1e-59 for both.
    """
    m = max(q - 1, 1)  # clears F's 1/(q - 1)
    a = {q + o: w * math.prod(range(q, q + o)) * m for o, w in _EULER_MACLAURIN}
    a[q - 1] = _EM_DEN if q > 1 else 0  # e(x) = sum_s a_s x^-s / (_EM_DEN m)
    def e(x):  # in integers over _EM_DEN m x^(q+11)
        return Fraction(sum(w * x ** (q + 11 - s) for s, w in a.items()),
                        _EM_DEN * m * x ** (q + 11))
    value = e(c) - (0 if J is None else e(J) - Fraction(1, J ** q))
    radius = Fraction(53 * math.prod(range(q, q + 11)), 10 ** 11 * c ** (q + 11))
    if q > 1:
        return value, radius
    ln = Fraction(Context(prec=60).ln(Context(prec=60).divide(J, c)))
    return value + ln, radius + (1 + ln) / 10 ** 59


def diagonal_coefficient(m) -> Fraction:
    """sum_{2<=j1<j2<=m} 1/(j1 j2) - (m-1)/(2m), for an integer m >= 2.

    This is the self-intersection weight of a boundary component of
    multiplicity m in the trivial-canonical closed form; it vanishes at
    m = 4 and first becomes positive at m = 5.
    """
    if not _is_int(m) or m < 2:
        raise DomainError("m must be an integer >= 2")
    h1, h2 = harmonic_prefixes([m], 2)[m]
    return _diagonal(m, h1 - 1, h2 - 1)


def _diagonal(m, s1, s2) -> Fraction:
    """diagonal_coefficient(m) from s1, s2: sum 1/j, 1/j^2 over 2 <= j <= m."""
    return (s1 * s1 - s2) / 2 - Fraction(m - 1, 2 * m)  # pair sum (s1^2 - s2)/2
