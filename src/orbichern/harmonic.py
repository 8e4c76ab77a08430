"""Partial harmonic sums and the diagonal boundary coefficient.

Exact sums come from one kernel, `_range_sums`: a sum of j^-q over j <= J
is one numerator over lcm(1..J)^q (about 1.44 q J bits), left unreduced so
that `chi_k` puts every sum over one common denominator and reduces once.
The kernel splits j by its largest prime factor.  With y = isqrt(J), either
j is y-smooth, and divides the part S of lcm(1..J) from primes <= y, or
j = p s for one prime p > y.  The smooth terms are one flat sum of (S/j)^q;
the others are sum_p p^-q H_{J//p}^(q), taken in blocks of _BLOCK
consecutive primes over their product, and the blocks, being coprime, merge
pairwise with no gcd.  `_tail` encloses long sums cheaply.
"""

from __future__ import annotations

import math
from bisect import bisect
from decimal import Context
from fractions import Fraction
from itertools import accumulate, compress, islice
from operator import mul

from .ring import _check_int

_BLOCK = 32  # primes per block of the kernel
_CHUNK = 1024  # smooth terms summed at a time
_TAIL_START = 64  # numeric sums: exact below, `_tail`(64, J, q) from here

# (derivative order o, _EM_DEN B_(o+1)/(o+1)!) per Euler-Maclaurin end term, B_1 = 1/2
_EM_DEN = math.factorial(15)  # 2730 * 12!, so every weight is an integer
_EULER_MACLAURIN = [(o, int(_EM_DEN * Fraction(b) / math.factorial(o + 1))) for o, b
                    in zip((0, 1, 3, 5, 7, 9, 11),
                           "1/2 1/6 -1/30 1/42 -1/30 5/66 -691/2730".split())]


def harmonic_prefixes(ends, n, exact=True):
    """{J: [H_J^(1), ..., H_J^(n)]} for every J in ends, H_J^(q) = sum_{j<=J}
    j^-q as Fractions (0 at J = 0); with exact=False, an end J >= 64 gets
    H_63^(q) plus `_tail`(64, J, q)'s value, within 1e-23 of H_J^(q)."""
    _check_int(n, 1, "power n")
    ends = sorted({_check_int(J, 0, "end") for J in ends})
    if exact:
        return {J: _fractions(*_range_sums(1, J, n)) for J in ends}
    head = _fractions(*_range_sums(1, _TAIL_START - 1, n))
    return {J: _fractions(*_range_sums(1, J, n)) if J < _TAIL_START else [
        h + _tail(_TAIL_START, J, q)[0] for q, h in enumerate(head, 1)] for J in ends}


def _fractions(lcm, sums):
    """[N_q / lcm^q for q = 1, 2, ...], reduced."""
    return [Fraction(s, lcm ** q) for q, s in enumerate(sums, 1)]


def _range_sums(first, last, n):
    """(lcm(1..last), [N_1, ..., N_n]) with sum_{j=first..last} j^-q =
    N_q / lcm(1..last)^q unreduced, for 1 <= first <= last + 1.

    With y = isqrt(last), a j <= last with no prime factor above y divides
    S, the part of lcm(1..last) from primes <= y, and the others are p s
    with one prime p > y and s <= last // p <= y.  So the sum is sum (S/j)^q
    over S^q for the first kind, plus sum_p p^-q (H_t^(q) - H_t'^(q)),
    t = last // p, t' = (first - 1) // p: that is sum_p h_p (P/p)^q over
    (T P)^q, P the product of the primes p > y, with h_p = T^q (H_t^(q) -
    H_t'^(q)) an integer over T = lcm(1..last // (y + 1)).  lcm(1..last) =
    S P.
    """
    y = math.isqrt(last)
    sieve = bytearray(2) + bytearray([1]) * (last - 1)  # sieve[j]: j is prime
    for p in range(2, y + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, last + 1, p)))
    primes = list(compress(range(last + 1), sieve))
    large = primes[bisect(primes, y):]
    smooth = bytearray([1]) * (last + 1)  # smooth[j]: no prime factor of j is > y
    for p in large:
        smooth[p::p] = bytes(last // p)
    lcm = 1
    for p in primes[:len(primes) - len(large)]:
        power = p
        while power * p <= last:
            power *= p
        lcm *= power  # the largest power of p up to last
    sums, js = [0] * n, compress(range(first, last + 1), smooth[first:])
    while chunk := list(islice(js, _CHUNK)):  # memory stays O(_CHUNK) terms
        powers = _powers(map(lcm.__floordiv__, chunk), n)
        sums = [s + sum(u) for s, u in zip(sums, powers)]
    top = last // (y + 1)  # no last // p is larger
    lcm_t = math.lcm(*range(1, top + 1))
    prefixes = [[0, *accumulate(u)]  # prefixes[q - 1][t] = T^q H_t^(q)
                for u in _powers(map(lcm_t.__floordiv__, range(1, top + 1)), n)]
    nodes = [(1, [0] * n)]  # the empty block, so no prime above y is needed
    for i in range(0, len(large), _BLOCK):
        block = large[i:i + _BLOCK]
        product = math.prod(block)
        quotients = _powers(map(product.__floordiv__, block), n)
        nodes.append((product, [
            sum(map(mul, u, [h[last // p] - h[(first - 1) // p] for p in block]))
            for u, h in zip(quotients, prefixes)]))
    while len(nodes) > 1:
        nodes = [_merge(*nodes[i:i + 2]) if i + 1 < len(nodes) else nodes[i]
                 for i in range(0, len(nodes), 2)]
    product, rest = nodes[0]
    scale = lcm // lcm_t
    return lcm * product, [s * product ** q + r * scale ** q
                           for q, (s, r) in enumerate(zip(sums, rest), 1)]


def _powers(base, n):
    """[u, u^2, ..., u^n], elementwise lists over the integers u of base."""
    out = [list(base)]
    for _ in range(1, n):
        out.append(list(map(mul, out[-1], out[0])))
    return out


def _merge(left, right):
    """The sums of two coprime blocks, (P, [N_q]) each, over P P'."""
    (p1, s1), (p2, s2) = left, right
    return p1 * p2, [a * p2 ** q + b * p1 ** q for q, (a, b) in enumerate(zip(s1, s2), 1)]


def harmonic_range(a, b, power=1):
    """Sum of 1/j**power over a <= j <= b, a Fraction; a >= 1, 0 when b < a."""
    _check_int(a, 1, "start a")
    _check_int(b, None, "end b")
    _check_int(power, 1, "power")
    return _fractions(*_range_sums(a, b, power))[-1] if a <= b else Fraction(0)


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
    return _diagonal(_check_int(m, 2, "m"), *_range_sums(1, m, 2))


def _diagonal(m, lcm, sums) -> Fraction:
    """diagonal_coefficient(m), one Fraction, from sums = [L H_m, L^2 H_m^(2)]
    for any common multiple L of 1..m: the pair sum is (s1^2 - s2)/(2 L^2)."""
    square = lcm * lcm
    s1, s2 = sums[0] - lcm, sums[1] - square
    return Fraction(m * (s1 * s1 - s2) - (m - 1) * square, 2 * m * square)
