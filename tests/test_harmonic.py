import random
from decimal import Context, Decimal
from fractions import Fraction

import pytest

from orbichern.errors import DomainError
from orbichern.harmonic import (_tail, diagonal_coefficient,
                                harmonic_prefixes, harmonic_range)

F = Fraction
# to 50 digits: every use below is held to 1e-23 or to 1e-48
EULER_GAMMA = F("0.57721566490153286060651209008240243104215933593992")
PI = F("3.14159265358979323846264338327950288419716939937510")


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_exact_range_matches_naive_sum(q):
    # every range 1 <= a <= b <= 300, against a term-by-term Fraction sum
    for a in range(1, 301):
        naive = F(0)
        for b in range(a, 301):
            naive += F(1, b ** q)
            assert harmonic_range(a, b, q) == naive


def _split(a, b, power):
    """(p, d), p/d = sum_{j=a..b} j^-power, d = prod j^power, by halving:
    binary splitting, the library's exact algorithm before the block kernel."""
    if a == b:
        return 1, a ** power
    mid = (a + b) // 2
    p1, d1 = _split(a, mid, power)
    p2, d2 = _split(mid + 1, b, power)
    return p1 * d2 + p2 * d1, d1 * d2


@pytest.mark.parametrize("k", [4800, 10_000])
def test_prefixes_match_binary_splitting(k):
    ends = [1, 106, 3001, k]
    table = harmonic_prefixes(ends, 3)
    assert sorted(table) == ends
    for end in ends:
        assert table[end] == [Fraction(*_split(1, end, q)) for q in (1, 2, 3)]
    for q in (1, 2, 3):  # ranges whose blocks start past 1
        assert harmonic_range(107, k, q) == Fraction(*_split(107, k, q))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prefixes_at_block_edges_match_running_sum(n):
    # ends on both sides of the kernel's edges, repeated and unsorted: 1,
    # with no primes, and 2 and 3, with only primes above isqrt(J); 64 for
    # the numeric tail; the squares 4, 169 and 361, where isqrt(J) moves;
    # and 163, 359, 367, 577 and 787, where the count of primes in
    # (isqrt(J), J] passes 32, 64 (twice), 96 and 128, so the kernel takes
    # one more block of 32 primes and one more merge
    ends = [129, 0, 64, 63, 65, 64, 127, 128, 0, 129, 162, 163, 168, 169,
            358, 359, 360, 361, 366, 367, 576, 577, 786, 787, 1, 2, 3, 4]
    table = harmonic_prefixes(ends, n)
    assert sorted(table) == sorted(set(ends))
    running = [F(0)] * n
    for j in range(788):
        if j:
            running = [h + F(1, j ** q) for q, h in enumerate(running, 1)]
        if j in table:
            assert table[j] == running and all(type(h) is F for h in table[j])


@pytest.mark.parametrize("k", [4800, 10_000])
def test_prefixes_numeric_match_binary_splitting(k):
    # the chi --float path: exact below 64, H_63 plus _tail's value above
    ends = [0, 1, 63, 64, 106, k]
    table = harmonic_prefixes(ends, 3, exact=False)
    assert sorted(table) == ends
    for end in ends:
        for q in (1, 2, 3):
            exact = Fraction(*_split(1, end, q)) if end else F(0)
            if end < 64:
                assert table[end][q - 1] == exact
            else:
                assert abs(table[end][q - 1] - exact) <= F(1, 10 ** 23)


def test_prefixes_reject_negative_ends():
    for exact in (True, False):
        with pytest.raises(DomainError):
            harmonic_prefixes([5, -1], 2, exact=exact)
        assert harmonic_prefixes([], 2, exact=exact) == {}


@pytest.mark.parametrize("a, b", [(0, 5), (-3, 2), (0, 0), (-1, -4)])
def test_range_below_one_is_a_domain_error(a, b):
    with pytest.raises(DomainError):
        harmonic_range(a, b, 2)


def test_empty_range_is_fraction_zero():
    empty = harmonic_range(5, 4, 2)
    assert empty == 0 and isinstance(empty, Fraction)


def tail_cases():
    rng = random.Random(1998)
    cases = [(1, b) for b in (1, 2, 63, 64, 65, 100, 1000, 4800, 10_000)]
    cases += [(a, a + d) for a in (2, 63, 64, 65, 107, 5000)
              for d in (0, 1, 5, 70, 900)]
    for _ in range(30):
        a = rng.randint(1, 3000)
        cases.append((a, a + rng.randint(0, 3000)))
    return cases


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_tail_encloses_the_exact_range(q):
    # the radius bounds the error from every start c >= 1, and from c = 64
    # it is below 1e-23
    for c, J in tail_cases() + [(64, 64), (64, 65), (64, 4800), (5000, 10_000)]:
        value, radius = _tail(c, J, q)
        assert abs(harmonic_range(c, J, q) - value) <= radius, (c, J)
        assert c < 64 or radius <= F(1, 10 ** 23)


@pytest.mark.parametrize("q, zeta", [(2, PI ** 2 / 6), (4, PI ** 4 / 90)])
def test_tail_to_infinity_encloses_zeta(q, zeta):
    # 50-digit pi puts zeta within 1e-48 of these rationals
    for c in (1, 2, 16, 64, 1000):
        value, radius = _tail(c, None, q)
        head = harmonic_range(1, c - 1, q)
        assert abs(head + value - zeta) <= radius + F(1, 10 ** 48), c
        assert c < 64 or radius <= F(1, 10 ** 23)


def test_prefixes_numeric_at_a_million_match_asymptotics():
    # independent of the code: H_n = ln n + gamma + 1/(2n) - 1/(12n^2) +
    # 1/(120n^4) and H_n^(2) = pi^2/6 - 1/n + 1/(2n^2) - 1/(6n^3) + 1/(30n^5),
    # each to within 1e-38 at n = 10^6, with ln n correctly rounded by decimal
    n = 10 ** 6
    h1, h2 = harmonic_prefixes([n], 2, exact=False)[n]
    ln_n = F(Context(prec=60).ln(Decimal(n)))
    assert abs(h1 - (ln_n + EULER_GAMMA + F(1, 2 * n) - F(1, 12 * n ** 2)
                     + F(1, 120 * n ** 4))) <= F(1, 10 ** 23)
    assert abs(h2 - (PI ** 2 / 6 - F(1, n) + F(1, 2 * n ** 2) - F(1, 6 * n ** 3)
                     + F(1, 30 * n ** 5))) <= F(1, 10 ** 23)


def test_diagonal_coefficient_matches_double_sum():
    for m in range(2, 41):
        pair_sum = sum(F(1, j1 * j2) for j1 in range(2, m + 1)
                       for j2 in range(j1 + 1, m + 1))
        assert diagonal_coefficient(m) == pair_sum - F(m - 1, 2 * m)
    assert diagonal_coefficient(4) == 0 and diagonal_coefficient(5) > 0


@pytest.mark.parametrize("m", [1, 0, -3])
def test_diagonal_coefficient_domain(m):
    with pytest.raises(DomainError):
        diagonal_coefficient(m)
