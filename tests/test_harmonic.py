import math
import random
from fractions import Fraction

import pytest

from orbichern.errors import DomainError
from orbichern.harmonic import (diagonal_coefficient, harmonic_prefixes,
                                harmonic_range)

F = Fraction
EULER_GAMMA = 0.57721566490153286061


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
    # ends on both sides of the 64-term blocks, repeated and unsorted
    ends = [129, 0, 64, 63, 65, 64, 127, 128, 0, 129]
    table = harmonic_prefixes(ends, n)
    assert sorted(table) == sorted(set(ends))
    running = [F(0)] * n
    for j in range(130):
        if j:
            running = [h + F(1, j ** q) for q, h in enumerate(running, 1)]
        if j in table:
            assert table[j] == running and all(type(h) is F for h in table[j])


def test_prefixes_numeric_accumulate_the_binary64_ranges():
    # the chi --float path: each interval in binary64, summed exactly
    table = harmonic_prefixes([4800, 106, 0], 2, exact=False)
    assert table[0] == [0, 0]
    for q in (1, 2):
        assert table[106][q - 1] == F(harmonic_range(1, 106, q, exact=False))
        assert table[4800][q - 1] == (F(harmonic_range(1, 106, q, exact=False))
                                      + F(harmonic_range(107, 4800, q, exact=False)))


def test_prefixes_reject_negative_ends():
    for exact in (True, False):
        with pytest.raises(DomainError):
            harmonic_prefixes([5, -1], 2, exact=exact)
        assert harmonic_prefixes([], 2, exact=exact) == {}


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("a, b", [(0, 5), (-3, 2), (0, 0), (-1, -4)])
def test_range_below_one_is_a_domain_error(a, b, exact):
    with pytest.raises(DomainError):
        harmonic_range(a, b, 2, exact=exact)


def test_empty_range_is_zero_of_the_requested_kind():
    exact = harmonic_range(5, 4, 2)
    assert exact == 0 and isinstance(exact, Fraction)
    approx = harmonic_range(5, 4, 2, exact=False)
    assert approx == 0.0 and isinstance(approx, float)


def float_cases():
    rng = random.Random(1998)
    cases = [(1, b) for b in (1, 2, 63, 64, 65, 100, 1000, 4800, 10_000)]
    cases += [(a, a + d) for a in (2, 63, 64, 65, 107, 5000)
              for d in (0, 1, 5, 70, 900)]
    for _ in range(30):
        a = rng.randint(1, 3000)
        cases.append((a, a + rng.randint(0, 3000)))
    return cases


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_float_range_relative_error_below_4e_16(q):
    # direct terms below 64, Euler-Maclaurin above: relative error <= 4e-16
    for a, b in float_cases():
        exact = harmonic_range(a, b, q)
        approx = harmonic_range(a, b, q, exact=False)
        assert abs(F(approx) - exact) <= F(4, 10 ** 16) * exact, (a, b)


def test_float_range_at_a_million_matches_asymptotics():
    # independent of both code paths: H_n = ln n + gamma + 1/(2n) - 1/(12n^2),
    # H_n^(2) = pi^2/6 - 1/n + 1/(2n^2) - 1/(6n^3), each to well below 1e-20
    n = 10 ** 6
    h1 = harmonic_range(1, n, 1, exact=False)
    assert math.isclose(h1, math.log(n) + EULER_GAMMA + 1 / (2 * n)
                        - 1 / (12 * n * n), rel_tol=1e-15)
    h2 = harmonic_range(1, n, 2, exact=False)
    assert math.isclose(h2, math.pi ** 2 / 6 - 1 / n + 1 / (2 * n * n)
                        - 1 / (6 * n ** 3), rel_tol=1e-15)


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
