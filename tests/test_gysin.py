import io
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from orbichern.cli import run
from orbichern.errors import DomainError
from orbichern.gysin import JumpData, gysin_coefficient, jump_data

F = Fraction


def partitions_up_to(n, max_part):
    """All partitions with at most n parts, each at most max_part."""
    out = [()]
    for length in range(1, n + 1):
        for combo in combinations_with_replacement(range(1, max_part + 1), length):
            out.append(tuple(sorted(combo, reverse=True)))
    return out


def test_jump_data_constant():
    data = jump_data(2, (1, 1))
    assert data.jumps == (2,) and data.defect == 0


def test_jump_data_strict_descent():
    data = jump_data(2, (2, 1))
    assert data.jumps == (1, 2)
    assert data.defect == 1  # (2-1)*1 + (2-2)*2


def test_jump_data_padded():
    data = jump_data(3, (2, 2))
    assert data.padded == (2, 2, 0)
    assert data.jumps == (2,) and data.defect == 2  # (3-2)*2


def test_jump_data_trailing_zero_not_a_jump():
    data = jump_data(3, (3, 3, 3))
    assert data.jumps == (3,) and data.defect == 0
    assert jump_data(4, ()).jumps == () and jump_data(4, ()).defect == 0


def test_jump_data_defect_zero_iff_constant():
    for n in (2, 3, 4):
        for lam in partitions_up_to(n, 3):
            padded = lam + (0,) * (n - len(lam))
            constant = len(set(padded)) == 1
            assert (jump_data(n, lam).defect == 0) == constant


def test_jump_data_rejects_long_partitions():
    with pytest.raises(DomainError):
        jump_data(2, (1, 1, 1))


def test_gysin_hand_values():
    # [t1^2 t2]((t1+t2)^2 (t1-t2)) = 1 by direct expansion
    assert gysin_coefficient(2, (1, 1)) == 1
    # target monomial degree 4 exceeds the cubic polynomial
    assert gysin_coefficient(2, (2, 1)) == 0
    # homogeneity: kappa(c, c) = c^2 kappa(1, 1)
    assert gysin_coefficient(2, (3, 3)) == 9


def test_gysin_vanishing_exhaustive():
    for n in (2, 3, 4):
        for lam in partitions_up_to(n, 4):
            if jump_data(n, lam).defect > 0:
                assert gysin_coefficient(n, lam) == 0


def test_gysin_degree_argument():
    # independent of coefficient extraction: positive defect pushes the
    # shifted target degree past the polynomial degree n(n+1)/2
    for n in (2, 3, 4):
        for lam in partitions_up_to(n, 4):
            defect = jump_data(n, lam).defect
            target = shifted_target_degree(n, lam)
            assert target == n * (n + 1) // 2 + defect
            if defect > 0:
                assert target > n + n * (n - 1) // 2


def test_gysin_homogeneity():
    for n in (2, 3, 4):
        base = gysin_coefficient(n, (1,) * n)
        for c in range(1, 6):
            assert gysin_coefficient(n, (c,) * n) == c ** n * base


def test_gysin_line_bundle_magnitude():
    # s_n of a line bundle has coefficient of magnitude 1, and so does kappa
    # on the constant partition (1, ..., 1)
    for n in (2, 3, 4):
        assert abs(gysin_coefficient(n, (1,) * n)) == 1


def test_gysin_dimension_cap():
    with pytest.raises(DomainError):
        gysin_coefficient(7, (1,) * 7)


@pytest.mark.parametrize("n", ["3", None])
def test_gysin_dimension_is_checked_before_the_cap(n):
    # the cap's comparison alone raised a bare TypeError
    with pytest.raises(DomainError, match="^dimension n must be an integer "
                                          ">= 1, got %r$" % (n,)):
        gysin_coefficient(n, ())


# -- the closed form against the full expansion -------------------------------

def shifted_target_degree(n, lam):
    """Total degree of the shifted target monomial, n(n+1)/2 + defect;
    the polynomial being searched has degree n(n+1)/2."""
    return sum(_target_exponents(jump_data(n, lam)))


def _target_exponents(data: JumpData) -> tuple:
    # (n, n-1, ..., 1) shifted by j_p on each slot in (j_p, j_{p+1}].
    n = data.n
    shift = [0] * n
    fence = (0,) + data.jumps + (n,)
    for p in range(1, len(fence) - 1):
        jp = fence[p]
        for i in range(jp + 1, fence[p + 1] + 1):
            shift[i - 1] = jp
    return tuple(n - i + shift[i] for i in range(n))


def _kappa_by_expansion(n, lam):
    """kappa(lam) as the coefficient of the shifted target in
    (sum lam_i t_i)^n * prod_{i<j} (t_i - t_j): the multinomial expansion of
    the power convolved against the signed permutation expansion of the
    Vandermonde product, in integers, over all n! permutations."""
    data = jump_data(n, lam)
    target = _target_exponents(data)
    total = 0
    nfact = math.factorial(n)
    for sigma in permutations(range(n)):
        # Vandermonde term: sign(sigma) * prod t_i^(n - 1 - sigma(i)).
        alpha = [target[i] - (n - 1 - sigma[i]) for i in range(n)]
        if any(a < 0 for a in alpha) or sum(alpha) != n:
            continue
        coeff = nfact
        for a in alpha:
            coeff //= math.factorial(a)
        term = coeff
        for lam_i, a in zip(data.padded, alpha):
            term *= lam_i ** a
        total += _permutation_sign(sigma) * term
    return total


def _permutation_sign(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_expansion_hand_values():
    assert _kappa_by_expansion(2, (1, 1)) == 1
    assert _kappa_by_expansion(2, (2, 1)) == 0
    assert _kappa_by_expansion(3, (2, 2, 2)) == 8
    assert _kappa_by_expansion(3, ()) == 0
    assert [_permutation_sign(s) for s in permutations(range(3))] == \
        [1, -1, -1, 1, 1, -1]


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_matches_expansion_exhaustive(n):
    for lam in partitions_up_to(n, 4):
        kappa = gysin_coefficient(n, lam)
        assert type(kappa) is Fraction
        assert kappa == _kappa_by_expansion(n, lam), (n, lam)


@pytest.mark.parametrize("n", [7, 8])
def test_closed_form_holds_past_the_cap(n):
    # the expansion on sampled partitions, constant ones included, against
    # the value gysin_coefficient would return without MAX_DIMENSION
    rng = random.Random(9000 + n)
    shapes = [(), (1,) * n, (3,) * n]
    while len(shapes) < 8:
        length = rng.randint(1, n)
        shapes.append(tuple(sorted((rng.randint(1, 4) for _ in range(length)),
                                   reverse=True)))
    for lam in shapes:
        data = jump_data(n, lam)
        closed = 0 if data.defect else data.padded[0] ** n
        assert _kappa_by_expansion(n, lam) == closed, (n, lam)


@pytest.mark.parametrize("n", range(1, 7))
def test_cli_prints_the_expansion(n):
    for lam in partitions_up_to(n, 3):
        out, err = io.StringIO(), io.StringIO()
        argv = ["gysin", "--n", str(n), "--lambda",
                ",".join(map(str, lam)) or "0", "--format", "csv"]
        assert run(argv, out=out, err=err) == 0, err.getvalue()
        assert out.getvalue() == "defect,coefficient\n%d,%d\n" % (
            jump_data(n, lam).defect, _kappa_by_expansion(n, lam))
