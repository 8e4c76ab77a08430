"""A ring-free chi_1 oracle from adapted covers of P^2 and P^3.

Let pi: Y -> P^2 be a cover ramified to order m_i over smooth curves D_i in
general position.  Then pi* Omega^(1)(P^2, Delta) = Omega_Y, so per unit
covering degree the orbifold Chern numbers are those of Y:

- c1^2 = (K + Delta)^2 by Hurwitz, with Delta = sum (1 - 1/m_i) D_i;
- c2 = e_orb, by Riemann-Hurwitz over the strata: the open complement, each
  curve minus its crossings, and the d_i d_j crossings of D_i and D_j, a
  stratum S counting e(S) / prod_{i: S in D_i} m_i.  A logarithmic
  component has weight 1/m = 0.

So chi_1 = c1^2 - c2.  The same formulas hold formally for rational m_i.
Everything here is integers and Fractions; the ring is only what is checked.
Multiplicities in (1, 2) are where the breakpoint ceil(m) - 1 = 1 differs
from floor(m) - 1 = 0.
"""

import random
from fractions import Fraction

import pytest

from orbichern.orbifold import OrbifoldPair, chi_k, cotangent_chern
from orbichern.ring import projective_space

F = Fraction
P2 = projective_space(2)
H = P2.generator("h")

MULTIPLICITIES = [1, F(101, 100), F(3, 2), F(7, 4), 2, F(5, 2), 3, F(11, 3),
                  5, "inf"]


def weight(m) -> Fraction:
    """1/m, with 1/inf = 0."""
    return F(0) if m == "inf" else 1 / F(m)


def c1_squared(components) -> Fraction:
    """(K + Delta)^2 on P^2 for components (degree, multiplicity)."""
    return (-3 + sum((1 - weight(m)) * d for d, m in components)) ** 2


def orbifold_euler(components) -> Fraction:
    """e_orb = sum over strata S of e(S) / prod of the m_i through S."""
    degrees = [d for d, _ in components]
    weights = [weight(m) for _, m in components]
    crossings = [(i, j) for i in range(len(degrees))
                 for j in range(i + 1, len(degrees))]
    # a smooth plane curve of degree d has e = 3d - d^2, less its crossings
    open_curves = [3 * d - d * d - d * (sum(degrees) - d) for d in degrees]
    npoints = sum(degrees[i] * degrees[j] for i, j in crossings)
    open_plane = 3 - sum(open_curves) - npoints
    return (open_plane
            + sum(w * e for w, e in zip(weights, open_curves))
            + sum(weights[i] * weights[j] * degrees[i] * degrees[j]
                  for i, j in crossings))


def plane_pair(components) -> OrbifoldPair:
    return OrbifoldPair(P2, [(H * d, m) for d, m in components])


def arrangements(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield [(rng.randint(1, 12), rng.choice(MULTIPLICITIES))
               for _ in range(rng.randint(1, 6))]


@pytest.mark.parametrize("seed", range(4))
def test_chern_numbers_and_chi1_match_the_cover_oracle(seed):
    """100 seeded arrangements per seed: both orbifold Chern numbers from
    `cotangent_chern` and chi_1 from `chi_k` equal the oracle's."""
    for components in arrangements("covers/%d" % seed, 100):
        pair = plane_pair(components)
        c = cotangent_chern(pair, 1)
        c1, c2 = c.component(1), c.component(2)
        expected = (c1_squared(components), orbifold_euler(components))
        assert ((c1 * c1).integrate(), c2.integrate()) == expected, components
        assert chi_k(pair, 1) == expected[0] - expected[1], components


@pytest.mark.parametrize("components, chi1", [
    ([(1, 2)] * 11, F(1, 2)),
    ([(1, 2)] * 6, F(-3, 4)),
    ([(4, 2)], -4),
    ([(12, 4)], -48),
    ([(3, 3), (2, 5)], F(-106, 25)),
    ([(5, 7), (1, 3), (2, 2)], F(-3674, 441)),
    ([(2, F(7, 2)), (3, 5)], F(-5284, 1225)),
    ([(1, F(3, 2))], F(43, 9)),
    ([(4, "inf"), (2, 3)], F(-50, 9)),
])
def test_cover_oracle_known_values(components, chi1):
    """Worked arrangements: the oracle alone, then chi_k against it."""
    assert c1_squared(components) - orbifold_euler(components) == chi1
    assert chi_k(plane_pair(components), 1) == chi1


# -- threefolds: cyclic covers of P^3 ------------------------------------------
#
# Y: w^m = f_d, m | d, is ramified to order m over one smooth surface D of
# degree d in P^3, so per unit covering degree the Chern numbers of
# Omega^(1)(P^3, (1 - 1/m) D) are those of Omega_Y over m:
# - K_Y = pi*(K + Delta), so K_Y^3 = m (-4 + d (m - 1)/m)^3;
# - e(Y) = m e(P^3 \ D) + e(D), with e(D) = d^3 - 4 d^2 + 6 d;
# - chi(O_Y) = sum_{i<m} chi(O(-i d/m)), by the eigensheaves of pi_* O_Y;
# and c1 c2 (Omega_Y) = -24 chi(O_Y), c3 (Omega_Y) = -e(Y).

P3 = projective_space(3)
COVERS_OF_P3 = [(d, m) for d in range(1, 31) for m in range(2, d + 1)
                if d % m == 0]


def p3_cover_invariants(d, m):
    """(K_Y^3, chi(O_Y), e(Y)) of the m-fold cyclic cover of P^3 branched
    along a smooth surface of degree d."""
    def chi_o(t):  # chi(O(t)) on P^3, negative t included
        return F((t + 1) * (t + 2) * (t + 3), 6)

    e_d = d ** 3 - 4 * d ** 2 + 6 * d
    return (m * (-4 + F(d * (m - 1), m)) ** 3,
            sum(chi_o(-i * d // m) for i in range(m)),
            m * (4 - e_d) + e_d)


@pytest.mark.parametrize("d, m, chi1", [
    (4, 2, 24), (6, 2, 73), (6, 3, 68), (5, 5, 40), (8, 4, 112),
    (12, 6, 200), (30, 5, 1660),
])
def test_p3_cover_oracle_known_values(d, m, chi1):
    k_cubed, chi_o, e = p3_cover_invariants(d, m)
    assert (k_cubed + 48 * chi_o - e) / m == chi1


def test_p3_cover_chern_numbers_and_chi1():
    """All 81 pairs 2 <= m | d <= 30: the three Chern numbers from
    `cotangent_chern` and chi_1 from `chi_k` equal the cover's."""
    assert len(COVERS_OF_P3) == 81
    for d, m in COVERS_OF_P3:
        pair = OrbifoldPair(P3, [(P3.generator("h") * d, m)])
        k_cubed, chi_o, e = p3_cover_invariants(d, m)
        c = cotangent_chern(pair, 1)
        c1, c2, c3 = c.component(1), c.component(2), c.component(3)
        numbers = ((c1 ** 3).integrate(), (c1 * c2).integrate(), c3.integrate())
        assert numbers == (k_cubed / m, -24 * chi_o / m, -e / m), (d, m)
        assert chi_k(pair, 1) == (k_cubed + 48 * chi_o - e) / m, (d, m)
