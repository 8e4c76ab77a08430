import io
import itertools
import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from orbichern import orbifold
from orbichern.cli import run
from orbichern.errors import DomainError
from orbichern.harmonic import harmonic_prefixes
from orbichern.orbifold import (BoundaryComponent, OrbifoldPair, canonical_k,
                                chi_k, chi_leading_term,
                                chi_trivial_canonical_closed_form,
                                cotangent_chern, cotangent_segre, delta_k,
                                leading_scale, log_asymptotic_coefficient,
                                order_coefficient)
from orbichern.ring import (INFINITE_ORDER, Geometry, Multiplicity, _series,
                            abelian_variety, projective_space,
                            surface_with_invariants)

from conftest import random_class

F = Fraction


def plane_pair(*components):
    geom = projective_space(2)
    h = geom.generator("h")
    return OrbifoldPair(geom, [(h * d, m) for d, m in components])


# -- order-k boundary ----------------------------------------------------------

def test_delta_k_drops_at_equal_order():
    terms = delta_k(plane_pair((5, 2)), 2)
    assert terms[0].coefficient == 0 and not terms[0].surviving


def test_delta_k_fractional_survivor():
    terms = delta_k(plane_pair((5, 5)), 2)
    assert terms[0].coefficient == F(3, 5) and terms[0].surviving


def test_delta_k_logarithmic_always_one():
    pair = plane_pair((5, "inf"))
    for k in (1, 7, INFINITE_ORDER):
        assert delta_k(pair, k)[0].coefficient == 1


def test_delta_infinite_order_keeps_only_log_part():
    pair = plane_pair((1, 2), (2, "inf"), (3, 9))
    terms = delta_k(pair, INFINITE_ORDER)
    assert [t.coefficient for t in terms] == [0, 1, 0]


def test_any_infinite_float_is_the_infinite_order():
    inf = float("inf")
    assert inf is not INFINITE_ORDER
    pair = plane_pair((1, 2), (2, "inf"), (3, F(5, 2)))
    assert delta_k(pair, inf) == delta_k(pair, INFINITE_ORDER)
    assert canonical_k(pair, inf) == canonical_k(pair, INFINITE_ORDER)
    with pytest.raises(DomainError, match="chi is indexed by finite orders"):
        chi_leading_term(pair, inf)
    with pytest.raises(DomainError):
        Multiplicity(3).ratio(inf)


@pytest.mark.parametrize("k", [-math.inf, math.nan])
def test_negative_infinity_and_nan_are_no_orders(k):
    with pytest.raises(DomainError, match=r"^order k \(or inf\) must be an "
                                          r"integer >= 1, got %r$" % k):
        delta_k(plane_pair((1, 2)), k)


# -- cotangent classes ---------------------------------------------------------

@pytest.mark.parametrize("fn", [chi_k, chi_leading_term, cotangent_segre,
                                delta_k])
@pytest.mark.parametrize("k", [True, False])
def test_bool_orders_are_rejected(fn, k):
    # bool is an int subclass; True must not pass for order 1
    with pytest.raises(DomainError):
        fn(plane_pair((12, 107)), k)


def test_cotangent_chern_no_boundary():
    geom = projective_space(2)
    h = geom.generator("h")
    pair = OrbifoldPair(geom, [])
    assert cotangent_chern(pair, 1) == 1 - 3 * h + 3 * h * h


def test_cotangent_chern_abelian_log():
    geom = abelian_variety(2, selfint=6)
    d = geom.generator("D")
    pair = OrbifoldPair(geom, [(d, "inf")])
    c = cotangent_chern(pair, 1)
    assert c == (1 - d).inverse()
    assert c == 1 + d + d * d
    # cross-check: its inverse is the stated log Segre class 1 - D
    assert c.inverse() == 1 - d


def test_cotangent_segre_abelian_log_components():
    geom = abelian_variety(2, selfint=6)
    d = geom.generator("D")
    s = cotangent_segre(OrbifoldPair(geom, [(d, "inf")]), 1)
    assert s == 1 - d
    assert s.component(1) == -d and s.component(2).is_zero()


@pytest.mark.parametrize("d,a", [(12, 107), (7, 2), (9, 5), (4, 9)])
def test_cotangent_segre_plane_hand_expansion(d, a):
    # oracle: expand (1+3h+6h^2)(1-dh)(1+(d/a)h+(d/a)^2 h^2) by hand
    geom = projective_space(2)
    h = geom.generator("h")
    s = cotangent_segre(OrbifoldPair(geom, [(h * d, a)]), 1)
    r = F(d, a)
    assert s.coefficient((1,)) == 3 + r - d
    assert s.coefficient((2,)) == 6 + 3 * (r - d) + r * (r - d)


def test_cotangent_segre_plane_log():
    geom = projective_space(2)
    h = geom.generator("h")
    for d in (1, 3, 5):
        s = cotangent_segre(OrbifoldPair(geom, [(h * d, "inf")]), 1)
        assert s.coefficient((1,)) == 3 - d
        assert s.coefficient((2,)) == 6 - 3 * d


def test_dropout_invariance_multiplicity_one():
    base = plane_pair((5, 3), (2, "inf"))
    padded = base.with_component(base.geometry.generator("h") * 7, 1)
    for k in (1, 2, 3):
        assert cotangent_segre(base, k) == cotangent_segre(padded, k)
        assert chi_k(base, k) == chi_k(padded, k)
        assert canonical_k(base, k)[0] == canonical_k(padded, k)[0]


def test_stabilization_at_max_finite_multiplicity():
    pair = plane_pair((2, 4), (3, F(7, 2)), (1, "inf"))
    log_only = pair.logarithmic_part()
    j_star = pair.stabilization_order()
    assert j_star == 4
    assert cotangent_segre(pair, 3) != cotangent_segre(log_only, 1)
    for k in (4, 5, 9):
        assert cotangent_segre(pair, k) == cotangent_segre(log_only, 1)


def test_pair_cannot_be_edited_after_construction():
    # the README pair; the edits below once made chi_2 12 and -56579/68694
    pair = plane_pair((12, 107))
    h = pair.geometry.generator("h")
    for field in ("geometry", "components"):
        with pytest.raises(AttributeError):
            setattr(pair, field, getattr(pair, field))
        with pytest.raises(AttributeError):
            delattr(pair, field)
    with pytest.raises(AttributeError):
        pair.extra = 1
    with pytest.raises(AttributeError):
        pair.components[0].multiplicity.value = F(1, 2)
    with pytest.raises(AttributeError):
        pair.components.append(BoundaryComponent(h * h, Multiplicity(3)))
    with pytest.raises(TypeError):
        pair.components[0] = BoundaryComponent(h, Multiplicity(2))
    assert isinstance(pair.components, tuple)
    assert chi_k(pair, 2) == F(111, 11449)
    wider = pair.with_component(h, 2)
    assert isinstance(wider.components, tuple) and len(pair.components) == 1


def test_duality_on_projective_spaces():
    for n in (1, 2, 3, 4):
        geom = projective_space(n)
        pair = OrbifoldPair(geom, [])
        c1 = cotangent_chern(pair, 1).component(1)
        assert c1 == geom.generator("h") * (-(n + 1))


# -- canonical classes ---------------------------------------------------------

def test_canonical_k_plane_example():
    cls, positive = canonical_k(plane_pair((12, 107)), 2)
    assert cls.coefficient((1,)) == F(939, 107)  # -3 + 12*(105/107)
    assert positive is True


def test_canonical_k_empty_order2():
    cls, positive = canonical_k(plane_pair((5, 2)), 2)
    assert cls.coefficient((1,)) == -3
    assert positive is False


def test_canonical_k_abelian_half():
    geom = abelian_variety(2, selfint=6)
    d = geom.generator("D")
    cls, positive = canonical_k(OrbifoldPair(geom, [(d, 2)]), 1)
    assert cls == d * F(1, 2)
    assert positive is True


def test_canonical_k_surface_undecidable():
    geom = surface_with_invariants(c2=24, divisors=["D"], dd=[[6]])
    _, positive = canonical_k(OrbifoldPair(geom, [(geom.generator("D"), 3)]), 1)
    assert positive is None


# -- chi -----------------------------------------------------------------------

def lines_chi_formula(c, d):
    # independent closed form for c multiplicity-2 components of degree d
    return 6 - F(3, 2) * c * d + F(c * (c - 3), 8) * d * d


def smooth_curve_chi2_formula(d, a):
    # independent closed form for one degree-d component of multiplicity a
    return F((48 - 27 * d + 2 * d * d) * a * a - 12 * d * (d - 3) * a
             + 12 * d * d, 4 * a * a)


def test_chi_1_eleven_lines():
    pair = plane_pair(*[(1, 2)] * 11)
    assert chi_k(pair, 1) == F(1, 2)
    assert lines_chi_formula(11, 1) == F(1, 2)


def test_chi_2_order_two_threshold_values():
    assert chi_k(plane_pair((12, 107)), 2) == F(111, 11449)
    assert smooth_curve_chi2_formula(12, 107) == F(111, 11449)
    assert chi_k(plane_pair((12, 106)), 2) == F(-204, 11236)
    assert smooth_curve_chi2_formula(12, 106) == F(-204, 11236)


def test_chi_2_closed_form_sweep():
    for d in range(4, 41):
        a0 = 2 * d // (d - 3) + 1
        for a in range(a0, a0 + 6):
            assert chi_k(plane_pair((d, a)), 2) == smooth_curve_chi2_formula(d, a)


def test_chi_1_lines_formula_sweep():
    for c in range(1, 13):
        for d in range(1, 8):
            pair = plane_pair(*[(d, 2)] * c)
            assert chi_k(pair, 1) == lines_chi_formula(c, d)


def test_chi_1_matches_chern_number():
    # chi_1 on a surface equals c1^2 - c2 of the orbifold cotangent bundle
    for pair in (plane_pair((7, 2)), plane_pair((5, 3), (2, "inf"))):
        c = cotangent_chern(pair, 1)
        chern_number = (c.component(1) * c.component(1)).integrate() \
            - c.component(2).integrate()
        assert chi_k(pair, 1) == chern_number


def test_chi_k_mixed_multiplicities_matches_direct_sum():
    # oracle: enumerate q in N^k with |q| = n directly from the Segre classes
    pair = plane_pair((2, 4), (1, "inf"), (3, F(5, 2)))
    k = 5
    segres = [cotangent_segre(pair, j) for j in range(1, k + 1)]
    total = F(0)
    def rec(j, remaining, acc):
        nonlocal total
        if j == k:
            total += (acc * segres[j - 1].component(remaining)).integrate() \
                * F(1, k ** remaining)
            return
        for q in range(remaining + 1):
            rec(j + 1, remaining - q,
                acc * segres[j - 1].component(q) * F(1, j ** q))
    rec(1, 2, pair.geometry.one())
    assert chi_k(pair, k) == total


def test_chi_k_dimension_three_direct_sum():
    # same brute-force oracle in dimension 3
    geom = projective_space(3)
    h = geom.generator("h")
    pair = OrbifoldPair(geom, [(h * 2, 3), (h, "inf")])
    k = 3
    segres = [cotangent_segre(pair, j) for j in range(1, k + 1)]
    total = F(0)
    def rec(j, remaining, acc):
        nonlocal total
        if j == k:
            total += (acc * segres[j - 1].component(remaining)).integrate() \
                * F(1, k ** remaining)
            return
        for q in range(remaining + 1):
            rec(j + 1, remaining - q,
                acc * segres[j - 1].component(q) * F(1, j ** q))
    rec(1, 3, geom.one())
    assert chi_k(pair, k) == -total  # (-1)^n with n = 3


def test_chi_exactness_threshold():
    pair = plane_pair((5, "inf"))
    with pytest.raises(DomainError):
        chi_k(pair, 10_001)
    value = chi_k(pair, 10_001, numeric=True)
    assert isinstance(value, float)


def test_leading_term_checks_the_exact_limit_first(monkeypatch):
    # chi_leading_term has no numeric path, so its message points to chi_k's
    def no_class(*args):
        raise AssertionError("a class was built before the limit check")
    monkeypatch.setattr(orbifold, "canonical_k", no_class)
    with pytest.raises(DomainError, match=r"exact only, for k <= 10000; "
                       r"chi_k\(pair, k, numeric=True\)"):
        chi_leading_term(plane_pair((12, 107)), 10_001)


def test_chi_numeric_matches_exact_on_small_orders():
    pair = plane_pair((4, 3), (2, "inf"))
    for k in (1, 2, 5, 8):
        exact = chi_k(pair, k)
        approx = chi_k(pair, k, numeric=True)
        assert math.isclose(float(exact), approx, rel_tol=1e-12)


def test_chi_coordinatewise_concavity_vertex_floor():
    # chi_1 is concave in each degree separately (the quadratic form is
    # (1/4)J - (3/4)I), so its minimum over the box [d_min, d_max]^c sits at
    # a vertex: some coordinates at d_min, the rest at d_max.  The stronger
    # constant-vector floor fails for c >= 4, where the form has a positive
    # eigenvalue along the diagonal; see test below.
    rng = random.Random(987)
    for _ in range(300):
        c = rng.randint(2, 8)
        degrees = [rng.randint(1, 10) for _ in range(c)]
        lo, hi = min(degrees), max(degrees)
        mixed = chi_k(plane_pair(*[(d, 2) for d in degrees]), 1)
        floor_value = min(
            chi_k(plane_pair(*([(lo, 2)] * split + [(hi, 2)] * (c - split))), 1)
            for split in range(c + 1))
        assert mixed >= floor_value


def test_chi_constant_vector_floor_is_not_a_valid_bound():
    # Mixed-degree vertices can undercut every constant-degree value, so the
    # equal-degree reduction is not a pointwise lower bound; the thresholds
    # computed from equal degrees stand on their own.
    mixed = chi_k(plane_pair(*[(d, 2) for d in (9, 9, 1, 1, 1, 1)]), 1)
    assert mixed == F(-115, 4)
    constant_floor = min(chi_k(plane_pair(*[(delta, 2)] * 6), 1)
                         for delta in range(1, 10))
    assert constant_floor == -3 and mixed < constant_floor


# -- leading term and asymptotics ----------------------------------------------

def test_leading_scale_values():
    assert leading_scale(2, 1) == F(1, 6)
    assert leading_scale(2, 2) == F(1, 480)
    assert leading_scale(1, 1) == F(1, 1)


def test_chi_leading_term_report():
    report = chi_leading_term(plane_pair((12, 107)), 2)
    assert report.chi == F(111, 11449)
    assert report.leading_scale == F(1, 480)
    assert report.canonical_positive is True


def test_log_asymptotic_coefficient_plane():
    assert log_asymptotic_coefficient(plane_pair((1, "inf"))) == 2
    assert log_asymptotic_coefficient(plane_pair((3, "inf"))) == 0


def test_log_asymptotic_coefficient_abelian():
    geom = abelian_variety(2, selfint=6)
    pair = OrbifoldPair(geom, [(geom.generator("D"), "inf")])
    assert log_asymptotic_coefficient(pair) == 3


def test_log_asymptotic_ratio_converges():
    # chi_k against (d-3)^2 (ln k)^2 / 2 for one log quintic: the ratio climbs
    # and sits within 20 percent of 1 by k = 10^6
    pair = plane_pair((5, "inf"))
    ratios = []
    for k in (10 ** 2, 10 ** 4, 10 ** 6):
        ratios.append(chi_k(pair, k, numeric=True) / (2 * math.log(k) ** 2))
    assert ratios[0] < ratios[1] < ratios[2]
    assert abs(ratios[2] - 1) < 0.2


# -- trivial-canonical closed form ----------------------------------------------

def abelian_surface_pair(selfint, m):
    geom = abelian_variety(2, selfint=selfint)
    return OrbifoldPair(geom, [(geom.generator("D"), m)])


def test_closed_form_known_values():
    assert chi_trivial_canonical_closed_form(abelian_surface_pair(6, 5), 5) \
        == F(23, 20)
    assert chi_trivial_canonical_closed_form(abelian_surface_pair(6, 4), 4) == 0
    geom = surface_with_invariants(c2=24, divisors=["D"], dd=[[6]])
    empty = OrbifoldPair(geom, [])
    assert chi_trivial_canonical_closed_form(empty, 2) == -30  # -(5/4)*24


def test_closed_form_agrees_with_chi_on_random_pairs():
    rng = random.Random(2718)
    for trial in range(50):
        r = rng.randint(1, 3)
        if trial % 2 == 0:
            dd = [[0] * r for _ in range(r)]
            for i in range(r):
                for j in range(i, r):
                    dd[i][j] = dd[j][i] = rng.randint(-2, 6)
            geom = surface_with_invariants(
                c2=rng.randint(0, 24),
                divisors=["D%d" % (i + 1) for i in range(r)], dd=dd)
            divisors = [geom.generator("D%d" % (i + 1)) for i in range(r)]
        else:
            pairing = [[0] * r for _ in range(r)]
            for i in range(r):
                for j in range(i, r):
                    pairing[i][j] = pairing[j][i] = rng.randint(0, 6)
            geom = abelian_variety(2, names=["D%d" % (i + 1) for i in range(r)],
                                   pairing=pairing)
            divisors = [geom.generator("D%d" % (i + 1)) for i in range(r)]
        mults = [rng.randint(2, 7) for _ in range(r)]
        pair = OrbifoldPair(geom, list(zip(divisors, mults)))
        kmax = max(mults)
        for k in range(kmax, kmax + 4):
            assert chi_trivial_canonical_closed_form(pair, k) == chi_k(pair, k)


def test_closed_form_handles_log_components_exactly():
    geom = abelian_variety(2, names=["D1", "D2"], pairing=[[0, 1], [1, 0]])
    pair = OrbifoldPair(geom, [(geom.generator("D1"), "inf"),
                               (geom.generator("D2"), 2)])
    for k in (2, 3, 6):
        assert chi_trivial_canonical_closed_form(pair, k) == chi_k(pair, k)


def test_closed_form_preconditions():
    with pytest.raises(DomainError):  # k below the largest multiplicity
        chi_trivial_canonical_closed_form(abelian_surface_pair(6, 5), 4)
    with pytest.raises(DomainError):  # fractional multiplicity
        chi_trivial_canonical_closed_form(abelian_surface_pair(6, F(5, 2)), 9)
    geom = surface_with_invariants(c2=24, divisors=["D"], kk=2, kd=[1], dd=[[6]])
    pair = OrbifoldPair(geom, [(geom.generator("D"), 3)])
    with pytest.raises(DomainError):  # canonical class pairs nontrivially
        chi_trivial_canonical_closed_form(pair, 5)


# -- cross-path matrix: the interval chi against independent derivations --------

def per_order_chi(pair, k):
    """Slow reference: the product of s^(j)(t/j) over j = 1..k, one
    cotangent_segre inverse and one ring product per order."""
    product = pair.geometry.one()
    for j in range(1, k + 1):
        product = product * cotangent_segre(pair, j).scale_degrees(F(1, j))
    return (-1) ** pair.geometry.dim * product.integrate()


MATRIX_GEOMETRIES = {
    "P1": projective_space(1),
    "P2": projective_space(2),
    "P3": projective_space(3),
    "P4": projective_space(4),
    "abelian2": abelian_variety(2, selfint=6),
    "abelian3": abelian_variety(3, selfint=4),
    "abelian-two-gen": abelian_variety(2, names=["D1", "D2"],
                                       pairing=[[2, 1], [1, 2]]),
    "surface-two-div": surface_with_invariants(
        c2=24, divisors=["D", "E"], kk=1, kd=[1, 0], dd=[[6, 1], [1, -2]]),
}
MATRIX_MULTIPLICITIES = [1, 2, 3, F(5, 2), F(7, 3), 4, 6, "inf", "inf"]


def random_pairs(geom, rng, count):
    gens = [geom.generator(name) for name, deg in geom.generators if deg == 1]
    for _ in range(count):
        components = []
        for _ in range(rng.randint(1, 3)):
            divisor = geom.zero()
            for g in gens:
                divisor = divisor + g * rng.randint(0, 3)
            components.append((divisor, rng.choice(MATRIX_MULTIPLICITIES)))
        yield OrbifoldPair(geom, components)


def matrix_orders(pair):
    """k = ceil(m) - 1, ceil(m), ceil(m) + 1 for every finite m, and two
    orders past stabilization."""
    ks = {pair.stabilization_order() + 2, pair.stabilization_order() + 5}
    for comp in pair.components:
        if not comp.multiplicity.is_infinite:
            top = math.ceil(comp.multiplicity.value)
            ks.update(k for k in (top - 1, top, top + 1) if k >= 1)
    return sorted(ks)


def literal_cotangent_chern(pair, k):
    """c(Omega_X) prod_{m_i > k} (1 - (k/m_i) D_i) (1 - D_i).inverse(): the
    Whitney product assembled by hand from ring primitives."""
    c = pair.geometry.tangent_chern.dual()
    for divisor, m in pair.components:
        if m.is_infinite or (k is not INFINITE_ORDER and m.value > k):
            c = c * (1 - divisor * m.ratio(k)) * (1 - divisor).inverse()
    return c


@pytest.mark.parametrize("name", sorted(MATRIX_GEOMETRIES))
def test_cotangent_chern_plane_orbifold(name):
    # oracles: the literal Whitney product, and K_X + Delta^(k) summed
    # component by component
    rng = random.Random("chi-matrix/" + name)
    for pair in random_pairs(MATRIX_GEOMETRIES[name], rng, 6):
        geom = pair.geometry
        for k in (1, 2, 3, INFINITE_ORDER):
            assert cotangent_chern(pair, k) == literal_cotangent_chern(pair, k), (
                pair.components, k)
            canonical = sum((d * order_coefficient(m, k)
                             for d, m in pair.components),
                            -geom.tangent_chern.component(1))
            assert canonical_k(pair, k)[0] == canonical, (pair.components, k)


@pytest.mark.parametrize("name", sorted(MATRIX_GEOMETRIES))
def test_chi_matches_per_order_product(name):
    rng = random.Random("chi-matrix/" + name)
    for pair in random_pairs(MATRIX_GEOMETRIES[name], rng, 6):
        for k in matrix_orders(pair):
            assert chi_k(pair, k) == per_order_chi(pair, k), (pair.components, k)


def fraction_chi(pair, k):
    """Oracle: chi_k assembled in Fractions from the reduced harmonic sums
    H_J^(q), one component at a time, with no common scale L and no grouping
    of equal components."""
    geom, n = pair.geometry, pair.geometry.dim
    lasts = [min(k, c.multiplicity.last_order) for c in pair.components]
    prefix = harmonic_prefixes(lasts + [k], n)
    log_c = _series(geom.tangent_chern.dual() - 1,
                    [F((-1) ** (r + 1), r) for r in range(1, n + 1)])
    total = -sum((log_c.component(q) * h for q, h in enumerate(prefix[k], 1)),
                 geom.zero())
    for comp, last in zip(pair.components, lasts):
        inv_m = comp.multiplicity.ratio(1)
        weights = [(last * inv_m ** r - h) / r for r, h in enumerate(prefix[last], 1)]
        total = total + _series(comp.divisor, weights)
    return _series(total, [F(1, math.factorial(r))
                           for r in range(1, n + 1)]).integrate() * (-1) ** n


@pytest.mark.parametrize("name", sorted(MATRIX_GEOMETRIES))
def test_chi_matches_fraction_assembly_at_every_small_order(name):
    # two seeded pairs per geometry, each with its first component repeated
    rng = random.Random("chi-fractions/" + name)
    for pair in random_pairs(MATRIX_GEOMETRIES[name], rng, 2):
        pair = pair.with_component(*pair.components[0])
        for k in range(1, 301):
            assert chi_k(pair, k) == fraction_chi(pair, k), (pair.components, k)


def test_chi_matches_fraction_assembly_on_deep_pairs():
    # the exact chi commands of the deep-chi benchmark workload
    p3, k3_like = projective_space(3), surface_with_invariants(
        c2=24, divisors=["D"], dd=[[6]])
    h = p3.generator("h")
    cases = [(OrbifoldPair(p3, [(h * 5, 3001), (h * 2, "inf")]), 3000),
             (plane_pair((12, 10_000)), 4800), (plane_pair((12, 107)), 1000),
             (plane_pair((12, 107)), 4800),
             (OrbifoldPair(k3_like, [(k3_like.generator("D"), 5)]), 4800)]
    for pair, k in cases:
        assert chi_k(pair, k) == fraction_chi(pair, k), (pair.components, k)


@pytest.mark.parametrize("name", sorted(MATRIX_GEOMETRIES))
def test_scale_degrees_is_a_ring_map_scaling_the_integral(name):
    # psi^t, which exact chi_k applies with t = lcm(1..k): multiplicative,
    # and t^n times the integral
    geom = MATRIX_GEOMETRIES[name]
    rng = random.Random("psi/" + name)
    for _ in range(20):
        a, b = random_class(geom, rng), random_class(geom, rng)
        t = rng.choice([2, -3, F(5, 7), math.lcm(*range(1, rng.randint(1, 60)))])
        assert (a * b).scale_degrees(t) == a.scale_degrees(t) * b.scale_degrees(t)
        assert a.scale_degrees(t).integrate() == t ** geom.dim * a.integrate()


@pytest.mark.parametrize("k", [5, 50, 500, 2000])
def test_chi_matches_closed_form_at_large_orders(k):
    k3_like = surface_with_invariants(c2=24, divisors=["D"], dd=[[6]])
    two_gen = abelian_variety(2, names=["D1", "D2"], pairing=[[2, 1], [1, 2]])
    pairs = [
        OrbifoldPair(k3_like, [(k3_like.generator("D"), 5)]),
        OrbifoldPair(two_gen, [(two_gen.generator("D1"), 2),
                               (two_gen.generator("D2"), 5),
                               (two_gen.generator("D1"), "inf")]),
    ]
    for pair in pairs:
        assert chi_k(pair, k) == chi_trivial_canonical_closed_form(pair, k)


@pytest.mark.parametrize("k", [10 ** 3, 10 ** 4])
def test_chi_numeric_matches_exact_at_large_orders(k):
    p3 = projective_space(3)
    h = p3.generator("h")
    for pair in (plane_pair((12, 107)), plane_pair((5, "inf")),
                 plane_pair((12, 10_000)),
                 OrbifoldPair(p3, [(h * 5, 3001), (h * 2, "inf")])):
        exact = chi_k(pair, k)
        approx = chi_k(pair, k, numeric=True)
        assert abs(F(approx) - exact) <= F(1, 10 ** 12) * abs(exact)


def rounding_pairs():
    """15 seeded pairs on P^2, P^3, an abelian surface and two surface
    presets, each with one to three of an integer, a rational and a
    logarithmic component."""
    geoms = [projective_space(2), projective_space(3), abelian_variety(2, selfint=6),
             surface_with_invariants(c2=24, divisors=["D"], dd=[[6]]),
             surface_with_invariants(c2=10, divisors=["D"], kk=2, kd=[1], dd=[[3]])]
    rng = random.Random(18)
    pairs = []
    for i in range(15):
        geom = geoms[i % 5]
        gen = geom.generator("h" if geom.kind == "projective" else "D")
        den = rng.randint(2, 7)
        mults = [rng.choice((rng.randint(2, 70), rng.randint(70, 6000))),
                 F(rng.randint(den + 1, 9000), den), "inf"]
        pairs.append(OrbifoldPair(geom, [(gen * rng.randint(1, 7), m) for m in
                                         rng.sample(mults, rng.randint(1, 3))]))
    return pairs


@pytest.mark.parametrize("k", [1, 2, 3, 40, 63, 64, 65, 1000, 4800])
def test_chi_numeric_is_exact_chi_correctly_rounded(k):
    for pair in rounding_pairs():
        assert chi_k(pair, k, numeric=True) == float(chi_k(pair, k)), pair.components


# gamma and pi to 70 digits, for the oracle below
GAMMA_70 = Decimal("0.5772156649015328606065120900824024310421593359399235988057672348848677")
PI_70 = Decimal("3.141592653589793238462643383279502884197169399375105820974944592307816")


def test_chi_float_prints_the_digits_of_an_asymptotic_oracle(tmp_path):
    """A degree-30 plane curve of multiplicity 4: for k >= 4, chi_k =
    P(H_k, H_k^(2)), P(x, y) = 9/2 x^2 - 195/2 x + 3/2 y, which cancels to
    about 1e-8 where chi changes sign, near k = 1.4e9.  P is checked against
    exact chi_k, then evaluated at 70 digits from the asymptotic series of
    H_k and H_k^(2) (truncation below 1e-50); chi --float must print the
    oracle's 12 digits."""
    pair = plane_pair((30, 4))

    def poly(x, y):
        return 9 * x * x / 2 - 195 * x / 2 + 3 * y / 2

    for k in (4, 5, 63, 64, 300):
        assert chi_k(pair, k) == poly(harmonic(k), sum(F(1, j * j)
                                                       for j in range(1, k + 1)))
    path = tmp_path / "degree30.json"
    path.write_text('{"geometry": {"preset": "P2"},'
                    ' "components": [{"degree": 30, "mult": "4"}]}')
    for k, printed in ((1_406_140_699, "-2.57758313454E-8"),
                       (1_406_140_700, "4.34007263442E-8")):
        with localcontext(Context(prec=70)):
            n = Decimal(k)
            x = n.ln() + GAMMA_70 + 1 / (2 * n) - 1 / (12 * n ** 2) + 1 / (120 * n ** 4)
            y = (PI_70 ** 2 / 6 - 1 / n + 1 / (2 * n ** 2) - 1 / (6 * n ** 3)
                 + 1 / (30 * n ** 5))
            oracle = poly(x, y)
        out, err = io.StringIO(), io.StringIO()
        assert run(["chi", "--pair", str(path), "--k", str(k), "--float"],
                   out=out, err=err) == 0
        assert out.getvalue() == str(Context(prec=12).plus(oracle)) + "\n"
        assert out.getvalue() == printed + "\n"


# -- ring-free oracles: curves and products of curves ----------------------------

def harmonic(n):
    """H_n exactly, by binary splitting; shares no code with the package."""
    def split(a, b):  # sum of 1/j over a <= j < b as (numerator, denominator)
        if b - a == 1:
            return 1, a
        mid = (a + b) // 2
        (p1, q1), (p2, q2) = split(a, mid), split(mid, b)
        return p1 * q2 + p2 * q1, q1 * q2
    return F(*split(1, n + 1)) if n else F(0)


def curve_chi(genus, mults, k):
    """chi_k of a genus-g curve with points of multiplicities mults (None
    for a logarithmic point): sum_{j<=k} (2g - 2 + sum_i (1 - j/m_i)^+)/j,
    regrouped by point, as (1 - j/m)^+ > 0 exactly for j < m."""
    total = (2 * genus - 2) * harmonic(k)
    for m in mults:
        last = k if m is None else min(k, math.ceil(m) - 1)
        total += harmonic(last) - (0 if m is None else last / F(m))
    return total


def curve_chi_by_order(genus, mults, k):
    """The same sum, term by term in j."""
    return sum(F(2 * genus - 2 + sum(1 if m is None else max(0, 1 - F(j) / m)
                                     for m in mults), j)
               for j in range(1, k + 1))


def curve_product_pair(factors):
    """The pair on a product of curves, factors a list of (genus, mults).
    Generator p_i is a point of factor i: int p_1...p_n = 1, every other top
    monomial integrates to 0, and c(T) = prod_i (1 + (2 - 2 g_i) p_i).  The
    relations p_i^2 = 0 are not needed, as they only produce monomials that
    integrate to 0.  Each point of factor i is a component of class p_i."""
    n = len(factors)
    tangent = {e: math.prod(2 - 2 * g for (g, _), ei in zip(factors, e) if ei)
               for e in itertools.product((0, 1), repeat=n)}
    geom = Geometry(n, [("p%d" % i, 1) for i in range(n)], {(1,) * n: 1},
                    tangent_chern=tangent)
    return OrbifoldPair(geom, [
        (geom.generator("p%d" % i), "inf" if m is None else m)
        for i, (_, mults) in enumerate(factors) for m in mults])


POINT_ORDERS = [2, 3, 7, F(5, 2), F(7, 3), F(9, 4), None]


def test_chi_on_curve_products_is_the_product_of_curve_sums():
    """chi_k of a product pair is the product of its factors' chi_k (the
    orbifold cotangent bundle is a direct sum), and a curve's chi_k is the
    closed sum of `curve_chi`: an oracle for the ring's multiply, inverse
    and dual that shares no code with it.  Genus 0-3, integer, rational and
    logarithmic points, n = 1..3, k in {1, 3, 9}; numeric=True is held to
    1e-12 of the sum of the terms' sizes, prod_i (|2 g_i - 2| + r_i) H_k."""
    rng = random.Random(4)
    for n in (1, 1, 2, 2, 3, 3):
        factors = [(rng.randint(0, 3),
                    [rng.choice(POINT_ORDERS) for _ in range(rng.randint(0, 3))])
                   for _ in range(n)]
        pair = curve_product_pair(factors)
        for k in (1, 3, 9):
            expected = math.prod(curve_chi(g, ms, k) for g, ms in factors)
            assert chi_k(pair, k) == expected, (factors, k)
            size = math.prod((abs(2 * g - 2) + len(ms)) * harmonic(k)
                             for g, ms in factors)
            assert abs(F(chi_k(pair, k, numeric=True)) - expected) <= size / 10 ** 12
    for g, ms in [(0, [F(5, 2), 7, None]), (3, [2, F(9, 4)]), (1, [None])]:
        assert curve_chi(g, ms, 9) == curve_chi_by_order(g, ms, 9)
        pair = curve_product_pair([(g, ms)])
        exact = curve_chi(g, ms, 10 ** 4)
        assert chi_k(pair, 10 ** 4) == exact
        size = (abs(2 * g - 2) + len(ms)) * harmonic(10 ** 4)
        assert abs(F(chi_k(pair, 10 ** 4, numeric=True)) - exact) <= size / 10 ** 12
