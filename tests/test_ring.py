import random
from fractions import Fraction

import pytest

from orbichern.errors import DomainError, GeometryMismatch, NonUnitError
from orbichern.orbifold import chi_k
from orbichern.pairfile import parse_pair
from orbichern.ring import (Geometry, GradedClass, Multiplicity,
                            abelian_variety, projective_space,
                            surface_with_invariants)

from conftest import assert_truncated, random_class


def test_multiplicity_parsing():
    assert Multiplicity.parse("5").value == 5
    assert Multiplicity.parse("5/2").value == Fraction(5, 2)
    assert Multiplicity.parse("inf").is_infinite
    with pytest.raises(DomainError):
        Multiplicity.parse("1/2")


def test_multiplicity_infinity_arithmetic():
    inf = Multiplicity(None)
    assert inf.ratio(7) == 0  # k/inf = 0
    m = Multiplicity.parse("5/2")
    assert m.ratio(2) == Fraction(4, 5)


def test_mul_difference_of_squares(p2):
    h = p2.generator("h")
    assert (1 + h) * (1 - h) == 1 - h * h


def test_mul_truncates_top_degree(p2):
    h = p2.generator("h")
    # (1-h)(1+h+h^2) = 1 - h^3 and h^3 dies under truncation at degree 2
    assert (1 - h) * (1 + h + h * h) == p2.one()


def test_mul_uses_pairing_table():
    geom = surface_with_invariants(c2=0, divisors=["d"], kk=0, kd=[0], dd=[[6]])
    k, d = geom.generator("K"), geom.generator("d")
    product = (k + d) * d
    assert product.integrate() == 6  # K.d = 0, d.d = 6


def test_mul_geometry_mismatch(p2, p3):
    with pytest.raises(GeometryMismatch):
        p2.generator("h") * p3.generator("h")


def test_invert_geometric_series(p3):
    h = p3.generator("h")
    assert (1 - h).inverse() == 1 + h + h ** 2 + h ** 3


def test_invert_verified_by_product(p2):
    h = p2.generator("h")
    cls = 1 - 3 * h + 3 * h * h
    inv = cls.inverse()
    assert inv * cls == p2.one()  # the oracle: a * a^{-1} = 1 mod truncation
    assert inv == 1 + 3 * h + 6 * h * h


def test_invert_identity(p2):
    assert p2.one().inverse() == p2.one()


def test_invert_nonunit(p2):
    with pytest.raises(NonUnitError):
        p2.generator("h").inverse()


def test_integrate_examples(p2):
    h = p2.generator("h")
    assert (6 * h * h).integrate() == 6
    assert (5 * h).integrate() == 0  # not top degree


def test_integrate_surface_table():
    geom = surface_with_invariants(c2=24, divisors=["D"], dd=[[6]])
    k, e = geom.generator("K"), geom.generator("e")
    assert (k * k + 2 * e).integrate() == 48  # K^2 = 0 here, int e = 24


def test_component(p2):
    h = p2.generator("h")
    cls = 1 + 3 * h + 6 * h * h
    assert cls.component(1) == 3 * h
    assert cls.component(0) == p2.one()
    assert cls.component(5).is_zero()  # above top degree: zero class


def test_component_degree_two_of_divisor(abelian2):
    d = abelian2.generator("D")
    assert (1 - d).component(2).is_zero()


def _preset_list():
    return [projective_space(3),
            abelian_variety(2, names=["D1", "D2"], pairing=[[2, 1], [1, 2]]),
            surface_with_invariants(c2=24, divisors=["D1", "D2"], kk=-1,
                                    kd=[1, 0], dd=[[6, 2], [2, 4]])]


def test_random_units_invert():
    rng = random.Random(20240)
    for geom in _preset_list():
        for _ in range(200):
            cls = random_class(geom, rng, unit=True)
            inv = cls.inverse()
            assert cls * inv == geom.one()
            assert_truncated(inv)


def test_integrate_is_linear():
    rng = random.Random(777)
    for geom in _preset_list():
        for _ in range(50):
            a = random_class(geom, rng)
            b = random_class(geom, rng)
            alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            beta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert (a * alpha + b * beta).integrate() == \
                alpha * a.integrate() + beta * b.integrate()


def test_mul_is_degree_graded():
    rng = random.Random(4242)
    for geom in _preset_list():
        for _ in range(30):
            a = random_class(geom, rng)
            b = random_class(geom, rng)
            ab = a * b
            for q in range(geom.dim + 1):
                graded = geom.zero()
                for i in range(q + 1):
                    graded = graded + a.component(i) * b.component(q - i)
                assert ab.component(q) == graded


def test_truncation_soundness():
    rng = random.Random(11)
    for geom in _preset_list():
        for _ in range(50):
            a = random_class(geom, rng)
            b = random_class(geom, rng)
            for result in (a * b, a + b, a - b, a.component(1), a * 3):
                assert_truncated(result)


def test_serialization_golden(p2, abelian_two_gen):
    h = p2.generator("h")
    assert str(1 + 3 * h + 6 * h * h) == "1 + 3 h + 6 h^2"
    assert str(p2.zero()) == "0"
    assert str(-h + h * h * Fraction(7, 2)) == "-h + 7/2 h^2"
    d1, d2 = abelian_two_gen.generator("D1"), abelian_two_gen.generator("D2")
    assert str(1 - d1 * d2) == "1 - D1 D2"
    assert str(d1 * Fraction(1, 3) - 2) == "-2 + 1/3 D1"


def test_tangent_chern_presets(p2, abelian2, k3_like):
    h = p2.generator("h")
    assert p2.tangent_chern == 1 + 3 * h + 3 * h * h
    assert abelian2.tangent_chern == abelian2.one()
    kk, e = k3_like.generator("K"), k3_like.generator("e")
    assert k3_like.tangent_chern == 1 - kk + e


def test_c2_class_is_independent_data():
    # e pairs only through its own integral; any product with a positive
    # degree class is truncated away
    geom = surface_with_invariants(c2=24, divisors=["D"], dd=[[6]])
    e, d = geom.generator("e"), geom.generator("D")
    assert (e * d).is_zero()
    assert e.integrate() == 24


def test_exact_ring_rejects_floats(p2):
    with pytest.raises(TypeError):
        p2.scalar(0.5)


# -- the immutable Geometry --------------------------------------------------

GEOMETRY_FIELDS = ("dim", "generators", "names", "kind", "degree", "integrals",
                   "tangent_chern")


def _frozen_cases():
    return [projective_space(1), projective_space(2), projective_space(4),
            abelian_variety(3, selfint=2),
            abelian_variety(2, names=["A", "B"], pairing=[[0, 1], [1, 0]]),
            surface_with_invariants(c2=24, divisors=["D1", "D2"],
                                    dd=[[1, 0], [0, 1]]),
            Geometry(2, [("x", 1), ("y", 1)], {(1, 1): 1})]


@pytest.mark.parametrize("geom", _frozen_cases(), ids=repr)
def test_geometry_fields_cannot_be_assigned(geom):
    for field in GEOMETRY_FIELDS:
        with pytest.raises(AttributeError):
            setattr(geom, field, getattr(geom, field))
        with pytest.raises(AttributeError):
            delattr(geom, field)
    with pytest.raises(AttributeError):
        geom.extra = 1
    with pytest.raises(AttributeError):  # the rescaling that once changed chi
        geom.tangent_chern = geom.tangent_chern * 2
    assert isinstance(geom.generators, tuple) and isinstance(geom.names, tuple)
    assert repr(geom).endswith("generators=%s)" % list(geom.names))


@pytest.mark.parametrize("geom", _frozen_cases(), ids=repr)
def test_geometry_tables_are_read_only(geom):
    for table in (geom.degree, geom.integrals, geom.tangent_chern.coeffs):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = 2
        with pytest.raises(TypeError):
            del table[key]
        with pytest.raises(AttributeError):
            table.clear()


def test_in_place_table_edits_cannot_change_chi():
    # the README pair: P2, one curve of degree 12 and multiplicity 107
    pair = parse_pair('{"geometry": {"preset": "P2"},'
                      ' "components": [{"degree": 12, "mult": "107"}]}')
    geom = pair.geometry
    with pytest.raises(TypeError):  # would make chi_2 222/11449
        geom.integrals[(2,)] = 2
    with pytest.raises(TypeError):  # would make chi_2 6743493/91592
        geom.tangent_chern.coeffs[(0,)] = 2
    assert chi_k(pair, 2) == Fraction(111, 11449)


@pytest.mark.parametrize("geom", _frozen_cases(), ids=repr)
def test_degree_table_holds_a_dense_class(geom):
    for exps, deg in geom.degree.items():
        assert deg == sum(e * d for e, (_, d) in zip(exps, geom.generators))
        assert len(exps) == len(geom.names) and 0 <= deg <= geom.dim
    dense = geom.one()
    for name in geom.names:
        dense = dense + geom.generator(name)
    assert set((dense ** geom.dim).coeffs) == set(geom.degree)


def test_class_keeps_only_nonzero_terms_of_the_degree_table(k3_like):
    # K^3 and K e are above degree 2; (1, 0) has the wrong length
    terms = {(0, 0, 0): 0, (1, 0, 0): 2, (3, 0, 0): 1, (1, 0, 1): 5,
             (0, 1, 0): Fraction(1, 2), (1, 0): 7, (0, 0, 1): 3}
    cls = GradedClass(k3_like, terms)
    assert cls.coeffs == {(1, 0, 0): 2, (0, 1, 0): Fraction(1, 2), (0, 0, 1): 3}
    assert cls.degrees_present() == [1, 2]


@pytest.mark.parametrize("tangent", [
    {(0,): 2, (1,): 3},          # constant term 2
    {(1,): 3},                   # no constant term
    {(0,): 1, (3,): 1},          # a term above degree 2
    {(0,): 1, (1, 0): 1},        # a tuple of the wrong length
])
def test_tangent_chern_is_checked(tangent):
    with pytest.raises(DomainError):
        Geometry(2, [("h", 1)], {(2,): 1}, tangent_chern=tangent)


@pytest.mark.parametrize("kind", ["projectiv", "Projective", "", None])
def test_geometry_kind_is_checked(kind):
    # kind selects the positivity verdicts and the pair-file branches
    with pytest.raises(DomainError):
        Geometry(2, [("h", 1)], {(2,): 1}, kind=kind)


@pytest.mark.parametrize("dim, generators, integrals", [
    (1, [("p", 1)], {(1, 0): 1}),
    (2, [("a", 1), ("b", 1)], {(3, -1): 1}),
    (2, [("a", 1), ("b", 1)], {(1, 0): 1}),
    (2, [("a", 1), ("e", 2)], {(0, 2): 1}),
])
def test_integral_keys_must_be_top_degree_tuples(dim, generators, integrals):
    with pytest.raises(DomainError):
        Geometry(dim, generators, integrals)


def test_geometry_defaults_and_hashing():
    geom = Geometry(2, [("h", 1)], {(2,): 1})
    assert geom.tangent_chern == 1
    assert geom.kind == "custom"
    again = Geometry(2, [["h", 1]], {(2,): Fraction(1)})
    assert again == geom and hash(again) == hash(geom)
    assert {geom: "x"}[again] == "x" and len({geom, again}) == 1
    assert projective_space(3) == projective_space(3)
    assert len({projective_space(3), projective_space(3)}) == 1
    with_c = Geometry(2, [("h", 1)], {(2,): 1},
                      tangent_chern={(0,): 1, (1,): 3, (2,): 3})
    assert with_c != geom and with_c == projective_space(2)


# -- immutable classes and multiplicities -------------------------------------

def _classes(geom):
    """Classes from every constructor and ring operation over geom."""
    rng = random.Random(len(geom.degree))
    a, b = random_class(geom, rng, unit=True), random_class(geom, rng)
    return [geom.zero(), geom.one(), geom.generator(geom.names[0]),
            geom.tangent_chern, GradedClass(geom, {}), a, a + b, a - b, -a,
            2 - a, a * b, a * 3, a ** 2, a.inverse(), a.component(1),
            a.scale_degrees(2), a.dual()]


@pytest.mark.parametrize("geom", _frozen_cases(), ids=repr)
def test_class_fields_cannot_be_assigned(geom):
    for cls in _classes(geom):
        for field in ("geometry", "coeffs"):
            with pytest.raises(AttributeError):
                setattr(cls, field, getattr(cls, field))
            with pytest.raises(AttributeError):
                delattr(cls, field)
        with pytest.raises(AttributeError):
            cls.extra = 1


@pytest.mark.parametrize("geom", _frozen_cases(), ids=repr)
def test_class_coeffs_are_read_only(geom):
    for cls in _classes(geom):
        exps = next(iter(geom.degree))
        with pytest.raises(TypeError):
            cls.coeffs[exps] = Fraction(1)
        with pytest.raises(AttributeError):
            cls.coeffs.clear()
        with pytest.raises(AttributeError):
            cls.coeffs.update({exps: Fraction(1)})


def test_sum_leaves_its_operands_unchanged(p2):
    h = p2.generator("h")
    a, b = 1 + h, h * h
    assert str(a + b) == "1 + h + h^2"
    assert str(a) == "1 + h" and str(b) == "h^2"


def test_replacing_tangent_chern_coeffs_raises():
    # the README pair; the replacement once made chi_2 778536/11449
    pair = parse_pair('{"geometry": {"preset": "P2"},'
                      ' "components": [{"degree": 12, "mult": "107"}]}')
    with pytest.raises(AttributeError):
        pair.geometry.tangent_chern.coeffs = {(0,): Fraction(2)}
    assert chi_k(pair, 2) == Fraction(111, 11449)


@pytest.mark.parametrize("mult", [Multiplicity(3), Multiplicity(Fraction(7, 2)),
                                  Multiplicity(None)], ids=str)
def test_multiplicity_cannot_be_assigned(mult):
    with pytest.raises(AttributeError):
        mult.value = Fraction(1, 2)
    with pytest.raises(AttributeError):
        del mult.value
    with pytest.raises(AttributeError):
        mult.extra = 1
