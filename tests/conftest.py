import random
from fractions import Fraction

import pytest

from orbichern.ring import (GradedClass, abelian_variety, projective_space,
                            surface_with_invariants)


@pytest.fixture(scope="session")
def p2():
    return projective_space(2)


@pytest.fixture(scope="session")
def p3():
    return projective_space(3)


@pytest.fixture(scope="session")
def abelian2():
    return abelian_variety(2, selfint=6)


@pytest.fixture(scope="session")
def abelian_two_gen():
    return abelian_variety(2, names=["D1", "D2"], pairing=[[2, 1], [1, 2]])


@pytest.fixture(scope="session")
def k3_like():
    return surface_with_invariants(c2=24, divisors=["D"], dd=[[6]])


def random_class(geom, rng: random.Random, unit=False) -> GradedClass:
    """A random sparse class; with unit=True the constant term is nonzero."""
    coeffs = {}
    ngen = len(geom.names)
    for _ in range(rng.randint(1, 6)):
        exps = [0] * ngen
        budget = rng.randint(0, geom.dim)
        for _ in range(budget):
            i = rng.randrange(ngen)
            if tuple(e + (1 if j == i else 0)
                     for j, e in enumerate(exps)) in geom.degree:
                exps[i] += 1
        coeffs[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    cls = GradedClass(geom, coeffs)
    if unit and cls.constant_term == 0:
        cls = cls + rng.randint(1, 5)
    return cls


def assert_truncated(cls: GradedClass):
    for exps in cls.coeffs:
        assert exps in cls.geometry.degree  # weighted degree <= dim
