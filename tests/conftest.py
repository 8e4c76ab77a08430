import random
import sys
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


def pieri_degree_lists():
    """Degree lists that reach the Pieri stages' less common paths."""
    rng = random.Random(1717)
    # 6-10 positive degrees: from the sixth stage on, the outer rows of a
    # stage (at most two) are fewer than half of the rows below row 0
    lists = [[rng.randint(1, 4) for _ in range(rng.randint(6, 10))]
             for _ in range(8)]
    lists += [[3] * 7, [2] * 10, [4, 4, 4, 3, 3, 3]]  # stages sharing tables
    lists += [[6, 5, 5, 1], [5, 5, 5, 1, 1], [4, 4, 4, 4, 1, 1, 1]]  # one box
    # odd and even field counts, fields wider than 8 bits, multiplicities of
    # 7 digits or more
    lists += [[130, 130, 1, 1, 1], [300, 2, 2, 2, 2, 2, 2, 2],
              [260, 3, 3, 2, 2, 2, 1, 1, 1], [1] * 17]
    return lists


# Pair texts that json.loads rejects with something other than a
# JSONDecodeError: an integer literal past Python's int-to-str digit limit
# (where the interpreter has one) and nesting past the recursion limit.
MALFORMED_JSON = [
    pytest.param('{"geometry": {"preset": "P2"}, "components": '
                 '[{"degree": %s, "mult": "3"}]}' % ("7" * 5000),
                 id="5000-digit-int",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="no int-to-str digit limit")),
    pytest.param("[" * 100_000 + "]" * 100_000, id="100000-deep"),
]
