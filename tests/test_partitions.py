import math
import random
from fractions import Fraction

import pytest

from orbichern.errors import DomainError
from orbichern.orbifold import OrbifoldPair
from orbichern.partitions import (Partition, SchurExpansion,
                                  _pieri_stage,
                                  decompose_sym_tensor, graded_summands,
                                  pieri_multiply, schur_dimension,
                                  weighted_vectors)
from orbichern.ring import projective_space

F = Fraction


# -- independent oracles ---------------------------------------------------------

def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


def schur_value(parts, xs):
    """Bialternant evaluation det(x_i^(lam_j + r - j)) / Vandermonde at
    distinct rational points; independent of the Pieri code."""
    r = len(xs)
    lam = list(parts) + [0] * (r - len(parts))
    if len(lam) > r:
        return F(0)
    num = _det([[x ** (lam[j] + r - 1 - j) for j in range(r)] for x in xs])
    den = _det([[x ** (r - 1 - j) for j in range(r)] for x in xs])
    return num / den


def expansion_value(expansion, xs):
    return sum(mult * schur_value(lam.parts, xs)
               for lam, mult in expansion.terms.items())


SAMPLE_POINTS = [
    (F(2), F(3, 2), F(5, 3)),
    (F(7, 4), F(11, 5), F(1, 2)),
    (F(3), F(1, 3), F(4, 5)),
]


def all_partitions(weight, largest=None):
    """Every partition of weight as a tuple, parts <= largest."""
    if weight == 0:
        yield ()
        return
    for p in range(min(weight, largest or weight), 0, -1):
        for rest in all_partitions(weight - p, p):
            yield (p,) + rest


def reference_strips(parts, m):
    """Slow reference for the strips of _pieri_stage: recurse row by row over
    every row length that interlaces with parts, keep the leaves with 0
    left."""
    rows = len(parts) + 1
    out = []
    prefix = [0] * rows

    def rec(i, remaining):
        if i == rows:
            if remaining == 0:
                out.append(tuple(v for v in prefix if v))
            return
        lo = parts[i] if i < len(parts) else 0
        hi = lo + remaining if i == 0 else min(parts[i - 1], lo + remaining)
        for v in range(lo, hi + 1):
            prefix[i] = v
            rec(i + 1, remaining - (v - lo))
        prefix[i] = 0

    rec(0, m)
    return out


def partitions_into_parts_leq(n, k):
    """Coefficient of q^n in prod_{j<=k} 1/(1-q^j), by the standard DP."""
    dp = [1] + [0] * n
    for part in range(1, k + 1):
        for v in range(part, n + 1):
            dp[v] += dp[v - part]
    return dp[n]


# -- Partition basics -------------------------------------------------------------

def test_partition_validation():
    assert Partition((3, 1, 1)).parts == (3, 1, 1)
    assert Partition(()).parts == ()
    assert Partition((2, 0)).parts == (2,)  # trailing zeros are dropped
    assert Partition((2, 2, 0, 0)).parts == (2, 2)
    assert Partition((0,)).parts == Partition((0, 0)).parts == ()
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((2, -1))
    for parts in [(2, 0, 1), (0, 1), (3, 0, 0, 1, 0), (2, -1, 0)]:
        with pytest.raises(DomainError, match="must be positive"):
            Partition(parts)  # a zero or negative part before a positive one
    with pytest.raises(DomainError):
        SchurExpansion({(2, 0, 1): 1})


@pytest.mark.parametrize("parts", [
    (2.5, 1), (2.0,), (True, True), (3, False), ("2", "1"), (F(2), 1)])
def test_partition_rejects_non_integral_parts(parts):
    with pytest.raises(DomainError):
        Partition(parts)


@pytest.mark.parametrize("mult", [1.7, 2.0, True, F(3), "1"])
def test_expansion_rejects_non_integral_multiplicities(mult):
    with pytest.raises(DomainError):
        SchurExpansion({(2, 1): mult})


@pytest.mark.parametrize("degrees", [[2.0, 1], [True, 1], [-1], ["1"], [None],
                                     [2, "3"], [1, None], [F(2)], [3, False]])
def test_decompose_rejects_non_integral_degrees(degrees):
    with pytest.raises(DomainError):
        decompose_sym_tensor(degrees)


def test_decompose_checks_every_degree_before_any_stage(monkeypatch):
    import orbichern.partitions as partitions
    stages = []
    monkeypatch.setattr(partitions, "_pieri_stage",
                        lambda terms, m: stages.append(m) or terms)
    for degrees in ([3, -1], [-1, 3], [4, 2, "1"], [5, None]):
        with pytest.raises(DomainError):
            decompose_sym_tensor(degrees)
    with pytest.raises(DomainError, match="^degrees must be nonnegative$"):
        decompose_sym_tensor([3, -1])
    assert stages == []


def test_decompose_runs_stages_in_descending_order(monkeypatch):
    import orbichern.partitions as partitions
    stages = []
    real = partitions._pieri_stage

    def record(terms, m):
        stages.append(m)
        return real(terms, m)

    monkeypatch.setattr(partitions, "_pieri_stage", record)
    out = decompose_sym_tensor(iter([1, 3, 0, 2, 3]))
    assert stages == [3, 3, 2, 1, 0]
    assert out == decompose_sym_tensor([3, 3, 2, 1, 0])


def test_sorted_terms_by_weight_then_descending_parts():
    rng = random.Random(404)
    shapes = [parts for w in range(9) for parts in all_partitions(w)]
    for _ in range(30):
        expansion = SchurExpansion({parts: rng.randint(1, 9)
                                    for parts in rng.sample(shapes, 25)})
        assert expansion.sorted_terms() == sorted(
            expansion.terms.items(),
            key=lambda kv: (kv[0].weight, tuple(-p for p in kv[0].parts)))


def _closed_values():
    """Partitions and expansions from each constructor: checked, trusted,
    pieri_multiply and decompose_sym_tensor."""
    expansions = [SchurExpansion({(2, 1): 2, (): 1}),
                  SchurExpansion._trusted({(3,): 1, (2, 1): 4}),
                  pieri_multiply(SchurExpansion({(1,): 1}), 2),
                  decompose_sym_tensor([2, 1, 1])]
    partitions = [Partition((3, 1)), Partition._trusted((2, 2))]
    partitions += [lam for e in expansions for lam in e.terms]
    return partitions, expansions


def test_value_layer_is_closed():
    partitions, expansions = _closed_values()
    for value, field, other in (
            [(lam, "parts", (1, 2)) for lam in partitions]
            + [(e, "terms", {}) for e in expansions]):
        before = str(value)
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert str(value) == before
    for e in expansions:
        before = str(e)
        with pytest.raises(TypeError):
            e.terms[Partition((5,))] = 3
        with pytest.raises(TypeError):
            del e.terms[next(iter(e.terms))]
        assert str(e) == before and Partition((5,)) not in e.terms


def test_expansion_copies_its_input():
    source = {(2,): 1}
    e = SchurExpansion(source)
    source[(3,)] = 1
    assert e == SchurExpansion({(2,): 1})
    assert SchurExpansion(e.terms) == e


def test_partition_serialization():
    assert str(Partition((3, 1, 1))) == "(3,1,1)"
    assert str(Partition(())) == "()"


def test_expansion_serialization():
    e = decompose_sym_tensor([1, 1, 1])
    assert str(e) == "1*(3) + 2*(2,1) + 1*(1,1,1)"


# -- Pieri rule -------------------------------------------------------------------

def test_pieri_single_row():
    assert pieri_multiply(SchurExpansion({(): 1}), 2) == SchurExpansion({(2,): 1})


def test_pieri_identity_strip():
    e = SchurExpansion({(1,): 1})
    assert pieri_multiply(e, 0) == e


def test_pieri_row_times_box():
    out = pieri_multiply(SchurExpansion({(2,): 1}), 1)
    assert out == SchurExpansion({(3,): 1, (2, 1): 1})
    # oracle: evaluate s_(2) * h_1 against the bialternant at rational points
    for xs in SAMPLE_POINTS:
        lhs = schur_value((2,), xs) * schur_value((1,), xs)
        assert lhs == expansion_value(out, xs)


@pytest.mark.parametrize("degrees,expected", [
    ([1, 1], {(2,): 1, (1, 1): 1}),
    ([2, 1], {(3,): 1, (2, 1): 1}),
    ([1, 1, 1], {(3,): 1, (2, 1): 2, (1, 1, 1): 1}),
])
def test_decompose_sym_tensor_examples(degrees, expected):
    out = decompose_sym_tensor(degrees)
    assert out == SchurExpansion(expected)
    for xs in SAMPLE_POINTS:
        lhs = F(1)
        for a in degrees:
            lhs *= schur_value((a,), xs)
        assert lhs == expansion_value(out, xs)


def test_decompose_random_against_bialternant():
    rng = random.Random(5151)
    for _ in range(25):
        degrees = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
        out = decompose_sym_tensor(degrees)
        for xs in SAMPLE_POINTS:
            lhs = F(1)
            for a in degrees:
                lhs *= schur_value((a,), xs)
            assert lhs == expansion_value(out, xs)


def test_strips_match_reference_exhaustively():
    cases = 0
    for weight in range(13):
        for parts in all_partitions(weight):
            for m in range(8):
                strips = _pieri_stage({parts: 1}, m)
                assert set(strips.values()) == {1}  # no strip found twice
                assert set(strips) == set(reference_strips(parts, m))
                cases += 1
    assert cases == 8 * sum(partitions_into_parts_leq(w, w) for w in range(13))


def test_decompose_matches_iterated_pieri_in_given_order():
    rng = random.Random(6006)
    for _ in range(40):
        degrees = [rng.randint(0, 6) for _ in range(rng.randint(0, 5))]
        iterated = SchurExpansion({(): 1})
        for a in degrees:  # unsorted, one validated SchurExpansion per stage
            iterated = pieri_multiply(iterated, a)
        assert decompose_sym_tensor(degrees) == iterated


def test_pieri_stage_sums_multiplicities():
    terms = {(2,): 3, (1, 1): 5}
    assert _pieri_stage(terms, 1) == {(3,): 3, (2, 1): 8, (1, 1, 1): 5}
    assert _pieri_stage(terms, 0) == terms
    assert _pieri_stage({(): 7}, 4) == {(4,): 7}


def test_pieri_outputs_are_valid_partitions():
    out = decompose_sym_tensor([3, 2, 2])
    for lam, mult in out.terms.items():
        assert type(lam) is Partition and lam == Partition(lam.parts)
        assert type(mult) is int and mult > 0


@pytest.mark.parametrize("degrees", [[6] * 6, [4] * 8, [8, 7, 6, 5, 4, 3, 2, 1]])
def test_dimension_identity_at_benchmark_sizes(degrees):
    p = len(degrees)
    out = decompose_sym_tensor(degrees)
    total = sum(mult * schur_dimension(lam, p) for lam, mult in out.terms.items())
    assert total == math.prod(math.comb(a + p - 1, p - 1) for a in degrees)


def test_decompose_order_independent_at_benchmark_size():
    degrees = [8, 7, 6, 5, 4, 3, 2, 1]
    shuffled = degrees[:]
    random.Random(8).shuffle(shuffled)
    assert shuffled != degrees
    assert decompose_sym_tensor(shuffled) == decompose_sym_tensor(degrees)


def test_decompose_is_order_independent():
    rng = random.Random(99)
    for _ in range(20):
        degrees = [rng.randint(0, 5) for _ in range(rng.randint(2, 4))]
        shuffled = degrees[:]
        rng.shuffle(shuffled)
        assert decompose_sym_tensor(degrees) == decompose_sym_tensor(shuffled)


def test_part_count_bound():
    rng = random.Random(2024)
    for _ in range(100):
        p = rng.randint(1, 4)
        degrees = [rng.randint(0, 5) for _ in range(p)]
        for lam in decompose_sym_tensor(degrees).terms:
            assert len(lam) <= p


# -- dimensions -------------------------------------------------------------------

def test_schur_dimension_examples():
    assert schur_dimension((2,), 2) == 3      # Sym^2 of a plane
    assert schur_dimension((1, 1), 2) == 1    # determinant line
    assert schur_dimension((2, 1), 2) == 2
    assert schur_dimension((1, 1, 1), 2) == 0  # too many parts


def test_dimension_consistency_identity():
    rng = random.Random(31415)
    for _ in range(100):
        p = rng.randint(1, 4)
        degrees = [rng.randint(0, 5) for _ in range(p)]
        out = decompose_sym_tensor(degrees)
        for r in range(1, 6):
            lhs = 1
            for a in degrees:
                lhs *= schur_dimension((a,), r)
            rhs = sum(mult * schur_dimension(lam, r) for lam, mult in out.terms.items())
            assert lhs == rhs


# -- weighted vectors --------------------------------------------------------------

def test_weighted_vectors_examples():
    assert weighted_vectors(2, 4) == [(4, 0), (2, 1), (0, 2)]
    assert weighted_vectors(1, 5) == [(5,)]
    assert len(weighted_vectors(3, 6)) == 7


def test_weighted_vectors_invariant_and_counts():
    for k in range(1, 11):
        for n in range(0, 61, 7):
            vectors = weighted_vectors(k, n)
            for ell in vectors:
                assert sum((j + 1) * lj for j, lj in enumerate(ell)) == n
            assert vectors == sorted(vectors, reverse=True)
            assert len(set(vectors)) == len(vectors)
            assert len(vectors) == partitions_into_parts_leq(n, k)


def test_weighted_vectors_deep_order_small_weight():
    # the recursion is at most min(k, N) deep, so a large k is cheap
    assert weighted_vectors(499, 1) == [(1,) + (0,) * 498]
    vectors = weighted_vectors(5000, 4)
    assert len(vectors) == 5
    assert all(len(ell) == 5000 for ell in vectors)
    assert [ell[:4] for ell in vectors] == [
        (4, 0, 0, 0), (2, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 0), (0, 0, 0, 1)]
    assert all(not any(ell[4:]) for ell in vectors)
    assert weighted_vectors(3000, 0) == [(0,) * 3000]


# -- graded summands ----------------------------------------------------------------

def _fifth_pair():
    geom = projective_space(2)
    return OrbifoldPair(geom, [(geom.generator("h") * 4, 5)])


def test_graded_summands_structure():
    out = graded_summands(_fifth_pair(), 2, 2)
    assert [ell for ell, _ in out] == [(2, 0), (0, 1)]
    (_, factors_a), (_, factors_b) = out
    assert factors_a == [(1, 2, factors_a[0][2])]
    assert factors_a[0][2][0].coefficient == F(4, 5)   # (1 - 1/5)
    assert factors_b[0][:2] == (2, 1)
    assert factors_b[0][2][0].coefficient == F(3, 5)   # (1 - 2/5)


def test_graded_summands_weight_zero():
    out = graded_summands(_fifth_pair(), 3, 0)
    assert len(out) == 1 and out[0][1] == []


def test_graded_summands_component_drop():
    geom = projective_space(2)
    pair = OrbifoldPair(geom, [(geom.generator("h") * 3, 2)])
    out = dict(graded_summands(pair, 2, 2))
    profile = out[(0, 1)][0][2]
    assert profile[0].coefficient == 0 and not profile[0].surviving
