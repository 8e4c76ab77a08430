import math
import random
from fractions import Fraction

import pytest
from conftest import pieri_degree_lists

from orbichern.errors import DomainError
from orbichern.orbifold import OrbifoldPair
from orbichern.partitions import (Partition, SchurExpansion, _strip_table,
                                  _sym_tensor_keys, _sym_tensor_terms,
                                  _unpack, decompose_sym_tensor,
                                  graded_summands, pieri_multiply,
                                  schur_dimension, weighted_vectors)
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


def _pieri_stage(terms: dict, m: int) -> dict:
    """One Pieri stage on plain tuples: {parts: mult} -> {mu: mult} summed
    over every mu >= parts with mu/parts a horizontal strip of m boxes (at
    most one added box per column, so rows interlace).

    The tuple recursion the library ran before its stages moved to packed
    keys; kept as the oracle for them.  A strip is a vector of row
    increments e_i summing to m: e_0 is free, e_i <= parts[i-1] - parts[i]
    for the rows below the first, and a new last row takes e_n <= parts[-1]
    boxes.  Rows whose bound is 0 are skipped.  Each loop starts at
    max(0, rem - room), where room is what the rows after it can still
    take, so every branch ends in a strip and the new row simply takes what
    is left.
    """
    if not m:
        return dict(terms)
    out = {}
    get = out.get
    for parts, mult in terms.items():
        if not parts:
            out[m,] = get((m,), 0) + mult
            continue
        active, caps = [0], [m]  # the rows that can grow, and their bounds
        for i in range(1, len(parts)):
            if parts[i - 1] > parts[i]:
                active.append(i)
                caps.append(parts[i - 1] - parts[i])
        room = [parts[-1]] * len(active)  # what the rows after active[s] take
        for s in range(len(active) - 2, -1, -1):
            room[s] = room[s + 1] + caps[s + 1]
        last = len(active) - 1
        mu = list(parts)

        def rec(s, rem):
            i = active[s]
            base = parts[i]
            lo, hi = rem - room[s], caps[s]
            span = range(lo if lo > 0 else 0, (hi if hi < rem else rem) + 1)
            if s == last:
                for e in span:
                    mu[i] = base + e
                    key = tuple(mu) + (rem - e,) if e < rem else tuple(mu)
                    out[key] = get(key, 0) + mult
            else:
                for e in span:
                    mu[i] = base + e
                    rec(s + 1, rem - e)
            mu[i] = base

        rec(0, m)
    return out


def oracle_terms(degrees):
    """(parts, mult) pairs of the degrees' product by the tuple stages,
    sorted by weight and then by descending parts."""
    terms = {(): 1}
    for a in degrees:
        terms = _pieri_stage(terms, a)
    return sorted(terms.items(), key=lambda kv: (sum(kv[0]),
                                                 tuple(-p for p in kv[0])))


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
    monkeypatch.setattr(partitions, "_strip_stage",
                        lambda terms, m, *layout: stages.append(m) or terms)
    for degrees in ([3, -1], [-1, 3], [4, 2, "1"], [5, None]):
        with pytest.raises(DomainError):
            decompose_sym_tensor(degrees)
    with pytest.raises(DomainError, match="^degrees must be nonnegative$"):
        decompose_sym_tensor([3, -1])
    assert stages == []


def test_decompose_runs_stages_in_descending_order(monkeypatch):
    import orbichern.partitions as partitions
    stages = []
    real = partitions._strip_stage

    def record(terms, m, *layout):
        stages.append(m)
        return real(terms, m, *layout)

    monkeypatch.setattr(partitions, "_strip_stage", record)
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
                  SchurExpansion._trusted([((3,), 1), ((2, 1), 4)]),
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


def test_expansion_adds_multiplicities_of_equal_partitions():
    # dropping trailing zeros can map two keys to one partition
    assert str(SchurExpansion({(2, 0): 1, (2,): 3})) == "4*(2)"
    assert str(SchurExpansion({Partition((2,)): 1, (2, 0, 0): 5})) == "6*(2)"
    assert SchurExpansion({(2, 0): 0, (2,): 3}) == SchurExpansion({(2,): 3})
    assert SchurExpansion({(): 2, (0,): 0, (0, 0): 1}).terms == {
        Partition(()): 3}


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
                expected = set(reference_strips(parts, m))
                strips = _pieri_stage({parts: 1}, m)
                assert set(strips.values()) == {1}  # no strip found twice
                assert set(strips) == expected
                packed = pieri_multiply(SchurExpansion({parts: 1}), m).terms
                assert set(packed.values()) == {1}
                assert {lam.parts for lam in packed} == expected
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
    product = {(3,): 3, (2, 1): 8, (1, 1, 1): 5}
    assert _pieri_stage(terms, 1) == product
    assert _pieri_stage(terms, 0) == terms
    assert _pieri_stage({(): 7}, 4) == {(4,): 7}
    e = SchurExpansion(terms)
    assert pieri_multiply(e, 1) == SchurExpansion(product)
    assert pieri_multiply(e, 0) == e
    assert pieri_multiply(SchurExpansion({(): 7}), 4) == SchurExpansion(
        {(4,): 7})
    assert pieri_multiply(SchurExpansion(), 3) == SchurExpansion()


def test_pieri_multiply_matches_tuple_stage_on_mixed_weights():
    rng = random.Random(2718)
    shapes = [parts for w in range(10) for parts in all_partitions(w)]
    heavy = [(250, 3), (255,), (128, 64, 64), (300, 200, 7), (1,) * 17]
    for _ in range(80):
        terms = {parts: rng.randint(1, 9)
                 for parts in rng.sample(shapes, rng.randint(1, 12))}
        if rng.random() < 0.3:
            terms[rng.choice(heavy)] = rng.randint(1, 9)
        m = rng.randint(0, 7)
        out = pieri_multiply(SchurExpansion(terms), m)
        assert out == SchurExpansion(_pieri_stage(terms, m))


def test_strip_tables_are_as_long_as_their_rows_can_fill():
    # a row at field 1 of 4-bit fields, capped at 3, under a strip of a
    # million boxes: each box it takes moves from row 0 to it
    unit0, step = 1 << 8, (1 << 4) - (1 << 8)
    tables = {0: ([0], [1])}
    assert _strip_table(3 << 4, tables, 10 ** 6, 4, unit0) == (
        [0, step, 2 * step, 3 * step], [1, 2, 3, 4])
    assert _strip_table(0, tables, 10 ** 6, 4, unit0) == ([0], [1])
    big = 10 ** 6
    assert decompose_sym_tensor([big, 2]) == SchurExpansion(
        {(big + 2,): 1, (big + 1, 1): 1, (big, 2): 1})


def test_strip_tables_hold_a_bounded_multiple_of_their_deltas(monkeypatch):
    # what the caches hold besides the deltas (the ends lists) stays within
    # a small multiple of them, even with a table of 3,001 deltas at m = 3000
    import orbichern.partitions as partitions
    caches = []
    real = partitions._strip_stage

    def record(terms, m, size, fields, grow, tables):
        caches.append(tables)
        return real(terms, m, size, fields, grow, tables)

    monkeypatch.setattr(partitions, "_strip_stage", record)
    _sym_tensor_keys([3000, 3000, 5])
    assert caches[0] is caches[1] and caches[2] is not caches[0]
    assert (list(caches[0]), list(caches[2])) == ([3000], [5])
    deltas = held = 0
    for known in [caches[0][3000], caches[2][5]]:
        for table_deltas, ends in known.values():
            deltas += len(table_deltas)
            held += len(table_deltas) + len(ends)
    assert max(len(t[0]) for t in caches[0][3000].values()) == 3001
    assert held <= 3 * deltas


def test_stages_of_one_strip_size_share_one_cache(monkeypatch):
    import orbichern.partitions as partitions
    seen = []  # (m, the strip sizes cached before the stage, the cache)
    real = partitions._strip_stage

    def record(terms, m, size, fields, grow, tables):
        seen.append((m, sorted(tables), tables))
        return real(terms, m, size, fields, grow, tables)

    monkeypatch.setattr(partitions, "_strip_stage", record)
    _sym_tensor_keys([4, 4, 3, 3, 1, 1])
    assert [(m, cached) for m, cached, _ in seen] == [
        (4, []), (4, [4]), (3, []), (3, [3]), (1, []), (1, [1])]
    caches = [tables for _, _, tables in seen]
    assert [caches[i] is caches[i + 1] for i in range(5)] == [
        True, False, True, False, True]
    _sym_tensor_keys([1])  # a new call starts from an empty cache
    assert seen[6][:2] == (1, []) and seen[6][2] is not caches[5]


@pytest.mark.parametrize("degrees", pieri_degree_lists())
def test_packed_stages_match_tuple_stages_on_wide_lists(degrees):
    assert _sym_tensor_terms(degrees) == oracle_terms(
        sorted(degrees, reverse=True))


def test_wide_lists_reach_every_decoder_layout():
    layouts = [_sym_tensor_keys(degrees) for degrees in pieri_degree_lists()]
    fields = {f for _, _, f in layouts}
    assert {f % 2 for f in fields} == {0, 1} and max(fields) >= 10
    assert max(size for _, size, _ in layouts) - 1 > 8  # guard bit aside
    assert max(mult for terms, _, _ in layouts for _, mult in terms) >= 10 ** 6
    assert sum(len(d) >= 6 and min(d) > 0 for d in pieri_degree_lists()) >= 8


def test_unpack_decodes_every_field_count_and_width():
    rng = random.Random(4343)
    for fields in range(13):
        for size in (2, 5, 9, 14):
            top = (1 << size - 1) - 1  # the largest part a field holds
            shifts = range(size * (fields - 1), -1, -size)
            by_key = {}
            for _ in range(40):
                n = rng.randint(0, fields)
                parts = tuple(sorted((rng.randint(1, top) for _ in range(n)),
                                     reverse=True))
                by_key[sum(p << s for p, s in zip(parts, shifts))] = parts
            terms = sorted(((k, rng.randint(1, 10 ** 9)) for k in by_key),
                           reverse=True)
            assert _unpack(terms, size, fields) == [(by_key[k], mult)
                                                    for k, mult in terms]


def test_pieri_multiply_matches_tuple_stage_on_long_terms():
    rng = random.Random(6161)
    long = [parts for w in range(6, 15) for parts in all_partitions(w)
            if len(parts) >= 6]
    for _ in range(40):
        terms = {parts: rng.randint(1, 10 ** 7)
                 for parts in rng.sample(long, rng.randint(1, 10))}
        m = rng.randint(1, 6)
        out = pieri_multiply(SchurExpansion(terms), m)
        assert out == SchurExpansion(_pieri_stage(terms, m))


@pytest.mark.parametrize("degrees", [
    [], [0], [0, 0], [3, 0, 2], [0, 4, 0, 0, 1, 2], [300, 200, 7],
    [255, 1], [128, 127, 1], [1] * 16, [1] * 17, [2, 1] * 8, [9, 1, 1, 7],
    [16, 14, 12, 2, 2]])
def test_packed_stages_match_tuple_stages(degrees):
    expected = oracle_terms(sorted(degrees, reverse=True))
    assert _sym_tensor_terms(degrees) == expected
    assert _sym_tensor_terms(degrees[::-1]) == expected
    assert decompose_sym_tensor(degrees).sorted_terms() == [
        (Partition(parts), mult) for parts, mult in expected]


def test_packed_stages_match_tuple_stages_seeded():
    rng = random.Random(1515)
    for _ in range(60):
        degrees = [rng.randint(0, 7) for _ in range(rng.randint(1, 7))]
        assert _sym_tensor_terms(degrees) == oracle_terms(degrees)


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


@pytest.mark.parametrize("r", [True, False, 2.5, 2.0, "3", None, F(3)])
def test_schur_dimension_rejects_non_integral_rank(r):
    with pytest.raises(DomainError, match="rank must be a positive integer"):
        schur_dimension((2, 1), r)


# -- weighted vectors --------------------------------------------------------------

def test_weighted_vectors_examples():
    assert weighted_vectors(2, 4) == [(4, 0), (2, 1), (0, 2)]
    assert weighted_vectors(1, 5) == [(5,)]
    assert len(weighted_vectors(3, 6)) == 7


@pytest.mark.parametrize("k,n_weight", [
    (True, 3), (2, 3.0), (2.0, 3), (2, True), (2, False), ("2", 3), (2, None),
    (F(2), 3)])
def test_weighted_vectors_rejects_non_integral_arguments(k, n_weight):
    with pytest.raises(DomainError):
        weighted_vectors(k, n_weight)


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
