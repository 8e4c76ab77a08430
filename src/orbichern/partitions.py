"""Partitions, Pieri products and the graded jet-bundle summands.

Products of symmetric powers decompose into Schur functors by iterated Pieri
multiplication (adding horizontal strips); full Littlewood-Richardson is
never needed here because every tensor factor in scope is a symmetric power.
One stage kernel, `_strip_stage`, serves `pieri_multiply` and
`decompose_sym_tensor` on packed keys: a partition is one int whose fields
hold its parts, row 0 in the highest, each of w bits (the bit_length of the
largest weight reached) plus a guard bit that is 0 in every key.  A strip
is one integer addition, and for one weight the int order is the order of
the parts, row 0 first: a reverse sort of the keys is `sorted_terms` order.
The stages of one strip size share their strip tables, which are dropped
when the size changes, so nothing is cached past a call.  A stage loops
over the strips of at most two outer rows and, inside, over a table for
the rows below them, so the inner loops are long (`_strip_stage` gives the
rule and its measurement); a one-box stage reads a cached list of unit
deltas per set of rows that can take the box.  One decoder, `_decode`,
renders each distinct upper and lower half of the final keys once: as
tuples for `SchurExpansion`, and as text for the `pieri` command, which
builds its rows from the two texts.
One memoized recursion, `_weighted_rows`, enumerates the weight vectors l
with sum j*l_j = N, building rows from the right: it gives the tuples of
`weighted_vectors` and the text rows of the `summands` command.
The classical Weyl product formula supplies dimensions as an independent
cross-check on the decompositions.

`Partition` and `SchurExpansion` are immutable values, like the ring types:
each sets its fields once through `object.__setattr__`, assignment raises
AttributeError, and `SchurExpansion.terms` is a read-only mapping.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import and_, rshift
from types import MappingProxyType

from .errors import DomainError
from .orbifold import OrbifoldPair, delta_k
from .ring import _check_int, _immutable, _is_int


class Partition:
    """A weakly decreasing tuple of positive integers; () is trivial.

    Trailing zeros are dropped, so (2, 2, 0) and (0,) are accepted; a zero
    followed by a positive part is not a partition and raises DomainError.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        given = tuple(parts)
        if not all(map(_is_int, given)):
            raise DomainError("parts must be integers, got %r" % (given,))
        end = len(given)
        while end and given[end - 1] == 0:
            end -= 1
        parts = tuple(map(int, given[:end]))
        for i, p in enumerate(parts):
            if p < 1:
                raise DomainError("parts must be positive, got %s" % (given,))
            if i and parts[i - 1] < p:
                raise DomainError("parts must be weakly decreasing: %s" % (given,))
        object.__setattr__(self, "parts", parts)

    __setattr__ = __delattr__ = _immutable

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        return "(%s)" % ",".join(str(p) for p in self.parts)

    def __repr__(self):
        return "Partition(%s)" % (self.parts,)


def _strip_table(caps: int, tables: dict, m: int, size: int, unit0: int):
    """(deltas, ends) for the rows capped in `caps`: the deltas that move
    r <= m boxes from row 0 to those rows, by ascending r, and ends[r] how
    many move at most r.  Each table extends the one without its lowest
    capped row, and `tables` keeps them all, starting from {0: ([0], [1])},
    so no table is longer than its rows can fill, however large m is.

    A table depends on (caps, m, size, unit0) alone, and the last two are
    fixed by the key layout, so one `tables` dict serves every stage of one
    call with strip size m: 4^8 builds 337 tables where a dict per stage
    would build 627, 6^6 171 where it would build 297."""
    found = tables.get(caps)
    if found is None:
        s = ((caps & -caps).bit_length() - 1) // size * size
        cap, u = caps >> s & ((1 << size) - 1), (1 << s) - unit0
        rest = _strip_table(caps - (cap << s), tables, m, size, unit0)[0]
        deltas = [d + e * u for d in rest
                  for e in range(min(cap, m + d // unit0) + 1)]
        deltas.sort(reverse=True)  # by ascending r, since d // unit0 is -r
        r = [-(d // unit0) for d in deltas]
        found = tables[caps] = deltas, [i for i in range(1, len(r))
                                        if r[i] != r[i - 1]] + [len(r)]
    return found


def _strip_stage(terms: dict, m: int, size: int, fields: int, grow: int,
                 tables: dict):
    """One Pieri stage: {key: mult} -> {key: mult} summed over every
    horizontal strip of m boxes on rows 0..grow-1 (no input term has grow
    rows); keys have `fields` fields of `size` bits, guard bit included.
    `tables` is a cache the caller may share between stages of one key
    layout: tables[m] holds the strip tables of strip size m (for m = 1,
    the unit lists).

    Row 0 takes the boxes left by the rows below, row i at most
    min(parts[i-1] - parts[i], m): the key shifted down a field, minus the
    key without row 0, holds each gap in its row's field (none is negative,
    so nothing borrows), and subtracting m under the guard bits caps them
    all.  For m = 1 the rows with a gap, and row 0, can take the box, and
    the list of their units is cached per set of rows: the last stage of
    8..1 has 3,344 terms and 109 distinct sets.

    Otherwise the capped gaps of the outer rows 1..min(2, grow // 2) key
    one table and those of the rows below key another, and the strips are
    outer[j] x lower[k] for j + k <= m: one addition and one dict update
    each.  The outer loop runs over the at most two outer rows' deltas, so
    the inner lists over the lower rows are long: on the last stage of 4^8
    the outer rows 1..grow // 2 made 29,924 inner loops of 1.9 pairs on
    average, rows 1..2 make 11,559 of 5.0.  The outer deltas that move j
    boxes pair with the lower deltas that move at most m - j.
    """
    if not m:
        return terms
    w, unit0 = size - 1, 1 << size * (fields - 1)
    ones = (unit0 - 1) // ((1 << size) - 1)  # a 1 in each field but row 0's
    guard = ones << w
    out = {}
    get = out.get
    if m == 1:
        units = tables.setdefault(1, {})
        for key, mult in terms.items():
            g = (key >> size) - (key & unit0 - 1)  # parts[i-1] - parts[i]
            c = (((g | guard) - ones) & guard) >> w  # a 1 in rows with a gap
            found = units.get(c)
            if found is None:
                found = units[c] = []
                c |= unit0  # row 0 can always take it
                while c:
                    b = c & -c
                    found.append(b)
                    c ^= b
            for b in found:
                k = key + b
                out[k] = get(k, 0) + mult
        return out
    mm, shift = ones * m, m * unit0
    known = tables.setdefault(m, {0: ([0], [1])})
    outer = -1 << size * (fields - 1 - min(2, grow // 2))  # rows 0..2 at most
    for key, mult in terms.items():
        g = (key >> size) - (key & unit0 - 1)  # parts[i-1] - parts[i]
        f = ((g | guard) - mm) & guard  # the guard bits of gaps >= m
        c = g ^ ((g ^ mm) & (f - (f >> w)))  # the caps of rows 1..grow-1
        cu = c & outer
        ups, upper = known.get(cu) or _strip_table(cu, known, m, size, unit0)
        cl = c - cu
        lows, ends = known.get(cl) or _strip_table(cl, known, m, size, unit0)
        start = 0
        key += shift
        for j, end in enumerate(upper):  # the outer deltas moving j boxes
            fit = lows if m - j >= len(ends) - 1 else lows[:ends[m - j]]
            for du in ups[start:end]:
                base = key + du
                for dl in fit:
                    k = base + dl
                    out[k] = get(k, 0) + mult
            start = end
    return out


def _decode(terms, size: int, fields: int, upper, lower) -> list:
    """upper(parts of the upper half) + lower(parts of the lower half) of
    each key of the (key, mult) pairs, in their order: the one decoder of
    packed keys.  A key is cut into an upper half, row 0 first, and a lower
    half; each distinct half is decoded once, a column of fields at a time,
    and rendered by the caller's function, which gets an iterator over its
    nonzero parts.  A zero part is followed by zeros only, so a key's parts
    are its upper half's followed by its lower half's.

    The lower half holds three quarters of the rows below row 0, rounded
    down.  At one weight row 0 follows from the rest, and the long rows
    vary most, so the short rows are the ones keys share: the 5,088 keys of
    8..1 have 924 distinct upper and 274 distinct lower halves, the 3,319
    of 4^8 719 and 280.  With two fields the lower half is empty, since no
    two keys of one weight share either row.
    """
    below = max(fields - 1, 0) * 3 // 4  # the fields of the lower half
    split, mask = size * below, (1 << size) - 1

    def halves(found, n, render):
        # found holds the distinct halves of n fields as keys; the columns
        # read their fields lazily, highest first (a half of no fields is 0
        # and reads as one zero field)
        columns = [map(and_, map(rshift, found, repeat(s)), repeat(mask))
                   for s in range(size * max(n - 1, 0), -1, -size)]
        for half, parts in zip(found, zip(*columns)):
            found[half] = render(filter(None, parts))
        return found

    low = (1 << split) - 1
    uppers = halves({k >> split: None for k, _ in terms}, fields - below,
                    upper)
    lowers = halves({k & low: None for k, _ in terms}, below, lower)
    return [uppers[k >> split] + lowers[k & low] for k, _ in terms]


def _unpack(terms: list, size: int, fields: int) -> list:
    """The (parts tuple, mult) pairs of (key, mult) pairs, in their order."""
    return list(zip(_decode(terms, size, fields, tuple, tuple),
                    [mult for _, mult in terms]))


class SchurExpansion:
    """A nonnegative integer combination of Schur functors; `terms` is a
    read-only mapping {Partition: positive int}, and the unit is
    SchurExpansion({(): 1})."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        checked = {}
        for lam, mult in (terms or {}).items():
            if not isinstance(lam, Partition):
                lam = Partition(lam)
            # two keys may name one partition: (2, 0) and (2,)
            if _check_int(mult, 0, "multiplicity"):
                checked[lam] = checked.get(lam, 0) + int(mult)
        object.__setattr__(self, "terms", MappingProxyType(checked))

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        return isinstance(other, SchurExpansion) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def sorted_terms(self):
        """The terms by ascending weight, and within one weight by
        descending parts (no partition is a prefix of another of the same
        weight): a reverse sort on the parts, then a stable one on weight."""
        terms = sorted(self.terms.items(), key=lambda kv: kv[0].parts,
                       reverse=True)
        terms.sort(key=lambda kv: kv[0].weight)
        return terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("%d*%s" % (m, lam) for lam, m in self.sorted_terms())

    def __repr__(self):
        return "SchurExpansion(%s)" % self


def pieri_multiply(expansion: SchurExpansion, m: int) -> SchurExpansion:
    """Multiply by the m-th complete homogeneous functor (a horizontal
    strip of m boxes on every term), multiplicities accumulated exactly;
    keys get a field more than the longest term, fit for the heaviest + m."""
    if not _check_int(m, 0, "strip size m") or not expansion.terms:
        return expansion
    fields = max(map(len, expansion.terms)) + 1
    size = (max(lam.weight for lam in expansion.terms) + m).bit_length() + 1
    shifts = range(size * (fields - 1), -1, -size)
    terms = {sum(p << s for p, s in zip(lam.parts, shifts)): mult
             for lam, mult in expansion.terms.items()}
    out = _strip_stage(terms, int(m), size, fields, fields, {})
    return SchurExpansion(dict(
        _unpack(sorted(out.items(), reverse=True), size, fields)))


def _sym_tensor_keys(degrees):
    """(terms, size, fields): the (key, mult) pairs of Sym^{a_1} x ... x
    Sym^{a_p} by descending key, which is `sorted_terms` order, and their
    key layout.  The product is commutative (Kostka numbers are symmetric
    in the content), so the stages run with the degrees in descending
    order, which keeps the intermediate expansions small: for 1..8 that
    makes 65,451 (term, strip) pairs instead of 145,618.  The stages of one
    size run one after another and share their strip tables, which are
    dropped before the next size's stages build theirs."""
    degrees = sorted([int(_check_int(a, 0, "degree")) for a in degrees],
                     reverse=True)
    fields, size = sum(map(bool, degrees)), sum(degrees).bit_length() + 1
    terms, tables = {0: 1}, {}
    for grow, a in enumerate(degrees, start=1):  # one row more per stage
        if a not in tables:  # a new size: no later stage needs the old one
            tables = {}
        terms = _strip_stage(terms, a, size, fields, grow, tables)
    del tables  # freed before the sort allocates
    return [(k, terms[k]) for k in sorted(terms, reverse=True)], size, fields


def _sym_tensor_terms(degrees) -> list:
    """The (parts tuple, mult) pairs of the product, in `sorted_terms`
    order."""
    return _unpack(*_sym_tensor_keys(degrees))


def decompose_sym_tensor(degrees) -> SchurExpansion:
    """Schur decomposition of Sym^{a_1} x ... x Sym^{a_p}; every resulting
    partition has at most p parts."""
    return SchurExpansion(dict(_sym_tensor_terms(degrees)))


def schur_dimension(lam, r: int) -> int:
    """Dimension of the Schur functor of shape lam on an r-dimensional space,
    by the Weyl product formula; 0 when lam has more than r parts."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > _check_int(r, 1, "rank"):
        return 0
    padded = lam.parts + (0,) * (r - len(lam))
    value = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            value *= Fraction(padded[i] - padded[j] + j - i, j - i)
    assert value.denominator == 1
    return int(value)


def weighted_vectors(k: int, n_weight: int) -> list[tuple]:
    """All l in Z_{>=0}^k with sum j*l_j = n_weight, largest-first order.

    The count equals the number of partitions of the weight into parts <= k.
    """
    _check_int(k, 1, "k")
    _check_int(n_weight, 0, "n_weight")
    return _weighted_rows(k, n_weight, lambda j, lj: (lj,) + (0,) * (k - j),
                          lambda j, lj, tails: [(lj,) + t for t in tails])


def _weighted_rows(k, n_weight, last, extend):
    """One row for each l in Z_{>=0}^k with sum j*l_j = n_weight, largest
    first, built from the right: last(j, l_j) is the row of (l_j, ..., l_k)
    with l_{j+1} = ... = l_k = 0, and extend(j, l_j, rows) prefixes l_j to
    the rows of (l_{j+1}, ..., l_k).  Each (j, weight left) is walked once,
    so extend runs once per (j, l_j) on a shared list of rows."""
    memo = {}

    def rows(j, remaining):
        # l_j descending, so the rows come out largest-first; a row ends when
        # no weight is left, so this is at most min(k, n_weight) levels deep
        found = memo.get((j, remaining))
        if found is None:
            found = []
            top = remaining // j  # at j = k only l_k = top can end a row
            for lj in range(top, -1 if j < k else top - 1, -1):
                rest = remaining - j * lj
                if not rest:
                    found.append(last(j, lj))
                elif j < k and j < rest:
                    found += extend(j, lj, rows(j + 1, rest))
            memo[j, remaining] = found
        return found

    return rows(1, n_weight)


def graded_summands(pair: OrbifoldPair, k: int, n_weight: int):
    """The graded pieces of the order-k weight-N jet bundle: for each weight
    vector l, the tensor factors Sym^{l_j} of the order-j cotangent bundle
    together with the order-j boundary coefficient profile.

    Returns a list of (l, factors) with factors = [(j, l_j, delta_k(pair, j))]
    over the orders with l_j > 0; display-oriented.
    """
    out = []
    profiles = {}
    for ell in weighted_vectors(k, n_weight):
        factors = []
        for j, lj in enumerate(ell, start=1):
            if lj == 0:
                continue
            if j not in profiles:
                profiles[j] = delta_k(pair, j)
            factors.append((j, lj, profiles[j]))
        out.append((ell, factors))
    return out
