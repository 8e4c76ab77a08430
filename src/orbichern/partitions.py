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
The classical Weyl product formula supplies dimensions as an independent
cross-check on the decompositions.

`Partition` and `SchurExpansion` are immutable values, like the ring types:
each sets its fields once through `object.__setattr__`, assignment raises
AttributeError, and `SchurExpansion.terms` is a read-only mapping.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .errors import DomainError
from .orbifold import OrbifoldPair, delta_k
from .ring import _immutable


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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

    @classmethod
    def _trusted(cls, parts: tuple) -> "Partition":
        """A Partition of parts already known to be a valid, zero-free,
        weakly decreasing tuple of ints; skips the checks."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "parts", parts)
        return lam

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
    so no table is longer than its rows can fill, however large m is."""
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


def _strip_stage(terms: dict, m: int, size: int, fields: int, grow: int):
    """One Pieri stage: {key: mult} -> {key: mult} summed over every
    horizontal strip of m boxes on rows 0..grow-1 (no input term has grow
    rows); keys have `fields` fields of `size` bits, guard bit included.

    Row 0 takes the boxes left by the rows below, row i at most
    min(parts[i-1] - parts[i], m): the key shifted down a field, minus the
    key without row 0, holds each gap in its row's field (none is negative,
    so nothing borrows), and subtracting m under the guard bits caps them
    all.  For m = 1 the capped gaps are the units of the rows that can take
    the box.  Otherwise the capped gaps of the upper and of the lower half
    of rows 1..grow-1 key tables of deltas by box count, and the strips are
    upper[j] x lower[k] for j + k <= m: one addition and one dict update.
    """
    if not m:
        return terms
    w, unit0 = size - 1, 1 << size * (fields - 1)
    ones = (unit0 - 1) // ((1 << size) - 1)  # a 1 in each field but row 0's
    guard, mm = ones << w, ones * m
    low = (1 << size * (fields - 1 - grow // 2)) - 1  # rows past grow // 2
    tables, out = {0: ([0], [1])}, {}
    get = out.get
    for key, mult in terms.items():
        g = (key >> size) - (key & unit0 - 1)  # parts[i-1] - parts[i]
        f = ((g | guard) - mm) & guard  # the guard bits of gaps >= m
        c = g ^ ((g ^ mm) & (f - (f >> w)))  # the caps of rows 1..grow-1
        if m == 1:
            c |= unit0  # row 0 can always take it
            while c:
                b = c & -c
                out[key + b] = get(key + b, 0) + mult
                c ^= b
            continue
        ups, upper = _strip_table(c & ~low, tables, m, size, unit0)
        lows, lower = _strip_table(c & low, tables, m, size, unit0)
        key, start = key + m * unit0, 0
        for j, end in enumerate(upper):
            fit = lows if m - j >= len(lower) - 1 else lows[:lower[m - j]]
            for du in ups[start:end]:
                base = key + du
                for dl in fit:
                    k = base + dl
                    out[k] = get(k, 0) + mult
            start = end
    return out


def _unpack(terms: dict, size: int, fields: int) -> list:
    """The (parts tuple, mult) pairs of packed terms by descending key; a
    partition has no zero before a part, so every zero field trails."""
    mask, shifts = (1 << size) - 1, range(size * (fields - 1), -1, -size)
    return [(tuple([p for p in [key >> s & mask for s in shifts] if p]), mult)
            for key, mult in sorted(terms.items(), reverse=True)]


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
            if not _is_int(mult):
                raise DomainError("multiplicities must be integers, got %r"
                                  % (mult,))
            if mult < 0:
                raise DomainError("multiplicities must be nonnegative")
            if mult:  # two keys may name one partition: (2, 0) and (2,)
                checked[lam] = checked.get(lam, 0) + int(mult)
        object.__setattr__(self, "terms", MappingProxyType(checked))

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def _trusted(cls, pairs) -> "SchurExpansion":
        """An expansion of distinct (parts tuple, mult) pairs known to hold
        valid partitions and positive int multiplicities; skips the checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", MappingProxyType(
            {Partition._trusted(parts): mult for parts, mult in pairs}))
        return out

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
    if not _is_int(m) or m < 0:
        raise DomainError("strip size must be a nonnegative integer, got %r"
                          % (m,))
    if not m or not expansion.terms:
        return expansion
    fields = max(map(len, expansion.terms)) + 1
    size = (max(lam.weight for lam in expansion.terms) + m).bit_length() + 1
    shifts = range(size * (fields - 1), -1, -size)
    terms = {sum(p << s for p, s in zip(lam.parts, shifts)): mult
             for lam, mult in expansion.terms.items()}
    out = _strip_stage(terms, int(m), size, fields, fields)
    return SchurExpansion._trusted(_unpack(out, size, fields))


def _sym_tensor_terms(degrees) -> list:
    """The (parts tuple, mult) pairs of Sym^{a_1} x ... x Sym^{a_p} in
    `sorted_terms` order.  The product is commutative (Kostka numbers are
    symmetric in the content), so the stages run with the degrees in
    descending order, which keeps the intermediate expansions small: for
    1..8 that makes 65,451 (term, strip) pairs instead of 145,618."""
    degrees = list(degrees)
    for a in degrees:
        if not _is_int(a):
            raise DomainError("degrees must be integers, got %r" % (a,))
        if a < 0:
            raise DomainError("degrees must be nonnegative")
    degrees = sorted(map(int, degrees), reverse=True)
    fields, size = sum(map(bool, degrees)), sum(degrees).bit_length() + 1
    terms = {0: 1}
    for grow, a in enumerate(degrees, start=1):  # one row more per stage
        terms = _strip_stage(terms, a, size, fields, grow)
    return _unpack(terms, size, fields)


def decompose_sym_tensor(degrees) -> SchurExpansion:
    """Schur decomposition of Sym^{a_1} x ... x Sym^{a_p}; every resulting
    partition has at most p parts."""
    return SchurExpansion._trusted(_sym_tensor_terms(degrees))


def schur_dimension(lam, r: int) -> int:
    """Dimension of the Schur functor of shape lam on an r-dimensional space,
    by the Weyl product formula; 0 when lam has more than r parts."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if not _is_int(r) or r < 1:
        raise DomainError("rank must be a positive integer, got %r" % (r,))
    if len(lam) > r:
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
    if not _is_int(k) or k < 1:
        raise DomainError("k must be an int >= 1, got %r" % (k,))
    if not _is_int(n_weight) or n_weight < 0:
        raise DomainError("weight must be an int >= 0, got %r" % (n_weight,))
    memo = {}

    def suffixes(j, remaining):
        # all (l_j, ..., l_k) with sum of i*l_i = remaining, leading entry
        # descending, so the assembled vectors come out largest-first; the
        # zero tail ends the recursion, so it is at most min(k, n_weight)
        # levels deep
        if remaining == 0:
            return [(0,) * (k - j + 1)]
        if j > remaining or j > k:
            return []
        key = (j, remaining)
        found = memo.get(key)
        if found is None:
            found = [(lj,) + tail
                     for lj in range(remaining // j, -1, -1)
                     for tail in suffixes(j + 1, remaining - j * lj)]
            memo[key] = found
        return found

    return suffixes(1, n_weight)


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
