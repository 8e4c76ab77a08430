"""Partitions, Pieri products and the graded jet-bundle summands.

Products of symmetric powers decompose into Schur functors by iterated Pieri
multiplication (adding horizontal strips); full Littlewood-Richardson is
never needed here because every tensor factor in scope is a symmetric power.
One stage kernel, `_pieri_stage`, serves both `pieri_multiply` and
`decompose_sym_tensor`: it maps {parts tuple: mult} to a new dict,
enumerating each strip directly as a vector of bounded row increments, so
its cost is proportional to the number of (term, strip) pairs.
`decompose_sym_tensor` runs its stages with the degrees in descending order
and wraps the result as `Partition`s once, at the end.
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


def _pieri_stage(terms: dict, m: int) -> dict:
    """One Pieri stage on plain tuples: {parts: mult} -> {mu: mult} summed
    over every mu >= parts with mu/parts a horizontal strip of m boxes (at
    most one added box per column, so rows interlace).

    A strip is a vector of row increments e_i summing to m: e_0 is free,
    e_i <= parts[i-1] - parts[i] for the rows below the first, and a new
    last row takes e_n <= parts[-1] boxes.  Rows whose bound is 0 are
    skipped.  Each loop starts at max(0, rem - room), where room is what the
    rows after it can still take, so every branch ends in a strip and the
    new row simply takes what is left: the cost is proportional to the
    number of (term, strip) pairs, each added straight into the output.
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
            if mult:
                checked[lam] = int(mult)
        object.__setattr__(self, "terms", MappingProxyType(checked))

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def _trusted(cls, terms: dict) -> "SchurExpansion":
        """An expansion of {parts tuple: mult} already known to hold valid
        partitions and positive int multiplicities; skips the checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", MappingProxyType(
            {Partition._trusted(parts): mult for parts, mult in terms.items()}))
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
    strip of m boxes on every term), multiplicities accumulated exactly."""
    if not _is_int(m) or m < 0:
        raise DomainError("strip size must be a nonnegative integer, got %r"
                          % (m,))
    terms = {lam.parts: mult for lam, mult in expansion.terms.items()}
    return SchurExpansion._trusted(_pieri_stage(terms, int(m)))


def decompose_sym_tensor(degrees) -> SchurExpansion:
    """Schur decomposition of Sym^{a_1} x ... x Sym^{a_p}; every resulting
    partition has at most p parts.

    The product is commutative (Kostka numbers are symmetric in the
    content), so the stages run on plain tuples with the degrees in
    descending order, which keeps the intermediate expansions small: for
    1..8 that makes 65,451 (term, strip) pairs instead of 145,618.
    """
    degrees = list(degrees)
    for a in degrees:
        if not _is_int(a):
            raise DomainError("degrees must be integers, got %r" % (a,))
        if a < 0:
            raise DomainError("degrees must be nonnegative")
    terms = {(): 1}
    for a in sorted(map(int, degrees), reverse=True):
        terms = _pieri_stage(terms, a)
    return SchurExpansion._trusted(terms)


def schur_dimension(lam, r: int) -> int:
    """Dimension of the Schur functor of shape lam on an r-dimensional space,
    by the Weyl product formula; 0 when lam has more than r parts."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if r < 1:
        raise DomainError("rank must be positive")
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
    if k < 1:
        raise DomainError("k must be >= 1")
    if n_weight < 0:
        raise DomainError("weight must be >= 0")
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
