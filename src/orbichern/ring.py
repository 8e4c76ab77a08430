"""Truncated graded ring with exact rational coefficients.

Classes on an ambient space are represented as polynomials in a fixed list of
named generators, truncated above the space dimension.  All coefficients are
`fractions.Fraction`; the only numeric output is the degree-n integral, read
off an intersection table attached to the geometry.  Intermediate relations
between generators are deliberately not modelled: every quantity of interest
ends in a top-degree integral, which the table evaluates.

The three ambient presets used throughout the package are built by
`projective_space`, `abelian_variety` and `surface_with_invariants`.

`_as_fraction` reads exact rationals, and `_check_int` checks integer
arguments and words their refusals: the package's one rule for numbers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from types import MappingProxyType

from .errors import DomainError, GeometryMismatch, NonUnitError


def _as_fraction(x) -> Fraction:
    """x as an exact rational; a float or a bool is no exact number, and
    text is read only in the form "m" or "p/q" (no exponent, point or _)."""
    if isinstance(x, (bool, float)):
        raise TypeError("exact ring does not accept %ss, got %r"
                        % (type(x).__name__, x))
    if isinstance(x, str) and not re.fullmatch(r"\s*[-+]?[0-9]+(/[0-9]+)?\s*", x):
        raise ValueError("not an integer or p/q")
    return Fraction(x)


def _is_int(value) -> bool:
    """Whether value is an integer argument: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value, least, name):
    """value if an integer argument >= least (None: any), else DomainError."""
    if not _is_int(value) or least is not None and value < least:
        raise DomainError("%s must be an integer%s, got %r" % (
            name, "" if least is None else " >= %d" % least, value))
    return value


def _immutable(self, *args):
    """__setattr__ and __delattr__ of the immutable value types, whose
    __init__ sets each field once with object.__setattr__."""
    raise AttributeError("%s is immutable; build a new one" % type(self).__name__)


#: How an infinite multiplicity (pair file) or order (command line) is spelled.
_INFINITY_WORDS = ("inf", "infinity", "oo")


class Multiplicity:
    """Orbifold multiplicity: a rational >= 1, or infinite (logarithmic).

    The convention k/inf = 0 is built into `ratio`, and the order-k
    weight's breakpoint into `last_order`.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if value is not None:
            value = _as_fraction(value)
            if value < 1:
                raise DomainError("multiplicity must be >= 1, got %s" % value)
        object.__setattr__(self, "value", value)

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def parse(cls, text) -> "Multiplicity":
        """Parse "inf", "m" or "p/q"."""
        if isinstance(text, Multiplicity):
            return text
        if isinstance(text, str):
            text = text.strip()
            if text in _INFINITY_WORDS:
                return cls(None)
        return cls(_as_fraction(text))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def is_integer(self) -> bool:
        return self.value is not None and self.value.denominator == 1

    @property
    def last_order(self):
        """Last order k with (1 - k/m)^+ > 0: ceil(m) - 1, or INFINITE_ORDER."""
        return INFINITE_ORDER if self.value is None else math.ceil(self.value) - 1

    def ratio(self, k) -> Fraction:
        """k/m as an exact rational; 0 when m is infinite."""
        if self.value is None:
            return Fraction(0)
        if k == INFINITE_ORDER:
            raise DomainError("inf/m is undefined for finite m")
        return Fraction(k) / self.value

    def __eq__(self, other):
        return isinstance(other, Multiplicity) and self.value == other.value

    def __hash__(self):
        return hash(("Multiplicity", self.value))

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __repr__(self):
        return "Multiplicity(%s)" % self


#: The infinite order; order-indexed operations accept any float equal to it.
INFINITE_ORDER = math.inf


class Geometry:
    """Ambient-space data: dimension, generators, intersection table, c(T).

    Parameters
    ----------
    dim:
        Complex dimension n; every class is truncated above degree n.
    generators:
        List of (name, degree) with degree 1 or 2.
    integrals:
        Map from degree-n exponent tuples to exact rationals.  Monomials
        absent from the table integrate to 0.
    kind:
        Preset tag: "projective", "abelian", "surface" or "custom".  It
        selects the positivity verdicts and how pair files name components
        and serialize the geometry.
    tangent_chern:
        c(T) as a map from exponent tuples of degree <= n to exact
        rationals, with constant term 1; None means c(T) = 1.

    `degree` maps every exponent tuple of weighted degree <= n to its degree.
    Every field is set here: assigning to a Geometry raises AttributeError,
    and `degree`, `integrals` and `tangent_chern.coeffs` are read-only.
    """

    __slots__ = ("dim", "generators", "names", "kind", "degree", "integrals",
                 "tangent_chern")

    def __init__(self, dim, generators, integrals, kind="custom",
                 tangent_chern=None):
        _check_int(dim, 1, "dimension")
        if kind not in ("projective", "abelian", "surface", "custom"):
            raise DomainError("unknown geometry kind %r" % (kind,))
        generators = tuple((name, deg) for name, deg in generators)
        names = tuple(name for name, _ in generators)
        if len(set(names)) != len(names):
            raise DomainError("generator names must be distinct")
        degree = {(): 0}
        for name, deg in generators:
            if deg not in (1, 2):
                raise DomainError("generator %s has degree %s, want 1 or 2" % (name, deg))
            degree = {e + (i,): d + i * deg for e, d in degree.items()
                      for i in range((dim - d) // deg + 1)}
        degree = MappingProxyType(degree)
        table = MappingProxyType({tuple(e): _as_fraction(v)
                                  for e, v in integrals.items()})
        for exps in table:
            if degree.get(exps) != dim:
                raise DomainError("integration entry %s is not of top degree" % (exps,))
        one = (0,) * len(names)
        tangent = {tuple(e): _as_fraction(c) for e, c in (
            {one: 1} if tangent_chern is None else tangent_chern).items()}
        if tangent.get(one) != 1 or any(e not in degree for e in tangent):
            raise DomainError("c(T) needs constant term 1 and degrees <= %d" % dim)
        for field, value in (("dim", dim), ("generators", generators),
                             ("names", names), ("kind", kind), ("degree", degree),
                             ("integrals", table)):
            object.__setattr__(self, field, value)
        object.__setattr__(self, "tangent_chern", GradedClass(self, tangent))

    __setattr__ = __delattr__ = _immutable

    # -- class constructors ------------------------------------------------

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def one(self) -> "GradedClass":
        return self.scalar(1)

    def scalar(self, c) -> "GradedClass":
        return GradedClass(self, {(0,) * len(self.generators): _as_fraction(c)})

    def generator(self, name) -> "GradedClass":
        i = self.names.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return GradedClass(self, {exps: Fraction(1)})

    def __eq__(self, other):
        """Structural equality: same dimension, generators, intersection
        table and tangent data (independent constructions interoperate)."""
        return (isinstance(other, Geometry)
                and self.dim == other.dim
                and self.generators == other.generators
                and self.integrals == other.integrals
                and self.tangent_chern.coeffs == other.tangent_chern.coeffs)

    def __hash__(self):
        return hash((self.dim, self.generators))

    def __repr__(self):
        return "Geometry(dim=%d, kind=%s, generators=%s)" % (
            self.dim, self.kind, list(self.names))


class GradedClass:
    """A truncated graded polynomial over a geometry's generators.

    Coefficients are exact rationals keyed by exponent tuples; monomials of
    total weighted degree above the geometry dimension are discarded, and
    zero coefficients are never stored.  A class is immutable: `coeffs` is a
    read-only mapping and assigning to a field raises AttributeError.
    """

    __slots__ = ("geometry", "coeffs")

    def __init__(self, geometry, coeffs):
        degree = geometry.degree
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "coeffs", MappingProxyType(
            {e: c for e, c in coeffs.items() if c and e in degree}))

    __setattr__ = __delattr__ = _immutable

    # -- structure ----------------------------------------------------------

    def coefficient(self, exps) -> Fraction:
        return self.coeffs.get(tuple(exps), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        zero = (0,) * len(self.geometry.names)
        return self.coeffs.get(zero, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees_present(self):
        return sorted({self.geometry.degree[e] for e in self.coeffs})

    def _check_same_geometry(self, other):
        if self.geometry is not other.geometry and self.geometry != other.geometry:
            raise GeometryMismatch("operands live over different geometries")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedClass):
            other = self.geometry.scalar(other)
        self._check_same_geometry(other)
        out = self.coeffs.copy()
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, 0) + c
        return GradedClass(self.geometry, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass(self.geometry, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, GradedClass):
            other = self.geometry.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.geometry.scalar(other) - self

    def __mul__(self, other):
        if not isinstance(other, GradedClass):
            c = _as_fraction(other)
            return GradedClass(self.geometry,
                               {e: v * c for e, v in self.coeffs.items()})
        self._check_same_geometry(other)
        geom = self.geometry
        n, degree = geom.dim, geom.degree
        out = {}
        for e1, c1 in self.coeffs.items():
            d1 = degree[e1]
            for e2, c2 in other.coeffs.items():
                if d1 + degree[e2] > n:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return GradedClass(geom, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = self.geometry.one()
        for _ in range(_check_int(k, 0, "power")):
            out = out * self
        return out

    def inverse(self) -> "GradedClass":
        """Multiplicative inverse modulo truncation, by geometric series.

        Requires a nonzero constant term; with a = a0(1 - u) the inverse is
        (1 + u + ... + u^n)/a0, the sum taken by `_series`.
        """
        a0 = self.constant_term
        if not a0:
            raise NonUnitError("cannot invert a class with zero constant term")
        inv_a0 = Fraction(1) / a0
        out = 1 + _series(1 - self * inv_a0, [1] * self.geometry.dim)
        return out if a0 == 1 else out * inv_a0

    def component(self, q) -> "GradedClass":
        """The part of exact total degree q (zero class when q > n)."""
        _check_int(q, 0, "component degree")
        geom = self.geometry
        return GradedClass(geom, {e: c for e, c in self.coeffs.items()
                                  if geom.degree[e] == q})

    def integrate(self) -> Fraction:
        """Pair the top-degree part against the intersection table."""
        coeffs = self.coeffs
        return sum((c * coeffs[e] for e, c in self.geometry.integrals.items()
                    if e in coeffs), Fraction(0))

    def scale_degrees(self, t) -> "GradedClass":
        """Multiply each degree-q component by t**q."""
        geom, t = self.geometry, _as_fraction(t)
        return GradedClass(geom, {e: c * t ** geom.degree[e]
                                  for e, c in self.coeffs.items()})

    def dual(self) -> "GradedClass":
        """Total Chern class of the dual bundle: degree-q part times (-1)^q."""
        geom = self.geometry
        return GradedClass(geom, {e: c if geom.degree[e] % 2 == 0 else -c
                                  for e, c in self.coeffs.items()})

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedClass):
            try:
                other = self.geometry.scalar(other)
            except TypeError:
                return NotImplemented
        return ((self.geometry is other.geometry or self.geometry == other.geometry)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.geometry, frozenset(self.coeffs.items())))

    def _sorted_terms(self):
        geom = self.geometry
        return sorted(self.coeffs.items(),
                      key=lambda item: (geom.degree[item[0]], item[0]))

    def __str__(self):
        """Canonical text form: terms by (degree, lex), e.g. "1 + 3 h + 6 h^2"."""
        if not self.coeffs:
            return "0"
        parts = []
        for exps, c in self._sorted_terms():
            mono = " ".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(self.geometry.names, exps) if e)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s %s" % (abs(c), mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "GradedClass(%s)" % self


def _series(u: GradedClass, coefficients) -> GradedClass:
    """sum_r coefficients[r - 1] u^r, e.g. log(1 + u) or exp(u) - 1: the
    package's one truncated power series."""
    power, out = u, u * coefficients[0]
    for c in coefficients[1:]:
        power = power * u
        out = out + power * c
    return out


# -- geometry presets --------------------------------------------------------

def _gram_integrals(gram, ngen, what) -> dict:
    """int g_i g_j = gram[i][j] for the first len(gram) of ngen generators,
    all of degree 1; gram must be symmetric."""
    integrals = {}
    for i, row in enumerate(gram):
        for j in range(i, len(gram)):
            vij = _as_fraction(row[j])
            if _as_fraction(gram[j][i]) != vij:
                raise DomainError("%s matrix must be symmetric" % what)
            exps = [0] * ngen
            exps[i] += 1
            exps[j] += 1
            integrals[tuple(exps)] = vij
    return integrals


def projective_space(n) -> Geometry:
    """Projective n-space: one degree-1 generator h, int h^n = 1,
    c(T) = (1+h)^(n+1) truncated."""
    _check_int(n, 1, "dimension")  # before range(n + 1) reads it
    return Geometry(n, [("h", 1)], {(n,): 1}, kind="projective",
                    tangent_chern={(q,): math.comb(n + 1, q) for q in range(n + 1)})


def abelian_variety(n, selfint=None, names=None, pairing=None) -> Geometry:
    """Abelian n-fold: trivial tangent Chern class, ample divisor generators.

    Either a single polarization with `selfint` = int D^n, or (n = 2 only)
    several generators with a symmetric `pairing` matrix of int Di.Dj.
    """
    if selfint is not None:
        names = names or ["D"]
        if len(names) != 1:
            raise DomainError("selfint form takes a single generator")
        return Geometry(n, [(names[0], 1)], {(n,): selfint}, kind="abelian")
    if pairing is None:
        raise DomainError("abelian preset needs selfint or a pairing matrix")
    if n != 2:
        raise DomainError("multi-generator abelian preset is limited to n = 2")
    names = list(names or ("D%d" % (i + 1) for i in range(len(pairing))))
    r = len(names)
    if len(pairing) != r or any(len(row) != r for row in pairing):
        raise DomainError("pairing matrix shape does not match generators")
    integrals = _gram_integrals(pairing, r, "pairing")
    return Geometry(2, [(nm, 1) for nm in names], integrals, kind="abelian")


def surface_with_invariants(c2, divisors=("D",), kk=0, kd=None, dd=None) -> Geometry:
    """Surface preset: degree-1 generators K (canonical) and the divisors,
    plus one abstract degree-2 generator e with int e = c2(X).

    `kk` = int K^2, `kd[i]` = int K.Di, `dd[i][j]` = int Di.Dj.  c2 is
    independent data, never rewritten in terms of divisor products.
    """
    divisors = list(divisors)
    r = len(divisors)
    kd = list(kd) if kd is not None else [0] * r
    dd = [list(row) for row in dd] if dd is not None else [[0] * r for _ in range(r)]
    if len(kd) != r or len(dd) != r or any(len(row) != r for row in dd):
        raise DomainError("kd/dd shapes do not match the divisor list")
    if "K" in divisors or "e" in divisors:
        raise DomainError("divisor names K and e are reserved")
    gens = [("K", 1)] + [(nm, 1) for nm in divisors] + [("e", 2)]
    gram = [[kk] + kd] + [[kd_i] + dd_i for kd_i, dd_i in zip(kd, dd)]
    integrals = _gram_integrals(gram, r + 2, "dd")
    zero = (0,) * (r + 1)  # the exponents of K and the divisors
    integrals[zero + (1,)] = _as_fraction(c2)
    return Geometry(2, gens, integrals, kind="surface",
                    tangent_chern={zero + (0,): 1, (1,) + zero: -1, zero + (1,): 1})
