"""Orbifold pairs and the characteristic-class machinery attached to them.

An orbifold pair is an ambient geometry together with boundary components,
each a degree-1 divisor class with an extended-rational multiplicity
m in Q(>=1) or infinity.  The order-k boundary keeps each component with
coefficient (1 - k/m)^+, and the order-k cotangent class is the Whitney
product

    c(Omega^(k)) = c(Omega_X) * prod_{m_i > k} (1 - (k/m_i) D_i) / (1 - D_i),

each factor taken as 1 + delta_i (D_i + D_i^2 + ... + D_i^n) with delta_i =
(1 - k/m_i)^+ its boundary coefficient, so the degree-1 part is the order-k
canonical class K_X + Delta^(k).  Segre classes are the inverses of these,
and chi_k is (-1)^n times the integral of prod_{j=1..k} s(Omega^(j))(t/j),
the j-th factor's degree-q part weighted by j^-q: the truncated exp of the
summed logs, as positive degrees are nilpotent.  Under t -> t/j,
(1 - (j/m_i) D_i) becomes (1 - D_i/m_i), and between the breakpoints
`m_i.last_order` the surviving components are fixed, so on such an interval
[a, b], with [.]_q the degree-q part,

    sum_{j=a..b} log s^(j)(t/j) = (b - a + 1) L0 + sum_q H^(q)(a..b) [Lv]_q,

L0 = -sum_surviving log(1 - D_i/m_i), Lv = log(prod_surviving (1 - D_i) /
c(Omega_X)), H^(q)(a..b) = sum_{j=a..b} j^-q; O(n) ring work per interval.

All values are reported per unit covering degree: classes live on the base,
never on an adapted cover, so rational coefficients are allowed and any
overall covering-degree factor is dropped.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError, GeometryMismatch
from .harmonic import _diagonal, _fractions, _range_sums, harmonic_prefixes
from .ring import (INFINITE_ORDER, Geometry, GradedClass, Multiplicity,
                   _check_int, _immutable, _is_int, _series)

#: Largest order for which chi is evaluated in exact arithmetic; the
#: harmonic-type rationals involved grow super-polynomially beyond this.
EXACT_ORDER_LIMIT = 10_000


class BoundaryComponent(NamedTuple):
    divisor: GradedClass
    multiplicity: Multiplicity


class DeltaTerm(NamedTuple):
    divisor: GradedClass
    coefficient: Fraction
    surviving: bool


class ChiReport(NamedTuple):
    """chi_k together with its Riemann-Roch scale and a positivity verdict.

    `leading_scale` is 1/((k!)^n ((k+1)n - 1)!) exactly;
    `canonical_positive` is True/False when the preset decides positivity of
    K_X + Delta^(k), None when it cannot.
    """
    k: int
    chi: Fraction
    leading_scale: Fraction
    canonical_positive: Optional[bool]


class OrbifoldPair:
    """A geometry plus a tuple of checked boundary components (divisor class,
    multiplicity); immutable, like both of them."""

    __slots__ = ("geometry", "components")

    def __init__(self, geometry: Geometry, components):
        comps = []
        for divisor, mult in components:
            if divisor.geometry is not geometry and divisor.geometry != geometry:
                raise GeometryMismatch("component divisor lives elsewhere")
            if divisor.degrees_present() not in ([], [1]):
                raise DomainError("component class must be homogeneous of degree 1")
            comps.append(BoundaryComponent(divisor, Multiplicity.parse(mult)))
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "components", tuple(comps))

    __setattr__ = __delattr__ = _immutable

    def with_component(self, divisor, mult) -> "OrbifoldPair":
        return OrbifoldPair(self.geometry, self.components + ((divisor, mult),))

    def logarithmic_part(self) -> "OrbifoldPair":
        """The sub-pair of infinite-multiplicity components."""
        return OrbifoldPair(self.geometry, [c for c in self.components
                                            if c.multiplicity.is_infinite])

    def stabilization_order(self) -> int:
        """Smallest j* past every finite component's last order; classes of
        order j >= j* coincide with the logarithmic profile."""
        return 1 + max((c.multiplicity.last_order for c in self.components
                        if not c.multiplicity.is_infinite), default=0)

    def __repr__(self):
        return "OrbifoldPair(%r, %d components)" % (self.geometry, len(self.components))


def _check_order(k):
    if k != INFINITE_ORDER:
        _check_int(k, 1, "order k (or inf)")


def order_coefficient(mult: Multiplicity, k) -> Fraction:
    """(1 - k/m)^+, 0 past `mult.last_order`; k/inf = 0."""
    return 1 - mult.ratio(k) if k <= mult.last_order else Fraction(0)


def delta_k(pair: OrbifoldPair, k) -> list[DeltaTerm]:
    """Per-component coefficients of the order-k boundary divisor."""
    _check_order(k)
    out = []
    for comp in pair.components:
        coeff = order_coefficient(comp.multiplicity, k)
        out.append(DeltaTerm(comp.divisor, coeff, coeff > 0))
    return out


def cotangent_chern(pair: OrbifoldPair, k) -> GradedClass:
    """Total Chern class of the order-k orbifold cotangent bundle.

    Each surviving `delta_k` term (D_i, delta_i) multiplies c(Omega_X) by
    (1 - (k/m_i) D_i)/(1 - D_i) = 1 + delta_i (D_i + ... + D_i^n).
    """
    c, n = pair.geometry.tangent_chern.dual(), pair.geometry.dim
    for term in delta_k(pair, k):
        if term.surviving:
            c = c * (1 + _series(term.divisor, [term.coefficient] * n))
    return c


def cotangent_segre(pair: OrbifoldPair, k: int) -> GradedClass:
    """Total Segre class s = 1/c of the order-k orbifold cotangent bundle."""
    return cotangent_chern(pair, k).inverse()


def canonical_class(pair: OrbifoldPair, k) -> GradedClass:
    """K_X + Delta^(k) = c1(K_X) + sum of (1 - k/m_i)^+ D_i, read off as
    c1 of the order-k cotangent bundle."""
    return cotangent_chern(pair, k).component(1)


def canonical_positivity(pair: OrbifoldPair, cls: GradedClass) -> Optional[bool]:
    """Preset-level positivity of a degree-1 class.

    Projective space: the h coefficient decides.  Abelian presets have ample
    generators, so nonzero with all coefficients >= 0 decides.  Anything else
    is reported as not decidable (None).
    """
    kind = pair.geometry.kind
    coeffs = [cls.coefficient(tuple(1 if j == i else 0
                                    for j in range(len(pair.geometry.names))))
              for i in range(len(pair.geometry.names))]
    if kind == "projective":
        return coeffs[0] > 0
    if kind == "abelian":
        return all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs)
    return None


def canonical_k(pair: OrbifoldPair, k):
    """The order-k canonical class and its positivity tri-state."""
    cls = canonical_class(pair, k)
    return cls, canonical_positivity(pair, cls)


# -- the Euler-characteristic coefficient -------------------------------------

def chi_k(pair: OrbifoldPair, k: int, numeric: bool = False):
    """Order-k Euler-characteristic coefficient (exact by default).

    The module docstring's interval sums, regrouped by component; ring work
    does not depend on k.  c(Omega_X) adds -sum_q H_k^(q) [log c(Omega_X)]_q;
    component i, alive at orders 1..J_i = min(k, m_i.last_order), adds
    sum_r D_i^r/r (J_i/m_i^r - H_J_i^(r)), and equal components are summed
    once.  Exact needs k <= EXACT_ORDER_LIMIT and assembles psi^L of that log
    class, L = lcm(1..k): degree q times L^q, so every H_J^(q) L^q is an
    integer, and as psi^L is a ring map multiplying the integral by L^n, the
    integral of the exp is divided by L^n once.  numeric=True is the same
    assembly at L = 1, with every H_J^(q) with J >= 64 taken to within 1e-23
    from one rational Euler-Maclaurin tail; only the result is rounded to a
    float.
    """
    _check_order(k)
    if k == INFINITE_ORDER:
        raise DomainError("chi is indexed by finite orders")
    if not numeric and k > EXACT_ORDER_LIMIT:
        raise DomainError(
            "exact evaluation is limited to k <= %d; use numeric=True"
            % EXACT_ORDER_LIMIT)
    geom, n = pair.geometry, pair.geometry.dim
    comps = Counter(pair.components)
    lasts = {c: min(k, c.multiplicity.last_order) for c in comps}
    ends = {k, *lasts.values()}
    # scaled[J][q - 1] = H_J^(q) L^q, for J = k and every component's last order
    if numeric:
        lcm, scaled = 1, harmonic_prefixes(ends, n, exact=False)
    else:
        sums = {J: _range_sums(1, J, n) for J in ends}
        lcm = sums[k][0]
        scaled = {J: [s * (lcm // l) ** q for q, s in enumerate(N, 1)]
                  for J, (l, N) in sums.items()}
    log_c = _series(geom.tangent_chern.dual() - 1,  # constant term 1
                    [Fraction((-1) ** (r + 1), r) for r in range(1, n + 1)])
    total = -sum((log_c.component(q) * h for q, h in enumerate(scaled[k], 1)),
                 geom.zero())
    for comp, count in comps.items():
        last, lcm_m = lasts[comp], lcm * comp.multiplicity.ratio(1)  # L/m, 0 if log
        weights = [(last * lcm_m ** r - h) * Fraction(count, r)
                   for r, h in enumerate(scaled[last], 1)]
        total = total + _series(comp.divisor, weights)
    value = _series(total, [Fraction(1, math.factorial(r))  # exp(total) - 1
                            for r in range(1, n + 1)]).integrate() / (-lcm) ** n
    if not numeric:
        return value
    try:
        return float(value)
    except OverflowError:
        raise DomainError("chi_k is beyond binary64's range") from None


def leading_scale(n: int, k: int) -> Fraction:
    """1/((k!)^n ((k+1)n - 1)!)."""
    _check_int(n, 1, "dimension n")
    _check_int(k, 1, "order k")
    return Fraction(1, math.factorial(k) ** n * math.factorial((k + 1) * n - 1))


def chi_leading_term(pair: OrbifoldPair, k: int) -> ChiReport:
    """Package chi_k with its asymptotic scale and the positivity verdict;
    exact only, so k <= EXACT_ORDER_LIMIT."""
    if _is_int(k) and k > EXACT_ORDER_LIMIT:  # before any class is built
        raise DomainError("chi_leading_term is exact only, for k <= %d; "
                          "chi_k(pair, k, numeric=True) evaluates beyond"
                          % EXACT_ORDER_LIMIT)
    _, positive = canonical_k(pair, k)
    return ChiReport(k=k, chi=chi_k(pair, k),
                     leading_scale=leading_scale(pair.geometry.dim, k),
                     canonical_positive=positive)


def log_asymptotic_coefficient(pair: OrbifoldPair) -> Fraction:
    """(K_X + Delta^(inf))^n / n!, the (log k)^n rate of chi_k."""
    cls = canonical_class(pair, INFINITE_ORDER)
    n = pair.geometry.dim
    return (cls ** n).integrate() / math.factorial(n)


# -- trivial-canonical closed form --------------------------------------------

def chi_trivial_canonical_closed_form(pair: OrbifoldPair, k: int) -> Fraction:
    """chi_k on a trivial-canonical surface, by harmonic sums alone.

    Requires n = 2 with the canonical class pairing to zero against every
    generator, integer finite multiplicities >= 2, and k at least the largest
    finite multiplicity.  Then

        chi_k = -H_k^(2) c2 + sum_{i1<i2} S_{i1} S_{i2} int(D_{i1} D_{i2})
                + sum_i diag(m_i) int(D_i^2),

    with S_i = H_{m_i} - 1 for finite m_i and H_k for infinite ones, and
    diag(m) the pair-sum coefficient (for infinite m, its order-k truncation
    (H_k^2 - H_k^(2))/2).  Agrees exactly with chi_k on its whole domain.
    """
    geom = pair.geometry
    if geom.dim != 2:
        raise DomainError("closed form is for surfaces")
    _check_int(k, 1, "order k")
    kappa = -geom.tangent_chern.component(1)
    for name in geom.names:
        g = geom.generator(name)
        if g.degrees_present() == [1] and (kappa * g).integrate() != 0:
            raise DomainError("closed form needs a trivial canonical class")
    for comp in pair.components:
        m = comp.multiplicity
        if m.is_infinite:
            continue
        if not m.is_integer or m.value < 2:
            raise DomainError("finite multiplicities must be integers >= 2")
        if k <= m.last_order:
            raise DomainError("needs k >= every finite multiplicity")

    c2 = geom.tangent_chern.component(2).integrate()
    finite = [int(c.multiplicity.value) for c in pair.components
              if not c.multiplicity.is_infinite]
    sums = {J: _range_sums(1, J, 2) for J in {*finite, k}}
    hk, hk2 = _fractions(*sums[k])
    total = -hk2 * c2
    factors = []
    for comp in pair.components:
        m = comp.multiplicity
        if m.is_infinite:
            factors.append((comp.divisor, hk, (hk * hk - hk2) / 2))
        else:
            mi = int(m.value)
            s1 = _fractions(*sums[mi])[0] - 1  # over 2..mi
            factors.append((comp.divisor, s1, _diagonal(mi, *sums[mi])))
    for i, (div_i, s_i, diag_i) in enumerate(factors):
        total += diag_i * (div_i * div_i).integrate()
        for div_j, s_j, _ in factors[i + 1:]:
            total += s_i * s_j * (div_i * div_j).integrate()
    return total
