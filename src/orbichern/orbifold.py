"""Orbifold pairs and the characteristic-class machinery attached to them.

An orbifold pair is an ambient geometry together with boundary components,
each a degree-1 divisor class with an extended-rational multiplicity
m in Q(>=1) or infinity.  The order-k boundary keeps each component with
coefficient (1 - k/m)^+, and the order-k cotangent class is the Whitney
product

    c(Omega^(k)) = c(Omega_X) * prod_{m_i > k} (1 - (k/m_i) D_i) / (1 - D_i),

with the division meaning the truncated geometric-series inverse.  Segre
classes are the inverses of these, and chi_k is (-1)^n times the integral of
prod_{j=1..k} s(Omega^(j))(t/j), the j-th factor's degree-q part weighted by
j^-q: the truncated exp of the summed logs, as positive degrees are
nilpotent.  Under t -> t/j, (1 - (j/m_i) D_i) becomes (1 - D_i/m_i), and
between breakpoints ceil(m_i) the surviving components are fixed, so on
such an interval [a, b], with [.]_q the degree-q part,

    sum_{j=a..b} log s^(j)(t/j) = (b - a + 1) L0 + sum_q H^(q)(a..b) [Lv]_q,

L0 = -sum_surviving log(1 - D_i/m_i), Lv = log(prod_surviving (1 - D_i) /
c(Omega_X)), H^(q)(a..b) = sum_{j=a..b} j^-q; O(n) ring work per interval.

All values are reported per unit covering degree: classes live on the base,
never on an adapted cover, so rational coefficients are allowed and any
overall covering-degree factor is dropped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError, GeometryMismatch
from .harmonic import _diagonal, harmonic_prefixes
from .ring import INFINITE_ORDER, Geometry, GradedClass, Multiplicity, _immutable

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
        """Smallest j* with every finite multiplicity <= j*; classes of
        order j >= j* coincide with the logarithmic profile."""
        worst = 1
        for c in self.components:
            if not c.multiplicity.is_infinite:
                worst = max(worst, math.ceil(c.multiplicity.value))
        return worst

    def __repr__(self):
        return "OrbifoldPair(%r, %d components)" % (self.geometry, len(self.components))


def _check_order(k):
    if k is INFINITE_ORDER:
        return
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError("order k must be a positive integer or infinite")


def order_coefficient(mult: Multiplicity, k) -> Fraction:
    """(1 - k/m)^+ with the convention k/inf = 0."""
    if mult.is_infinite:
        return Fraction(1)
    if k is INFINITE_ORDER:
        return Fraction(0)
    return max(Fraction(0), 1 - mult.ratio(k))


def delta_k(pair: OrbifoldPair, k) -> list[DeltaTerm]:
    """Per-component coefficients of the order-k boundary divisor."""
    _check_order(k)
    out = []
    for comp in pair.components:
        coeff = order_coefficient(comp.multiplicity, k)
        out.append(DeltaTerm(comp.divisor, coeff, coeff > 0))
    return out


def cotangent_chern(pair: OrbifoldPair, k: int) -> GradedClass:
    """Total Chern class of the order-k orbifold cotangent bundle."""
    _check_order(k)
    c = pair.geometry.tangent_chern.dual()
    one = pair.geometry.one()
    for comp in pair.components:
        if not comp.multiplicity.exceeds(k):
            continue  # (1 - k/m)^+ = 0: the component drops out entirely
        ratio = comp.multiplicity.ratio(k)
        c = c * (one - comp.divisor * ratio) * (one - comp.divisor).inverse()
    return c


def cotangent_segre(pair: OrbifoldPair, k: int) -> GradedClass:
    """Total Segre class s = 1/c of the order-k orbifold cotangent bundle."""
    return cotangent_chern(pair, k).inverse()


def canonical_class(pair: OrbifoldPair, k) -> GradedClass:
    """c1(K_X) + sum of (1 - k/m_i)^+ D_i."""
    _check_order(k)
    out = -pair.geometry.tangent_chern.component(1)
    for term in delta_k(pair, k):
        out = out + term.divisor * term.coefficient
    return out


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
    component i, alive at orders 1..J_i = min(k, ceil(m_i) - 1), adds
    sum_r D_i^r/r (J_i/m_i^r - H_J_i^(r)).  Exact needs k <= EXACT_ORDER_LIMIT;
    numeric=True takes every H_J^(q) with J >= 64 to within 1e-23 from one
    rational Euler-Maclaurin tail, and rounds only the result to a float.
    """
    _check_order(k)
    if k is INFINITE_ORDER:
        raise DomainError("chi is indexed by finite orders")
    if not numeric and k > EXACT_ORDER_LIMIT:
        raise DomainError(
            "exact evaluation is limited to k <= %d; use numeric=True"
            % EXACT_ORDER_LIMIT)
    geom, n = pair.geometry, pair.geometry.dim
    lasts = [k if c.multiplicity.is_infinite
             else min(k, math.ceil(c.multiplicity.value) - 1)
             for c in pair.components]
    # prefix[J][q - 1] = H_J^(q), for J = k and every component's last order
    prefix = harmonic_prefixes(lasts + [k], n, exact=not numeric)
    log_c = _series(geom.tangent_chern.dual() - 1,  # constant term 1
                    [Fraction((-1) ** (r + 1), r) for r in range(1, n + 1)])
    total = -sum((log_c.component(q) * h for q, h in enumerate(prefix[k], 1)),
                 geom.zero())
    for comp, last in zip(pair.components, lasts):
        inv_m = comp.multiplicity.ratio(1)  # 0 for a logarithmic component
        weights = [(last * inv_m ** r - h) / r for r, h in enumerate(prefix[last], 1)]
        total = total + _series(comp.divisor, weights)
    value = _series(total, [Fraction(1, math.factorial(r))  # exp(total) - 1
                            for r in range(1, n + 1)]).integrate() * (-1) ** n
    return float(value) if numeric else value


def _series(u: GradedClass, coefficients) -> GradedClass:
    """sum_r coefficients[r - 1] u^r, e.g. log(1 + u) or exp(u) - 1."""
    power, out = u, u * coefficients[0]
    for c in coefficients[1:]:
        power = power * u
        out = out + power * c
    return out


def leading_scale(n: int, k: int) -> Fraction:
    """1/((k!)^n ((k+1)n - 1)!)."""
    return Fraction(1, math.factorial(k) ** n * math.factorial((k + 1) * n - 1))


def chi_leading_term(pair: OrbifoldPair, k: int) -> ChiReport:
    """Package chi_k with its asymptotic scale and the positivity verdict."""
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
    if not isinstance(k, int) or k < 1:
        raise DomainError("order k must be a positive integer")
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
        if k < m.value:
            raise DomainError("needs k >= every finite multiplicity")

    c2 = geom.tangent_chern.component(2).integrate()
    finite = [int(c.multiplicity.value) for c in pair.components
              if not c.multiplicity.is_infinite]
    prefix = harmonic_prefixes(finite + [k], 2)
    hk, hk2 = prefix[k]
    total = -hk2 * c2
    factors = []
    for comp in pair.components:
        m = comp.multiplicity
        if m.is_infinite:
            factors.append((comp.divisor, hk, (hk * hk - hk2) / 2))
        else:
            mi = int(m.value)
            s1, s2 = prefix[mi][0] - 1, prefix[mi][1] - 1  # over 2..mi
            factors.append((comp.divisor, s1, _diagonal(mi, s1, s2)))
    for i, (div_i, s_i, diag_i) in enumerate(factors):
        total += diag_i * (div_i * div_i).integrate()
        for div_j, s_j, _ in factors[i + 1:]:
            total += s_i * s_j * (div_i * div_j).integrate()
    return total
