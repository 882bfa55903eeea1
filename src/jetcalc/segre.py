"""Weighted Segre classes, the Whitney product formula, and Euler leading terms.

A split bundle placed in weight ``a`` has total Segre series

    s(E^(a)) = a^-(rk E - 1) * sum_l s_l(E) / a^l,

and a direct sum of weighted factors multiplies by the Whitney rule

    s(E_1^(a_1) + ... + E_s^(a_s))
        = gcd(a_1..a_s) / (a_1...a_s) * prod_j s(E_j^(a_j)).

For line-bundle factors with first Chern classes x_i in weight a_i, the
degree-n part of that product is also the leading coefficient of the Euler
characteristic of the m-th weighted symmetric power: the exact sum

    sum_{a.l = m} (x_1 l_1 + ... + x_r l_r)^n / n!

grows like  gcd/prod a_i * [sum_{|p|=n} prod (x_i/a_i)^p_i] * m^{n+r-1}/(n+r-1)!

and both sides are computed here from the composition power sums of
:mod:`lattice`: the exact one from their values (integer generating-function
convolution), the limit one from their growth coefficients
gcd(a) / prod a_i^{p_i+1} (``lattice.power_sum_asymptotic``; Beck and
Robins, *Computing the Continuous Discretely*, ch. 3-4).  The polynomial
sum_p S_p prod root_i^{p_i} is expanded once, in integers: each power of
the roots is built from the one with one unit less times one root, fewer
than C(n+r, r) of them, and no ``GradedPoly`` product is taken.

Also included: the classical order-k jet-bundle surface coefficients
(alpha_k, beta_k) with their degree-2 class (alpha_k c1^2 - beta_k c2)/k!,
derived independently via the product of weight-i Segre series, and the
rank of the graded order-k jet bundle, i.e. the coefficient of q^m in
prod_{j<=k} (1 - q^j)^(-n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Sequence

from . import lattice
from .ring import GradedPoly, GradedRing
from .simplex import SimplexSpec


class EmptyBundleError(ValueError):
    """A weighted direct sum needs at least one factor."""


@dataclass(frozen=True)
class BundleFactor:
    """A split factor: the degree-1 classes of its line-bundle summands, and
    the weight the factor is placed in."""

    roots: tuple[GradedPoly, ...]
    weight: int

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")
        if not self.roots:
            raise ValueError("a factor needs at least one root")
        for root in self.roots:
            for exps, _ in root.items():
                if root.ring.weighted_degree(exps) != 1:
                    raise ValueError("roots must be pure degree-1 classes")

    @property
    def rank(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class WeightedSplitBundle:
    """A direct sum of split factors, each placed in its own weight."""

    factors: tuple[BundleFactor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise EmptyBundleError("empty weighted direct sum")
        ring = self.factors[0].roots[0].ring
        for f in self.factors:
            for root in f.roots:
                if root.ring != ring:
                    raise ValueError("all roots must live in one shared ring")

    @property
    def ring(self) -> GradedRing:
        return self.factors[0].roots[0].ring

    def line_data(self) -> list[tuple[GradedPoly, int]]:
        """Flattened (root, weight) pairs, factor order then root order."""
        return [(root, f.weight) for f in self.factors for root in f.roots]

    def weights(self) -> tuple[int, ...]:
        return tuple(f.weight for f in self.factors)


def segre_single(s_total: GradedPoly, rank: int, weight: int) -> GradedPoly:
    """Total Segre series of one bundle placed in weight a.

    a^-(rank-1) * sum_l s_l / a^l, where s_l is the pure degree-l part of
    the given total series.  Weight 1 returns the series unchanged.
    """
    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")
    # v -> v / a^w(v) divides every degree-l monomial by a^l
    factors = {name: Fraction(1, weight**w) for name, w in s_total.ring.variables}
    return s_total.scale_vars(factors) * Fraction(1, weight ** (rank - 1))


def whitney_weighted(parts: Sequence[tuple[GradedPoly, int, int]]) -> GradedPoly:
    """Total Segre series of a weighted direct sum from its factors.

    Each part is (total Segre series, rank, weight); the result is

        gcd(weights)/prod(weights) * prod_j segre_single(part_j).
    """
    if not parts:
        raise EmptyBundleError("empty weighted direct sum")
    weights = [w for _, _, w in parts]
    result = None
    for s_total, rank, weight in parts:
        factor = segre_single(s_total, rank, weight)
        result = factor if result is None else result * factor
    return result * Fraction(math.gcd(*weights), math.prod(weights))


def segre_series_split(roots: Sequence[GradedPoly]) -> GradedPoly:
    """Total Segre series of the dual of a split bundle with the given roots.

    Product over roots of the truncated geometric series 1 + x + x^2 + ...
    """
    if not roots:
        raise EmptyBundleError("need at least one root")
    ring = roots[0].ring
    result = ring.one()
    for root in roots:
        series = ring.one()
        power = ring.one()
        for _ in range(ring.bound):
            power = power * root
            if power.is_zero():
                break
            series = series + power
        result = result * series
    return result


def _root_polynomial(
    bundle: WeightedSplitBundle, n: int, table_of: Callable[[SimplexSpec], dict]
) -> GradedPoly:
    """sum over |p| = n of table[p] * prod root_i^{p_i}, where table is
    ``table_of`` at the weights a_i of the roots in line order.

    Expanded once, in integers: each root is scaled to integer numerators
    over the lcm d_i of its denominators, and each prod root_i^{p_i} is kept
    as exponents -> integer terms over prod d_i^{p_i}, memoized on p and
    built from the vector with one unit less times one root.  With t terms
    per root that is fewer than C(n+r, r) products of a power by one root,
    each of at most t^n terms by t, and no ``GradedPoly`` product; the
    terms enter one sum and one ``from_terms`` call.
    """
    ring = bundle.ring
    if ring.bound < n:
        raise ValueError(f"ring bound {ring.bound} is below degree {n}")
    data = bundle.line_data()
    table = table_of(SimplexSpec(w for _, w in data))
    roots = [root._scaled() for root, _ in data]
    powers = {(0,) * len(data): ({(0,) * len(ring.variables): 1}, 1)}

    def power(p: tuple[int, ...]) -> tuple[dict[tuple[int, ...], int], int]:
        got = powers.get(p)
        if got is None:
            i = max(j for j, q in enumerate(p) if q)
            terms, den = power(p[:i] + (p[i] - 1,) + p[i + 1 :])
            root_terms, root_den = roots[i]
            product: dict[tuple[int, ...], int] = {}
            for e1, n1 in terms.items():
                for e2, n2, _ in root_terms:
                    exps = tuple(map(add, e1, e2))
                    product[exps] = product.get(exps, 0) + n1 * n2
            got = powers[p] = (product, den * root_den)
        return got

    sums: dict[tuple[int, ...], Fraction] = {}
    for p, value in table.items():
        if value:
            terms, den = power(p)
            for exps, num in terms.items():
                sums[exps] = sums.get(exps, 0) + value * num / den
    return ring.from_terms(sums)


def chi_leading_exact(bundle: WeightedSplitBundle, n: int, m: int) -> GradedPoly:
    """Exact symmetric-power Euler sum: sum_{a.l=m} (sum_i root_i l_i)^n / n!.

    a_i is the weight of the factor containing root i.  Expanded by the
    multinomial rule, the coefficient of the monomial prod root_i^{p_i} is
    the composition power sum S_p(m); only compositions at level m enter,
    so the result is 0 whenever gcd of the weights does not divide m.
    """
    return _root_polynomial(bundle, n, lambda spec: lattice.power_sum_table(spec, n, m))


def chi_leading_asymptotic(bundle: WeightedSplitBundle, n: int) -> GradedPoly:
    """Leading coefficient of the symmetric-power Euler sums:

        gcd(a)/prod a_i * sum_{|p|=n} prod (root_i / a_i)^{p_i},

    the limit of chi_leading_exact(m) * (n+r-1)! / m^{n+r-1} over m
    divisible by gcd(a).  The coefficient of each monomial is the growth
    coefficient of its composition power sum.
    """
    def table_of(spec: SimplexSpec) -> dict:
        tuples = lattice.exponent_tuples(n, spec.arity)
        return {p: lattice.power_sum_asymptotic(spec, p) for p in tuples}

    return _root_polynomial(bundle, n, table_of)


# -- classical surface coefficients ------------------------------------------

_SURFACE_RING = GradedRing(bound=2, variables=(("c1", 1), ("c2", 2)))


def surface_ring() -> GradedRing:
    """The rank-2 Chern ring {c1 (weight 1), c2 (weight 2)}, truncated at 2."""
    return _SURFACE_RING


def gg_surface_coeffs(k: int) -> tuple[Fraction, Fraction]:
    """The order-k surface coefficients (alpha_k, beta_k):

        alpha_k = sum_{1<=i<=j<=k} 1/(i j),   beta_k = sum_{1<=i<=k} 1/i^2.

    The degree-2 leading class is (alpha_k c1^2 - beta_k c2) / k!.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    alpha = sum(
        (Fraction(1, i * j) for i in range(1, k + 1) for j in range(i, k + 1)),
        Fraction(0),
    )
    beta = sum((Fraction(1, i * i) for i in range(1, k + 1)), Fraction(0))
    return alpha, beta


def gg_surface_class(k: int) -> GradedPoly:
    """Degree-2 part of prod_{i<=k} (1 - c1/i + (c1^2 - c2)/i^2), over k!.

    An independent route to (alpha_k c1^2 - beta_k c2)/k!: the product of
    the weight-i Segre series of the tangent sheaf of a surface.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    ring = _SURFACE_RING
    c1, c2 = ring.gen("c1"), ring.gen("c2")
    product = ring.one()
    for i in range(1, k + 1):
        factor = ring.one() - c1 * Fraction(1, i) + (c1 * c1 - c2) * Fraction(1, i * i)
        product = product * factor
    return product.component(2) * Fraction(1, math.factorial(k))


def jet_rank(n: int, k: int, m: int) -> int:
    """Rank of the graded order-k jet bundle on an n-fold in degree m.

    The coefficient of q^m in prod_{j=1}^{k} (1 - q^j)^(-n): the number of
    monomials in n*k jet variables x_i^(j) of weight j with total weight m.
    Computed by bounded integer power-series multiplication.
    """
    if n < 0 or k < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    coeffs = [0] * (m + 1)
    coeffs[0] = 1
    for j in range(1, k + 1):
        for _ in range(n):
            # multiply by 1/(1 - q^j): running prefix sums with stride j
            for idx in range(j, m + 1):
                coeffs[idx] += coeffs[idx - j]
    return coeffs[m]
