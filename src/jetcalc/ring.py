"""Truncated, weighted-graded polynomial arithmetic over exact rationals.

Scalars are ``fractions.Fraction`` throughout: arbitrary precision, always in
lowest terms with positive denominator, no rounding anywhere.  Products are
computed over integer numerators: each factor is scaled to integers over the
lcm of its denominators (the layout of FLINT's ``fmpq_poly``), the products
are summed as ``int``s, and each output coefficient is reduced once.

A ring is fixed by an ordered tuple of named variables, each carrying a
positive integer weight, together with a truncation bound ``n``: every
monomial of weighted degree above ``n`` is identically zero.  Multiplication
therefore computes in the quotient by the ideal of high-degree terms, which
is how intersection-theoretic computations on an ``n``-dimensional ambient
space discard classes falling below dimension zero.  Chern roots live in
weight 1; a k-th Chern class variable lives in weight k.

Polynomials are immutable and every operation is a pure function, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Iterator, Mapping

Scalar = int | Fraction
Exponents = tuple[int, ...]


class IncompatibleRingError(ValueError):
    """Two polynomials from different rings were combined."""


class ComponentRangeError(ValueError):
    """A graded component above the truncation bound was requested."""


class IncompleteSubstitutionError(ValueError):
    """A variable rescaling is missing a factor for one of the variables."""


@dataclass(frozen=True)
class GradedRing:
    """A truncated polynomial ring: variables with weights, and a degree cap.

    ``variables`` is an ordered tuple of ``(name, weight)`` pairs; exponent
    vectors are dense tuples indexed by this order.
    """

    bound: int
    variables: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError(f"truncation bound must be >= 0, got {self.bound}")
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for name, weight in self.variables:
            if weight < 1:
                raise ValueError(f"variable {name!r} has non-positive weight {weight}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(weight for _, weight in self.variables)

    def weighted_degree(self, exponents: Exponents) -> int:
        return sum(map(mul, exponents, self.weights))

    def zero(self) -> GradedPoly:
        return GradedPoly(self, {})

    def one(self) -> GradedPoly:
        return self.const(1)

    def const(self, value: Scalar) -> GradedPoly:
        return self.from_terms({(0,) * len(self.variables): value})

    def gen(self, name: str) -> GradedPoly:
        """The variable ``name`` as a polynomial."""
        try:
            index = self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable named {name!r} in ring {self.names}") from None
        exps = tuple(1 if i == index else 0 for i in range(len(self.variables)))
        return self.from_terms({exps: 1})

    def gens(self) -> tuple[GradedPoly, ...]:
        return tuple(self.gen(name) for name in self.names)

    def from_terms(self, terms: Mapping[Exponents, Scalar]) -> GradedPoly:
        """Build a polynomial from raw terms: exponents are checked, zero and
        over-bound terms dropped, and coefficients made ``Fraction``s."""
        nvars = len(self.variables)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity for {self.names}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff == 0 or self.weighted_degree(exps) > self.bound:
                continue
            clean[exps] = Fraction(coeff)
        return GradedPoly(self, clean)


class GradedPoly:
    """An element of a :class:`GradedRing`.

    Stored as a map from dense exponent tuples to nonzero ``Fraction``
    coefficients; terms of weighted degree above the ring bound are never
    stored.  The constructor keeps the map it is given, so its terms must
    already be clean; :meth:`GradedRing.from_terms` cleans raw terms.
    Instances are immutable by convention: no method mutates ``self`` and
    the term map must not be modified by callers.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: GradedRing, terms: dict[Exponents, Fraction]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GradedPoly is immutable")

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, exponents: Exponents) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * len(self.ring.variables))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    __hash__ = None  # mutable-looking container semantics; equality only

    # -- arithmetic ------------------------------------------------------

    def _scaled(self) -> tuple[list[tuple[Exponents, int, int]], int]:
        """The terms as (exponents, integer numerator, weighted degree) over
        one common denominator, the lcm of the coefficient denominators."""
        den = math.lcm(*(c.denominator for c in self._terms.values()))
        degree = self.ring.weighted_degree
        return [(e, c.numerator * (den // c.denominator), degree(e))
                for e, c in self._terms.items()], den

    def _check_ring(self, other: GradedPoly) -> None:
        if self.ring != other.ring:
            raise IncompatibleRingError(
                f"cannot combine polynomials over {self.ring} and {other.ring}"
            )

    def __add__(self, other: GradedPoly) -> GradedPoly:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            total = terms.get(exps, Fraction(0)) + coeff
            if total:
                terms[exps] = total
            else:
                terms.pop(exps, None)
        return GradedPoly(self.ring, terms)

    def __neg__(self) -> GradedPoly:
        return GradedPoly(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: GradedPoly) -> GradedPoly:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> GradedPoly:
        if isinstance(other, GradedPoly):
            self._check_ring(other)
            left, den1 = self._scaled()
            right, den2 = other._scaled()
            bound = self.ring.bound
            sums: dict[Exponents, int] = {}
            for e1, n1, d1 in left:
                room = bound - d1
                for e2, n2, d2 in right:
                    if d2 > room:
                        continue
                    exps = tuple(map(add, e1, e2))
                    sums[exps] = sums.get(exps, 0) + n1 * n2
            den = den1 * den2
            return GradedPoly(self.ring, {e: Fraction(n, den) for e, n in sums.items() if n})
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ring.zero()
            return GradedPoly(self.ring, {e: c * other for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> GradedPoly:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, power: int) -> GradedPoly:
        if power < 0:
            raise ValueError("negative powers are not defined here")
        result = self.ring.one()
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- graded structure --------------------------------------------------

    def component(self, degree: int) -> GradedPoly:
        """The part of pure weighted degree ``degree``."""
        if degree < 0 or degree > self.ring.bound:
            raise ComponentRangeError(
                f"degree {degree} outside [0, {self.ring.bound}]"
            )
        terms = {
            e: c for e, c in self._terms.items() if self.ring.weighted_degree(e) == degree
        }
        return GradedPoly(self.ring, terms)

    def scale_vars(self, factors: Mapping[str, Scalar]) -> GradedPoly:
        """Substitute ``v -> factors[v] * v`` for every variable ``v``.

        This is a ring homomorphism; a factor must be supplied for every
        variable of the ring.
        """
        names = self.ring.names
        missing = [name for name in names if name not in factors]
        if missing:
            raise IncompleteSubstitutionError(f"no scale factor for {missing}")
        fr = [Fraction(factors[name]) for name in names]
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            for f, e in zip(fr, exps):
                if e:
                    coeff = coeff * f**e
            if coeff:
                terms[exps] = coeff
        return GradedPoly(self.ring, terms)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in canonical order: weighted degree, then earlier variables first."""
        degree = self.ring.weighted_degree
        keyed = sorted((degree(e), tuple(-x for x in e), e, c) for e, c in self._terms.items())
        return [(e, c) for _, _, e, c in keyed]

    def render(self) -> str:
        """Canonical text form, coefficients as ``num`` or ``num/den``."""
        return self._render(1)

    def render_over_denominator(self) -> str:
        """Canonical text form as ``(integer combination)/den``, ``den`` being
        the lcm of the coefficient denominators; just the combination if 1."""
        den = math.lcm(*(c.denominator for c in self._terms.values()))
        body = self._render(den)
        return body if den == 1 else f"({body})/{den}"

    def _render(self, den: int) -> str:
        """The text of ``den * self``; ``den`` is 1 or a common multiple of
        the coefficient denominators."""
        if not self._terms:
            return "0"
        names = self.ring.names
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            num, d = coeff.numerator, coeff.denominator
            if den != 1:
                num, d = num * (den // d), 1
            mag = str(abs(num)) if d == 1 else f"{abs(num)}/{d}"
            monomial = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
            )
            if monomial:
                body = monomial if mag == "1" else f"{mag}*{monomial}"
            else:
                body = mag
            if not parts:
                parts.append(body if num > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if num > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GradedPoly({self.render()!r})"
