"""Exact measure data of weighted simplexes.

For a weight vector ``a = (a_1, ..., a_r)`` of positive integers, the
weighted simplex is

    D_a = { t in R_+^r : sum_i a_i t_i = 1 },

an (r-1)-dimensional simplex with vertices e_i / a_i.  Everything here is
computed in closed form over exact rationals:

* volumes, which carry the single surd sqrt(sum a_i^2) (kept in a dedicated
  :class:`QuadraticSurd` type so the rest of the pipeline stays rational);
* volumes of fundamental cells of the integer lattice of the hyperplane
  ``sum a_i t_i = 0``, and the fully rational ratio of the two;
* moments of monomials under the uniform probability measure of D_a:

      E[t^p] = (r-1)! p_1! ... p_r! / (p_1+...+p_r+r-1)!  *  prod a_i^(-p_i)

* exact expectations of products of affine forms, by vertex values: each
  form is homogenized on D_a and the product is integrated over the
  standard simplex; :func:`vertex_product_sum` is the integer core that
  takes each form's vertex values as integers over a common denominator.

Exponent vectors, here and in :mod:`lattice`, are checked in one place,
:meth:`SimplexSpec.exponents`.  Pure functions on immutable values; safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .ring import Scalar


class DegenerateLatticeError(ValueError):
    """The kernel lattice {z in Z^r : sum a_i z_i = 0} is trivial (r = 1)."""


class SingularInputError(ValueError):
    """An input vector contains a zero entry where a nonzero one is required."""


@dataclass(frozen=True)
class SimplexSpec:
    """The weight vector a defining D_a; all entries are positive integers."""

    weights: tuple[int, ...]

    def __init__(self, weights: Iterable[int]):
        ws = tuple(int(w) for w in weights)
        if len(ws) < 1:
            raise ValueError("weight vector must be non-empty")
        if any(w < 1 for w in ws):
            raise ValueError(f"weights must be positive integers, got {ws}")
        object.__setattr__(self, "weights", ws)

    @property
    def arity(self) -> int:
        return len(self.weights)

    def gcd(self) -> int:
        return math.gcd(*self.weights)

    def exponents(self, powers: Iterable[int]) -> tuple[int, ...]:
        """The exponent vector p as a tuple, checked to have arity r and
        non-negative entries (ValueError otherwise)."""
        p = tuple(int(q) for q in powers)
        if len(p) != self.arity:
            raise ValueError(
                f"exponent vector has arity {len(p)}, simplex has {self.arity}"
            )
        if any(q < 0 for q in p):
            raise ValueError("exponents must be non-negative")
        return p

    def vertex(self, i: int) -> tuple[Fraction, ...]:
        """The i-th vertex e_i / a_i of D_a."""
        return tuple(
            Fraction(1, self.weights[i]) if j == i else Fraction(0)
            for j in range(self.arity)
        )


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s^2 * m and m squarefree."""
    s, m = 1, 1
    d = 2
    rest = n
    while d * d <= rest:
        count = 0
        while rest % d == 0:
            rest //= d
            count += 1
        s *= d ** (count // 2)
        if count % 2:
            m *= d
        d += 1
    return s, m * rest


@dataclass(frozen=True)
class QuadraticSurd:
    """A value coeff * sqrt(radicand), normalized so radicand is squarefree."""

    coeff: Fraction
    radicand: int

    def __init__(self, coeff: Scalar, radicand: int):
        c = Fraction(coeff)
        n = int(radicand)
        if n < 0:
            raise ValueError("radicand must be non-negative")
        if c == 0 or n == 0:
            c, n = Fraction(0), 1
        else:
            s, m = _squarefree_split(n)
            c, n = c * s, m
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "radicand", n)

    def __float__(self) -> float:
        return float(self.coeff) * math.sqrt(self.radicand)

    def __mul__(self, other: Scalar) -> QuadraticSurd:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QuadraticSurd(self.coeff * other, self.radicand)

    __rmul__ = __mul__

    def ratio(self, other: QuadraticSurd) -> Fraction:
        """Exact quotient self/other; defined only when the surd parts match."""
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero surd")
        if self.coeff == 0:
            return Fraction(0)
        if self.radicand != other.radicand:
            raise ValueError(
                f"quotient of sqrt({self.radicand}) by sqrt({other.radicand}) "
                "is not rational"
            )
        return self.coeff / other.coeff

    def render(self) -> str:
        if self.radicand == 1:
            return str(self.coeff)
        if self.coeff == 1:
            return f"sqrt({self.radicand})"
        return f"{self.coeff}*sqrt({self.radicand})"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class AffineForm:
    """An affine function t -> constant + sum_i coeffs[i] * t_i."""

    constant: Fraction
    coeffs: tuple[Fraction, ...]

    def __init__(self, constant: Scalar, coeffs: Iterable[Scalar]):
        object.__setattr__(self, "constant", Fraction(constant))
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def __call__(self, t: Sequence[Scalar]) -> Fraction:
        if len(t) != self.arity:
            raise ValueError(f"point has arity {len(t)}, form has {self.arity}")
        return self.constant + sum(
            (c * Fraction(x) for c, x in zip(self.coeffs, t)), Fraction(0)
        )


def standard_volume(r: int) -> Fraction:
    """r-volume of the corner simplex {t in R_+^r : sum t_i <= 1}: 1/r!."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return Fraction(1, math.factorial(r))


def volume(spec: SimplexSpec) -> QuadraticSurd:
    """(r-1)-volume of D_a: sqrt(sum a_i^2) / ((r-1)! * prod a_i).

    For r = 1 the simplex is a single point and the 0-volume convention is 1.
    """
    a = spec.weights
    r = spec.arity
    radicand = sum(w * w for w in a)
    denom = math.factorial(r - 1) * math.prod(a)
    return QuadraticSurd(Fraction(1, denom), radicand)


def fundamental_domain_volume(spec: SimplexSpec) -> QuadraticSurd:
    """(r-1)-volume of any fundamental cell of {z in Z^r : sum a_i z_i = 0}.

    Equal to sqrt(sum a_i^2) / gcd(a); independent of the chosen cell since
    any two bases differ by a determinant-one transformation.
    """
    if spec.arity < 2:
        raise DegenerateLatticeError("the kernel lattice is trivial for r = 1")
    radicand = sum(w * w for w in spec.weights)
    return QuadraticSurd(Fraction(1, spec.gcd()), radicand)


def cell_ratio(spec: SimplexSpec) -> Fraction:
    """vol(D_a) / vol(lattice cell) = gcd(a) / ((r-1)! * prod a_i).

    The surd parts cancel, so the ratio is exactly rational.
    """
    if spec.arity < 2:
        raise DegenerateLatticeError("the kernel lattice is trivial for r = 1")
    a = spec.weights
    return Fraction(spec.gcd(), math.factorial(spec.arity - 1) * math.prod(a))


def beta_integral(u: int, v: int) -> Fraction:
    """int_0^1 t^u (1-t)^v dt = u! v! / (u+v+1)! for non-negative integers."""
    if u < 0 or v < 0:
        raise ValueError("exponents must be non-negative")
    return Fraction(
        math.factorial(u) * math.factorial(v), math.factorial(u + v + 1)
    )


def monomial_moment(spec: SimplexSpec, powers: Sequence[int]) -> Fraction:
    """E[t_1^p_1 ... t_r^p_r] for t uniform on D_a.

    Closed form: (r-1)! * prod p_i! / (sum p_i + r - 1)! * prod a_i^(-p_i).
    """
    p = spec.exponents(powers)
    r = spec.arity
    num = math.factorial(r - 1) * math.prod(math.factorial(q) for q in p)
    den = math.factorial(sum(p) + r - 1)
    scale = math.prod(w**q for w, q in zip(spec.weights, p))
    return Fraction(num, den * scale)


def gram_det(alpha: Sequence[Scalar]) -> Fraction:
    """Determinant of the Gram matrix of the (r x (r-1)) corner matrix.

    The matrix has alpha_1..alpha_{r-1} on its diagonal and a final row of
    alpha_r entries; the determinant of its Gram matrix is

        prod_i alpha_i^2 * sum_i 1/alpha_i^2.

    This is the square of the volume distortion of the standard chart of
    the simplex with vertices e_i / (1/alpha_i).
    """
    vals = [Fraction(x) for x in alpha]
    if len(vals) < 2:
        raise ValueError("need at least two entries")
    if any(v == 0 for v in vals):
        raise SingularInputError("zero entry makes the chart matrix singular")
    prod_sq = math.prod((v * v for v in vals), start=Fraction(1))
    inv_sum = sum((1 / (v * v) for v in vals), Fraction(0))
    return prod_sq * inv_sum


def affine_product_expectation(
    spec: SimplexSpec, forms: Sequence[AffineForm]
) -> Fraction:
    """E[prod_j f_j(T)] for T uniform on D_a, exactly, from vertex values.

    Form j's value at the vertex e_i / a_i is c_j + b_{j,i} / a_i; its
    values are scaled to integers by the lcm D_j of their denominators, and
    the expectation is (r-1)!/(M+r-1)! * :func:`vertex_product_sum` of the
    scaled rows / prod_j D_j.
    """
    r = spec.arity
    rows: list[list[int]] = []
    denominator = 1
    for form in forms:
        if form.arity != r:
            raise ValueError(
                f"form arity {form.arity} does not match simplex arity {r}"
            )
        values = [form.constant + b / a for b, a in zip(form.coeffs, spec.weights)]
        d = math.lcm(*(v.denominator for v in values))
        rows.append([v.numerator * (d // v.denominator) for v in values])
        denominator *= d
    return Fraction(
        vertex_product_sum(r, rows) * math.factorial(r - 1),
        math.factorial(len(rows) + r - 1) * denominator,
    )


def vertex_product_sum(r: int, rows: list[list[int]]) -> int:
    """sum over maps phi: [M] -> [r] of prod_i m_i(phi)! * prod_j rows[j][phi(j)],
    with m_i(phi) the number of forms sent to vertex i.

    This is the integer core of the expectation of a product of affine
    forms on an arity-r simplex D_a.  On D_a a constant c equals
    c * sum_i a_i t_i, so each form is sum_i v_i z_i with v_i its value at
    the vertex e_i / a_i and z = (a_i t_i) uniform on the standard simplex,
    where E[z^m] = (r-1)! prod m_i! / (|m|+r-1)!.  For M forms whose vertex
    values are rows[j] / D_j this gives (Baldoni, Berline, De Loera, Koeppe,
    Vergne, "How to integrate a polynomial over a simplex", Math. Comp. 80
    (2011))

        E[prod_j f_j] = (r-1)! / ((M+r-1)! prod_j D_j) * (this sum).

    A sum over set partitions of the forms (:func:`_sum_by_partitions`,
    about 2^M r products and 3^M / 6 DP steps) runs when 2^M r + 3^M <=
    4 M binom(M+r-1, r-1), else an expansion over degree-M exponent vectors
    (:func:`_sum_by_exponents`, about r binom(M+r-1, r-1) steps, the only
    method polynomial in M); the factor 4 was fitted to timings of both
    over M <= 8 and r <= 10.  Both are exact and give the same integer.
    """
    m = len(rows)
    if 2**m * r + 3**m <= 4 * max(m, 1) * math.comb(m + r - 1, r - 1):
        return _sum_by_partitions(rows, r)
    return _sum_by_exponents(rows, r)


def _sum_by_partitions(rows: list[list[int]], r: int) -> int:
    """sum over phi of prod_i m_i! prod_j rows[j][phi(j)], by set partitions.

    The m_i! of a fiber counts its permutations.  Split each permutation
    into cycles and send each cycle, as one block, to one vertex: a block B
    with its (|B|-1)! cyclic orders then weighs w_B = (|B|-1)! p_B, with
    p_B = sum_i prod_{j in B} rows[j][i], and the sum is that of
    prod_{B in pi} w_B over the set partitions pi of the forms.

    Every p_B takes one zip-multiply of length r: subsets run in increasing
    order, and B's product vector is that of B minus its lowest form times
    that form's row.  It is still held in the slot of its size, since every
    subset visited in between has more forms.  Then f(S) = sum over B with
    min S in B and B in S of w_B f(S - B), and only sets without form 0
    and the full set are needed: about 2^M r products and 3^(M-1)/2 DP
    steps, in memory for 2^M integers and M vectors of length r.
    """
    m = len(rows)
    full = (1 << m) - 1
    factorials = [math.factorial(s) for s in range(m)]
    weight = [0] * (full + 1)
    # slot k holds the product vector of the last k-set visited
    vectors: list[list[int]] = [[]] * (m + 1)
    for subset in range(1, full + 1):
        low = subset & -subset
        size = subset.bit_count()
        row = rows[low.bit_length() - 1]
        if size > 1:
            row = [x * y for x, y in zip(vectors[size - 1], row)]
        vectors[size] = row
        weight[subset] = factorials[size - 1] * sum(row)
    total = [1] + [0] * full
    for subset in range(1, full + 1):
        if subset & 1 and subset != full:
            continue
        low = subset & -subset
        rest = subset ^ low
        acc = weight[low] * total[rest]
        taken = rest
        while taken:
            w = weight[taken | low]
            if w:
                acc += w * total[rest ^ taken]
            taken = (taken - 1) & rest
        total[subset] = acc
    return total[full]


def _sum_by_exponents(rows: list[list[int]], r: int) -> int:
    """The same sum as :func:`_sum_by_partitions`: expand prod_j sum_i
    rows[j][i] z_i and weight each monomial z^m by prod_i m_i!.

    An exponent vector m is kept as the integer sum_i m_i (M+1)^i.
    """
    base = len(rows) + 1
    steps = [base**i for i in range(r)]
    poly = {0: 1}
    for row in rows:
        nxt: dict[int, int] = {}
        for key, coeff in poly.items():
            for step, value in zip(steps, row):
                if value:
                    nxt[key + step] = nxt.get(key + step, 0) + coeff * value
        poly = nxt
    factorials = [math.factorial(s) for s in range(base)]
    total = 0
    for key, coeff in poly.items():
        for _ in range(r):
            key, exponent = divmod(key, base)
            coeff *= factorials[exponent]
        total += coeff
    return total
