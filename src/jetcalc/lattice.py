"""Weighted compositions, their growth coefficients, and the kernel lattice.

For a positive integer weight vector ``a = (a_1, ..., a_r)`` and a level
``m``, the composition set is

    H_m = { l in N^r : sum_i a_i l_i = m },

non-empty exactly when gcd(a) divides m.  This module enumerates H_m
exactly, computes the power sums

    S_p(m) = sum_{l in H_m} prod_i l_i^{p_i} / p_i!

as the x^m coefficient of prod_i sum_l l^{p_i} x^{a_i l}, divided by
prod_i p_i! (Beck and Robins, *Computing the Continuous Discretely*,
ch. 3-4), and their leading growth coefficients: S_p(m) is asymptotic to

    gcd(a) / prod_i a_i^{p_i + 1}  *  m^{|p|+r-1} / (|p|+r-1)!

as m grows through multiples of gcd(a).  It also produces an integer basis
of the kernel lattice H = { z in Z^r : sum a_i z_i = 0 } by unimodular
column reduction, and counts composition points inside the half-open cone
cells spanned by that basis, which is the discrete skeleton of the
Riemann-sum argument for simplex integrals.

All arithmetic is exact.  Power sums multiply integer series truncated at
x^m and never visit H_m: by sum_l l^q y^l = N_q(y) / (1 - y)^(q+1), with
N_q the Eulerian numerator, multiplying by a factor sum_l l^q x^(a l) is
at most q+1 shifted adds of N_q(x^a)'s terms and q+1 running sums along
stride a, O((q+1) m) operations.  The r factors are split at s = r // 2
and each half's product is memoized on its exponents, so a table of all
|p| = n takes sum_{k=2}^{s} C(n+k, k) + sum_{k=2}^{r-s} C(n+k, k) factor
products (meet in the middle; Horowitz and Sahni, J. ACM 21, 1974) and
one dot product of a head and a reversed tail per p.  Enumeration, used
for the cone-cell counts, is output-sensitive recursive descent with
remaining-budget pruning.  One Gauss-Jordan elimination gives both the
Gram determinant that checks a basis and the basis coordinates of a cell.
Exponent vectors are checked by :meth:`SimplexSpec.exponents`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from operator import mul
from typing import Callable, Iterator, Sequence

from .simplex import DegenerateLatticeError, SimplexSpec


class InvalidCellError(ValueError):
    """A cone-cell base point does not lie in the required composition set."""


def enumerate_compositions(spec: SimplexSpec, m: int) -> Iterator[tuple[int, ...]]:
    """Yield every l in N^r with sum a_i l_i = m, in ascending lexicographic order.

    Empty iff gcd(a) does not divide m.
    """
    if m < 0:
        return
    a = spec.weights
    r = spec.arity
    # gcd of the tail suffixes, for pruning
    suffix_gcd = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix_gcd[i] = math.gcd(a[i], suffix_gcd[i + 1])

    prefix: list[int] = []

    def descend(i: int, rest: int) -> Iterator[tuple[int, ...]]:
        if i == r - 1:
            if rest % a[i] == 0:
                yield tuple(prefix) + (rest // a[i],)
            return
        if rest % suffix_gcd[i] != 0:
            return
        for li in range(rest // a[i] + 1):
            prefix.append(li)
            yield from descend(i + 1, rest - a[i] * li)
            prefix.pop()

    yield from descend(0, m)


def exponent_tuples(total: int, arity: int) -> Iterator[tuple[int, ...]]:
    """All p in N^arity with sum p_i = total, ascending lexicographic."""
    if arity == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in exponent_tuples(total - first, arity - 1):
            yield (first,) + rest


def _weight_series(a: int, q: int, m: int) -> list[int]:
    """Coefficients of x^0..x^m in sum_l l^q x^(a l)."""
    series = [0] * (m + 1)
    for l in range(m // a + 1):
        series[a * l] = l**q
    return series


@functools.cache
def _eulerian_numerator(q: int) -> tuple[int, ...]:
    """The coefficients c_0..c_q of the Eulerian numerator N_q(y) = sum_j c_j y^j."""
    return tuple(
        sum((-1) ** (j - i) * math.comb(q + 1, j - i) * i**q for i in range(j + 1))
        for j in range(q + 1)
    )


def _times_weight_series(series: list[int], a: int, q: int, m: int) -> list[int]:
    """series * sum_l l^q x^(a l), truncated above x^m.

    sum_l l^q y^l = N_q(y) / (1 - y)^(q+1), where N_q(y) = sum_j c_j y^j
    with c_j = sum_{i<=j} (-1)^(j-i) C(q+1, j-i) i^q is y A_q(y), A_q the
    Eulerian polynomial (N_0 = 1; Stanley, *Enumerative Combinatorics* 1,
    sec. 1.4).  So the series is multiplied by N_q(x^a), at most q+1
    shifted adds, and divided by (1 - x^a)^(q+1), q+1 running sums along
    stride a in each residue class: O((q+1) m) operations.  The c_j are
    worked out once per q.
    """
    out = [0] * (m + 1)
    for j, c in enumerate(_eulerian_numerator(q)[: m // a + 1]):
        if c:
            shift = a * j
            out[shift:] = [x + c * y for x, y in zip(out[shift:], series)]
    for _ in range(q + 1):
        for r in range(min(a, m + 1)):
            out[r::a] = accumulate(out[r::a])
    return out


def _integer_power_sums(
    weights: tuple[int, ...], m: int, vectors: Sequence[tuple[int, ...]]
) -> list[int]:
    """prod_i p_i! * S_p(m) for each p, by integer series convolution.

    S_p(m) prod p_i! is the x^m coefficient of prod_i sum_l l^{p_i} x^{a_i l}.
    The factors are split at s = r // 2 and each half's product is
    memoized on its exponents, built from the product with one factor
    fewer (a half's first factor is the series itself).  Vectors sharing a
    half share its convolutions: over all |p| = n that is
    sum_{k=2}^{s} C(n+k, k) + sum_{k=2}^{r-s} C(n+k, k) of them.  Each p
    then costs one dot product of its head and reversed tail, which meet
    at x^m; at r = 1 there is no head and the tail's x^m coefficient is read.
    """
    if m < 0:
        return [0] * len(vectors)
    s = len(weights) // 2

    def half_product(part: tuple[int, ...]) -> Callable[[tuple[int, ...]], list[int]]:
        memo: dict[tuple[int, ...], list[int]] = {}

        def product(exps: tuple[int, ...]) -> list[int]:
            series = memo.get(exps)
            if series is None:
                j = len(exps) - 1
                if j == 0:
                    series = _weight_series(part[0], exps[0], m)
                else:
                    series = _times_weight_series(product(exps[:-1]), part[j], exps[j], m)
                memo[exps] = series
            return series

        return product

    head, tail = half_product(weights[:s]), half_product(weights[s:])
    if not s:
        return [tail(p)[m] for p in vectors]
    return [sum(map(mul, head(p[:s]), reversed(tail(p[s:])))) for p in vectors]


def power_sum(spec: SimplexSpec, powers: Sequence[int], m: int) -> Fraction:
    """S_p(m) = sum over H_m of prod l_i^{p_i} / p_i!, exactly."""
    p = spec.exponents(powers)
    (total,) = _integer_power_sums(spec.weights, m, [p])
    return Fraction(total, math.prod(math.factorial(q) for q in p))


def power_sum_table(
    spec: SimplexSpec, degree: int, m: int
) -> dict[tuple[int, ...], Fraction]:
    """All S_p(m) with |p| = degree, sharing partial products across vectors."""
    vectors = list(exponent_tuples(degree, spec.arity))
    sums = _integer_power_sums(spec.weights, m, vectors)
    return {
        p: Fraction(total, math.prod(math.factorial(q) for q in p))
        for p, total in zip(vectors, sums)
    }


def power_sum_asymptotic(spec: SimplexSpec, powers: Sequence[int]) -> Fraction:
    """Leading coefficient of S_p: gcd(a) / prod a_i^{p_i + 1}.

    S_p(m) * (|p|+r-1)! / m^{|p|+r-1} converges to this value as m grows
    through multiples of gcd(a).
    """
    p = spec.exponents(powers)
    den = math.prod(w ** (q + 1) for w, q in zip(spec.weights, p))
    return Fraction(spec.gcd(), den)


# -- kernel lattice ---------------------------------------------------------


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with s*x + t*y = g = gcd(x, y) >= 0."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _gauss_jordan(
    rows: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Sequence[Fraction | int]] = (),
) -> tuple[Fraction, list[list[Fraction]] | None]:
    """det(A) and the exact solution X of A X = B, by Gauss-Jordan elimination.

    A is square (``rows``); each column of B (``rhs``, n rows of k entries,
    empty for the determinant alone) is one right-hand side.  X is None
    when A is singular.
    """
    n = len(rows)
    mat = [[*row, *extra] for row, extra in zip_longest(rows, rhs, fillvalue=())]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / Fraction(mat[col][col])
        mat[col] = [x * inv for x in mat[col]]
        for i in range(n):
            factor = mat[i][col]
            if i != col and factor:
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[col])]
    return det, [row[n:] for row in mat]


@dataclass(frozen=True)
class LatticeBasis:
    """An integer basis of H = { z in Z^r : sum a_i z_i = 0 }.

    Each vector is checked to lie in H, and the family is checked to
    generate H as a group (primitivity): the Gram determinant of the basis
    must equal the squared cell covolume sum(a_i^2)/gcd(a)^2.
    """

    weights: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a = self.weights
        r = len(a)
        if len(self.vectors) != r - 1:
            raise ValueError(f"expected {r - 1} basis vectors, got {len(self.vectors)}")
        for v in self.vectors:
            if len(v) != r:
                raise ValueError(f"vector {v} has wrong arity")
            if sum(w * x for w, x in zip(a, v)) != 0:
                raise ValueError(f"vector {v} is not in the kernel of {a}")
        gram = [[sum(map(mul, u, v)) for v in self.vectors] for u in self.vectors]
        g = math.gcd(*a)
        if _gauss_jordan(gram)[0] * g * g != sum(w * w for w in a):
            raise ValueError("basis does not generate the full kernel lattice")


def lattice_basis(spec: SimplexSpec) -> LatticeBasis:
    """A generating set of the kernel lattice, by unimodular column reduction.

    Columns of the identity are combined by the extended Euclid steps that
    reduce the row vector a to (gcd, 0, ..., 0); the columns mapped to 0
    then form a basis of the kernel.
    """
    a = spec.weights
    r = spec.arity
    if r < 2:
        raise DegenerateLatticeError("the kernel lattice is trivial for r = 1")
    cols = [[1 if i == j else 0 for i in range(r)] for j in range(r)]
    vals = list(a)
    for j in range(1, r):
        g, s, t = _xgcd(vals[0], vals[j])
        u0, uj = vals[0] // g, vals[j] // g
        new0 = [s * x + t * y for x, y in zip(cols[0], cols[j])]
        newj = [-uj * x + u0 * y for x, y in zip(cols[0], cols[j])]
        cols[0], cols[j] = new0, newj
        vals[0], vals[j] = g, 0
    return LatticeBasis(a, tuple(tuple(col) for col in cols[1:]))


def count_cone_points(
    spec: SimplexSpec,
    m0: int,
    u: Sequence[int],
    m: int,
    basis: LatticeBasis | None = None,
) -> int:
    """Count H_m points in the cone over the half-open cell based at u.

    The cell is C_u = (u + sum_j [0,1) v_j) intersected with the m0-dilated
    simplex, where (v_j) is the kernel-lattice basis; the cone is its set of
    non-negative multiples.  Membership of a point l in H_m is decided
    exactly: rescale to level m0 and solve for the basis coordinates of
    (m0/m) l - u, which must all lie in [0, 1).

    For fixed m0, the cells over all u in H_{m0} partition the positive
    orthant, so these counts sum to |H_m|.
    """
    base = tuple(int(x) for x in u)
    if len(base) != spec.arity or any(x < 0 for x in base):
        raise InvalidCellError(f"base point {base} is not in N^{spec.arity}")
    if sum(w * x for w, x in zip(spec.weights, base)) != m0:
        raise InvalidCellError(f"base point {base} is not at level {m0}")
    if m < m0:
        raise ValueError(f"level m={m} must be >= m0={m0}")
    if basis is None:
        basis = lattice_basis(spec)
    vecs = basis.vectors
    gram = [[sum(map(mul, v1, v2)) for v2 in vecs] for v1 in vecs]
    # The basis coordinates of (m0/m) l - u are P ((m0/m) l - u) with
    # P = G^-1 V: solve for P once, all r columns in one elimination, and
    # reuse it per point.
    _, proj = _gauss_jordan(gram, vecs)
    offsets = [sum(pj * ui for pj, ui in zip(row, base)) for row in proj]
    scale = Fraction(m0, m)
    count = 0
    for l in enumerate_compositions(spec, m):
        if all(
            0 <= scale * sum(pj * li for pj, li in zip(row, l)) - off < 1
            for row, off in zip(proj, offsets)
        ):
            count += 1
    return count
