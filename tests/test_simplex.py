import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from _helpers import expanded_expectation, map_sum
from jetcalc import simplex
from jetcalc.simplex import (
    AffineForm,
    DegenerateLatticeError,
    QuadraticSurd,
    SimplexSpec,
    SingularInputError,
    affine_product_expectation,
    beta_integral,
    cell_ratio,
    fundamental_domain_volume,
    gram_det,
    monomial_moment,
    standard_volume,
    volume,
)


def test_volume_examples():
    assert volume(SimplexSpec((1, 1))) == QuadraticSurd(1, 2)
    assert volume(SimplexSpec((1,))) == QuadraticSurd(1, 1)  # point simplex
    assert volume(SimplexSpec((1, 1, 1))) == QuadraticSurd(Fraction(1, 2), 3)


def test_volume_gram_cross_check():
    # chart of the (1,1,1) simplex: (t1, t2) -> (t1, t2, 1-t1-t2),
    # differential columns (1,0,-1) and (0,1,-1), Gram [[2,1],[1,2]], det 3:
    # vol = sqrt(3) * vol_2(corner simplex) = sqrt(3)/2.
    g = [[2, 1], [1, 2]]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    assert det == 3
    assert volume(SimplexSpec((1, 1, 1))) == QuadraticSurd(standard_volume(2), det)


def test_standard_volume():
    assert standard_volume(1) == 1
    assert standard_volume(2) == Fraction(1, 2)
    assert standard_volume(4) == Fraction(1, 24)


def test_fundamental_domain_volume():
    assert fundamental_domain_volume(SimplexSpec((1, 1))) == QuadraticSurd(1, 2)
    assert fundamental_domain_volume(SimplexSpec((2, 2))) == QuadraticSurd(1, 2)
    assert fundamental_domain_volume(SimplexSpec((1, 2))) == QuadraticSurd(1, 5)
    with pytest.raises(DegenerateLatticeError):
        fundamental_domain_volume(SimplexSpec((3,)))


def test_cell_ratio():
    assert cell_ratio(SimplexSpec((1, 1))) == 1
    assert cell_ratio(SimplexSpec((1, 2))) == Fraction(1, 2)
    assert cell_ratio(SimplexSpec((3, 3))) == Fraction(1, 3)
    with pytest.raises(DegenerateLatticeError):
        cell_ratio(SimplexSpec((2,)))


def test_cell_ratio_consistency_with_surds():
    for a in [(1, 1), (1, 2), (2, 3), (3, 3), (1, 2, 3), (2, 2, 2), (1, 1, 4)]:
        spec = SimplexSpec(a)
        assert volume(spec).ratio(fundamental_domain_volume(spec)) == cell_ratio(spec)


def test_monomial_moment_examples():
    for r in (1, 2, 3, 5):
        ones = SimplexSpec((1,) * r)
        unit = tuple(1 if i == 0 else 0 for i in range(r))
        assert monomial_moment(ones, unit) == Fraction(1, r)
    assert monomial_moment(SimplexSpec((2, 3, 4)), (0, 0, 0)) == 1
    assert monomial_moment(SimplexSpec((1, 2)), (1, 1)) == Fraction(1, 12)


def test_monomial_moment_segment_quadrature():
    # on the segment from (1,0) to (0,1/2): t = (x, (1-x)/2) with x uniform,
    # so E[t1 t2] = int_0^1 x(1-x)/2 dx = 1/12.
    assert beta_integral(1, 1) / 2 == Fraction(1, 12)
    assert monomial_moment(SimplexSpec((1, 2)), (1, 1)) == Fraction(1, 12)


def test_monomial_moment_normalization_and_scaling():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 4)
        a = tuple(rng.randint(1, 4) for _ in range(r))
        p = tuple(rng.randint(0, 3) for _ in range(r))
        spec = SimplexSpec(a)
        assert monomial_moment(spec, (0,) * r) == 1
        unit = SimplexSpec((1,) * r)
        scale = Fraction(1)
        for ai, pi in zip(a, p):
            scale /= Fraction(ai) ** pi
        assert monomial_moment(spec, p) == monomial_moment(unit, p) * scale


def test_monomial_moment_peel_recursion():
    # C_{p_1..p_r} = (r-1) * B(p_1, p_2+..+p_r + r-2) * C_{p_2..p_r}
    for r in (2, 3):
        unit = SimplexSpec((1,) * r)
        tail = SimplexSpec((1,) * (r - 1))
        for p in itertools.product(range(5), repeat=r):
            if sum(p) > 4:
                continue
            expected = (
                (r - 1)
                * beta_integral(p[0], sum(p[1:]) + r - 2)
                * monomial_moment(tail, p[1:])
            )
            assert monomial_moment(unit, p) == expected


def test_beta_integral():
    assert beta_integral(0, 0) == 1
    assert beta_integral(1, 0) == Fraction(1, 2)
    assert beta_integral(1, 1) == Fraction(1, 6)


def _dense_gram_det(alpha):
    """Dense oracle: build the corner matrix, form A^T A, expand the determinant."""
    r = len(alpha)
    rows = [[Fraction(0)] * (r - 1) for _ in range(r)]
    for i in range(r - 1):
        rows[i][i] = Fraction(alpha[i])
    for j in range(r - 1):
        rows[r - 1][j] = Fraction(alpha[r - 1])
    gram = [
        [sum(rows[k][i] * rows[k][j] for k in range(r)) for j in range(r - 1)]
        for i in range(r - 1)
    ]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return det(gram)


def test_gram_det():
    assert gram_det([1, 1]) == 2
    assert gram_det([1, 2]) == 5
    assert gram_det([2, 2, 2]) == 48
    for alpha in [(1, 2), (2, 2, 2), (Fraction(1, 2), 3, 1), (1, 2, 3, 4)]:
        assert gram_det(alpha) == _dense_gram_det(alpha)
    with pytest.raises(SingularInputError):
        gram_det([1, 0])


def test_affine_expectation_is_vertex_average():
    rng = random.Random(5)
    for _ in range(25):
        r = rng.randint(1, 4)
        a = tuple(rng.randint(1, 3) for _ in range(r))
        spec = SimplexSpec(a)
        form = AffineForm(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r)],
        )
        average = sum(
            (form(spec.vertex(i)) for i in range(r)), Fraction(0)
        ) / r
        assert affine_product_expectation(spec, [form]) == average


def test_affine_expectation_examples():
    spec = SimplexSpec((1, 2))
    f = AffineForm(0, [1, 1])
    assert affine_product_expectation(spec, [f]) == Fraction(3, 4)
    assert affine_product_expectation(spec, [f, f]) == Fraction(7, 12)
    # Var = 7/12 - 9/16 = 1/48
    assert Fraction(7, 12) - Fraction(3, 4) ** 2 == Fraction(1, 48)


entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def weighted_forms(draw):
    r = draw(st.integers(1, 10))
    spec = SimplexSpec(draw(st.lists(st.integers(1, 5), min_size=r, max_size=r)))
    forms = [
        AffineForm(draw(entries), draw(st.lists(entries, min_size=r, max_size=r)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return spec, forms


def test_affine_expectation_matches_monomial_expansion():
    # both summation methods are exact, so which one ran is read off spies
    reached = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example((SimplexSpec((2, 3)), []))
    @given(weighted_forms())
    def check(case):
        spec, forms = case
        with mock.patch.object(
            simplex, "_sum_by_partitions", wraps=simplex._sum_by_partitions
        ) as partitions, mock.patch.object(
            simplex, "_sum_by_exponents", wraps=simplex._sum_by_exponents
        ) as exponents:
            value = affine_product_expectation(spec, forms)
        m, r = len(forms), spec.arity
        by_partitions = 2**m * r + 3**m <= 4 * max(m, 1) * math.comb(m + r - 1, r - 1)
        assert (partitions.call_count, exponents.call_count) == (
            (1, 0) if by_partitions else (0, 1)
        )
        assert value == expanded_expectation(spec, forms)
        reached.add((by_partitions, m == 0))

    check()
    assert {(True, True), (True, False), (False, False)} <= reached


@st.composite
def vertex_rows(draw):
    """(r, rows): up to six rows of r integers, with some rows and some
    columns set to zero."""
    r = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.one_of(
                st.just([0] * r),
                st.lists(st.integers(-5, 5), min_size=r, max_size=r),
            ),
            max_size=6,
        )
    )
    zero_columns = draw(st.sets(st.integers(0, r - 1), max_size=r))
    return r, [[0 if i in zero_columns else v for i, v in enumerate(row)] for row in rows]


def test_vertex_product_sum_methods_match_the_map_sum():
    reached = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @example((3, []))
    @given(vertex_rows())
    def check(case):
        r, rows = case
        want = map_sum(r, rows)
        assert simplex._sum_by_partitions(rows, r) == want
        assert simplex._sum_by_exponents(rows, r) == want
        with mock.patch.object(
            simplex, "_sum_by_partitions", wraps=simplex._sum_by_partitions
        ) as partitions:
            assert simplex.vertex_product_sum(r, rows) == want
        reached.add("partitions" if partitions.called else "exponents")
        if rows:
            columns = list(zip(*rows))
            reached.update(
                name
                for name, seen in (
                    ("zero column", not all(map(any, columns))),
                    ("zero row", not all(map(any, rows))),
                    ("negative", min(map(min, rows)) < 0),
                    ("six rows", len(rows) == 6),
                    ("arity six", r == 6),
                )
                if seen
            )

    check()
    assert reached == {
        "partitions", "exponents", "zero column", "zero row", "negative", "six rows",
        "arity six",
    }
