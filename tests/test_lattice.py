import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from _helpers import (
    cofactor_det,
    convolved_weight_series,
    cramer_solve,
    enumerated_power_sum,
)
from jetcalc.lattice import (
    DegenerateLatticeError,
    InvalidCellError,
    LatticeBasis,
    count_cone_points,
    enumerate_compositions,
    exponent_tuples,
    lattice_basis,
    power_sum,
    power_sum_asymptotic,
    power_sum_table,
    _gauss_jordan,
    _times_weight_series,
)
from jetcalc import simplex
from jetcalc.ring import GradedRing
from jetcalc.segre import BundleFactor, WeightedSplitBundle, chi_leading_exact
from jetcalc.simplex import SimplexSpec


def test_enumerate_examples():
    got = list(enumerate_compositions(SimplexSpec((1, 2)), 6))
    assert set(got) == {(6, 0), (4, 1), (2, 2), (0, 3)}
    assert got == sorted(got)  # ascending lexicographic
    assert list(enumerate_compositions(SimplexSpec((2, 2)), 3)) == []
    assert set(enumerate_compositions(SimplexSpec((1, 1)), 2)) == {
        (2, 0),
        (1, 1),
        (0, 2),
    }


def test_enumerate_no_duplicates_random():
    rng = random.Random(9)
    for _ in range(20):
        r = rng.randint(1, 4)
        a = tuple(rng.randint(1, 4) for _ in range(r))
        m = rng.randint(0, 12)
        got = list(enumerate_compositions(SimplexSpec(a), m))
        assert len(set(got)) == len(got)
        for l in got:
            assert sum(x * w for x, w in zip(l, a)) == m


def test_power_sum_examples():
    assert power_sum(SimplexSpec((1, 2)), (0, 0), 6) == 4
    assert power_sum(SimplexSpec((1, 1)), (1, 0), 3) == 6
    assert power_sum(SimplexSpec((1, 1)), (0, 0), 0) == 1


def test_power_sum_asymptotic_examples():
    assert power_sum_asymptotic(SimplexSpec((1, 2)), (0, 0)) == Fraction(1, 2)
    for m in (10, 40, 100):  # exact count is m/2 + 1 for even m
        assert power_sum(SimplexSpec((1, 2)), (0, 0), m) == m // 2 + 1
    assert power_sum_asymptotic(SimplexSpec((1, 1)), (1, 0)) == 1
    for m in (7, 20):  # arithmetic series m(m+1)/2 ~ m^2/2! * 1
        assert power_sum(SimplexSpec((1, 1)), (1, 0), m) == Fraction(m * (m + 1), 2)
    assert power_sum_asymptotic(SimplexSpec((1, 1, 1)), (0, 0, 0)) == 1
    for m in (6, 15):  # compositions of m into 3 parts
        assert power_sum(SimplexSpec((1, 1, 1)), (0, 0, 0), m) == Fraction(
            (m + 1) * (m + 2), 2
        )


def test_power_sum_converges_to_asymptotic():
    cases = [((1, 2), (1, 1)), ((2, 3), (2, 0)), ((1, 1, 1), (1, 0, 2))]
    base = 60
    for a, p in cases:
        spec = SimplexSpec(a)
        target = power_sum_asymptotic(spec, p)
        errors = []
        for m in (base, 2 * base, 4 * base):
            scaled = power_sum(spec, p, m) * Fraction(
                factorial(sum(p) + len(a) - 1), m ** (sum(p) + len(a) - 1)
            )
            errors.append(abs(scaled - target) / abs(target))
        assert errors[0] > errors[1] > errors[2]


def test_exponent_vectors_are_checked_for_every_caller():
    # one check, SimplexSpec.exponents, for the exact sum, its growth
    # coefficient and the simplex moment
    spec = SimplexSpec((2, 3))
    assert spec.exponents([1, 0]) == (1, 0)
    exact = lambda spec, p: power_sum(spec, p, 6)
    for quantity in (power_sum_asymptotic, exact, simplex.monomial_moment):
        for p in ((-1, 0), (-2, 0), (0, -1)):
            with pytest.raises(ValueError, match="exponents must be non-negative"):
                quantity(spec, p)
        for p in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError, match="arity"):
                quantity(spec, p)


def _generator_bundle(ring, spec):
    """One line bundle per generator x_i of the ring, in the weights of spec:
    chi_leading_exact on it is sum over H_m of (l_1 x_1 + ... + l_r x_r)^n / n!."""
    return WeightedSplitBundle(
        factors=tuple(
            BundleFactor(roots=(g,), weight=w) for g, w in zip(ring.gens(), spec.weights)
        )
    )


def test_weighted_power_poly_sum():
    ring = GradedRing(bound=2, variables=(("a1", 1), ("a2", 1)))
    a1, a2 = ring.gen("a1"), ring.gen("a2")
    spec = SimplexSpec((1, 1))
    assert chi_leading_exact(_generator_bundle(ring, spec), 1, 4) == 10 * a1 + 10 * a2
    count = power_sum(spec, (0, 0), 5)
    assert chi_leading_exact(_generator_bundle(ring, spec), 0, 5) == ring.const(count)


def test_weighted_power_poly_sum_term_by_term_oracle():
    rng = random.Random(21)
    for _ in range(10):
        r = rng.randint(1, 3)
        a = tuple(rng.randint(1, 3) for _ in range(r))
        n = rng.randint(0, 3)
        m = rng.randint(0, 10)
        spec = SimplexSpec(a)
        ring = GradedRing(bound=n, variables=tuple((f"x{i}", 1) for i in range(r)))
        gens = ring.gens()
        # independent accumulation: expand (sum x_i l_i)^n by ring powering
        acc = ring.zero()
        for l in enumerate_compositions(spec, m):
            linear = ring.zero()
            for g, li in zip(gens, l):
                linear = linear + li * g
            acc = acc + linear**n
        acc = acc * Fraction(1, factorial(n))
        assert chi_leading_exact(_generator_bundle(ring, spec), n, m) == acc


def test_weighted_power_poly_sum_asymptotic_bracket():
    # coefficient of m^2/2! approaches a1 + a2 for unit weights
    ring = GradedRing(bound=1, variables=(("a1", 1), ("a2", 1)))
    spec = SimplexSpec((1, 1))
    a1, a2 = ring.gen("a1"), ring.gen("a2")
    target = a1 + a2
    for m, tol in ((40, Fraction(1, 35)), (80, Fraction(1, 75))):
        scaled = chi_leading_exact(_generator_bundle(ring, spec), 1, m) * Fraction(2, m * m)
        diff = scaled - target
        assert max(abs(c) for _, c in diff.items()) <= tol


def test_power_sum_table_matches_power_sum():
    spec = SimplexSpec((1, 2, 2))
    table = power_sum_table(spec, 2, 8)
    for p, value in table.items():
        assert value == power_sum(spec, p, 8) == enumerated_power_sum(spec, p, 8)


@st.composite
def power_sum_cases(draw):
    r = draw(st.integers(1, 5))
    spec = SimplexSpec(draw(st.lists(st.integers(1, 5), min_size=r, max_size=r)))
    powers = tuple(draw(st.lists(st.integers(0, 8), min_size=r, max_size=r)))
    return spec, powers, draw(st.integers(0, 4)), draw(st.integers(-2, 40))


def test_power_sums_match_enumeration():
    # the convolution against the composition-enumeration oracle, for single
    # vectors and for whole tables that share the products of each half
    reached = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @example((SimplexSpec((3,)), (2,), 2, 9))
    @example((SimplexSpec((3,)), (1,), 1, 10))
    @example((SimplexSpec((2, 4)), (1, 3), 3, 7))
    @example((SimplexSpec((1, 2)), (0, 0), 0, -1))
    @example((SimplexSpec((1, 7, 2)), (1, 0, 2), 2, 6))  # m below a middle weight
    @example((SimplexSpec((4,)), (0,), 0, 12))  # q = 0 at r = 1
    @example((SimplexSpec((3, 5)), (2, 1), 2, 2))  # m below both weights at r = 2
    @example((SimplexSpec((2, 1, 3, 1, 2)), (1, 0, 2, 0, 1), 4, 17))  # r = 5, degree 4
    @given(power_sum_cases())
    def check(case):
        spec, powers, degree, m = case
        assert power_sum(spec, powers, m) == enumerated_power_sum(spec, powers, m)
        table = power_sum_table(spec, degree, m)
        assert list(table) == list(exponent_tuples(degree, spec.arity))
        for p, value in table.items():
            assert value == enumerated_power_sum(spec, p, m)
        reached.add(
            "r=1" if spec.arity == 1 else "negative" if m < 0
            else "off-gcd" if m % spec.gcd() else "on-gcd"
        )
        reached.add(f"arity {spec.arity}")

    check()
    # every arity 1..5 splits the factors into halves of other sizes
    assert reached == {"r=1", "negative", "off-gcd", "on-gcd"} | {
        f"arity {r}" for r in range(1, 6)
    }


def test_times_weight_series_matches_shifted_copies():
    # the Eulerian-numerator product against the shifted-copy convolution
    reached = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 90).flatmap(
            lambda m: st.tuples(
                st.lists(st.integers(-10**6, 10**6), min_size=m + 1, max_size=m + 1),
                st.integers(1, 9),
                st.integers(0, 10),
                st.just(m),
            )
        )
    )
    def check(case):
        series, a, q, m = case
        assert _times_weight_series(series, a, q, m) == convolved_weight_series(
            series, a, q, m
        )
        if q == 0:
            reached.add("q=0")
        if q > m // a:
            reached.add("q>m//a")
        if a > m:
            reached.add("a>m")

    check()
    assert reached == {"q=0", "q>m//a", "a>m"}


def test_power_sum_table_at_a_deep_level():
    spec = SimplexSpec((1, 1, 2, 3))
    table = power_sum_table(spec, 3, 120)
    assert len(table) == 20
    for p, value in table.items():
        assert value == enumerated_power_sum(spec, p, 120)


def test_lattice_basis():
    b = lattice_basis(SimplexSpec((1, 1)))
    assert len(b.vectors) == 1 and b.vectors[0] in {(1, -1), (-1, 1)}
    b = lattice_basis(SimplexSpec((1, 2)))
    assert b.vectors[0] in {(2, -1), (-2, 1)}
    lattice_basis(SimplexSpec((2, 3, 6)))  # validity checked on construction
    with pytest.raises(DegenerateLatticeError):
        lattice_basis(SimplexSpec((5,)))


def test_degenerate_lattice_error_is_one_class():
    # one except clause catches the error from both modules
    with pytest.raises(simplex.DegenerateLatticeError):
        lattice_basis(SimplexSpec((3,)))
    with pytest.raises(DegenerateLatticeError):
        simplex.fundamental_domain_volume(SimplexSpec((3,)))


def test_lattice_basis_rejects_non_generating():
    with pytest.raises(ValueError):
        LatticeBasis(weights=(1, 1), vectors=((2, -2),))
    with pytest.raises(ValueError):
        LatticeBasis(weights=(1, 2), vectors=((1, 0),))  # not in kernel


def test_lattice_basis_random_primitivity():
    rng = random.Random(13)
    for _ in range(20):
        r = rng.randint(2, 4)
        a = tuple(rng.randint(1, 6) for _ in range(r))
        basis = lattice_basis(SimplexSpec(a))
        for v in basis.vectors:
            assert sum(x * w for x, w in zip(v, a)) == 0


ENTRIES = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
)


@st.composite
def linear_systems(draw):
    """A square A (n <= 4) and B with k <= 3 right-hand-side columns.

    Some draws make the last row a multiple of the first (singular), zero
    the first pivot (a row swap when A is regular) or zero a column of B.
    """
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c = draw(ENTRIES)
        rows[-1] = [c * x for x in rows[0]]
    if draw(st.booleans()):
        rows[0][0] = 0
    columns = [
        [0] * n if draw(st.booleans()) else draw(st.lists(ENTRIES, min_size=n, max_size=n))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return rows, [[col[i] for col in columns] for i in range(n)], columns


def test_gauss_jordan_matches_cofactors_and_cramer():
    reached = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(([[0, 1], [1, 0]], [[2, 0], [3, 0]], [[2, 3], [0, 0]]))
    @example(([[1, 2], [2, 4]], [[1], [1]], [[1, 1]]))
    @given(linear_systems())
    def check(system):
        rows, rhs, columns = system
        before = [row[:] for row in rows]
        det, solution = _gauss_jordan(rows, rhs)
        assert rows == before
        assert isinstance(det, Fraction) and det == cofactor_det(rows)
        if det == 0:
            assert solution is None
            reached.add("singular")
            return
        assert len(solution) == len(rows)
        for j, column in enumerate(columns):
            assert [row[j] for row in solution] == cramer_solve(rows, column)
        assert all(len(row) == len(columns) for row in solution)
        n = len(rows)
        if any(cofactor_det([row[:i] for row in rows[:i]]) == 0 for i in range(1, n)):
            reached.add("row swap")
        if any(not any(column) for column in columns):
            reached.add("zero rhs")
        if len(columns) >= 2:
            reached.add("several rhs")

    check()
    assert reached == {"singular", "row swap", "zero rhs", "several rhs"}


def test_count_cone_points_base_cases():
    spec = SimplexSpec((1, 1))
    assert count_cone_points(spec, 1, (1, 0), 1) == 1
    total = sum(count_cone_points(spec, 1, u, 10) for u in [(1, 0), (0, 1)])
    assert total == len(list(enumerate_compositions(spec, 10)))
    with pytest.raises(InvalidCellError):
        count_cone_points(spec, 2, (1, 0), 4)


def _cell_base(spec, basis, l, m0, m):
    """The integer base point of the half-open cell containing (m0/m) * l."""
    from math import floor

    from jetcalc.lattice import _xgcd

    r = spec.arity
    g = spec.gcd()
    assert m0 % g == 0
    # integer reference point of the level-m0 hyperplane, by folded Bezout
    coeffs = [0] * r
    acc = spec.weights[0]
    coeffs[0] = 1
    for i in range(1, r):
        acc, s, t = _xgcd(acc, spec.weights[i])
        coeffs = [c * s for c in coeffs]
        coeffs[i] = t
    u_ref = [c * (m0 // g) for c in coeffs]
    x = [Fraction(m0 * li, m) for li in l]
    delta = [xi - ui for xi, ui in zip(x, u_ref)]
    vecs = basis.vectors
    gram = [
        [Fraction(sum(p * q for p, q in zip(v1, v2))) for v2 in vecs] for v1 in vecs
    ]
    rhs = [sum((Fraction(v[i]) * delta[i] for i in range(r)), Fraction(0)) for v in vecs]
    coords = cramer_solve(gram, rhs)
    floors = [floor(c) for c in coords]
    return tuple(
        u_ref[i] + sum(f * v[i] for f, v in zip(floors, vecs)) for i in range(r)
    )


def test_count_cone_points_against_cell_assignment_oracle():
    # Every level-m point belongs to exactly one half-open cell; cells based
    # at non-negative compositions must count exactly their members.  Bases
    # with negative coordinates can occur near the boundary, so the cells of
    # H_{m0} partition H_m exactly when no such base appears.
    rng = random.Random(17)
    for _ in range(10):
        r = rng.randint(2, 3)
        a = tuple(rng.randint(1, 3) for _ in range(r))
        spec = SimplexSpec(a)
        g = spec.gcd()
        m0 = g * rng.randint(1, 3)
        cells = list(enumerate_compositions(spec, m0))
        if not cells:
            continue
        basis = lattice_basis(spec)
        for mult in (2, 5):
            m = m0 * mult
            points = list(enumerate_compositions(spec, m))
            groups: dict[tuple, int] = {}
            for l in points:
                base = _cell_base(spec, basis, l, m0, m)
                groups[base] = groups.get(base, 0) + 1
            for u in cells:
                assert count_cone_points(spec, m0, u, m, basis=basis) == groups.get(
                    tuple(u), 0
                )
            negative_bases = [b for b in groups if any(x < 0 for x in b)]
            covered = sum(count_cone_points(spec, m0, u, m, basis=basis) for u in cells)
            if negative_bases:
                assert covered < len(points)
            else:
                assert covered == len(points)


def test_count_cone_points_partition_unit_weights():
    # with unit weights every cell base is a non-negative composition, so the
    # cells partition exactly
    for r, m0 in [(2, 1), (2, 3), (3, 2)]:
        spec = SimplexSpec((1,) * r)
        cells = list(enumerate_compositions(spec, m0))
        basis = lattice_basis(spec)
        for mult in (2, 4, 7):
            m = m0 * mult
            total = sum(
                count_cone_points(spec, m0, u, m, basis=basis) for u in cells
            )
            assert total == len(list(enumerate_compositions(spec, m)))


def test_count_cone_points_interior_density():
    # an interior cell's count over (m/m0)^(r-1) approaches 1
    spec = SimplexSpec((1, 1))
    m0 = 8
    u = (4, 4)  # interior of the dilated simplex
    errors = []
    for mult in (10, 20, 40):
        count = count_cone_points(spec, m0, u, m0 * mult)
        errors.append(abs(Fraction(count, mult) - 1))
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] < Fraction(1, 10)
