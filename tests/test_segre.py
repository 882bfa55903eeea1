import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import forward_difference, product_root_polynomial
from jetcalc import lattice
from jetcalc.lattice import exponent_tuples, power_sum_asymptotic, power_sum_table
from jetcalc.ring import GradedPoly, GradedRing
from jetcalc.segre import (
    BundleFactor,
    EmptyBundleError,
    WeightedSplitBundle,
    chi_leading_asymptotic,
    chi_leading_exact,
    gg_surface_class,
    gg_surface_coeffs,
    jet_rank,
    segre_series_split,
    segre_single,
    surface_ring,
    whitney_weighted,
)
from jetcalc.simplex import SimplexSpec


def line_bundle_setup(weights, bound):
    ring = GradedRing(
        bound=bound, variables=tuple((f"x{i+1}", 1) for i in range(len(weights)))
    )
    bundle = WeightedSplitBundle(
        factors=tuple(
            BundleFactor(roots=(ring.gen(f"x{i+1}"),), weight=w)
            for i, w in enumerate(weights)
        )
    )
    return ring, bundle


def test_segre_single_examples():
    ring = GradedRing(bound=2, variables=(("a", 1),))
    a = ring.gen("a")
    s = ring.one() + a + a * a
    assert segre_single(s, rank=3, weight=1) == s
    assert segre_single(s, rank=1, weight=2) == ring.one() + a / 2 + a * a / 4
    # a line bundle in weight a is the same as rescaling its root
    assert segre_single(s, rank=1, weight=2) == s.scale_vars({"a": Fraction(1, 2)})
    assert segre_single(ring.one(), rank=2, weight=3) == ring.const(Fraction(1, 3))
    # a degree-l part is divided by a^l, whatever the variable weights
    chern = GradedRing(bound=2, variables=(("c1", 1), ("c2", 2)))
    c1, c2 = chern.gen("c1"), chern.gen("c2")
    assert segre_single(chern.one() + c1 + c1 * c1 + c2, rank=2, weight=3) == (
        chern.one() + c1 / 3 + c1 * c1 / 9 + c2 / 9
    ) / 3


def test_whitney_examples():
    ring = GradedRing(bound=1, variables=(("a", 1), ("b", 1)))
    a, b = ring.gen("a"), ring.gen("b")
    one = ring.one()
    assert whitney_weighted([(one + a, 1, 1)]) == one + a
    both = whitney_weighted([(one + a, 1, 1), (one + b, 1, 1)])
    assert both.component(1) == a + b
    mixed = whitney_weighted([(one + a, 1, 1), (one + b, 1, 2)])
    assert mixed == ring.const(Fraction(1, 2)) + a / 2 + b / 4
    with pytest.raises(EmptyBundleError):
        whitney_weighted([])


def test_chi_leading_exact_examples():
    ring, bundle = line_bundle_setup((1, 1), 1)
    x1, x2 = ring.gens()
    assert chi_leading_exact(bundle, 1, 4) == 10 * x1 + 10 * x2
    assert chi_leading_exact(bundle, 1, 0).is_zero()
    ring, bundle = line_bundle_setup((1, 2), 1)
    x1, x2 = ring.gens()
    # compositions of 4: (4,0), (2,1), (0,2)
    assert chi_leading_exact(bundle, 1, 4) == 6 * x1 + 3 * x2


def test_chi_leading_asymptotic_examples():
    ring, bundle = line_bundle_setup((1, 1), 1)
    x1, x2 = ring.gens()
    assert chi_leading_asymptotic(bundle, 1) == x1 + x2
    ring, bundle = line_bundle_setup((1, 2), 1)
    x1, x2 = ring.gens()
    assert chi_leading_asymptotic(bundle, 1) == x1 / 2 + x2 / 4
    ring, bundle = line_bundle_setup((2, 4), 1)
    assert chi_leading_asymptotic(bundle, 0) == ring.const(Fraction(2, 8))


def test_whitney_consistency_with_chi():
    # degree-n part of the Whitney product of dual split Segre series equals
    # the closed-form Euler leading coefficient
    for r in (1, 2, 3):
        for weights in itertools.combinations_with_replacement((1, 2, 3), r):
            for n in (1, 2, 3):
                ring, bundle = line_bundle_setup(weights, n)
                parts = [
                    (segre_series_split(f.roots), f.rank, f.weight)
                    for f in bundle.factors
                ]
                assert whitney_weighted(parts).component(n) == chi_leading_asymptotic(
                    bundle, n
                )


def test_whitney_consistency_higher_rank_factors():
    ring = GradedRing(bound=2, variables=tuple((f"x{i}", 1) for i in range(3)))
    gens = ring.gens()
    bundle = WeightedSplitBundle(
        factors=(
            BundleFactor(roots=gens[:2], weight=2),
            BundleFactor(roots=gens[2:], weight=3),
        )
    )
    parts = [(segre_series_split(f.roots), f.rank, f.weight) for f in bundle.factors]
    assert whitney_weighted(parts).component(2) == chi_leading_asymptotic(bundle, 2)


COEFFS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))


@st.composite
def root_bundles(draw):
    """A random weighted split bundle with 1-3 factors of rank 1-3, whose
    roots are Fraction combinations of 1-3 weight-1 variables in a ring
    that also holds a weight-2 variable, with n in 0..bound and a level m."""
    k, bound = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    names = [(f"x{i + 1}", 1) for i in range(k)]
    names.insert(draw(st.integers(0, k)), ("c", 2))
    ring = GradedRing(bound=bound, variables=tuple(names))
    gens = [ring.gen(name) for name, w in names if w == 1]

    def root():
        return sum((g * draw(st.sampled_from(COEFFS)) for g in gens), ring.zero())

    factors = tuple(
        BundleFactor(roots=tuple(root() for _ in range(draw(st.integers(1, 3)))),
                     weight=draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 3)))
    )
    return WeightedSplitBundle(factors), draw(st.integers(0, bound)), draw(st.integers(-1, 12))


def test_root_polynomial_matches_ring_products():
    # the integer expansion of both Euler polynomials against one GradedPoly
    # product per root factor, on the same power-sum tables
    reached = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(root_bundles())
    def check(case):
        bundle, n, m = case
        spec = SimplexSpec(w for _, w in bundle.line_data())
        table = power_sum_table(spec, n, m)
        exact = chi_leading_exact(bundle, n, m)
        assert exact == product_root_polynomial(bundle, n, table)
        limits = {p: power_sum_asymptotic(spec, p) for p in exponent_tuples(n, spec.arity)}
        assert chi_leading_asymptotic(bundle, n) == product_root_polynomial(bundle, n, limits)
        roots = [root for root, _ in bundle.line_data()]
        if any(len(list(root.items())) > 1 for root in roots):
            reached.add("multi-term root")
        if any(c.denominator > 1 for root in roots for _, c in root.items()):
            reached.add("non-integer coefficient")
        if n == 0:
            reached.add("n=0")
        terms = {e for p, value in table.items()
                 for e, _ in product_root_polynomial(bundle, n, {p: value}).items()}
        if any(exact.coefficient(e) == 0 for e in terms):
            reached.add("cancelled monomial")

    check()
    assert reached == {"multi-term root", "non-integer coefficient", "n=0", "cancelled monomial"}


@pytest.mark.parametrize(
    "weights, n, bound", [((1, 1, 2, 3), 3, 20), ((1, 1, 2, 3, 5), 4, 65)]
)
def test_euler_polynomials_take_no_ring_products(monkeypatch, weights, n, bound):
    # Work counts of the algorithm: the root polynomial is expanded in
    # integers, and the power sums convolve each half of the factors split
    # at s = r // 2 once per exponent prefix of length 2 and more.
    _, bundle = line_bundle_setup(weights, n)
    r = len(weights)
    s = r // 2
    assert bound == sum(
        math.comb(n + k, k) for part in (s, r - s) for k in range(2, part + 1)
    )
    counts = Counter()

    def spy(owner, name, key):
        original = getattr(owner, name)

        def counted(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    spy(GradedPoly, "__mul__", "mul")
    spy(GradedPoly, "__rmul__", "mul")
    spy(lattice, "_times_weight_series", "series")
    chi_leading_exact(bundle, n, 84)
    assert counts["mul"] == 0
    assert 0 < counts["series"] <= bound
    chi_leading_asymptotic(bundle, n)
    assert counts["mul"] == 0


def _max_coeff(poly):
    values = [abs(c) for _, c in poly.items()]
    return max(values) if values else Fraction(0)


def test_chi_exact_converges_to_asymptotic():
    # scaled exact sums approach the limit coefficient, error decreasing in m
    for weights, n in [((1, 2), 2), ((2, 3), 1), ((1, 1, 2), 2)]:
        ring, bundle = line_bundle_setup(weights, n)
        asym = chi_leading_asymptotic(bundle, n)
        base = 40 * math.lcm(*weights)
        r = len(weights)
        errors = []
        for m in (base, 2 * base, 4 * base):
            scaled = chi_leading_exact(bundle, n, m) * Fraction(
                math.factorial(n + r - 1), m ** (n + r - 1)
            )
            errors.append(_max_coeff(scaled - asym))
        assert errors[0] > errors[1] > errors[2]


def test_chi_convergence_with_step_normalized_levels():
    # On the levels m = 120*L + j*L, L = lcm(a), every coefficient of
    # chi_leading_exact is one polynomial in m of degree d = n+r-1 (the
    # power sums are quasi-polynomials with period dividing L), so its
    # (d+1)-th difference vanishes and its d-th difference over L^d is the
    # limit coefficient, exactly.
    for weights, n in [((2, 2, 3), 3), ((1, 2, 3), 2), ((1, 1, 1), 3)]:
        ring, bundle = line_bundle_setup(weights, n)
        step, d = math.lcm(*weights), n + len(weights) - 1
        values = [chi_leading_exact(bundle, n, 120 * step + j * step) for j in range(d + 2)]
        assert forward_difference(values, d + 1).is_zero()
        assert forward_difference(values, d) / step**d == chi_leading_asymptotic(bundle, n)


def test_chi_deviation_at_fixed_gcd_levels_is_an_exact_subleading_term():
    # Why a 5% bound at m = 120*gcd(a) cannot hold for a = (2, 2, 3), n = 3:
    # on multiples of lcm(a) = 6 each coefficient of chi_leading_exact is a
    # polynomial in m of degree n+r-1 = 5, so six levels determine it.  Its
    # value at m = 120 carries an exact O(1/m) deviation from the limit.
    weights, n = (2, 2, 3), 3
    ring, bundle = line_bundle_setup(weights, n)
    step, d = 6, 5
    values = [chi_leading_exact(bundle, n, step * j) for j in range(d + 1)]
    differences = [forward_difference(values, k) for k in range(d + 1)]
    # Newton's forward form on the nodes 0, 6, ..., 30, evaluated at m = 120
    at_120 = sum(
        (delta * math.comb(120 // step, k) for k, delta in enumerate(differences)),
        ring.zero(),
    )
    assert at_120 == chi_leading_exact(bundle, n, 120)
    asym = chi_leading_asymptotic(bundle, n)
    scaled = at_120 * Fraction(math.factorial(d), 120**d)
    deviation = _max_coeff(scaled - asym) / _max_coeff(asym)
    assert deviation == Fraction(126433, 720000)
    assert deviation > Fraction(1, 20)


def test_gg_surface_coeffs():
    assert gg_surface_coeffs(1) == (Fraction(1), Fraction(1))
    assert gg_surface_coeffs(2) == (Fraction(7, 4), Fraction(5, 4))
    assert gg_surface_coeffs(3) == (Fraction(85, 36), Fraction(49, 36))


def test_gg_surface_class_examples():
    ring = surface_ring()
    c1, c2 = ring.gen("c1"), ring.gen("c2")
    assert gg_surface_class(2) == (7 * c1 * c1 - 5 * c2) / 8
    assert gg_surface_class(3) == (85 * c1 * c1 - 49 * c2) / 216
    assert gg_surface_class(1) == c1 * c1 - c2


def test_gg_two_routes_agree():
    ring = surface_ring()
    c1, c2 = ring.gen("c1"), ring.gen("c2")
    for k in range(1, 13):
        alpha, beta = gg_surface_coeffs(k)
        closed = (alpha * (c1 * c1) - beta * c2) / math.factorial(k)
        assert gg_surface_class(k) == closed


def _jet_rank_bruteforce(n, k, m):
    """Count exponent assignments on n*k weighted variables by nested descent."""
    weights = [j for j in range(1, k + 1) for _ in range(n)]

    def count(i, rest):
        if i == len(weights):
            return 1 if rest == 0 else 0
        return sum(count(i + 1, rest - weights[i] * e) for e in range(rest // weights[i] + 1))

    return count(0, m)


def test_jet_rank_examples():
    for m in (0, 1, 5, 9):
        assert jet_rank(1, 1, m) == 1
    assert jet_rank(2, 1, 2) == 3
    assert jet_rank(1, 2, 3) == 2


def test_jet_rank_bruteforce_small():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for m in (0, 1, 2, 3, 4):
                assert jet_rank(n, k, m) == _jet_rank_bruteforce(n, k, m)
