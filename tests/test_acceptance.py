"""Acceptance suite: one test per numbered criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and then asserts, so a failing criterion is red in the normal
run as well.  Tolerances are fixed here, not tuned at runtime.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from _helpers import (
    AVERAGING_TREE,
    forward_difference,
    internal_paths,
    label_options,
    random_cover_plan,
    random_small_tree,
    random_tree,
    random_zero_branch,
)
from jetcalc import integrands, mc
from jetcalc.ring import GradedRing
from jetcalc.segre import (
    BundleFactor,
    WeightedSplitBundle,
    chi_leading_asymptotic,
    chi_leading_exact,
    gg_surface_class,
    gg_surface_coeffs,
    jet_rank,
    segre_series_split,
    surface_ring,
    whitney_weighted,
)
from jetcalc.simplex import (
    AffineForm,
    SimplexSpec,
    affine_product_expectation,
    beta_integral,
    monomial_moment,
)
from jetcalc.strat import (
    InvalidCoverError,
    assignment_max_brute,
    cover,
    degree_by_index,
    degree_truncated,
    max_marking_degree,
    nef_difference_tree,
    path_degrees,
    refine,
    tree_from_dict,
)

MILLION = 1_000_000


def _finish(num: int, description: str, ok: bool, started: float, detail: str = ""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status} ({elapsed:.1f}s) {description}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _line_bundles(weights, bound):
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


def test_criterion_1_gg_surface_classes():
    started = time.time()
    ring = surface_ring()
    c1, c2 = ring.gen("c1"), ring.gen("c2")
    ok = True
    for k, (num1, num2, den) in ((2, (7, 5, 8)), (3, (85, 49, 216))):
        via_product = gg_surface_class(k)
        alpha, beta = gg_surface_coeffs(k)
        via_coeffs = (alpha * (c1 * c1) - beta * c2) / math.factorial(k)
        expected = (num1 * (c1 * c1) - num2 * c2) / den
        ok = ok and via_product == expected and via_coeffs == expected
    _finish(1, "order-2/3 surface classes by both routes", ok, started)


def test_criterion_2_whitney_split_identity_and_convergence():
    # The convergence half is an exact check of the limit, not of a rate.
    # Every coefficient of chi_leading_exact(m) is a composition power sum,
    # a quasi-polynomial in m of degree d = n+r-1 whose period divides
    # lcm(a) (Beck-Robins, Computing the Continuous Discretely, ch. 3-4).
    # On each class of multiples of gcd(a) modulo lcm(a), d+2 levels spaced
    # by lcm(a) therefore have a zero (d+1)-th difference, and the d-th
    # difference over lcm(a)^d is d! times the leading coefficient, i.e. the
    # limit of the scaled sums chi_leading_exact(m) * d! / m^d.  That limit
    # must equal chi_leading_asymptotic exactly.
    started = time.time()
    identity_ok = True
    offenders = []
    for r in (1, 2, 3):
        for weights in itertools.combinations_with_replacement((1, 2, 3), r):
            g = math.gcd(*weights)
            for n in (1, 2, 3):
                ring, bundle = _line_bundles(weights, n)
                asym = chi_leading_asymptotic(bundle, n)
                parts = [
                    (segre_series_split(f.roots), f.rank, f.weight)
                    for f in bundle.factors
                ]
                if whitney_weighted(parts).component(n) != asym:
                    identity_ok = False
                step = math.lcm(*weights)
                d = n + r - 1
                for rho in range(0, step, g):
                    for m0 in (rho, rho + 10 * step):
                        values = [
                            chi_leading_exact(bundle, n, m0 + j * step)
                            for j in range(d + 2)
                        ]
                        if not forward_difference(values, d + 1).is_zero():
                            offenders.append(
                                (weights, n, rho, m0, f"nonzero {d + 1}-th difference")
                            )
                        if forward_difference(values, d) / step**d != asym:
                            offenders.append(
                                (weights, n, rho, m0, "limit != chi_leading_asymptotic")
                            )
    detail = ""
    print(f"    Whitney split identity half: {'PASS' if identity_ok else 'FAIL'}")
    if offenders:
        a, n, rho, m0, why = offenders[0]
        detail = (
            f"{len(offenders)} exact limit checks fail; first a={a} n={n} "
            f"class rho={rho} from m={m0}: {why}"
        )
        for a, n, rho, m0, why in offenders[:6]:
            print(f"    limit check: a={a} n={n} class rho={rho} from m={m0}: {why}")
    _finish(
        2,
        "Whitney split identity and limit of scaled sums per residue class (exact)",
        identity_ok and not offenders,
        started,
        detail,
    )


def test_criterion_3_simplex_moments():
    started = time.time()
    ok = True
    # exact peel-one-coordinate recursion, |p| <= 6, r <= 4
    for r in (2, 3, 4):
        unit = SimplexSpec((1,) * r)
        tail = SimplexSpec((1,) * (r - 1))
        for p in itertools.product(range(7), repeat=r):
            if sum(p) > 6:
                continue
            expected = (
                (r - 1)
                * beta_integral(p[0], sum(p[1:]) + r - 2)
                * monomial_moment(tail, p[1:])
            )
            if monomial_moment(unit, p) != expected:
                ok = False
    # Monte-Carlo agreement at a million samples on a fixed grid
    cfg = mc.MCConfig(seed=424243, samples=MILLION, workers=2)
    max_z = 0.0
    for a in ((1, 2), (1, 1, 1), (2, 3)):
        spec = SimplexSpec(a)
        r = spec.arity
        powers = [
            p
            for p in itertools.product(range(4), repeat=r)
            if 1 <= sum(p) <= 3
        ]
        arr = np.asarray(powers, dtype=float)

        def stats(block, arr=arr):
            return np.prod(block[:, None, :] ** arr[None, :, :], axis=2)

        tally = mc._tally_statistics(spec, cfg, len(powers), stats)
        means, errs = tally.mean(), tally.stderr()
        for i, p in enumerate(powers):
            z = abs(means[i] - float(monomial_moment(spec, p))) / errs[i]
            max_z = max(max_z, float(z))
    ok = ok and max_z <= 4
    _finish(3, "moment recursion (exact) and million-sample MC grid", ok, started,
            f"max |z| = {max_z:.2f}")


def test_criterion_4_tree_degree_oracles():
    started = time.time()
    rng = random.Random(9001)
    ok = True
    for _ in range(1000):
        tree = random_tree(
            rng, rng.randint(1, 4), (("L", rng.choice((1, 2, 3))),), max_children=3
        )
        by_index = path_degrees(tree, "L")
        for level in range(tree.dimension + 1):
            if degree_truncated(tree, "L", level) != sum(by_index[: level + 1]):
                ok = False
    for _ in range(200):
        tree = random_tree(rng, rng.randint(1, 3), (("L", rng.choice((1, 2))),))
        spots = internal_paths(tree)
        path = spots[rng.randrange(len(spots))]
        branch = random_zero_branch(rng, tree.labels, tree.dimension - len(path) - 1)
        refined = refine(tree, [(path, branch)])
        for level in range(tree.dimension + 1):
            if degree_by_index(refined, "L", level) != degree_by_index(tree, "L", level):
                ok = False
    done = 0
    while done < 200:
        tree = random_tree(rng, rng.randint(1, 3), (("L", rng.choice((1, 2))),))
        delta = rng.randint(1, 3)
        try:
            plan = random_cover_plan(rng, tree.root, "L", delta)
            covered, got = cover(tree, "L", plan)
        except InvalidCoverError:
            continue
        for level in range(tree.dimension + 1):
            if degree_truncated(covered, "L", level) != got * degree_truncated(
                tree, "L", level
            ):
                ok = False
        done += 1
    _finish(4, "1000x recursion==enumeration, 200x refine, 200x cover scaling", ok, started)


def test_criterion_5_nef_difference_specialization():
    started = time.time()
    ok = True
    grid = [
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(3)),
        (Fraction(1, 2), Fraction(2, 3)),
        (Fraction(5, 3), Fraction(1, 4)),
        (Fraction(3), Fraction(0)),
    ]
    for n in range(1, 6):
        for f, g in grid:
            tree = nef_difference_tree(n, f, g)
            for j in range(n + 1):
                want = (-1) ** j * math.comb(n, j) * f ** (n - j) * g**j
                if degree_by_index(tree, "L", j) != want:
                    ok = False
    _finish(5, "nef-difference model degrees (-1)^j C(n,j) f^(n-j) g^j, n <= 5", ok, started)


def test_criterion_6_block_moments_and_variance_bound():
    started = time.time()
    ok = True
    # exact moments through the affine expectation engine
    for k in range(1, 5):
        for r in range(1, 5):
            spec = mc.block_weights(k, r)
            for j in range(1, k + 1):
                form = AffineForm(
                    0, [1 if idx // r + 1 == j else 0 for idx in range(k * r)]
                )
                if affine_product_expectation(spec, [form]) != Fraction(1, j * k):
                    ok = False
                second = affine_product_expectation(spec, [form, form])
                if second != Fraction(r + 1, j * j * k * (k * r + 1)):
                    ok = False
    # million-sample MC for the same moments
    max_z = 0.0
    for k in range(1, 5):
        for r in range(1, 5):
            spec = mc.block_weights(k, r)
            cfg = mc.MCConfig(seed=515151 + 16 * k + r, samples=MILLION, workers=2)

            def stats(block, k=k, r=r):
                y = block.reshape(-1, k, r).sum(axis=2)
                return np.concatenate([y, y * y], axis=1)

            tally = mc._tally_statistics(spec, cfg, 2 * k, stats)
            means, errs = tally.mean(), tally.stderr()
            for j in range(1, k + 1):
                for col, exact in (
                    (j - 1, 1 / (j * k)),
                    (k + j - 1, (r + 1) / (j * j * k * (k * r + 1))),
                ):
                    if errs[col] == 0:  # constant statistic (k = r = 1)
                        ok = ok and means[col] == exact
                    else:
                        max_z = max(max_z, float(abs(means[col] - exact) / errs[col]))
    ok = ok and max_z <= 4
    # exact rational variance bound on the exhaustive small grid
    for k in range(1, 4):
        for r in range(1, 4):
            for d in itertools.product(range(-3, 4), repeat=r):
                report = mc.variance_bound_check(k, r, d)
                if not report["holds"]:
                    ok = False
    _finish(6, "block-sum moments (exact + 1e6 MC) and variance bound grid", ok,
            started, f"max |z| = {max_z:.2f}")


def test_criterion_7_assignment_max_brute_vs_dp():
    started = time.time()
    rng = random.Random(777)
    bundles = (("L1", 1), ("L2", 2), ("L3", 3))
    ok = True
    for _ in range(500):
        tree = random_small_tree(rng, bundles, max_edges=8)
        labels = ["L1", "L2", "L3"][: rng.randint(1, 3)]
        level = rng.randint(0, tree.dimension)
        brute = assignment_max_brute(tree.root, label_options(tree, labels), level)
        fast = max_marking_degree(tree, labels, level)
        if brute != fast:
            ok = False
    _finish(7, "500x assignment maximum, brute force == subtree dp", ok, started)


def test_criterion_8_averaging_experiment():
    started = time.time()
    tree = tree_from_dict(AVERAGING_TREE)
    target = degree_truncated(tree, "E", 1)
    cfg = mc.MCConfig(seed=314159265358979, samples=MILLION, workers=2)
    # Every edge form keeps one sign, so averaging_experiment would integrate
    # exactly; the criterion samples each order and scales it as the
    # experiment does.
    n, r = tree.dimension, 2
    gaps = []
    for k in [4, 8, 16, 32]:
        problem = integrands.harmonic_twist(tree, ["L1", "L2"], "N", k)
        value, _ = integrands.integrate_mc(problem, 1, cfg)
        h = integrands.harmonic_number(k)
        scaled = (k * r) ** n * value / float(h) ** n
        gaps.append(abs(scaled - float(target)))
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    relative = gaps[-1] / abs(float(target))
    ok = decreasing and relative <= 0.25
    _finish(
        8,
        "scaled harmonic-twist integrals: strictly decreasing gaps, <=25% at k=32",
        ok,
        started,
        "gaps " + ", ".join(f"{g:.4f}" for g in gaps) + f"; final relative {relative:.1%}",
    )


def test_criterion_9_jet_ranks():
    started = time.time()
    ok = True
    for n in range(1, 7):
        for k in range(1, 7):
            weights = [j for j in range(1, k + 1) for _ in range(n)]
            tally = [0] * 7

            def enumerate_exponents(i, rest):
                if i == len(weights):
                    tally[6 - rest] += 1
                    return
                w = weights[i]
                e = 0
                while w * e <= rest:
                    enumerate_exponents(i + 1, rest - w * e)
                    e += 1

            enumerate_exponents(0, 6)
            for m in range(7):
                if jet_rank(n, k, m) != tally[m]:
                    ok = False
    _finish(9, "jet ranks == nested exponent enumeration, n,k,m <= 6", ok, started)
