import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import (
    AVERAGING_TREE,
    distinct_edges,
    first_position,
    per_path_integral,
    per_path_mc_values,
    random_tree,
    whole_block_tally,
)
from jetcalc import integrands, mc
from jetcalc.integrands import (
    MarkedSimplexProblem,
    MissingTwistError,
    MixedSignError,
    averaging_experiment,
    harmonic_number,
    harmonic_twist,
    index_sum,
    integrate,
    integrate_exact,
    integrate_mc,
    jet_bound_coefficient,
    max_tensor_degree,
    twisted_index_sum,
)
from jetcalc.simplex import SimplexSpec
from jetcalc.strat import (
    ChildEdge,
    InternalNode,
    Leaf,
    StratTree,
    assignment_max_brute,
    nef_difference_tree,
    tree_from_dict,
)

TWO_LABEL_SPLIT = tree_from_dict(
    {
        "dimension": 1,
        "bundles": [
            {"label": "L1", "denominator": 1},
            {"label": "L2", "denominator": 1},
        ],
        "root": {
            "children": [
                {"markings": {"L1": 1, "L2": 0}, "node": {"degree": 1}},
                {"markings": {"L1": 0, "L2": -1}, "node": {"degree": 1}},
            ]
        },
    }
)

SINGLE_EDGE = tree_from_dict(
    {
        "dimension": 1,
        "bundles": [
            {"label": "L1", "denominator": 1},
            {"label": "L2", "denominator": 1},
        ],
        "root": {
            "children": [{"markings": {"L1": 1, "L2": -2}, "node": {"degree": 1}}]
        },
    }
)


def problem(tree, labels, weights, **kw):
    return MarkedSimplexProblem(
        tree=tree, labels=labels, simplex=SimplexSpec(weights), **kw
    )


def test_index_sum_examples():
    prob = problem(TWO_LABEL_SPLIT, ("L1", "L2"), (1, 1))
    half = (Fraction(1, 2), Fraction(1, 2))
    assert index_sum(prob, half, 0) == Fraction(1, 2)
    assert index_sum(prob, half, 1) == 0
    assert index_sum(prob, (0, 0), 1) == 0
    # all-positive tree: independent of the index cap
    chain = tree_from_dict(
        {
            "dimension": 2,
            "bundles": [{"label": "L", "denominator": 1}],
            "root": {
                "children": [
                    {
                        "markings": {"L": 2},
                        "node": {
                            "children": [{"markings": {"L": 1}, "node": {"degree": 1}}]
                        },
                    }
                ]
            },
        }
    )
    p = problem(chain, ("L",), (1,))
    values = {index_sum(p, (Fraction(1, 3),), i) for i in range(3)}
    assert len(values) == 1


def test_index_sum_homogeneity():
    rng = random.Random(12)
    for _ in range(20):
        tree = random_tree(rng, rng.randint(1, 3), (("L1", 1), ("L2", 2)))
        prob = problem(tree, ("L1", "L2"), (1, 2))
        t = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        for i in range(tree.dimension + 1):
            assert index_sum(prob, tuple(lam * x for x in t), i) == (
                lam**tree.dimension * index_sum(prob, t, i)
            )


def test_index_sum_layers_by_cap():
    rng = random.Random(44)
    for _ in range(20):
        tree = random_tree(rng, rng.randint(1, 3), (("L1", 1), ("L2", 1)), max_degree=1)
        prob = problem(tree, ("L1", "L2"), (1, 1))
        t = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2))
        # difference of consecutive caps equals the by-index layer
        by_index = []
        for edges, leaf in tree.paths():
            marks = [prob.edge_form(e, False)(t) for e in edges]
            idx = sum(1 for v in marks if v < 0)
            prod = Fraction(1)
            for v in marks:
                prod *= v
            by_index.append((idx, prod * leaf.degree))
        for i in range(1, tree.dimension + 1):
            layer = sum((v for idx, v in by_index if idx == i), Fraction(0))
            assert index_sum(prob, t, i) - index_sum(prob, t, i - 1) == layer


def test_twisted_index_sum_examples():
    # p == 0 twist equals the plain sum
    tree = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
            ],
            "root": {
                "children": [{"markings": {"L": 1, "N": 0}, "node": {"degree": 1}}]
            },
        }
    )
    prob = problem(tree, ("L",), (1,), aux_label="N")
    for t in [(Fraction(1, 2),), (Fraction(2),)]:
        assert twisted_index_sum(prob, t, 1) == index_sum(prob, t, 1)

    shifted = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
            ],
            "root": {
                "children": [{"markings": {"L": 1, "N": -1}, "node": {"degree": 1}}]
            },
        }
    )
    prob = problem(shifted, ("L",), (1,), aux_label="N")
    assert twisted_index_sum(prob, (Fraction(1, 2),), 0) == 0
    assert twisted_index_sum(prob, (Fraction(1, 2),), 1) == Fraction(-1, 2)
    assert twisted_index_sum(prob, (Fraction(2),), 0) == 1  # shift moved the boundary
    plain = problem(shifted, ("L",), (1,))
    with pytest.raises(MissingTwistError):
        twisted_index_sum(plain, (Fraction(1),), 0)


def test_max_tensor_degree_single_point_collapse():
    rng = random.Random(6)
    for _ in range(20):
        tree = random_tree(rng, rng.randint(1, 2), (("L1", 1), ("L2", 2)))
        prob = problem(tree, ("L1", "L2"), (1, 2))
        t = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(2))
        for i in range(tree.dimension + 1):
            expected = (-1) ** i * index_sum(prob, t, i)
            assert max_tensor_degree(prob, [t], i) == expected
            assert max_tensor_degree(prob, [t, t, t], i) == expected


def test_max_tensor_degree_example_and_homogeneity():
    prob = problem(SINGLE_EDGE, ("L1", "L2"), (1, 1))
    u1, u2 = (1, 0), (0, 1)
    # marks: u1 -> 1, u2 -> -2; at cap 1 the max of -(sum) is 2
    assert max_tensor_degree(prob, [u1, u2], 1) == 2
    assert max_tensor_degree(prob, [u1, u2], 0) == 1
    lam = Fraction(3, 2)
    n = prob.tree.dimension
    scaled = [tuple(lam * x for x in u) for u in (u1, u2)]
    assert max_tensor_degree(prob, scaled, 1) == lam**n * 2


def test_max_tensor_degree_brute_dp_agree():
    rng = random.Random(15)
    for _ in range(25):
        tree = random_tree(rng, rng.randint(1, 2), (("L1", 1), ("L2", 1)), max_children=2)
        prob = problem(tree, ("L1", "L2"), (1, 1))
        points = [
            tuple(Fraction(rng.randint(0, 2)) for _ in range(2))
            for _ in range(rng.randint(1, 3))
        ]
        i = rng.randint(0, tree.dimension)

        def options_of(edge, prob=prob, points=points):
            return [prob.edge_form(edge, False)(u) for u in points]

        assert assignment_max_brute(tree.root, options_of, i) == max_tensor_degree(
            prob, points, i
        )


def test_integrate_exact_examples():
    prob = problem(TWO_LABEL_SPLIT, ("L1", "L2"), (1, 1))
    assert integrate_exact(prob, 1) == 0  # E[t1] - E[t2]
    assert integrate_exact(prob, 0) == Fraction(1, 2)

    # all-positive: every cap gives the full polynomial integral
    chain = tree_from_dict(
        {
            "dimension": 2,
            "bundles": [{"label": "L", "denominator": 1}],
            "root": {
                "children": [
                    {
                        "markings": {"L": 1},
                        "node": {
                            "children": [{"markings": {"L": 1}, "node": {"degree": 1}}]
                        },
                    }
                ]
            },
        }
    )
    p = problem(chain, ("L",), (1,))
    assert integrate_exact(p, 0) == integrate_exact(p, 2) == 1  # E[t^2] on a point


def test_integrate_exact_mixed_sign():
    tree = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L1", "denominator": 1},
                {"label": "L2", "denominator": 1},
            ],
            "root": {
                "children": [{"markings": {"L1": 1, "L2": -1}, "node": {"degree": 1}}]
            },
        }
    )
    prob = problem(tree, ("L1", "L2"), (1, 1))
    with pytest.raises(MixedSignError):
        integrate_exact(prob, 0)
    # cap >= dimension: the indicator disappears and the integral is exact
    assert integrate_exact(prob, 1) == 0  # E[t1 - t2] by symmetry
    # a sign-changing edge into a childless node lies on no path: it does not
    # enter the integrand, so it cannot refuse the exact route
    dead_end = tree_from_dict(
        {
            "dimension": 2,
            "bundles": [
                {"label": "L1", "denominator": 1},
                {"label": "L2", "denominator": 1},
            ],
            "root": {
                "children": [
                    {"markings": {"L1": 1, "L2": -1}, "node": {"children": []}},
                    {
                        "markings": {"L1": 1},
                        "node": {"children": [{"markings": {"L2": 1}, "node": {"degree": 1}}]},
                    },
                ]
            },
        }
    )
    assert integrate_exact(problem(dead_end, ("L1", "L2"), (1, 1)), 0) == Fraction(1, 6)


def test_integrate_exact_computes_vertex_values_once_per_edge_form(monkeypatch):
    # nef_difference_tree(3, ...) has 6 distinct edge objects at 14 positions
    # on 8 paths; the F-edge form 2 t1 + 2 t2 is positive and the G-edge
    # form -3 t2 is negative, so both the sign analysis and the expectations run
    # on one row of integer vertex values per distinct edge object
    prob = problem(nef_difference_tree(3, 2, 3), ("F", "L"), (1, 2))
    calls = []
    original = integrands._vertex_rows

    def spy(prob, edges):
        rows, common = original(prob, edges)
        calls.append((edges, rows))
        return rows, common

    monkeypatch.setattr(integrands, "_vertex_rows", spy)
    for cap in range(4):
        calls.clear()
        integrate_exact(prob, cap)
        [(edges, rows)] = calls
        assert len(rows) == 6
        assert len({id(edge) for edge in edges}) == 6


@st.composite
def walk_trees(draw):
    """A tree for the compile walk, of dimension 0..4.

    Each depth draws a few edge objects over a pool of subtrees and builds
    its nodes' child lists from them, so subtrees and edge objects are
    shared, a node may list one edge object more than once, and an internal
    node below the root may have no children.
    """
    n = draw(st.integers(0, 4))
    pool = [Leaf(degree=d) for d in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))]
    for depth in reversed(range(n)):
        edges = [
            ChildEdge(markings={"A": draw(st.integers(-2, 2))}, child=draw(st.sampled_from(pool)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        pool = [
            InternalNode(children=tuple(draw(st.lists(
                st.sampled_from(edges), min_size=0 if depth else 1, max_size=3
            ))))
            for _ in range(draw(st.integers(1, 2)))
        ]
    return StratTree(dimension=n, bundles=(("A", 1),), root=draw(st.sampled_from(pool)))


def _leaf_trails(node, trail=()):
    """The child-index trail of every root-to-leaf path, in pre-order."""
    if isinstance(node, Leaf):
        yield trail
        return
    for i, edge in enumerate(node.children):
        yield from _leaf_trails(edge.child, (*trail, i))


def _common_prefix(a, b):
    return next((d for d, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def test_compile_walk_matches_edges_paths_and_first_positions():
    reached = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(walk_trees())
    def check(tree):
        edges, firsts, paths = integrands._compile(tree)
        assert [id(edge) for edge in edges] == [id(edge) for edge in distinct_edges(tree)]
        assert firsts == [first_position(tree.root, edge) for edge in edges]
        index_of = {id(edge): c for c, edge in enumerate(edges)}
        want = [
            (tuple(index_of[id(edge)] for edge in path), leaf.degree)
            for path, leaf in tree.paths()
        ]
        assert [(cols, degree) for _, cols, degree in paths] == want
        previous, previous_trail = (), ()
        for (shared, cols, _), trail in zip(paths, _leaf_trails(tree.root), strict=True):
            # shared is where the two positions part; equal columns may run on
            assert shared == _common_prefix(trail, previous_trail)
            assert cols[:shared] == previous[:shared]
            if shared < _common_prefix(cols, previous):
                reached.add("equal columns past shared")
            previous, previous_trail = cols, trail
        if tree.dimension == 0:
            reached.add("dimension 0")
        reached.add(("shared edges", sum(1 for _ in tree.edges()) > len(edges)))
        nodes = [tree.root, *(edge.child for edge in edges)]
        if any(isinstance(node, InternalNode) and not node.children for node in nodes):
            reached.add("childless")
        if any(
            isinstance(node, InternalNode) and len({*map(id, node.children)}) < len(node.children)
            for node in nodes
        ):
            reached.add("edge listed twice")

    check()
    assert {"dimension 0", ("shared edges", True), ("shared edges", False), "childless",
            "edge listed twice", "equal columns past shared"} <= reached


def test_mixed_sign_error_names_the_first_position_under_a_shared_subtree():
    # the sign-changing edge sits in a subtree reached from root→1 and root→2;
    # its first position in pre-order is root→1→1
    bundles = (("A", 1), ("B", 2))
    changing = ChildEdge(markings={"A": 1, "B": -1}, child=Leaf(1))
    shared = InternalNode((ChildEdge(markings={"A": 1, "B": 1}, child=Leaf(2)), changing))
    tree = StratTree(2, bundles, InternalNode((
        ChildEdge(markings={"A": 2, "B": 1},
                  child=InternalNode((ChildEdge(markings={"A": 1, "B": 0}, child=Leaf(1)),))),
        ChildEdge(markings={"A": 1, "B": 0}, child=shared),
        ChildEdge(markings={"A": 0, "B": 3}, child=shared),
    )))
    with pytest.raises(MixedSignError) as raised:
        integrate_exact(problem(tree, ("A", "B"), (1, 1)), 0)
    assert str(raised.value) == (
        "the edge form at root→1→1 changes sign on the simplex "
        "(vertex values 1, -1/2); use Monte-Carlo integration"
    )


ORACLE_LABELS = ("A", "B", "X")


@st.composite
def marked_problems(draw):
    """A problem and a cap in -1..n+1 for the per-path oracle.

    The tree is drawn bottom up from one small pool of subtrees per depth,
    so siblings share subtrees and edge objects; an internal node below the
    root may have no children.  Label denominators are drawn from 1..6.  An
    edge marks every label with one sign (zero forms included) or with
    independent signs.  The r coordinates repeat A and B under weights
    1..3, and the twist X comes with a rational scale or not at all.
    """
    n = draw(st.sampled_from((0, 1, 2, 2, 3, 3)))
    bundles = tuple((label, draw(st.integers(1, 6))) for label in ORACLE_LABELS)

    def markings():
        sign = draw(st.sampled_from((1, -1, 0, None, None)))
        if sign is None:
            return {label: draw(st.integers(-3, 3)) for label in ORACLE_LABELS}
        return {label: sign * draw(st.integers(0, 3)) for label in ORACLE_LABELS}

    pool = [Leaf(degree=d) for d in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))]
    for depth in reversed(range(n)):
        pool = [
            InternalNode(
                children=tuple(
                    ChildEdge(markings=markings(), child=draw(st.sampled_from(pool)))
                    for _ in range(draw(st.integers(0 if depth else 1, 3)))
                )
            )
            for _ in range(draw(st.integers(1, 2)))
        ]
    tree = StratTree(dimension=n, bundles=bundles, root=draw(st.sampled_from(pool)))
    r = draw(st.sampled_from((1, 2, 3, 4, 8, 16, 32)))
    twisted = draw(st.booleans())
    prob = MarkedSimplexProblem(
        tree=tree,
        labels=tuple(draw(st.lists(st.sampled_from("AB"), min_size=r, max_size=r))),
        simplex=SimplexSpec(draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))),
        aux_label="X" if twisted else None,
        aux_scale=draw(st.fractions(-2, 2, max_denominator=4)) if twisted else 1,
    )
    return prob, draw(st.integers(-1, n + 1))


def _outcome(integral, prob, cap):
    try:
        return integral(prob, cap)
    except MixedSignError:
        return MixedSignError


def test_integrate_exact_matches_per_path_oracle():
    reached = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(marked_problems())
    def check(case):
        prob, cap = case
        value = _outcome(integrate_exact, prob, cap)
        assert value == _outcome(per_path_integral, prob, cap)
        reached.add((cap < prob.tree.dimension, value is MixedSignError, prob.aux_label))

    check()
    # sign analysis that refuses and that passes, with and without a twist
    assert {(True, True, None), (True, False, None), (True, True, "X"), (True, False, "X"),
            (False, False, "X")} <= reached


def test_integrate_exact_matches_per_path_oracle_on_the_averaging_twist():
    problem = harmonic_twist(tree_from_dict(AVERAGING_TREE), ["L1", "L2"], "N", 16)
    for cap in range(-1, 4):
        assert integrate_exact(problem, cap) == per_path_integral(problem, cap)


def _mc_bits(prob, cap, cfg):
    """integrate_mc's pair, and its statistic on the chunks of each block,
    against the per-path oracle's pair from whole-block tallies and its
    values on whole blocks, as bytes (signed zeros count)."""
    captured = []
    tally = mc._tally_statistics

    def spy(spec, cfg, width, stats):
        captured.append(stats)
        return tally(spec, cfg, width, stats)

    with mock.patch.object(mc, "_tally_statistics", spy):
        got = integrate_mc(prob, cap, cfg)
    [evaluate] = captured
    want = whole_block_tally(prob.simplex, cfg, 1, lambda t: per_path_mc_values(prob, cap, t))
    pair = (float(want.mean()[0]), float(want.stderr()[0]))
    assert np.array(got).tobytes() == np.array(pair).tobytes()
    for b, n in enumerate(mc.block_sizes(cfg.samples)):
        block = mc.sample_block(prob.simplex, mc.block_rng(cfg.seed, b), n)
        rows = np.concatenate([evaluate(block[lo:hi]) for lo, hi in mc._chunks(n)])
        assert rows.tobytes() == per_path_mc_values(prob, cap, block).tobytes()
    return got


def _edge(a, b, x, child):
    return ChildEdge(markings={"A": a, "B": b, "X": x}, child=child)


_ABX = (("A", 1), ("B", 2), ("X", 1))
_SHARED = InternalNode((_edge(1, -2, 1, Leaf(2)), _edge(-1, 3, 0, Leaf(1))))
_TWICE = _edge(2, -1, 1, Leaf(1))
MC_EDGE_CASE_TREES = {
    "shared-subtrees": StratTree(2, _ABX, InternalNode((
        _edge(3, -1, 0, _SHARED), _edge(-2, 1, 1, _SHARED), _edge(1, 1, -1, _SHARED),
    ))),
    # the childless node's edge keeps its column in the projection
    "childless-internal-node": StratTree(2, _ABX, InternalNode((
        _edge(1, -1, 2, InternalNode(())), _edge(-1, 2, 1, _SHARED),
        _edge(2, 2, -3, InternalNode(())),
    ))),
    "same-edge-twice": StratTree(2, _ABX, InternalNode((
        _edge(1, -1, 1, InternalNode((_TWICE, _edge(-3, 1, 2, Leaf(3)), _TWICE))),
        _edge(-1, 1, 0, InternalNode((_TWICE,))),
    ))),
    "deep-chain": StratTree(4, _ABX, InternalNode((
        _edge(1, -1, 1, InternalNode((
            _edge(-2, 1, 0, InternalNode((_edge(1, 1, -2, _SHARED), _edge(2, -1, 1, _SHARED)))),
        ))),
        _edge(-1, 2, 1, InternalNode((_edge(1, -3, 1, InternalNode((_edge(1, 2, 1, _SHARED),))),))),
    ))),
}


@pytest.mark.parametrize("twist", [None, "X"])
@pytest.mark.parametrize("name", sorted(MC_EDGE_CASE_TREES))
def test_integrate_mc_path_products_match_per_path_oracle(name, twist):
    tree = MC_EDGE_CASE_TREES[name]
    prob = MarkedSimplexProblem(
        tree=tree, labels=("A", "B"), simplex=SimplexSpec((1, 2)), aux_label=twist,
        aux_scale=Fraction(1, 2),
    )
    for cap in range(-1, tree.dimension + 2):
        for samples in (1000, mc.BLOCK_SIZE + mc._CHUNK_ROWS + 1):
            _mc_bits(prob, cap, mc.MCConfig(seed=3 + cap, samples=samples, workers=2))


@pytest.mark.parametrize("r", [2, 6, 16])
@pytest.mark.parametrize("widths", [(3, 3), (13,)])
def test_integrate_mc_marks_keep_the_oracle_bits_in_chunk_tails(widths, r):
    # twelve or more edges, and chunks whose row count is not a multiple of
    # 8: the edge-major product C @ t.T rounds such a chunk's last rows
    # differently from the oracle's t @ C.T
    rng = random.Random(100 * len(widths) + r)

    def build(depth):
        if depth == len(widths):
            return Leaf(rng.randint(1, 3))
        return InternalNode(tuple(
            _edge(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-2, 2), build(depth + 1))
            for _ in range(widths[depth])
        ))

    prob = MarkedSimplexProblem(
        tree=StratTree(len(widths), _ABX, build(0)), labels=("A", "B") * (r // 2),
        simplex=SimplexSpec([1 + i % 3 for i in range(r)]), aux_label="X",
        aux_scale=Fraction(1, 3),
    )
    for samples in (4099, mc.BLOCK_SIZE + 9000):
        for cap in (1, len(widths)):
            _mc_bits(prob, cap, mc.MCConfig(seed=r + cap, samples=samples))


def test_integrate_mc_without_paths_and_in_dimension_zero():
    cfg = mc.MCConfig(seed=8, samples=5000)
    pathless = [
        StratTree(2, _ABX, InternalNode((_edge(1, -1, 0, InternalNode(())),))),
        StratTree(1, _ABX, InternalNode(())),
    ]
    for tree in pathless:
        prob = MarkedSimplexProblem(tree=tree, labels=("A", "B"), simplex=SimplexSpec((1, 2)))
        for cap in range(-1, tree.dimension + 2):
            assert _mc_bits(prob, cap, cfg) == (0.0, 0.0)
    # the root is a leaf of degree 3: the empty product counts at every cap >= 0
    point = MarkedSimplexProblem(
        tree=StratTree(0, _ABX, Leaf(3)), labels=("A", "B"), simplex=SimplexSpec((1, 2))
    )
    assert _mc_bits(point, -1, cfg) == (0.0, 0.0)
    for cap in (0, 1):
        assert _mc_bits(point, cap, cfg) == (3.0, 0.0)


def test_integrate_mc_matches_per_path_oracle():
    reached = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(marked_problems(), st.sampled_from((1, 1000, mc._CHUNK_ROWS + 1)))
    def check(case, samples):
        prob, cap = case
        _mc_bits(prob, cap, mc.MCConfig(seed=samples + cap, samples=samples))
        if prob.tree.dimension and samples > 1 and next(prob.tree.paths(), None):
            reached.add(prob.arity)

    check()
    # wide arities reach the edge-mark product with paths to sum
    assert {8, 16, 32} <= reached


@pytest.mark.parametrize("k", [8, 16])
def test_integrate_mc_matches_per_path_oracle_on_the_averaging_twist(k):
    problem = harmonic_twist(tree_from_dict(AVERAGING_TREE), ["L1", "L2"], "N", k)
    for cap in range(-1, 4):
        for samples in (1000, mc.BLOCK_SIZE + mc._CHUNK_ROWS + 1):
            _mc_bits(problem, cap, mc.MCConfig(seed=k + cap, samples=samples, workers=2))


def test_integrate_mc_against_exact():
    rng = random.Random(200)
    cfg = mc.MCConfig(seed=99, samples=120_000)
    checked = 0
    while checked < 5:
        tree = random_tree(
            rng, rng.randint(1, 2), (("L1", 1), ("L2", 2)), numerators=(0, 4)
        )
        prob = problem(tree, ("L1", "L2"), (1, 2))
        i = rng.randint(0, tree.dimension)
        exact = integrate_exact(prob, i)  # all markings >= 0: sign-constant
        estimate, stderr = integrate_mc(prob, i, cfg)
        assert abs(estimate - float(exact)) <= 4 * max(stderr, 1e-15)
        checked += 1


def test_integrate_mc_mixed_sign_value():
    # single edge marked t1 - t2 on the unit segment: the positive part of
    # (2s - 1) integrates to 1/4
    tree = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L1", "denominator": 1},
                {"label": "L2", "denominator": 1},
            ],
            "root": {
                "children": [{"markings": {"L1": 1, "L2": -1}, "node": {"degree": 1}}]
            },
        }
    )
    prob = problem(tree, ("L1", "L2"), (1, 1))
    estimate, stderr = integrate_mc(prob, 0, mc.MCConfig(seed=5, samples=400_000))
    assert abs(estimate - 0.25) <= 4 * stderr


def test_integrate_mc_constant_integrand():
    point = StratTree(dimension=0, bundles=(("L", 1),), root=Leaf(degree=3))
    prob = problem(point, ("L",), (1,))
    estimate, stderr = integrate_mc(prob, 0, mc.MCConfig(seed=1, samples=70_000))
    assert estimate == 3.0 and stderr == 0.0
    # a negative cap admits no path, not even the empty one
    assert integrate_mc(prob, -1, mc.MCConfig(seed=1, samples=1000)) == (0.0, 0.0)


def test_integrate_mc_deterministic_and_worker_independent():
    prob = problem(SINGLE_EDGE, ("L1", "L2"), (2, 3))
    a = integrate_mc(prob, 1, mc.MCConfig(seed=11, samples=200_000, workers=1))
    b = integrate_mc(prob, 1, mc.MCConfig(seed=11, samples=200_000, workers=1))
    c = integrate_mc(prob, 1, mc.MCConfig(seed=11, samples=200_000, workers=4))
    assert a == b == c
    d = integrate_mc(prob, 1, mc.MCConfig(seed=12, samples=200_000))
    assert d != a


def test_integrate_mc_matches_exact_with_twist():
    # sign-constant twisted problem: exact and Monte-Carlo integrals agree
    tree = tree_from_dict(
        {
            "dimension": 2,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 2},
            ],
            "root": {
                "children": [
                    {
                        "markings": {"L": 1, "N": 1},
                        "node": {
                            "children": [
                                {"markings": {"L": 2, "N": -1}, "node": {"degree": 2}}
                            ]
                        },
                    }
                ]
            },
        }
    )
    prob = harmonic_twist(tree, ["L"], "N", 2)
    # second edge's mark is 2Y - 3/8 with Y >= 1/2 on the (1,2)-simplex:
    # both edges keep one sign, so the exact route is available
    for cap in (0, 1, 2):
        exact = integrate_exact(prob, cap)
        estimate, stderr = integrate_mc(prob, cap, mc.MCConfig(seed=77, samples=150_000))
        assert abs(estimate - float(exact)) <= 4 * max(stderr, 1e-15)


def test_integrate_exact_when_sign_definite_else_mc():
    cfg = mc.MCConfig(seed=21, samples=70_000, workers=2)
    definite = problem(TWO_LABEL_SPLIT, ("L1", "L2"), (1, 2))
    for with_cfg in (cfg, None):
        value, stderr = integrate(definite, 0, with_cfg)
        assert stderr is None
        assert isinstance(value, Fraction) and value == integrate_exact(definite, 0)
    mixed = problem(SINGLE_EDGE, ("L1", "L2"), (1, 1))
    assert integrate(mixed, 0, cfg) == integrate_mc(mixed, 0, cfg)
    with pytest.raises(MixedSignError):
        integrate(mixed, 0)


def test_averaging_experiment_samples_when_a_twisted_form_changes_sign():
    # E = L1 + L2 + N on every edge, so the tree factors; the first edge's
    # form 2 L1 - L2 (+ 0 N) changes sign on every block-weighted simplex,
    # so integrate refuses the exact route at each order and samples
    tree = tree_from_dict(
        {
            "dimension": 2,
            "bundles": [
                {"label": label, "denominator": 1} for label in ("L1", "L2", "N", "E")
            ],
            "root": {
                "children": [
                    {
                        "markings": {"L1": 2, "L2": -1, "N": 0, "E": 1},
                        "node": {
                            "children": [
                                {
                                    "markings": {"L1": 1, "L2": 1, "N": 1, "E": 3},
                                    "node": {"degree": 2},
                                }
                            ]
                        },
                    },
                    {
                        "markings": {"L1": 1, "L2": 0, "N": -2, "E": -1},
                        "node": {
                            "children": [
                                {
                                    "markings": {"L1": -1, "L2": 2, "N": 1, "E": 2},
                                    "node": {"degree": 1},
                                }
                            ]
                        },
                    },
                ]
            },
        }
    )
    cfg = mc.MCConfig(seed=23, samples=20_000, workers=2)
    ks = [2, 3]
    report = averaging_experiment(tree, ["L1", "L2"], "N", "E", 1, ks, cfg)
    assert [row["params"]["k"] for row in report["records"]] == ks
    for row, k in zip(report["records"], ks):
        twisted = harmonic_twist(tree, ["L1", "L2"], "N", k)
        with pytest.raises(MixedSignError):
            integrate_exact(twisted, 1)
        estimate, stderr = integrate_mc(twisted, 1, cfg)
        assert row["params"]["method"] == "mc"
        assert row["estimate"].hex() == estimate.hex()
        assert row["stderr"].hex() == stderr.hex() and stderr > 0


def test_harmonic_twist():
    assert harmonic_number(1) == 1
    assert harmonic_number(2) == Fraction(3, 2)
    tree = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 2},
            ],
            "root": {
                "children": [{"markings": {"L": 1, "N": 3}, "node": {"degree": 1}}]
            },
        }
    )
    prob = harmonic_twist(tree, ["L"], "N", 2)
    assert prob.simplex.weights == (1, 2)
    assert prob.labels == ("L", "L")
    assert prob.aux_scale == Fraction(3, 4)  # H_2 / (k r) = (3/2) / 2
    one = harmonic_twist(tree, ["L"], "N", 1)
    assert one.aux_scale == Fraction(1, 1)  # 1/r with r = 1
    edge = tree.root.children[0]
    form = prob.edge_form(edge, with_twist=True)
    assert form.constant == Fraction(3, 4) * Fraction(3, 2)


def test_jet_bound_coefficient_n1_formula():
    # dimension 1: every path has index <= 1, so the bound coefficient is
    # H_k * (sum of whole-degree markings) / (k!)^r
    import math

    tree = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
            ],
            "root": {
                "children": [
                    {"markings": {"L": 2, "N": 0}, "node": {"degree": 1}},
                    {"markings": {"L": 1, "N": 0}, "node": {"degree": 3}},
                ]
            },
        }
    )
    c1 = Fraction(2 * 1 + 1 * 3)
    for k in (1, 2, 3, 4):
        value, stderr = jet_bound_coefficient(tree, ["L"], "N", k)
        assert value == harmonic_number(k) * c1 / math.factorial(k)
        assert stderr is None


def test_jet_bound_coefficient_positive_tree_full_cap():
    # all-positive markings: the cap-1 integral equals the full-cap integral
    import math

    tree = tree_from_dict(
        {
            "dimension": 2,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
            ],
            "root": {
                "children": [
                    {
                        "markings": {"L": 1, "N": 1},
                        "node": {
                            "children": [
                                {"markings": {"L": 2, "N": 0}, "node": {"degree": 1}}
                            ]
                        },
                    }
                ]
            },
        }
    )
    k, r, n = 2, 1, 2
    problem_k = harmonic_twist(tree, ["L"], "N", k)
    full = integrate_exact(problem_k, n)
    coefficient = Fraction(
        math.comb(n + k * r - 1, k * r - 1), math.factorial(k) ** r
    )
    assert jet_bound_coefficient(tree, ["L"], "N", k) == (coefficient * full, None)


def test_jet_bound_requires_cfg_for_mixed_sign():
    # dimension 2 so the cap-1 indicator is active; each edge's mark on the
    # k=2 block simplex is 2Y - 3/2 with Y in [1/2, 1]: mixed sign
    tree = tree_from_dict(
        {
            "dimension": 2,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
            ],
            "root": {
                "children": [
                    {
                        "markings": {"L": 2, "N": -2},
                        "node": {
                            "children": [
                                {"markings": {"L": 2, "N": -2}, "node": {"degree": 1}}
                            ]
                        },
                    }
                ]
            },
        }
    )
    with pytest.raises(MixedSignError):
        jet_bound_coefficient(tree, ["L"], "N", 2)
    value, stderr = jet_bound_coefficient(
        tree, ["L"], "N", 2, mc.MCConfig(seed=3, samples=50_000)
    )
    assert isinstance(value, float)
    assert isinstance(stderr, float) and stderr > 0


def test_edge_marks_computed_once_per_edge_object(monkeypatch):
    # nef_difference_tree shares each level's subtree between both children,
    # so the recursion reaches its 10 edge objects at many (node, budget)
    # pairs; every sum must build each edge's form at most once
    tree = nef_difference_tree(5, 2, 3)
    prob = problem(tree, ("F", "G"), (1, 2), aux_label="L", aux_scale=Fraction(1, 3))
    distinct = len({id(edge) for edge in tree.edges()})
    assert distinct == 10
    calls = []
    original = MarkedSimplexProblem.edge_form

    def spy(self, edge, with_twist):
        calls.append(edge)
        return original(self, edge, with_twist)

    monkeypatch.setattr(MarkedSimplexProblem, "edge_form", spy)
    point, points = (Fraction(1, 2), Fraction(-1, 3)), [(1, 0), (0, 1)]
    for cap in range(-1, tree.dimension + 1):
        for evaluate in (
            lambda: index_sum(prob, point, cap),
            lambda: twisted_index_sum(prob, point, cap),
            lambda: max_tensor_degree(prob, points, cap),
        ):
            calls.clear()
            evaluate()
            assert len(calls) <= distinct
            assert len(calls) == len({id(edge) for edge in calls})
