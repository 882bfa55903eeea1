"""Property tests: the sign-splitting recursion against path enumeration.

``degree_truncated``, ``degree_by_index`` and ``index_sum`` all run on
``strat.truncated_sum``; here they are compared with sums over
``StratTree.paths()`` on random trees and on model trees whose subtrees are
shared in memory.  The same trees also go through the dict round trip.
``max_marking_degree``, which scales integer numerators to a common
denominator, is compared with ``assignment_max_brute`` over ``Fraction``
markings on small trees whose labels have unrelated denominators.
Trees parsed from JSON share structurally equal subtrees; every quantity
is compared with the same tree expanded to one object per position.
"""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from _helpers import label_options
from jetcalc import mc
from jetcalc.integrands import (
    MarkedSimplexProblem,
    MixedSignError,
    index_sum,
    integrate_exact,
    integrate_mc,
    twisted_index_sum,
)
from jetcalc.simplex import SimplexSpec
from jetcalc.strat import (
    ChildEdge,
    InternalNode,
    Leaf,
    StratTree,
    _remark,
    assignment_max_brute,
    degree_by_index,
    degree_truncated,
    max_marking_degree,
    nef_difference_tree,
    path_degrees,
    power_trivialization,
    refine,
    tree_from_dict,
    tree_to_dict,
)

LABELS = ("L", "M")
SCALED_LABELS = ("A", "B", "C")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def random_trees(draw):
    """Uniform-depth trees; an internal node below the root may have no
    children, so some edges end on no root-to-leaf path."""
    dimension = draw(st.integers(0, 4))
    bundles = tuple((label, draw(st.integers(1, 3))) for label in LABELS)

    def build(depth):
        if depth == dimension:
            return Leaf(degree=draw(st.integers(1, 3)))
        width = draw(st.integers(0 if depth else 1, 3))
        return InternalNode(
            children=tuple(
                ChildEdge(
                    markings={label: draw(st.integers(-4, 4)) for label in LABELS},
                    child=build(depth + 1),
                )
                for _ in range(width)
            )
        )

    return StratTree(dimension=dimension, bundles=bundles, root=build(0))


@st.composite
def shared_trees(draw):
    """nef_difference_tree, which shares each level's subtree between both
    children, as built or after refine (sharing kept off the grafted path)
    or power_trivialization (sharing expanded)."""
    n = draw(st.integers(1, 6))
    f = draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
    g = draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
    tree = nef_difference_tree(n, f, g)
    how = draw(st.sampled_from(("plain", "refine", "power")))
    if how == "refine":
        depth = draw(st.integers(0, n - 1))
        path = tuple(draw(st.integers(0, 1)) for _ in range(depth))
        branch = Leaf(degree=draw(st.integers(1, 3)))
        for _ in range(n - depth - 1):
            branch = InternalNode(
                children=(ChildEdge(markings={"F": 0, "G": 0, "L": 0}, child=branch),)
            )
        tree = refine(tree, [(path, branch)])
    elif how == "power":
        tree = power_trivialization(
            tree, "L", draw(st.integers(1, 3)), keep_denominator=draw(st.booleans())
        )
    return tree


@st.composite
def small_scaled_trees(draw):
    """Trees of at most 6 edges (brute force tries 3^6 assignments) whose
    three labels have denominators drawn independently from 1..6, with
    numerators in [-3, 3]; an internal node below the root may have no
    children."""
    dimension = draw(st.integers(0, 3))
    bundles = tuple((label, draw(st.integers(1, 6))) for label in SCALED_LABELS)
    budget = [6]

    def build(depth):
        if depth == dimension:
            return Leaf(degree=draw(st.integers(1, 3)))
        width = draw(st.integers(0 if depth else 1, min(2, budget[0])))
        budget[0] -= width
        return InternalNode(
            children=tuple(
                ChildEdge(
                    markings={label: draw(st.integers(-3, 3)) for label in SCALED_LABELS},
                    child=build(depth + 1),
                )
                for _ in range(width)
            )
        )

    return StratTree(dimension=dimension, bundles=bundles, root=build(0))


def _prefix(by_index, level):
    return sum(by_index[: max(level + 1, 0)], Fraction(0))


def _check_degrees(tree, label):
    by_index = path_degrees(tree, label)
    for level in range(-1, tree.dimension + 2):
        assert degree_truncated(tree, label, level) == _prefix(by_index, level)
        want = by_index[level] if 0 <= level <= tree.dimension else 0
        assert degree_by_index(tree, label, level) == want


@SETTINGS
@given(random_trees(), st.sampled_from(LABELS))
def test_degrees_match_path_enumeration_on_random_trees(tree, label):
    _check_degrees(tree, label)


@SETTINGS
@given(shared_trees())
def test_degrees_match_path_enumeration_on_shared_subtrees(tree):
    _check_degrees(tree, "L")


@SETTINGS
@given(
    random_trees(),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.tuples(small_fractions, small_fractions),
    small_fractions,
)
def test_index_sums_match_path_enumeration(tree, weights, point, scale):
    prob = MarkedSimplexProblem(
        tree=tree, labels=LABELS, simplex=SimplexSpec(weights), aux_label="M",
        aux_scale=scale,
    )
    dens = dict(tree.bundles)

    def mark(edge, twist):
        value = sum(
            (t * Fraction(edge.markings[label], dens[label]) for t, label in zip(point, LABELS)),
            Fraction(0),
        )
        return value + (scale * Fraction(edge.markings["M"], dens["M"]) if twist else 0)

    for twist, evaluate in ((False, index_sum), (True, twisted_index_sum)):
        by_index = [Fraction(0)] * (tree.dimension + 1)
        for edges, leaf in tree.paths():
            marks = [mark(edge, twist) for edge in edges]
            product = Fraction(leaf.degree)
            for value in marks:
                product *= value
            by_index[sum(value < 0 for value in marks)] += product
        for level in range(-1, tree.dimension + 2):
            assert evaluate(prob, point, level) == _prefix(by_index, level)


@SETTINGS
@given(
    small_scaled_trees(),
    st.lists(st.sampled_from(SCALED_LABELS), min_size=1, max_size=3, unique=True),
)
def test_integer_scaling_matches_fraction_oracles(tree, labels):
    for label in labels:
        _check_degrees(tree, label)
    options_of = label_options(tree, labels)
    for level in range(-1, tree.dimension + 1):
        assert max_marking_degree(tree, labels, level) == assignment_max_brute(
            tree.root, options_of, level
        )


@SETTINGS
@given(st.one_of(random_trees(), shared_trees()))
def test_dict_round_trip(tree):
    assert tree_from_dict(tree_to_dict(tree)) == tree


@st.composite
def json_trees(draw):
    """Trees in JSON form, every position its own dict, drawn bottom up from
    one small pool of subtrees per depth: leaves repeat their degree and
    siblings often repeat a marking and a subtree.  Zero numerators may be
    omitted, which parses the same as writing them."""
    dimension = draw(st.integers(1, 4))
    bundles = [{"label": label, "denominator": draw(st.integers(1, 3))} for label in LABELS]
    pool = [{"degree": degree} for degree in draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))]
    for depth in reversed(range(dimension)):
        marks = draw(
            st.lists(
                st.dictionaries(st.sampled_from(LABELS), st.integers(-2, 2)),
                min_size=1, max_size=2,
            )
        )
        pool = [
            {
                "children": [
                    {"markings": draw(st.sampled_from(marks)), "node": draw(st.sampled_from(pool))}
                    for _ in range(draw(st.integers(0 if depth else 2, 3)))
                ]
            }
            for _ in range(draw(st.integers(1, 2)))
        ]
    data = {"dimension": dimension, "bundles": bundles, "root": draw(st.sampled_from(pool))}
    return json.loads(json.dumps(data))


def _integrals(tree, weights, scale, level, cfg):
    prob = MarkedSimplexProblem(
        tree=tree, labels=LABELS, simplex=SimplexSpec(weights), aux_label="M",
        aux_scale=scale,
    )
    try:
        exact = integrate_exact(prob, level)
    except MixedSignError:
        exact = None
    return exact, integrate_mc(prob, level, cfg)


@SETTINGS
@given(
    json_trees(),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    small_fractions,
    st.integers(0, 2**32 - 1),
)
def test_interning_is_invisible_to_every_quantity(data, weights, scale, seed):
    tree = tree_from_dict(data)
    expanded = StratTree(
        dimension=tree.dimension,
        bundles=tree.bundles,
        root=_remark(tree.root, lambda edge: edge.markings),
    )
    assert expanded == tree and tree_to_dict(tree) == tree_to_dict(expanded)
    small = tree.edge_count() <= 8
    cfg = mc.MCConfig(seed=seed, samples=2000)
    for level in range(-1, tree.dimension + 2):
        for label in LABELS:
            assert degree_truncated(tree, label, level) == degree_truncated(expanded, label, level)
            assert degree_by_index(tree, label, level) == degree_by_index(expanded, label, level)
        best = max_marking_degree(tree, LABELS, level)
        assert best == max_marking_degree(expanded, LABELS, level)
        if small:
            assert best == assignment_max_brute(tree.root, label_options(tree, LABELS), level)
        if 0 <= level <= tree.dimension:
            # the MC pair bit for bit: an interned tree feeds fewer columns
            assert _integrals(tree, weights, scale, level, cfg) == _integrals(
                expanded, weights, scale, level, cfg
            )
