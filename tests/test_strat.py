import json
import random
from fractions import Fraction
from math import comb
from types import MappingProxyType

import pytest

from _helpers import (
    internal_paths,
    label_options,
    random_cover_plan,
    random_small_tree,
    random_tree,
    random_zero_branch,
)
from jetcalc.strat import (
    ChildEdge,
    EdgeCover,
    InternalNode,
    InvalidCoverError,
    Leaf,
    LeafCover,
    NodeCover,
    StratTree,
    TreeStructureError,
    UnknownLabelError,
    ample_tree,
    assignment_max,
    assignment_max_brute,
    cover,
    degree_by_index,
    degree_truncated,
    identity_cover,
    max_marking_degree,
    nef_difference_tree,
    path_degrees,
    power_trivialization,
    refine,
    replicate_cover,
    tree_from_dict,
    tree_to_dict,
    validate_product_trivialization,
)

TWO_LEAF = {
    "dimension": 1,
    "bundles": [{"label": "L", "denominator": 1}],
    "root": {
        "children": [
            {"markings": {"L": 2}, "node": {"degree": 1}},
            {"markings": {"L": -1}, "node": {"degree": 1}},
        ]
    },
}

CHAIN = {
    "dimension": 2,
    "bundles": [{"label": "L", "denominator": 1}],
    "root": {
        "children": [
            {
                "markings": {"L": 3},
                "node": {"children": [{"markings": {"L": -1}, "node": {"degree": 2}}]},
            }
        ]
    },
}


def test_parse_and_roundtrip():
    tree = tree_from_dict(TWO_LEAF)
    assert tree.dimension == 1
    assert tree_from_dict(tree_to_dict(tree)) == tree


def test_parse_errors():
    with pytest.raises(TreeStructureError, match="unknown label"):
        tree_from_dict(
            {
                "dimension": 1,
                "bundles": [{"label": "L", "denominator": 1}],
                "root": {"children": [{"markings": {"M": 1}, "node": {"degree": 1}}]},
            }
        )
    with pytest.raises(TreeStructureError, match="missing field"):
        tree_from_dict({"dimension": 1, "bundles": []})
    with pytest.raises(TreeStructureError, match="depth"):
        tree_from_dict(
            {
                "dimension": 2,
                "bundles": [{"label": "L", "denominator": 1}],
                "root": {"children": [{"markings": {"L": 1}, "node": {"degree": 1}}]},
            }
        )
    with pytest.raises(TreeStructureError, match="degree"):
        tree_from_dict(
            {
                "dimension": 1,
                "bundles": [{"label": "L", "denominator": 1}],
                "root": {"children": [{"markings": {"L": 1}, "node": {"degree": 0}}]},
            }
        )


def test_roundtrip_random():
    rng = random.Random(23)
    bundles = (("L", 1), ("M", 2))
    for _ in range(25):
        tree = random_tree(rng, rng.randint(0, 3), bundles)
        assert tree_from_dict(tree_to_dict(tree)) == tree


def test_degree_by_index_examples():
    tree = tree_from_dict(TWO_LEAF)
    assert degree_by_index(tree, "L", 0) == 2
    assert degree_by_index(tree, "L", 1) == -1
    chain = tree_from_dict(CHAIN)
    assert degree_by_index(chain, "L", 1) == -6
    assert degree_by_index(chain, "L", 0) == 0
    with pytest.raises(UnknownLabelError):
        degree_by_index(tree, "X", 0)


def test_degree_by_index_vanishes_for_positive_trees():
    tree = ample_tree(3, (2, 1, 3), leaf_degree=2)
    for level in (1, 2, 3):
        assert degree_by_index(tree, "L", level) == 0


def test_degree_truncated_examples():
    tree = tree_from_dict(TWO_LEAF)
    assert degree_truncated(tree, "L", 1) == 1
    chain = tree_from_dict(CHAIN)
    assert degree_truncated(chain, "L", 1) == -6
    # at the full budget the truncation is the plain top degree, summed
    # over every path by the enumeration oracle
    rng = random.Random(31)
    for _ in range(10):
        t = random_tree(rng, rng.randint(1, 3), (("L", 2),))
        full = sum(path_degrees(t, "L"), Fraction(0))
        assert degree_truncated(t, "L", t.dimension) == full


def test_degree_recursive_matches_enumeration():
    # the recursion behind degree_truncated / degree_by_index against the
    # path-enumeration oracle
    tree = tree_from_dict(TWO_LEAF)
    chain = tree_from_dict(CHAIN)
    assert path_degrees(tree, "L") == [2, -1]
    assert path_degrees(chain, "L") == [0, -6, 0]
    for t in (tree, chain):
        by_index = path_degrees(t, "L")
        for level in range(t.dimension + 1):
            assert degree_truncated(t, "L", level) == sum(by_index[: level + 1])
            assert degree_by_index(t, "L", level) == by_index[level]
    point = StratTree(dimension=0, bundles=(("L", 1),), root=Leaf(degree=4))
    assert path_degrees(point, "L") == [4]
    assert degree_truncated(point, "L", 0) == 4
    assert degree_truncated(point, "L", -1) == 0


def test_degree_recursive_random_equivalence():
    rng = random.Random(101)
    for _ in range(150):
        t = random_tree(rng, rng.randint(1, 4), (("L", rng.choice((1, 2, 3))),))
        by_index = path_degrees(t, "L")
        for level in range(t.dimension + 1):
            assert degree_truncated(t, "L", level) == sum(by_index[: level + 1])
            assert degree_by_index(t, "L", level) == by_index[level]


def test_refine_examples():
    tree = tree_from_dict(TWO_LEAF)
    refined = refine(tree, [((), Leaf(degree=7))])
    for j in (0, 1):
        assert degree_by_index(refined, "L", j) == degree_by_index(tree, "L", j)
    assert refine(tree, []) == tree
    chain = tree_from_dict(CHAIN)
    branch = InternalNode(
        children=(ChildEdge(markings={"L": 99}, child=Leaf(degree=5)),)
    )  # markings are zeroed on insertion
    grown = refine(chain, [((), branch)])
    for j in (0, 1, 2):
        assert degree_by_index(grown, "L", j) == degree_by_index(chain, "L", j)
    with pytest.raises(TreeStructureError):
        refine(chain, [((), Leaf(degree=1))])  # depth violation


def test_refine_random_invariance():
    rng = random.Random(59)
    bundles = (("L", 1), ("M", 3))
    for _ in range(60):
        tree = random_tree(rng, rng.randint(1, 3), bundles)
        spots = internal_paths(tree)
        path = spots[rng.randrange(len(spots))]
        branch = random_zero_branch(
            rng, tree.labels, tree.dimension - len(path) - 1
        )
        refined = refine(tree, [(path, branch)])
        for label in ("L", "M"):
            for j in range(tree.dimension + 1):
                assert degree_by_index(refined, label, j) == degree_by_index(
                    tree, label, j
                )


def test_power_trivialization():
    chain = tree_from_dict(CHAIN)
    fixed = power_trivialization(chain, "L", 4, keep_denominator=False)
    scaled = power_trivialization(chain, "L", 4, keep_denominator=True)
    for level in (0, 1, 2):
        want = degree_truncated(chain, "L", level)
        assert degree_truncated(fixed, "L", level) == want
        assert degree_truncated(scaled, "L", level) == want * 4**2
    assert power_trivialization(chain, "L", 1, keep_denominator=True) == chain


def test_cover_examples():
    tree = tree_from_dict(TWO_LEAF)
    covered, delta = cover(tree, "L", identity_cover(tree.root, "L"))
    assert delta == 1 and covered == tree
    covered, delta = cover(tree, "L", replicate_cover(tree.root, "L", 2))
    assert delta == 2
    for level in (0, 1):
        assert degree_truncated(covered, "L", level) == 2 * degree_truncated(
            tree, "L", level
        )
    # split a +m edge into numerators (m, m) with relative degrees (1, 1)
    single = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [{"label": "L", "denominator": 1}],
            "root": {"children": [{"markings": {"L": 3}, "node": {"degree": 1}}]},
        }
    )
    plan = NodeCover(
        edges=(
            EdgeCover(pieces=((3, LeafCover(1)), (3, LeafCover(1)))),
        )
    )
    covered, delta = cover(single, "L", plan)
    assert delta == 2
    assert degree_truncated(covered, "L", 0) == 6
    # mixed-sign splits are rejected
    bad = NodeCover(edges=(EdgeCover(pieces=((6, LeafCover(1)), (-3, LeafCover(1)))),))
    with pytest.raises(InvalidCoverError):
        cover(single, "L", bad)


def test_cover_random_scaling():
    rng = random.Random(77)
    done = 0
    while done < 60:
        tree = random_tree(rng, rng.randint(1, 3), (("L", rng.choice((1, 2))),))
        delta = rng.randint(1, 3)
        try:
            plan = random_cover_plan(rng, tree.root, "L", delta)
            covered, got = cover(tree, "L", plan)
        except InvalidCoverError:
            continue  # all-zero top level: degree undetermined by the plan
        assert got == delta
        for level in range(tree.dimension + 1):
            assert degree_truncated(covered, "L", level) == delta * degree_truncated(
                tree, "L", level
            )
        done += 1


def test_ample_tree():
    tree = ample_tree(2, (1, 1))
    assert {degree_truncated(tree, "L", i) for i in range(3)} == {Fraction(1)}
    with pytest.raises(ValueError):
        ample_tree(2, (1, -1))
    for a in (2, 5):
        power = ample_tree(2, (a, a))
        assert degree_truncated(power, "L", 0) == a * a


def test_nef_difference_tree():
    tree = nef_difference_tree(2, 1, 1)
    assert [degree_by_index(tree, "L", j) for j in range(3)] == [1, -2, 1]
    for n in range(1, 6):
        for f, g in [
            (Fraction(1), Fraction(1)),
            (Fraction(1, 2), Fraction(2, 3)),
            (Fraction(3), Fraction(1, 5)),
        ]:
            t = nef_difference_tree(n, f, g)
            for j in range(n + 1):
                assert degree_by_index(t, "L", j) == (-1) ** j * comb(n, j) * f ** (
                    n - j
                ) * g**j
    plain = nef_difference_tree(3, Fraction(2), Fraction(0))
    for j in (1, 2, 3):
        assert degree_by_index(plain, "L", j) == 0


def test_max_marking_degree_examples():
    tree = tree_from_dict(
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
    options_of = label_options(tree, ["L1", "L2"])
    for level, expected in ((0, 1), (1, 2)):
        assert assignment_max_brute(tree.root, options_of, level) == expected
        assert max_marking_degree(tree, ["L1", "L2"], level) == expected
    with pytest.raises(ValueError):
        max_marking_degree(tree, [], 0)


def test_max_marking_degree_single_label_collapse():
    rng = random.Random(3)
    for _ in range(40):
        tree = random_tree(rng, rng.randint(1, 3), (("L", rng.choice((1, 2))),))
        for i in range(tree.dimension + 1):
            expected = (-1) ** i * degree_truncated(tree, "L", i)
            assert max_marking_degree(tree, ["L"], i) == expected


def test_max_marking_degree_brute_dp_random():
    rng = random.Random(8)
    bundles = (("L1", 1), ("L2", 2), ("L3", 1))
    for _ in range(80):
        tree = random_small_tree(rng, bundles, max_edges=8)
        labels = ["L1", "L2", "L3"][: rng.randint(1, 3)]
        i = rng.randint(0, tree.dimension)
        assert assignment_max_brute(
            tree.root, label_options(tree, labels), i
        ) == max_marking_degree(tree, labels, i)


def test_assignment_dp_tables_each_shared_subtree_once():
    # nef_difference_tree shares each level's subtree between both children:
    # 24 distinct edges at 8190 edge positions
    tree = nef_difference_tree(12, 2, 3)
    calls = {}

    def options_of(edge):
        calls[id(edge)] = calls.get(id(edge), 0) + 1
        return [Fraction(edge.markings[label], tree.denominator(label)) for label in "FGL"]

    value = assignment_max(tree.root, options_of, 2)
    assert value == max_marking_degree(tree, ["F", "G", "L"], 2)
    assert len(calls) == len({id(edge) for edge in tree.edges()}) == 24
    assert set(calls.values()) == {1}


def test_max_marking_degree_brute_dp_shared_subtrees():
    # brute force expands shared subtrees into independent edge positions
    cases = [(2, f, g, ["F", "G", "L"], i) for f, g in [(2, 3), (Fraction(1, 2), 1)]
             for i in range(3)]
    for n, f, g, labels, i in cases + [(3, 2, 3, ["G", "L"], 1)]:
        tree = nef_difference_tree(n, f, g)
        assert assignment_max_brute(
            tree.root, label_options(tree, labels), i
        ) == max_marking_degree(tree, labels, i)


def test_degree_sum_invariant_under_transformations():
    rng = random.Random(91)
    for _ in range(30):
        tree = random_tree(rng, rng.randint(1, 3), (("L", 2),))
        total = sum(
            (degree_by_index(tree, "L", j) for j in range(tree.dimension + 1)),
            Fraction(0),
        )
        refined = refine(
            tree, [((), random_zero_branch(rng, tree.labels, tree.dimension - 1))]
        )
        powered = power_trivialization(tree, "L", 3, keep_denominator=False)
        shuffled = StratTree(
            dimension=tree.dimension,
            bundles=tree.bundles,
            root=InternalNode(children=tuple(reversed(tree.root.children))),
        )
        for other in (refined, powered, shuffled):
            got = sum(
                (degree_by_index(other, "L", j) for j in range(tree.dimension + 1)),
                Fraction(0),
            )
            assert got == total


def test_validate_product_trivialization():
    tree = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L1", "denominator": 1},
                {"label": "L2", "denominator": 2},
                {"label": "N", "denominator": 1},
                {"label": "E", "denominator": 2},
            ],
            "root": {
                "children": [
                    # E/2 = L1 + L2/2 + N on the edge: 5/2 = 1 + 1/2 + 1
                    {
                        "markings": {"L1": 1, "L2": 1, "N": 1, "E": 5},
                        "node": {"degree": 1},
                    }
                ]
            },
        }
    )
    assert validate_product_trivialization(tree, ["L1", "L2"], "E", "N")
    perturbed = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L1", "denominator": 1},
                {"label": "L2", "denominator": 2},
                {"label": "N", "denominator": 1},
                {"label": "E", "denominator": 2},
            ],
            "root": {
                "children": [
                    {
                        "markings": {"L1": 2, "L2": 1, "N": 1, "E": 5},
                        "node": {"degree": 1},
                    }
                ]
            },
        }
    )
    assert not validate_product_trivialization(perturbed, ["L1", "L2"], "E", "N")
    zero_aux = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
                {"label": "E", "denominator": 1},
            ],
            "root": {
                "children": [
                    {"markings": {"L": 4, "N": 0, "E": 4}, "node": {"degree": 1}}
                ]
            },
        }
    )
    assert validate_product_trivialization(zero_aux, ["L"], "E", "N")


def _cover_case(tree_dict, plan):
    return lambda: cover(tree_from_dict(tree_dict), "L", plan)


def _refine_case(tree_dict, insertions):
    return lambda: refine(tree_from_dict(tree_dict), insertions)


def _one_edge(marking):
    return {
        "dimension": 1,
        "bundles": [{"label": "L", "denominator": 1}],
        "root": {"children": [{"markings": {"L": marking}, "node": {"degree": 1}}]},
    }


CHILDLESS = {"dimension": 1, "bundles": [{"label": "L", "denominator": 1}],
             "root": {"children": []}}
ONE_STEP = InternalNode(children=(ChildEdge(markings={"L": 0}, child=Leaf(degree=1)),))


def _pieces(*pieces):
    return EdgeCover(pieces=tuple(pieces))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            _cover_case(TWO_LEAF, LeafCover(1)),
            InvalidCoverError, "leaf plan attached to an internal node",
            id="leaf-plan-on-internal-node",
        ),
        pytest.param(
            _cover_case(_one_edge(3), NodeCover(edges=(_pieces((3, NodeCover(edges=()))),))),
            InvalidCoverError, "node plan attached to a leaf",
            id="node-plan-on-leaf",
        ),
        pytest.param(
            _cover_case(TWO_LEAF, NodeCover(edges=(_pieces((2, LeafCover(1))),))),
            InvalidCoverError, "plan covers 1 edges, node has 2",
            id="wrong-edge-count",
        ),
        pytest.param(
            _cover_case(_one_edge(0), NodeCover(edges=(_pieces((1, LeafCover(1))),))),
            InvalidCoverError, "zero-marked edge must split with zero numerators",
            id="zero-edge-nonzero-piece",
        ),
        pytest.param(
            _cover_case(_one_edge(3), NodeCover(edges=(_pieces((3, LeafCover(1)), (-3, LeafCover(1))),))),
            InvalidCoverError, "piece numerator -3 does not preserve the sign of 3",
            id="sign-flip",
        ),
        pytest.param(
            _cover_case(_one_edge(3), NodeCover(edges=(_pieces((2, LeafCover(1))),))),
            InvalidCoverError, "projection sum 2 is not a positive integer multiple of 3",
            id="projection-not-a-multiple",
        ),
        pytest.param(
            _cover_case(TWO_LEAF, NodeCover(edges=(_pieces((2, LeafCover(1))),
                                                   _pieces((-1, LeafCover(2)))))),
            InvalidCoverError, "inconsistent covering degrees 1 and 2 at one node",
            id="inconsistent-degrees",
        ),
        pytest.param(
            _cover_case(CHILDLESS, NodeCover(edges=())),
            InvalidCoverError, "covering degree is undetermined: the node has no children",
            id="childless-node",
        ),
        pytest.param(
            # the first edge's projection fault is met before the second
            # edge's sub-plan is visited
            _cover_case(TWO_LEAF, NodeCover(edges=(_pieces((1, LeafCover(1))),
                                                   _pieces((-1, NodeCover(edges=())))))),
            InvalidCoverError, "projection sum 1 is not a positive integer multiple of 2",
            id="first-fault-in-walk-order",
        ),
        pytest.param(
            _refine_case(TWO_LEAF, [((0, 0), Leaf(degree=1))]),
            TreeStructureError, "path (0, 0) descends through a leaf",
            id="path-through-leaf",
        ),
        pytest.param(
            _refine_case(TWO_LEAF, [((2,), Leaf(degree=1))]),
            TreeStructureError, "path (2,) leaves the tree",
            id="path-leaves-tree",
        ),
        pytest.param(
            _refine_case(TWO_LEAF, [((-3,), Leaf(degree=1))]),
            TreeStructureError, "path (-3,) leaves the tree",
            id="negative-path-leaves-tree",
        ),
        pytest.param(
            _refine_case(TWO_LEAF, [((0,), Leaf(degree=1))]),
            TreeStructureError, "cannot attach a branch below a leaf at path (0,)",
            id="attach-below-leaf",
        ),
        pytest.param(
            # insertions apply in order: the second one walks the grown tree
            _refine_case(CHAIN, [((), ONE_STEP), ((1, 0), Leaf(degree=1))]),
            TreeStructureError, "cannot attach a branch below a leaf at path (1, 0)",
            id="attach-below-inserted-leaf",
        ),
    ],
)
def test_cover_and_refine_error_paths(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_refine_negative_child_index_counts_from_the_end():
    chain = tree_from_dict(CHAIN)
    assert refine(chain, [((-1,), Leaf(degree=4))]) == refine(chain, [((0,), Leaf(degree=4))])


def _tree(root, dimension=1, bundles=({"label": "L", "denominator": 1},)):
    return {"dimension": dimension, "bundles": list(bundles), "root": root}


def _edge(node, **markings):
    return {"markings": markings or {"L": 1}, "node": node}


def _internal(*entries):
    return {"children": list(entries)}


LEAF = {"degree": 1}
# a subtree of depth 1, placed once at depth 1 (valid) and once at depth 2
DEPTH_ONE = _internal(_edge(LEAF))


@pytest.mark.parametrize(
    "data, error, message",
    [
        pytest.param([], TreeStructureError, "tree must be an object", id="top-level-list"),
        pytest.param("tree", TreeStructureError, "tree must be an object", id="top-level-str"),
        pytest.param({}, TreeStructureError, "missing field 'dimension' in tree",
                     id="missing-dimension"),
        pytest.param({"dimension": 1}, TreeStructureError, "missing field 'bundles' in tree",
                     id="missing-bundles"),
        pytest.param({"dimension": 1, "bundles": []}, TreeStructureError,
                     "missing field 'root' in tree", id="missing-root"),
        pytest.param(_tree(LEAF, dimension=True), TreeStructureError,
                     "field 'dimension' in tree must be int, got bool", id="bool-dimension"),
        pytest.param(_tree(LEAF, dimension="1"), TreeStructureError,
                     "field 'dimension' in tree must be int, got str", id="str-dimension"),
        pytest.param({"dimension": 1, "bundles": {}, "root": LEAF}, TreeStructureError,
                     "field 'bundles' in tree must be list, got dict", id="dict-bundles"),
        pytest.param(_tree(LEAF, bundles=[["L", 1]]), TreeStructureError,
                     "field 'bundles'[0] must be an object", id="bundle-not-object"),
        pytest.param(_tree(LEAF, bundles=[{"label": "L", "denominator": 1}, {"denominator": 1}]),
                     TreeStructureError, "missing field 'label' in bundles[1]",
                     id="missing-label"),
        pytest.param(_tree(LEAF, bundles=[{"label": "L"}]), TreeStructureError,
                     "missing field 'denominator' in bundles[0]", id="missing-denominator"),
        pytest.param(_tree(LEAF, bundles=[{"label": 7, "denominator": 1}]), TreeStructureError,
                     "field 'label' in bundles[0] must be str, got int", id="int-label"),
        pytest.param(_tree(LEAF, bundles=[{"label": "L", "denominator": False}]),
                     TreeStructureError,
                     "field 'denominator' in bundles[0] must be int, got bool",
                     id="bool-denominator"),
        pytest.param(_tree(LEAF, bundles=[{"label": "L", "denominator": 1.0}]),
                     TreeStructureError,
                     "field 'denominator' in bundles[0] must be int, got float",
                     id="float-denominator"),
        pytest.param(_tree([LEAF]), TreeStructureError,
                     "field 'root' in tree must be Mapping, got list", id="root-not-object"),
        pytest.param(_tree({}), TreeStructureError, "missing field 'children' in root",
                     id="missing-children"),
        pytest.param(_tree({"children": {}}), TreeStructureError,
                     "field 'children' in root must be list, got dict", id="dict-children"),
        pytest.param(_tree(_internal(_edge(LEAF), 3)), TreeStructureError,
                     "field 'children'[1] at root must be an object", id="child-not-object"),
        pytest.param(_tree(_internal({"node": LEAF})), TreeStructureError,
                     "missing field 'markings' in root.children[0]", id="missing-markings"),
        pytest.param(_tree(_internal({"markings": [1], "node": LEAF})), TreeStructureError,
                     "field 'markings' in root.children[0] must be Mapping, got list",
                     id="list-markings"),
        pytest.param(_tree(_internal(_edge(LEAF, M=1))), TreeStructureError,
                     "unknown label 'M' in markings at root.children[0]", id="unknown-label"),
        pytest.param(_tree(_internal(_edge(LEAF, L=1.5))), TreeStructureError,
                     "marking 'L' at root.children[0] must be an integer", id="float-marking"),
        pytest.param(_tree(_internal(_edge(LEAF, L=True))), TreeStructureError,
                     "marking 'L' at root.children[0] must be an integer", id="bool-marking"),
        pytest.param(_tree(_internal(_edge(LEAF, L="1"))), TreeStructureError,
                     "marking 'L' at root.children[0] must be an integer", id="str-marking"),
        pytest.param(_tree(_internal({"markings": {"L": 1}})), TreeStructureError,
                     "missing field 'node' in root.children[0]", id="missing-node"),
        pytest.param(_tree(_internal({"markings": {"L": 1}, "node": 1})), TreeStructureError,
                     "field 'node' in root.children[0] must be Mapping, got int",
                     id="int-node"),
        pytest.param(_tree(_internal(_edge({"degree": True}))), TreeStructureError,
                     "field 'degree' in root.children[0].node must be int, got bool",
                     id="bool-degree"),
        pytest.param(_tree(_internal(_edge({"degree": None}))), TreeStructureError,
                     "field 'degree' in root.children[0].node must be int, got NoneType",
                     id="null-degree"),
        pytest.param(
            _tree(_internal(_edge(DEPTH_ONE), _edge(_internal(_edge(LEAF), _edge(LEAF, M=2)))),
                  dimension=2),
            TreeStructureError, "unknown label 'M' in markings at root.children[1].node.children[1]",
            id="unknown-label-two-deep",
        ),
        pytest.param(
            _tree(_internal(_edge(DEPTH_ONE), _edge(_internal(_edge({})))), dimension=2),
            TreeStructureError, "missing field 'children' in root.children[1].node.children[0].node",
            id="missing-children-two-deep",
        ),
        pytest.param(
            # faults are met in walk order: the first child's subtree first
            _tree(_internal(_edge(_internal(_edge({"degree": "2"}))), _edge(LEAF, M=1)),
                  dimension=2),
            TreeStructureError,
            "field 'degree' in root.children[0].node.children[0].node must be int, got str",
            id="first-fault-in-walk-order",
        ),
        pytest.param(MappingProxyType({"dimension": 1, "bundles": []}), TreeStructureError,
                     "missing field 'root' in tree", id="mapping-top-level"),
        pytest.param(_tree(MappingProxyType(_internal(_edge(LEAF, L=-1.0)))),
                     TreeStructureError, "marking 'L' at root.children[0] must be an integer",
                     id="mapping-root"),
        pytest.param(_tree(LEAF, dimension=-1), TreeStructureError,
                     "dimension must be >= 0, got -1", id="negative-dimension"),
        pytest.param(_tree(LEAF, bundles=[{"label": "L", "denominator": 1}] * 2),
                     TreeStructureError, "duplicate bundle labels in ['L', 'L']",
                     id="duplicate-labels"),
        pytest.param(_tree(LEAF, bundles=[{"label": "L", "denominator": 0}]),
                     TreeStructureError, "denominator of 'L' must be >= 1, got 0",
                     id="zero-denominator"),
        pytest.param(_tree(_internal(_edge({"degree": 0}))), TreeStructureError,
                     "leaf degree must be >= 1, got 0", id="zero-degree"),
        pytest.param(_tree(_internal(_edge(LEAF)), dimension=2), TreeStructureError,
                     "leaf at depth 1, expected uniform depth 2", id="shallow-leaf"),
        pytest.param(_tree(_internal(_edge(DEPTH_ONE))), TreeStructureError,
                     "internal node at depth 1 exceeds dimension 1", id="deep-internal-node"),
        pytest.param(
            # equal leaves at depths 2 and 1
            _tree(_internal(_edge(DEPTH_ONE), _edge(LEAF)), dimension=2),
            TreeStructureError, "leaf at depth 1, expected uniform depth 2",
            id="equal-leaf-at-wrong-depth",
        ),
        pytest.param(
            # equal depth-one subtrees at depths 1 and 2
            _tree(_internal(_edge(DEPTH_ONE), _edge(_internal(_edge(DEPTH_ONE)))), dimension=2),
            TreeStructureError, "internal node at depth 2 exceeds dimension 2",
            id="equal-subtree-at-wrong-depth",
        ),
    ],
)
def test_tree_from_dict_error_paths(data, error, message):
    with pytest.raises(error) as excinfo:
        tree_from_dict(data)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def _distinct_nodes_and_edges(root):
    nodes, edges, stack = {}, {}, [root]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        for edge in getattr(node, "children", ()):
            edges[id(edge)] = edge
            stack.append(edge.child)
    return len(nodes), len(edges)


def test_parsed_nef_tree_holds_one_object_per_distinct_subtree():
    # through JSON text, so every position arrives as its own dict
    data = json.loads(json.dumps(tree_to_dict(nef_difference_tree(11, 2, 3))))
    tree = tree_from_dict(data)
    assert _distinct_nodes_and_edges(tree.root) == (12, 22)
    assert tree.edge_count() == 2**12 - 2
    assert sum(1 for _ in tree.edges()) == 2**12 - 2
    assert tree_to_dict(tree) == data
    assert degree_by_index(tree, "L", 4) == comb(11, 4) * 2**7 * 3**4


def test_validation_walks_distinct_nodes():
    # 2^41 - 2 edge positions on 41 distinct nodes: validating by position
    # would not finish
    tree = nef_difference_tree(40, 1, 1)
    assert tree.denominator("G") == 1
    with pytest.raises(UnknownLabelError, match="label 'X' is not declared"):
        tree.denominator("X")
