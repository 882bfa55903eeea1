"""Marked stratification trees and their truncated degree calculus.

A stratification tree of dimension n is a rooted tree in which every
root-to-leaf path has exactly n edges.  A set of bundle labels is declared
up front, each with a positive integer denominator d; every edge carries an
integer numerator m per label, the effective marking being the rational
m/d.  Leaves carry positive integer degrees.

For a label L, a root-to-leaf path has *index* equal to its number of
strictly negative effective L-markings, and contributes the product of its
markings times its leaf degree.  The central quantities are

    degree_by_index(T, L, l)  = sum over paths of index exactly l,
    degree_truncated(T, L, l) = sum over paths of index at most l,

both computed by :func:`truncated_sum`, the sign-splitting recursion
(positive children keep the index budget, negative children consume one
unit), on the integer numerators: every path has exactly n edges, so one
division by d^n at the end gives the exact value.  :func:`path_degrees`
enumerates every path instead; it is exponential in n and is kept as the
independent oracle for the recursion.

The module also provides structure-preserving transformations with exactly
computable effect on truncated degrees: refinements by zero-marked
branches (degrees unchanged), powers of the markings (degrees scale by f^n
or stay fixed depending on whether the denominator absorbs the power),
finite covers satisfying a per-edge projection-formula constraint (degrees
scale by the covering degree), model trees for ample bundles and for nef
differences, and the assignment maximum: the largest signed truncated
degree over all ways of assigning one declared label to each edge, by the
same recursion carrying a (max, min) pair (a negative choice swaps them)
over numerators scaled to the lcm of the labels' denominators, with
enumeration of every assignment (:func:`assignment_max_brute`) as oracle.

A cover plan or a refinement path is checked in the same walk that builds
the new tree, and the first fault met in that walk is the one reported.

Trees are immutable after construction; all operations are pure.  Subtrees
may be shared in memory, and :func:`tree_from_dict` shares every pair of
structurally equal ones; the recursions memoize on node identity, so they
cost the distinct subtrees, not the positions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .ring import Scalar


class TreeStructureError(ValueError):
    """Structural or parse-level violation of the tree format."""


class UnknownLabelError(ValueError):
    """A bundle label that was never declared."""


class InvalidCoverError(ValueError):
    """A cover plan violates the projection-formula or sign constraints."""


@dataclass(frozen=True)
class Leaf:
    degree: int


@dataclass(frozen=True)
class ChildEdge:
    markings: dict[str, int]
    child: "Node"


@dataclass(frozen=True)
class InternalNode:
    children: tuple[ChildEdge, ...]


Node = Leaf | InternalNode


@dataclass(frozen=True)
class StratTree:
    """dimension n, declared (label, denominator) pairs, and the root node.

    Construction validates: uniform depth n, leaf degrees >= 1, positive
    denominators, unique labels, and complete marking maps (one integer
    numerator per declared label on every edge).  A node shared in memory
    is checked once per depth it is reached at.
    """

    dimension: int
    bundles: tuple[tuple[str, int], ...]
    root: Node

    def __post_init__(self) -> None:
        if self.dimension < 0:
            raise TreeStructureError(f"dimension must be >= 0, got {self.dimension}")
        names = [label for label, _ in self.bundles]
        if len(set(names)) != len(names):
            raise TreeStructureError(f"duplicate bundle labels in {names}")
        for label, den in self.bundles:
            if den < 1:
                raise TreeStructureError(
                    f"denominator of {label!r} must be >= 1, got {den}"
                )
        label_set = set(names)
        checked: set[tuple[int, int]] = set()

        def walk(node: Node, depth: int) -> None:
            if isinstance(node, Leaf):
                if depth != self.dimension:
                    raise TreeStructureError(
                        f"leaf at depth {depth}, expected uniform depth {self.dimension}"
                    )
                if node.degree < 1:
                    raise TreeStructureError(
                        f"leaf degree must be >= 1, got {node.degree}"
                    )
                return
            if (id(node), depth) in checked:
                return
            checked.add((id(node), depth))
            if depth >= self.dimension:
                raise TreeStructureError(
                    f"internal node at depth {depth} exceeds dimension {self.dimension}"
                )
            for edge in node.children:
                if set(edge.markings) != label_set:
                    raise TreeStructureError(
                        f"edge markings {sorted(edge.markings)} do not match "
                        f"declared labels {sorted(label_set)}"
                    )
                walk(edge.child, depth + 1)

        walk(self.root, 0)

    # -- accessors ---------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.bundles)

    def denominator(self, label: str) -> int:
        for name, den in self.bundles:
            if name == label:
                return den
        raise UnknownLabelError(f"label {label!r} is not declared")

    def effective(self, edge: ChildEdge, label: str) -> Fraction:
        """The rational marking numerator/denominator of an edge for a label."""
        return Fraction(edge.markings[label], self.denominator(label))

    def paths(self) -> Iterator[tuple[tuple[ChildEdge, ...], Leaf]]:
        """All root-to-leaf paths as (edge sequence, leaf)."""

        def walk(node: Node, prefix: tuple[ChildEdge, ...]):
            if isinstance(node, Leaf):
                yield prefix, node
                return
            for edge in node.children:
                yield from walk(edge.child, prefix + (edge,))

        yield from walk(self.root, ())

    def edges(self) -> Iterator[ChildEdge]:
        """Every edge position in pre-order: an edge, then the edges below it.

        An edge object reached along several paths (trees may share
        subtrees, and parsed trees share every equal pair) is yielded once
        per position.
        """
        return _edges(self.root)

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())


def _edges(node: Node) -> Iterator[ChildEdge]:
    if isinstance(node, InternalNode):
        for edge in node.children:
            yield edge
            yield from _edges(edge.child)


# -- JSON-style dict round trip ----------------------------------------------


def _require(d: Mapping, field: str, kind, where: str):
    if field not in d:
        raise TreeStructureError(f"missing field {field!r} in {where}")
    value = d[field]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TreeStructureError(
            f"field {field!r} in {where} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def tree_from_dict(data: Mapping) -> StratTree:
    """Parse a tree from its dict form.

    Schema: ``{"dimension": n, "bundles": [{"label": str, "denominator": int},
    ...], "root": node}`` with internal nodes ``{"children": [{"markings":
    {label: int}, "node": node}, ...]}`` and leaves ``{"degree": int}``.
    Markings may omit labels (numerator 0); unknown labels are an error.

    Structurally equal subtrees are returned as one shared object: a unique
    table, kept for the call, maps a leaf's degree, or an internal node's
    per-child (numerators in declared-label order, child identity), to the
    node built first (hash-consing).  The tree is therefore held and
    validated in the size of its distinct subtrees, and the memos keyed on
    node identity hit; :func:`tree_to_dict` still emits every position.
    """
    if not isinstance(data, Mapping):
        raise TreeStructureError("tree must be an object")
    dimension = _require(data, "dimension", int, "tree")
    bundles_raw = _require(data, "bundles", list, "tree")
    bundles = []
    for i, b in enumerate(bundles_raw):
        if not isinstance(b, Mapping):
            raise TreeStructureError(f"field 'bundles'[{i}] must be an object")
        label = _require(b, "label", str, f"bundles[{i}]")
        den = _require(b, "denominator", int, f"bundles[{i}]")
        bundles.append((label, den))
    labels = [label for label, _ in bundles]
    label_set = set(labels)
    # leaves are keyed on their degree (an int), internal nodes on a tuple
    unique: dict[object, Node] = {}
    # child indices from the root down to the node being parsed; locations
    # in messages are spelled out only when an error is raised
    trail: list[int] = []

    def where(i: int | None = None) -> str:
        node = "root" + "".join(f".children[{j}].node" for j in trail)
        return node if i is None else f"{node}.children[{i}]"

    def parse_node(d: Mapping) -> Node:
        # json.load gives plain dicts, lists and ints; the exact type tests
        # pass those, and anything else gets the full checks
        if "degree" in d:
            degree = d["degree"]
            if type(degree) is not int:
                degree = _require(d, "degree", int, where())
            if degree not in unique:
                unique[degree] = Leaf(degree=degree)
            return unique[degree]
        children = d.get("children")
        if type(children) is not list:
            children = _require(d, "children", list, where())
        parsed = []
        for i, entry in enumerate(children):
            if type(entry) is not dict and not isinstance(entry, Mapping):
                raise TreeStructureError(
                    f"field 'children'[{i}] at {where()} must be an object"
                )
            markings = entry.get("markings")
            if type(markings) is not dict:
                markings = _require(entry, "markings", Mapping, where(i))
            for key, value in markings.items():
                if key not in label_set:
                    raise TreeStructureError(
                        f"unknown label {key!r} in markings at {where(i)}"
                    )
                if type(value) is not int and (
                    not isinstance(value, int) or isinstance(value, bool)
                ):
                    raise TreeStructureError(
                        f"marking {key!r} at {where(i)} must be an integer"
                    )
            numerators = tuple([int(markings.get(label, 0)) for label in labels])
            node = entry.get("node")
            if type(node) is not dict:
                node = _require(entry, "node", Mapping, where(i))
            trail.append(i)
            parsed.append((numerators, parse_node(node)))
            trail.pop()
        key = tuple([(numerators, id(child)) for numerators, child in parsed])
        if key not in unique:
            unique[key] = InternalNode(
                children=tuple(
                    ChildEdge(markings=dict(zip(labels, numerators)), child=child)
                    for numerators, child in parsed
                )
            )
        return unique[key]

    root = parse_node(_require(data, "root", Mapping, "tree"))
    return StratTree(dimension=dimension, bundles=tuple(bundles), root=root)


def tree_to_dict(tree: StratTree) -> dict:
    """Serialize to the dict form; reparsing yields an equal tree."""

    def emit(node: Node) -> dict:
        if isinstance(node, Leaf):
            return {"degree": node.degree}
        return {
            "children": [
                {"markings": dict(edge.markings), "node": emit(edge.child)}
                for edge in node.children
            ]
        }

    return {
        "dimension": tree.dimension,
        "bundles": [
            {"label": label, "denominator": den} for label, den in tree.bundles
        ],
        "root": emit(tree.root),
    }


# -- truncated degrees ---------------------------------------------------------


def _signed_range(
    root: Node, options_of: Callable[[ChildEdge], Sequence[Scalar]], max_index: int
) -> tuple[Scalar, Scalar]:
    """(max, min) over per-edge choices among ``options_of(edge)`` of the
    sum over paths with at most ``max_index`` negative choices.

    A positive choice keeps the index budget and scales the child's (max,
    min), a negative one consumes one unit and swaps them, a zero kills its
    path, a leaf returns its degree and a negative budget returns 0.
    Choices in disjoint subtrees are independent, so results are memoized
    on (node identity, budget): a shared subtree is evaluated once per budget,
    and ``options_of`` is called once per edge object.
    """
    memo: dict[tuple[int, int], tuple[Scalar, Scalar]] = {}
    options: dict[int, Sequence[Scalar]] = {}

    def rec(node: Node, budget: int) -> tuple[Scalar, Scalar]:
        if budget < 0:
            return 0, 0
        if isinstance(node, Leaf):
            return node.degree, node.degree
        key = (id(node), budget)
        if key not in memo:
            high = low = 0
            for edge in node.children:
                if id(edge) not in options:
                    options[id(edge)] = options_of(edge)
                best = worst = None
                for value in options[id(edge)]:
                    if value > 0:
                        child_high, child_low = rec(edge.child, budget)
                        hi, lo = value * child_high, value * child_low
                    elif value < 0:
                        child_high, child_low = rec(edge.child, budget - 1)
                        hi, lo = value * child_low, value * child_high
                    else:
                        hi = lo = 0
                    best = hi if best is None or hi > best else best
                    worst = lo if worst is None or lo < worst else worst
                high += best
                low += worst
            memo[key] = high, low
        return memo[key]

    return rec(root, max_index)


def truncated_sum(
    root: Node, value_of: Callable[[ChildEdge], Scalar], max_index: int
) -> Fraction:
    """Sum over root-to-leaf paths with at most ``max_index`` strictly
    negative edge values of the product of the values times the leaf degree.

    The sign-splitting recursion with one choice per edge, where the
    maximum and the minimum agree; ``value_of`` is called once per edge
    object.
    """
    total, _ = _signed_range(root, lambda edge: (value_of(edge),), max_index)
    return Fraction(total)


def degree_truncated(tree: StratTree, label: str, max_index: int) -> Fraction:
    """Sum of marking products times leaf degrees over paths of index at
    most max_index."""
    den = tree.denominator(label)
    total = truncated_sum(tree.root, lambda edge: edge.markings[label], max_index)
    return total / den**tree.dimension


def degree_by_index(tree: StratTree, label: str, index: int) -> Fraction:
    """Sum of marking products times leaf degrees over paths of exact index."""
    den = tree.denominator(label)

    def upto(level: int) -> Fraction:
        return truncated_sum(tree.root, lambda edge: edge.markings[label], level)

    return (upto(index) - upto(index - 1)) / den**tree.dimension


def path_degrees(tree: StratTree, label: str) -> list[Fraction]:
    """The by-index degrees for indices 0..n, by enumerating every path.

    Exponential in n: the independent oracle that the recursion behind
    :func:`degree_truncated` and :func:`degree_by_index` is tested against.
    """
    den = tree.denominator(label)
    by_index = [Fraction(0)] * (tree.dimension + 1)
    for edges, leaf in tree.paths():
        product = Fraction(leaf.degree)
        negatives = 0
        for edge in edges:
            value = Fraction(edge.markings[label], den)
            negatives += value < 0
            product *= value
        by_index[negatives] += product
    return by_index


def assignment_max_brute(
    root: Node,
    options_of: Callable[[ChildEdge], Sequence[Fraction]],
    max_index: int,
) -> Fraction:
    """:func:`assignment_max` by enumerating every assignment.

    Exponential in the number of edge positions: the independent oracle
    that the (max, min) recursion is tested against.  Shared subtrees
    are expanded so that every edge position chooses on its own, and each
    assignment is scored by :func:`truncated_sum`.
    """
    if max_index < 0:
        return Fraction(0)
    sign = -1 if max_index % 2 else 1
    expanded = _remark(root, lambda edge: edge.markings)
    edges = list(_edges(expanded))
    best: Fraction | None = None
    for combo in itertools.product(*(options_of(e) for e in edges)):
        choice = {id(e): v for e, v in zip(edges, combo)}
        value = sign * truncated_sum(expanded, lambda e: choice[id(e)], max_index)
        if best is None or value > best:
            best = value
    assert best is not None
    return best


# -- refinements ----------------------------------------------------------------


def _remark(node: Node, markings_of: Callable[[ChildEdge], dict[str, int]]) -> Node:
    """Copy of a branch whose edges carry ``markings_of(edge)`` (leaves kept).

    Every edge position gets its own new edge object, even where the
    original shares a subtree.
    """
    if isinstance(node, Leaf):
        return node
    return InternalNode(
        children=tuple(
            ChildEdge(markings=markings_of(e), child=_remark(e.child, markings_of))
            for e in node.children
        )
    )


def refine(
    tree: StratTree, insertions: Sequence[tuple[Sequence[int], Node]]
) -> StratTree:
    """Attach extra zero-marked branches; all truncated degrees are unchanged.

    Each insertion is (path, branch): ``path`` is a sequence of child
    indices addressing an internal node, and ``branch`` is grafted there as
    a new last child whose connecting edge and entire interior carry
    marking 0 for every label (its markings, if any, are ignored; leaf
    degrees are kept).  The branch depth must keep the tree uniform.
    Insertions are applied in order against the evolving tree.
    """
    result = tree
    for path, branch in insertions:
        path = tuple(path)
        cleaned = _remark(branch, lambda edge: {label: 0 for label in result.labels})
        new_edge = ChildEdge(
            markings={label: 0 for label in result.labels}, child=cleaned
        )

        def rebuild(node: Node, depth: int) -> Node:
            if isinstance(node, Leaf):
                if depth == len(path):
                    raise TreeStructureError(
                        f"cannot attach a branch below a leaf at path {path}"
                    )
                raise TreeStructureError(f"path {path} descends through a leaf")
            if depth == len(path):
                return InternalNode(children=node.children + (new_edge,))
            edges = list(node.children)
            try:
                edge = edges[path[depth]]
            except IndexError:
                raise TreeStructureError(f"path {path} leaves the tree") from None
            edges[path[depth]] = ChildEdge(
                markings=edge.markings, child=rebuild(edge.child, depth + 1)
            )
            return InternalNode(children=tuple(edges))

        result = StratTree(
            dimension=result.dimension,
            bundles=result.bundles,
            root=rebuild(result.root, 0),
        )
    return result


# -- powers of the marking data ---------------------------------------------------


def power_trivialization(
    tree: StratTree, label: str, f: int, keep_denominator: bool
) -> StratTree:
    """Raise the marking data of one label to the f-th power.

    Numerators of ``label`` are multiplied by f everywhere.  With
    ``keep_denominator=True`` the denominator stays fixed, so every
    n-dimensional truncated degree scales by f^n; with
    ``keep_denominator=False`` the denominator is multiplied by f as well
    and every truncated degree is unchanged.
    """
    if f < 1:
        raise ValueError(f"power must be >= 1, got {f}")
    tree.denominator(label)
    root = _remark(
        tree.root,
        lambda edge: {
            key: value * f if key == label else value
            for key, value in edge.markings.items()
        },
    )
    bundles = tuple(
        (name, den if keep_denominator or name != label else den * f)
        for name, den in tree.bundles
    )
    return StratTree(dimension=tree.dimension, bundles=bundles, root=root)


# -- finite covers -----------------------------------------------------------------


@dataclass(frozen=True)
class LeafCover:
    """One covering point of a leaf, with its relative degree."""

    multiplier: int

    def __post_init__(self) -> None:
        if self.multiplier < 1:
            raise InvalidCoverError(f"leaf multiplier must be >= 1, got {self.multiplier}")


@dataclass(frozen=True)
class EdgeCover:
    """The pieces an edge splits into: (new numerator, subtree cover) pairs."""

    pieces: tuple[tuple[int, "NodeCover | LeafCover"], ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise InvalidCoverError("an edge must split into at least one piece")


@dataclass(frozen=True)
class NodeCover:
    """Per-child-edge split plans, aligned with the node's children."""

    edges: tuple[EdgeCover, ...]


def _cover(plan: "NodeCover | LeafCover", node: Node, label: str) -> tuple[Node, int]:
    """The covered branch and the relative covering degree of a plan over it.

    The plan is checked while the branch is built.  The degree is read off
    the projection sums of the edges whose original numerator is nonzero
    (all must agree, and each sum must be a positive integer multiple of
    its numerator).  If every child edge is zero-marked the markings carry
    no ramification information; the convention is then that pieces are
    unramified, so the degree is the common sum of the pieces' degrees per
    edge.
    """
    if isinstance(plan, LeafCover):
        if not isinstance(node, Leaf):
            raise InvalidCoverError("leaf plan attached to an internal node")
        return Leaf(degree=plan.multiplier * node.degree), plan.multiplier
    if not isinstance(node, InternalNode):
        raise InvalidCoverError("node plan attached to a leaf")
    if len(plan.edges) != len(node.children):
        raise InvalidCoverError(
            f"plan covers {len(plan.edges)} edges, node has {len(node.children)}"
        )
    any_marked = any(edge.markings[label] != 0 for edge in node.children)
    delta: int | None = None
    edges: list[ChildEdge] = []
    for edge, edge_plan in zip(node.children, plan.edges):
        m = edge.markings[label]
        total = 0
        piece_degrees = 0
        for new_num, sub in edge_plan.pieces:
            if m == 0 and new_num != 0:
                raise InvalidCoverError("zero-marked edge must split with zero numerators")
            if m > 0 and new_num < 0 or m < 0 and new_num > 0:
                raise InvalidCoverError(
                    f"piece numerator {new_num} does not preserve the sign of {m}"
                )
            child, sub_degree = _cover(sub, edge.child, label)
            edges.append(ChildEdge(markings={**edge.markings, label: new_num}, child=child))
            total += new_num * sub_degree
            piece_degrees += sub_degree
        if m != 0:
            if total % m != 0 or total // m < 1:
                raise InvalidCoverError(
                    f"projection sum {total} is not a positive integer multiple of {m}"
                )
            d = total // m
        elif not any_marked:
            d = piece_degrees  # unramified convention on all-zero nodes
        else:
            continue  # zero-marked edge next to marked ones: unconstrained
        if delta is None:
            delta = d
        elif delta != d:
            raise InvalidCoverError(
                f"inconsistent covering degrees {delta} and {d} at one node"
            )
    if delta is None:
        raise InvalidCoverError(
            "covering degree is undetermined: the node has no children"
        )
    return InternalNode(children=tuple(edges)), delta


def cover(
    tree: StratTree, label: str, plan: "NodeCover | LeafCover"
) -> tuple[StratTree, int]:
    """Apply a finite-cover plan; truncated degrees for ``label`` scale by delta.

    Each edge with numerator m splits into pieces with new numerators m'_j
    (sharing the sign of m, or zero) and sub-plans of relative degrees
    delta_j, subject to the projection constraint sum_j m'_j delta_j =
    delta * m for the node's single relative degree delta; the global delta
    is computed from the plan, never trusted from the caller.  Markings of
    other labels are copied unchanged onto each piece; covered leaves
    multiply their degrees by their piece's relative degree.
    """
    tree.denominator(label)
    root, delta = _cover(plan, tree.root, label)
    return StratTree(dimension=tree.dimension, bundles=tree.bundles, root=root), delta


def identity_cover(node: Node, label: str) -> "NodeCover | LeafCover":
    """The trivial plan: every edge keeps its numerator, delta = 1."""
    if isinstance(node, Leaf):
        return LeafCover(multiplier=1)
    return NodeCover(
        edges=tuple(
            EdgeCover(
                pieces=((edge.markings[label], identity_cover(edge.child, label)),)
            )
            for edge in node.children
        )
    )


def replicate_cover(node: Node, label: str, copies: int) -> "NodeCover | LeafCover":
    """Duplicate every top-level child ``copies`` times with identical
    markings and subtrees; the covering degree is ``copies``."""
    if copies < 1:
        raise InvalidCoverError(f"copies must be >= 1, got {copies}")
    if isinstance(node, Leaf):
        return LeafCover(multiplier=copies)
    return NodeCover(
        edges=tuple(
            EdgeCover(
                pieces=tuple(
                    (edge.markings[label], identity_cover(edge.child, label))
                    for _ in range(copies)
                )
            )
            for edge in node.children
        )
    )


# -- model trees ------------------------------------------------------------------


def ample_tree(
    n: int,
    markings: Sequence[int],
    leaf_degree: int = 1,
    label: str = "L",
    denominator: int = 1,
) -> StratTree:
    """A single-chain tree with strictly positive markings.

    Every path has index 0, so all truncated degrees of every level agree
    with the full degree prod(markings)/denominator^n * leaf_degree.
    """
    if len(markings) != n:
        raise ValueError(f"need {n} markings, got {len(markings)}")
    if any(m <= 0 for m in markings):
        raise ValueError(f"markings must be strictly positive, got {tuple(markings)}")
    node: Node = Leaf(degree=leaf_degree)
    for m in reversed([int(x) for x in markings]):
        node = InternalNode(children=(ChildEdge(markings={label: m}, child=node),))
    return StratTree(dimension=n, bundles=((label, denominator),), root=node)


def nef_difference_tree(n: int, f: Scalar, g: Scalar) -> StratTree:
    """The complete binary model of a difference of nef classes.

    Labels F, G, L; every node has an F-child marked (F: f, G: 0, L: f) and
    a G-child marked (F: 0, G: g, L: -g), with unit leaf degrees.  The
    by-index degrees of L are exactly (-1)^j binom(n, j) f^(n-j) g^j.
    """
    fv, gv = Fraction(f), Fraction(g)
    if fv < 0 or gv < 0:
        raise ValueError("f and g must be non-negative")
    den = math.lcm(fv.denominator, gv.denominator)
    f_num = int(fv * den)
    g_num = int(gv * den)
    bundles = (("F", den), ("G", den), ("L", den))

    def build(depth: int) -> Node:
        if depth == n:
            return Leaf(degree=1)
        child = build(depth + 1)
        return InternalNode(
            children=(
                ChildEdge(markings={"F": f_num, "G": 0, "L": f_num}, child=child),
                ChildEdge(markings={"F": 0, "G": g_num, "L": -g_num}, child=child),
            )
        )

    return StratTree(dimension=n, bundles=bundles, root=build(0))


# -- assignment maxima ---------------------------------------------------------------


def assignment_max(
    root: Node,
    options_of: Callable[[ChildEdge], Sequence[Scalar]],
    max_index: int,
) -> Fraction:
    """Max over per-edge choices of (-1)^i times the index-truncated path sum.

    Each edge independently picks one value from ``options_of(edge)``, which
    is called once per edge object; a path's index is its count of strictly
    negative chosen values, and paths of index above ``max_index`` are
    dropped.  The sign-splitting recursion gives the largest and the
    smallest sum, and the parity of i picks one.  A negative ``max_index``
    admits no path, so the maximum is 0.
    """
    high, low = _signed_range(root, options_of, max_index)
    return Fraction(-low if max_index % 2 else high)


def max_marking_degree(
    tree: StratTree, labels: Sequence[str], max_index: int
) -> Fraction:
    """Max over edge-to-label assignments of the signed truncated degree.

    For an assignment phi, the tree is remarked with each edge's phi-label
    marking; the value is (-1)^i times the index-truncated degree, and the
    maximum ranges over all |labels|^(#edges) assignments.  With a single
    label this collapses to (-1)^i * degree_truncated.  Numerators are
    scaled to the lcm of the labels' denominators, a positive factor that
    keeps maxima, and divided by lcm^n once.
    """
    if not labels:
        raise ValueError("label set must be non-empty")
    dens = {label: tree.denominator(label) for label in labels}
    common = math.lcm(*dens.values())
    scale = [(label, common // den) for label, den in dens.items()]

    def options_of(edge: ChildEdge) -> list[int]:
        return [edge.markings[label] * factor for label, factor in scale]

    return assignment_max(tree.root, options_of, max_index) / common**tree.dimension


def validate_product_trivialization(
    tree: StratTree, parts: Sequence[str], whole: str, aux: str
) -> bool:
    """True iff on every edge the whole's effective marking is the sum of the
    parts' plus the auxiliary's effective markings."""
    for label in (*parts, whole, aux):
        tree.denominator(label)
    return all(
        tree.effective(edge, whole)
        == sum((tree.effective(edge, p) for p in parts), tree.effective(edge, aux))
        for edge in tree.edges()
    )
