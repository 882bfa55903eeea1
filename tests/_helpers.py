"""Shared test helpers: generators for randomized tree tests (seeded,
deterministic), the documented averaging tree, finite differences of exact
values, the sum over all vertex maps behind ``simplex.vertex_product_sum``
(the oracle for both of its methods), the monomial expansion of simplex
expectations (the oracle for the vertex-value method), the path-by-path exact integral over ``Fraction``
forms (the oracle for ``integrate_exact``'s integer vertex values),
composition power sums by enumeration (the oracle for the
generating-function convolution), the product with one weight series by
shifted copies (the oracle for its Eulerian-numerator product), cofactor
determinants and Cramer's rule (the oracle for the exact elimination in
``lattice``), the term-by-term
``Fraction`` product of graded polynomials (the oracle for the
integer-numerator product), the Euler leading polynomial by one
``GradedPoly`` product per root factor (the oracle for the integer
expansion of ``segre._root_polynomial``), a parser of rendered polynomial
text (the oracle for ``render``), the whole-block Monte-Carlo tally (the oracle for
the chunked tally of ``mc._tally_statistics``), the per-path
Monte-Carlo index sum (the oracle for the level-wise path products of
``integrate_mc``), and the distinct edges of ``StratTree.edges()`` with a
search for each one's first position (the oracles for the one walk of
``integrands._compile``)."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from jetcalc import mc
from jetcalc.integrands import MarkedSimplexProblem, MixedSignError
from jetcalc.lattice import enumerate_compositions
from jetcalc.ring import GradedPoly
from jetcalc.segre import WeightedSplitBundle
from jetcalc.simplex import AffineForm, SimplexSpec, monomial_moment
from jetcalc.strat import (
    ChildEdge,
    EdgeCover,
    InternalNode,
    Leaf,
    LeafCover,
    Node,
    NodeCover,
    StratTree,
)


# The documented dimension-2 averaging tree.  Base label L1, L2; the whole
# bundle E marks each edge with the sum of the base markings (the auxiliary
# twist N is identically zero).  Branch X marks L1 then L2 (cross terms),
# branch Y marks L1 twice, branch Z marks L2 twice with a negative second
# stratum.  Same-label covariance contributions cancel (1*2 + (-2)*1 = 0
# against the cross branch's zero), leaving a pure 1/(2k+1) deviation, so
# the scaled integrals approach the truncated degree strictly monotonically.
AVERAGING_TREE = {
    "dimension": 2,
    "bundles": [
        {"label": "L1", "denominator": 1},
        {"label": "L2", "denominator": 1},
        {"label": "N", "denominator": 1},
        {"label": "E", "denominator": 1},
    ],
    "root": {
        "children": [
            {
                "markings": {"L1": 1, "E": 1},
                "node": {"children": [{"markings": {"L2": 2, "E": 2}, "node": {"degree": 1}}]},
            },
            {
                "markings": {"L1": 1, "E": 1},
                "node": {"children": [{"markings": {"L1": 2, "E": 2}, "node": {"degree": 1}}]},
            },
            {
                "markings": {"L2": 1, "E": 1},
                "node": {"children": [{"markings": {"L2": -2, "E": -2}, "node": {"degree": 1}}]},
            },
        ]
    },
}


def random_tree(
    rng: random.Random,
    dimension: int,
    bundles: tuple[tuple[str, int], ...],
    max_children: int = 3,
    numerators: tuple[int, int] = (-5, 5),
    max_degree: int = 3,
) -> StratTree:
    lo, hi = numerators

    def build(depth: int) -> Node:
        if depth == dimension:
            return Leaf(degree=rng.randint(1, max_degree))
        width = rng.randint(1, max_children)
        return InternalNode(
            children=tuple(
                ChildEdge(
                    markings={name: rng.randint(lo, hi) for name, _ in bundles},
                    child=build(depth + 1),
                )
                for _ in range(width)
            )
        )

    return StratTree(dimension=dimension, bundles=bundles, root=build(0))


def random_small_tree(
    rng: random.Random,
    bundles: tuple[tuple[str, int], ...],
    max_edges: int = 8,
) -> StratTree:
    """A random tree with at most max_edges edges (for brute-force baselines)."""
    while True:
        tree = random_tree(
            rng,
            dimension=rng.randint(1, 3),
            bundles=bundles,
            max_children=2,
            numerators=(-3, 3),
        )
        if tree.edge_count() <= max_edges:
            return tree


def label_options(tree: StratTree, labels: Sequence[str]):
    """The per-edge choices of ``max_marking_degree``: each label's
    effective marking, for ``assignment_max_brute``."""
    return lambda edge: [tree.effective(edge, label) for label in labels]


def random_cover_plan(
    rng: random.Random, node: Node, label: str, delta: int
) -> NodeCover | LeafCover:
    """A random plan of relative degree ``delta`` over a branch.

    Satisfies the sign and projection constraints by construction: each
    nonzero-marked edge either stays inert (numerator kept, one piece of
    degree delta), splits its numerator across two degree-delta pieces, or
    splits delta across two pieces with the numerator kept.
    """
    if isinstance(node, Leaf):
        return LeafCover(multiplier=delta)
    any_marked = any(e.markings[label] != 0 for e in node.children)
    edge_plans = []
    for edge in node.children:
        m = edge.markings[label]
        if m == 0:
            if any_marked:
                # free piece degrees next to marked siblings
                degrees = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
            else:
                # all-zero node: unramified convention, degrees sum to delta
                cut = rng.randint(1, delta) if delta > 1 else delta
                degrees = [cut] + ([delta - cut] if delta - cut else [])
            pieces = tuple(
                (0, random_cover_plan(rng, edge.child, label, d)) for d in degrees
            )
        else:
            style = rng.randrange(3)
            if style == 0 or abs(m) < 2 and style == 1:
                pieces = ((m, random_cover_plan(rng, edge.child, label, delta)),)
            elif style == 1:
                cut = rng.randint(1, abs(m) - 1) * (1 if m > 0 else -1)
                pieces = (
                    (cut, random_cover_plan(rng, edge.child, label, delta)),
                    (m - cut, random_cover_plan(rng, edge.child, label, delta)),
                )
            else:
                if delta >= 2:
                    d1 = rng.randint(1, delta - 1)
                    pieces = (
                        (m, random_cover_plan(rng, edge.child, label, d1)),
                        (m, random_cover_plan(rng, edge.child, label, delta - d1)),
                    )
                else:
                    pieces = ((m, random_cover_plan(rng, edge.child, label, 1)),)
        edge_plans.append(EdgeCover(pieces=pieces))
    return NodeCover(edges=tuple(edge_plans))


def random_zero_branch(rng: random.Random, labels: tuple[str, ...], depth: int) -> Node:
    """A random branch of the given uniform depth (markings are zeroed by refine)."""
    if depth == 0:
        return Leaf(degree=rng.randint(1, 3))
    width = rng.randint(1, 2)
    return InternalNode(
        children=tuple(
            ChildEdge(
                markings={name: 0 for name in labels},
                child=random_zero_branch(rng, labels, depth - 1),
            )
            for _ in range(width)
        )
    )


def internal_paths(tree: StratTree) -> list[tuple[int, ...]]:
    """Addresses of all internal nodes (as child-index paths)."""
    found: list[tuple[int, ...]] = []

    def walk(node: Node, path: tuple[int, ...]) -> None:
        if isinstance(node, Leaf):
            return
        found.append(path)
        for i, edge in enumerate(node.children):
            walk(edge.child, path + (i,))

    walk(tree.root, ())
    return found


def forward_difference(values, order):
    """The order-th forward difference of values[0..order] (GradedPoly)."""
    total = values[0].ring.zero()
    for j in range(order + 1):
        total = total + values[j] * ((-1) ** (order - j) * math.comb(order, j))
    return total


def map_sum(r: int, rows: Sequence[Sequence[int]]) -> int:
    """The defining sum of ``simplex.vertex_product_sum``, term by term: over
    all r^M maps phi from the M rows to the r vertices, prod_i m_i! times
    prod_j rows[j][phi(j)], with m_i the number of rows sent to vertex i."""
    total = 0
    for phi in itertools.product(range(r), repeat=len(rows)):
        counts = [phi.count(i) for i in range(r)]
        total += math.prod(map(math.factorial, counts)) * math.prod(
            row[i] for row, i in zip(rows, phi)
        )
    return total


def expanded_expectation(spec: SimplexSpec, forms: Sequence[AffineForm]) -> Fraction:
    """E[prod_j f_j(T)] for T uniform on D_a, exactly.

    The product is expanded into monomials and each monomial is integrated
    with :func:`monomial_moment`.  For a single affine form this equals the
    average of the form over the r vertices e_i / a_i.
    """
    r = spec.arity
    for f in forms:
        if f.arity != r:
            raise ValueError(f"form arity {f.arity} does not match simplex arity {r}")
    # polynomial as {exponent tuple: coefficient}
    poly: dict[tuple[int, ...], Fraction] = {(0,) * r: Fraction(1)}
    for f in forms:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in poly.items():
            if f.constant:
                c = nxt.get(exps, Fraction(0)) + coeff * f.constant
                if c:
                    nxt[exps] = c
                else:
                    nxt.pop(exps, None)
            for i, ci in enumerate(f.coeffs):
                if not ci:
                    continue
                bumped = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                c = nxt.get(bumped, Fraction(0)) + coeff * ci
                if c:
                    nxt[bumped] = c
                else:
                    nxt.pop(bumped, None)
        poly = nxt
    return sum(
        (coeff * monomial_moment(spec, exps) for exps, coeff in poly.items()),
        Fraction(0),
    )


def per_path_integral(prob: MarkedSimplexProblem, max_index: int) -> Fraction:
    """The exact integral of the index sum over the simplex, path by path.

    Each edge's affine form (:meth:`MarkedSimplexProblem.edge_form`, twist
    included when the problem has one) is evaluated at the vertices
    e_i / a_i.  Below cap n, a form on some path whose vertex values take
    both signs raises :class:`MixedSignError`, and a form with a negative
    vertex value counts as negative.  Each path with at most ``max_index``
    negative forms adds its leaf degree times the
    :func:`expanded_expectation` of its forms.
    """
    spec = prob.simplex
    twist = prob.aux_label is not None
    paths = list(prob.tree.paths())
    forms = {id(edge): prob.edge_form(edge, twist) for edges, _ in paths for edge in edges}
    negative = set()
    if max_index < prob.tree.dimension:
        for key, form in forms.items():
            values = [form(spec.vertex(i)) for i in range(spec.arity)]
            if min(values) < 0 < max(values):
                raise MixedSignError("an edge form changes sign on the simplex")
            if min(values) < 0:
                negative.add(key)
    total = Fraction(0)
    for edges, leaf in paths:
        if sum(id(edge) in negative for edge in edges) <= max_index:
            total += leaf.degree * expanded_expectation(
                spec, [forms[id(edge)] for edge in edges]
            )
    return total


def whole_block_tally(
    spec: SimplexSpec,
    cfg: mc.MCConfig,
    width: int,
    stats_of_block: Callable[[np.ndarray], np.ndarray],
) -> mc.MomentTally:
    """The tally of a run with each block's statistic matrix reduced whole.

    Each block of samples gets ``stats_of_block`` once, its sums and sums
    of squares are numpy's ``sum(axis=0)`` of the full matrix added onto
    zeros, and the blocks are merged in block order.
    """
    total = mc.MomentTally(0, np.zeros(width), np.zeros(width))
    for b, n in enumerate(mc.block_sizes(cfg.samples)):
        values = stats_of_block(mc.sample_block(spec, mc.block_rng(cfg.seed, b), n))
        sums, sumsqs = np.zeros(width), np.zeros(width)
        sums += values.sum(axis=0)
        sumsqs += (values * values).sum(axis=0)
        total.count += values.shape[0]
        total.sums += sums
        total.sumsqs += sumsqs
    return total


def distinct_edges(tree: StratTree) -> list[ChildEdge]:
    """The distinct edge objects of ``tree.edges()``, by identity, in
    pre-order of first appearance."""
    return list({id(edge): edge for edge in tree.edges()}.values())


def first_position(root: Node, target: ChildEdge) -> tuple[int, ...]:
    """The first position of an edge in pre-order, as a child-index trail,
    by a search that stops at the first match."""

    def walk(node: Node, trail: tuple[int, ...]) -> tuple[int, ...] | None:
        if isinstance(node, InternalNode):
            for i, edge in enumerate(node.children):
                if edge is target:
                    return (*trail, i)
                found = walk(edge.child, (*trail, i))
                if found is not None:
                    return found
        return None

    return walk(root, ())


def per_path_mc_values(
    prob: MarkedSimplexProblem, max_index: int, t: np.ndarray
) -> np.ndarray:
    """The index sum at the sample rows t, as a (rows, 1) matrix, path by path.

    The edge marks are the block's projection onto the edge forms; each
    path counts its negative marks, multiplies its marks along the path and
    adds the product times its leaf degree where the count is at most
    ``max_index``.
    """
    edges = distinct_edges(prob.tree)
    index_of = {id(edge): c for c, edge in enumerate(edges)}
    forms = [prob.edge_form(edge, prob.aux_label is not None) for edge in edges]
    coeff_matrix = np.array(
        [[float(c) for c in f.coeffs] for f in forms], dtype=float
    ).reshape(len(forms), prob.arity)
    constants = np.array([float(f.constant) for f in forms])
    marks = t @ coeff_matrix.T + constants
    neg = marks < 0
    values = np.zeros(len(t))
    for path, leaf in prob.tree.paths():
        cols = [index_of[id(edge)] for edge in path]
        keep = neg[:, cols].sum(axis=1) <= max_index
        values += np.where(keep, marks[:, cols].prod(axis=1) * leaf.degree, 0.0)
    return values[:, None]


def enumerated_power_sum(
    spec: SimplexSpec, powers: Sequence[int], m: int
) -> Fraction:
    """S_p(m) = sum over H_m of prod l_i^{p_i} / p_i!, by visiting every
    composition of H_m."""
    total = sum(
        math.prod(li**pi for li, pi in zip(l, powers))
        for l in enumerate_compositions(spec, m)
    )
    return Fraction(total, math.prod(math.factorial(q) for q in powers))


def convolved_weight_series(series: list[int], a: int, q: int, m: int) -> list[int]:
    """series * sum_l l^q x^(a l), truncated above x^m, by adding one shifted
    copy of the series per term l^q x^(a l) (O(m^2 / a) operations)."""
    out = series[:] if q == 0 else [0] * (m + 1)
    for l in range(1, m // a + 1):
        c = l**q
        shift = a * l
        out[shift:] = [x + c * y for x, y in zip(out[shift:], series)]
    return out


def cofactor_det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """det(rows) by cofactor expansion along the first row (exponential in
    the size; the oracle for the Gauss-Jordan determinant)."""
    if not rows:
        return Fraction(1)
    return sum(
        (
            (-1) ** j * head * cofactor_det([[*row[:j], *row[j + 1 :]] for row in rows[1:]])
            for j, head in enumerate(rows[0])
            if head
        ),
        Fraction(0),
    )


def cramer_solve(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction]:
    """The solution x of rows x = rhs by Cramer's rule: x_j is the
    determinant with column j replaced by rhs, over det(rows)."""
    det = cofactor_det(rows)
    return [
        cofactor_det([[*row[:j], b, *row[j + 1 :]] for row, b in zip(rows, rhs)]) / det
        for j in range(len(rows))
    ]


def naive_product(p: GradedPoly, q: GradedPoly) -> dict[tuple[int, ...], Fraction]:
    """The truncated product p * q as {exponents: nonzero coefficient}, one
    ``Fraction`` multiply-add per pair of terms."""
    ring = p.ring
    weights = [w for _, w in ring.variables]

    def degree(exps):
        return sum(e * w for e, w in zip(exps, weights))

    terms: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            if degree(e1) + degree(e2) > ring.bound:
                continue
            exps = tuple(a + b for a, b in zip(e1, e2))
            total = terms.get(exps, Fraction(0)) + c1 * c2
            if total:
                terms[exps] = total
            else:
                terms.pop(exps, None)
    return terms


def product_root_polynomial(
    bundle: WeightedSplitBundle, n: int, table: dict[tuple[int, ...], Fraction]
) -> GradedPoly:
    """sum over p of table[p] * prod root_i^{p_i}, the roots of ``bundle`` in
    line order, as one ``GradedPoly`` product per root factor of each
    monomial (the oracle for the integer expansion in
    ``segre._root_polynomial``)."""
    ring = bundle.ring
    if ring.bound < n:
        raise ValueError(f"ring bound {ring.bound} is below degree {n}")
    data = bundle.line_data()
    result = ring.zero()
    for p, value in table.items():
        if value == 0:
            continue
        mono = ring.const(value)
        for (root, _), q in zip(data, p):
            for _ in range(q):
                mono = mono * root
        result = result + mono
    return result


def parse_rendered(
    text: str, variables: Sequence[tuple[str, int]]
) -> list[tuple[tuple[int, ...], Fraction]]:
    """The terms of a rendered polynomial, in the order written.

    Reads ``[-]t0 (+|-) t1 ...`` where each term is ``mag``, ``monomial`` or
    ``mag*monomial``, ``mag`` is ``n`` or ``n/d`` in lowest terms and never
    ``1`` before a monomial, and a monomial is ``name`` or ``name^e`` (e >= 2)
    factors in ring order.  Anything else raises ``ValueError``.
    """
    if text == "0":
        return []
    names = [name for name, _ in variables]
    first, *rest = text.split(" ")
    if len(rest) % 2:
        raise ValueError(f"dangling sign in {text!r}")
    signed = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    signed += list(zip(rest[::2], rest[1::2]))
    terms = []
    for sign, body in signed:
        if sign not in ("+", "-"):
            raise ValueError(f"bad sign {sign!r} in {text!r}")
        factors = body.split("*")
        coeff = Fraction(1)
        if factors[0] not in names and "^" not in factors[0]:
            mag = factors.pop(0)
            coeff = Fraction(mag)
            if str(coeff) != mag or coeff <= 0 or (coeff == 1 and factors):
                raise ValueError(f"non-canonical magnitude {mag!r} in {text!r}")
        exps = [0] * len(names)
        last = -1
        for factor in factors:
            name, caret, power = factor.partition("^")
            index = names.index(name)
            e = int(power) if caret else 1
            if index <= last or (caret and (e < 2 or str(e) != power)):
                raise ValueError(f"non-canonical monomial {body!r} in {text!r}")
            exps[index], last = e, index
        terms.append((tuple(exps), coeff if sign == "+" else -coeff))
    return terms
