"""Piecewise-polynomial integrands built from marked stratification trees.

A :class:`MarkedSimplexProblem` ties a stratification tree to the
coordinates of a weighted simplex: coordinate i carries a declared label,
and a point t marks every edge with the linear value

    sum_i t_i * (numerator of labels[i]) / denominator,

optionally shifted by a constant multiple of an auxiliary label's marking
(the twist).  The *index sum* at level i is then the sum, over root-to-leaf
paths with at most i strictly negative edge marks, of the product of the
marks times the leaf degree.  It is piecewise polynomial in t and
positively homogeneous of degree n (without the twist); a zero mark kills
its path, so counting zeros as non-negative is inert.

Integration over the simplex is exact whenever every edge form has one
sign on the whole simplex (checkable at the vertices, since the forms are
affine), or when the index cap is at least n so no indicator survives: the
integrand is then a single polynomial, and each path's product of edge
forms integrates exactly from the forms' vertex values.  Every vertex value
of every edge is read from the edge's integer markings as a numerator over
one common denominator C, so the signs, every path's vertex-value sum and
their total stay in integers, and one ``Fraction`` is built per integral.
The affine forms themselves serve only the pointwise sums and the
Monte-Carlo fallback.  Otherwise a
deterministic seeded Monte-Carlo fallback reports (estimate, standard
error).  :func:`integrate` makes that choice for the jet bound and the
averaging experiment: it returns the exact value with a standard error of
None, or the Monte-Carlo pair when an edge form changes sign.

The harmonic twist at order k replaces the auxiliary scale by H_k/(k r)
with H_k = 1 + 1/2 + ... + 1/k, and expands the coordinates to the
block-weighted simplex (each base label repeated with weights 1..k); the
jet bound coefficient multiplies its integral at index cap 1 by
binom(n+kr-1, kr-1) / (k!)^r, and the averaging experiment compares the
scaled twisted integrals with the truncated degree of the whole label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import mc
from .ring import Scalar
from .simplex import AffineForm, SimplexSpec, vertex_product_sum
from .strat import (
    ChildEdge,
    Leaf,
    Node,
    StratTree,
    assignment_max,
    degree_truncated,
    truncated_sum,
    validate_product_trivialization,
)


class MixedSignError(ValueError):
    """An edge form changes sign on the simplex, so exact integration is off."""


class MissingTwistError(ValueError):
    """The problem carries no auxiliary twist label."""


class InvalidTrivializationError(ValueError):
    """The tree's whole-bundle markings are not the sum of parts plus twist."""


@dataclass(frozen=True)
class MarkedSimplexProblem:
    """A tree whose edge marks are linear forms in the simplex coordinates.

    ``labels[i]`` is the declared label whose marking multiplies t_i
    (repetitions allowed); ``aux_label``, when set, contributes the
    constant ``aux_scale * marking/denominator`` to every edge mark.
    """

    tree: StratTree
    labels: tuple[str, ...]
    simplex: SimplexSpec
    aux_label: str | None = None
    aux_scale: Fraction = field(default_factory=lambda: Fraction(1))

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "aux_scale", Fraction(self.aux_scale))
        if len(self.labels) != self.simplex.arity:
            raise ValueError(
                f"{len(self.labels)} coordinate labels for a simplex of arity "
                f"{self.simplex.arity}"
            )
        for label in self.labels:
            self.tree.denominator(label)
        if self.aux_label is not None:
            self.tree.denominator(self.aux_label)

    @property
    def arity(self) -> int:
        return self.simplex.arity

    def edge_form(self, edge: ChildEdge, with_twist: bool) -> AffineForm:
        """The affine form t -> mark of this edge."""
        coeffs = [self.tree.effective(edge, label) for label in self.labels]
        constant = Fraction(0)
        if with_twist and self.aux_label is not None:
            constant = self.aux_scale * self.tree.effective(edge, self.aux_label)
        return AffineForm(constant, coeffs)


def _eval(
    prob: MarkedSimplexProblem, t: Sequence[Scalar], max_index: int, with_twist: bool
) -> Fraction:
    if len(t) != prob.arity:
        raise ValueError(f"point arity {len(t)} != problem arity {prob.arity}")
    point = [Fraction(x) for x in t]
    return truncated_sum(
        prob.tree.root, lambda edge: prob.edge_form(edge, with_twist)(point), max_index
    )


def index_sum(prob: MarkedSimplexProblem, t: Sequence[Scalar], max_index: int) -> Fraction:
    """The index-truncated path sum at t, twist ignored.

    Defined on all of Q^r, not only on the simplex; positively homogeneous
    of degree n under t -> lambda t with lambda > 0.
    """
    return _eval(prob, t, max_index, with_twist=False)


def twisted_index_sum(
    prob: MarkedSimplexProblem, t: Sequence[Scalar], max_index: int
) -> Fraction:
    """The index-truncated path sum at t with the constant twist shifts."""
    if prob.aux_label is None:
        raise MissingTwistError("problem has no auxiliary twist label")
    return _eval(prob, t, max_index, with_twist=True)


def max_tensor_degree(
    prob: MarkedSimplexProblem,
    points: Sequence[Sequence[Scalar]],
    max_index: int,
) -> Fraction:
    """Assignment maximum over per-edge choices among several points.

    Each point u_j induces the edge mark sum_i u_{j,i} * marking_i; an
    assignment picks one point per edge, and the value is the maximum of
    (-1)^i times the index-truncated path sum.  With all points equal this
    collapses to the plain index sum up to the (-1)^i sign, since every
    choice yields the same marks.  No twist enters.
    """
    if not points:
        raise ValueError("need at least one point")
    pts = [[Fraction(x) for x in u] for u in points]
    for u in pts:
        if len(u) != prob.arity:
            raise ValueError(f"point arity {len(u)} != problem arity {prob.arity}")

    def options_of(edge: ChildEdge) -> list[Fraction]:
        form = prob.edge_form(edge, False)
        return [form(u) for u in pts]

    return assignment_max(prob.tree.root, options_of, max_index)


# -- integration ----------------------------------------------------------------


def _compile(
    tree: StratTree,
) -> tuple[list[ChildEdge], list[tuple[int, ...]], list[tuple[int, tuple[int, ...], int]]]:
    """One pre-order walk of the tree's positions.

    Returns the distinct edge objects in pre-order of first appearance,
    each one's first position as a child-index trail, and every root-to-leaf
    path as (shared, edge indices, leaf degree), where shared is the depth
    at which the path leaves the previous one (0 for the first path).

    The edges include those on no path (into childless internal nodes).
    :func:`integrate_mc` builds one form per edge and keeps their columns:
    the bits of its matmul ``t @ C.T`` depend on the column set, so
    dropping one can change the last bit of the marks that are kept.
    """
    index_of: dict[int, int] = {}
    edges, firsts, paths = [], [], []
    # the current position's edge indices and child indices, by depth
    cols, trail = [0] * tree.dimension, [0] * tree.dimension
    shared = 0

    def walk(node: Node, depth: int) -> None:
        nonlocal shared
        if isinstance(node, Leaf):
            paths.append((shared, tuple(cols), node.degree))
            shared = depth
            return
        for i, edge in enumerate(node.children):
            shared = min(shared, depth)
            c = index_of.setdefault(id(edge), len(edges))
            if c == len(edges):
                edges.append(edge)
                firsts.append((*trail[:depth], i))
            cols[depth], trail[depth] = c, i
            walk(edge.child, depth + 1)

    walk(tree.root, 0)
    return edges, firsts, paths


def _vertex_rows(
    prob: MarkedSimplexProblem, edges: Sequence[ChildEdge]
) -> tuple[list[list[int]], int]:
    """Each edge form's values at the vertices e_i / a_i, as integer
    numerators over one common denominator C, and C.

    At vertex i the form is marking(label_i) / (denominator(label_i) a_i),
    plus, with a twist, aux_scale * marking(aux) / denominator(aux).  C is
    the lcm of those denominators, so each value is its marking times one
    integer multiplier per coordinate, plus the twist marking times one
    multiplier for the twist.
    """
    tree, aux = prob.tree, prob.aux_label
    weights = prob.simplex.weights
    scales = [tree.denominator(label) * a for label, a in zip(prob.labels, weights)]
    aux_scale = 1 if aux is None else tree.denominator(aux) * prob.aux_scale.denominator
    common = math.lcm(*scales, aux_scale)
    twist = 0 if aux is None else prob.aux_scale.numerator * (common // aux_scale)
    multipliers = [(label, common // s) for label, s in zip(prob.labels, scales)]
    rows = []
    for edge in edges:
        marks = edge.markings
        shift = 0 if aux is None else marks[aux] * twist
        rows.append([marks[label] * m + shift for label, m in multipliers])
    return rows, common


def integrate_exact(prob: MarkedSimplexProblem, max_index: int) -> Fraction:
    """Exact integral of the index sum over the simplex, uniform measure.

    Twist shifts are included whenever the problem carries a twist label.
    Requires every edge form on a root-to-leaf path to keep one sign on the
    simplex (identically zero forms are allowed: they kill their paths),
    unless max_index >= n in which case every path counts and no sign
    analysis is needed.  The surviving integrand is a polynomial; each path
    contributes its leaf degree times the exact expectation of the product
    of its edge forms.  With every vertex value an integer over C, each
    path's :func:`simplex.vertex_product_sum` is an integer, and since every
    path has n edges the integral is

        total * (r-1)! / ((n+r-1)! * C^n),

    with total the sum of the surviving paths' sums times their leaf degrees.
    """
    edges, firsts, paths = _compile(prob.tree)
    rows, common = _vertex_rows(prob, edges)
    n, r = prob.tree.dimension, prob.arity
    negative: set[int] = set()
    if max_index < n:
        # only edges on some path: a childless internal node ends no path
        for c in sorted({c for _, cols, _ in paths for c in cols}):
            low, high = min(rows[c]), max(rows[c])
            if low < 0 < high:
                where = "→".join(["root", *map(str, firsts[c])])
                values = ", ".join(str(Fraction(v, common)) for v in rows[c])
                raise MixedSignError(
                    f"the edge form at {where} changes sign on the simplex "
                    f"(vertex values {values}); use Monte-Carlo integration"
                )
            if low < 0:
                negative.add(c)
    total = 0
    for _, cols, degree in paths:
        if sum(c in negative for c in cols) > max_index:
            continue
        total += degree * vertex_product_sum(r, [rows[c] for c in cols])
    return Fraction(
        total * math.factorial(r - 1), math.factorial(n + r - 1) * common**n
    )


def integrate_mc(
    prob: MarkedSimplexProblem, max_index: int, cfg: mc.MCConfig
) -> tuple[float, float]:
    """Monte-Carlo integral of the index sum: (estimate, standard error).

    Twist shifts are included whenever the problem carries a twist label.
    Deterministic for fixed (seed, samples) and independent of the worker
    count: sampling and evaluation are block-wise with merged tallies.

    The edge marks of a chunk are the row-major product ``t @ C.T``,
    transposed into one contiguous row of marks per edge.  The edge-major
    product ``C @ t.T`` would skip the transpose, but OpenBLAS rounds the
    last few rows of a chunk differently there, so it is not used.  Path
    products are built level by level over the paths' prefixes in
    pre-order: a path keeps the products of its prefix down to the depth
    where :func:`_compile`'s walk left the path before it, each further edge
    multiplies in one mark row, the left fold of a per-path product, and a
    path's first product is its first mark row (1.0 * x is x).  The path terms, each product times its leaf degree (no
    multiply for degree 1), are added in path order onto zeros.  Only where
    the cap can cut (0 <= cap < n) are negative marks tracked, as the cap
    less the negative marks of each shared prefix short of the last edge: a
    path counts when that budget covers its last edge's own negative mark.
    At cap >= n every path counts, below 0 none does.
    """
    edges, _, paths = _compile(prob.tree)
    forms = [prob.edge_form(edge, prob.aux_label is not None) for edge in edges]
    coeff_matrix = np.array(
        [[float(c) for c in f.coeffs] for f in forms], dtype=float
    ).reshape(len(forms), prob.arity)
    constants = np.array([float(f.constant) for f in forms])[:, None]
    cuts = 0 <= max_index < prob.tree.dimension
    budget_type = np.min_scalar_type(-prob.tree.dimension)

    def evaluate(t: np.ndarray) -> np.ndarray:
        # (E, rows): one contiguous row of marks per edge, the constants
        # added in the transposing pass
        marks = np.add((t @ coeff_matrix.T).T, constants, order="C")
        values = np.zeros(len(t))
        # products[d]: the current path's prefix of length d; budgets[d]: the
        # cap less the negative marks of that prefix, for d below n
        products = [1.0]
        if cuts:
            negative = marks < 0
            budgets = [budget_type.type(max_index)]
        for shared, cols, degree in paths if max_index >= 0 else ():
            del products[shared + 1 :]
            for col in cols[shared:]:
                products.append(products[-1] * marks[col] if len(products) > 1 else marks[col])
            term = products[-1] if degree == 1 else products[-1] * degree
            if not cuts:
                values += term
                continue
            del budgets[shared + 1 :]
            for col in cols[shared:-1]:
                budgets.append(budgets[-1] - negative[col])
            # a dropped row adds nothing: values are never -0.0, so adding
            # +0.0 there would not change them
            np.add(values, term, out=values, where=budgets[-1] >= negative[cols[-1]])
        return values[:, None]

    total = mc._tally_statistics(prob.simplex, cfg, 1, evaluate)
    return float(total.mean()[0]), float(total.stderr()[0])


def integrate(
    prob: MarkedSimplexProblem, max_index: int, cfg: mc.MCConfig | None = None
) -> tuple[Fraction | float, float | None]:
    """The integral of the index sum, exactly when possible.

    Returns (exact value, None) from :func:`integrate_exact`.  When an edge
    form changes sign, returns :func:`integrate_mc`'s (estimate, standard
    error) if ``cfg`` is given and re-raises :class:`MixedSignError` if not.
    """
    try:
        return integrate_exact(prob, max_index), None
    except MixedSignError:
        if cfg is None:
            raise
        return integrate_mc(prob, max_index, cfg)


# -- harmonic twist and the jet bound coefficient ---------------------------------


def harmonic_number(k: int) -> Fraction:
    """H_k = 1 + 1/2 + ... + 1/k, exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))


def harmonic_twist(
    tree: StratTree, base_labels: Sequence[str], aux_label: str, k: int
) -> MarkedSimplexProblem:
    """The order-k problem on the block-weighted simplex.

    Coordinates are the base labels repeated k times over the weight blocks
    (1,...,1, ..., k,...,k), each block repeating all r base labels; the
    auxiliary label contributes the constant H_k/(k r) times its effective
    marking to every edge mark.
    """
    base = tuple(base_labels)
    if not base:
        raise ValueError("need at least one base label")
    r = len(base)
    return MarkedSimplexProblem(
        tree=tree,
        labels=base * k,
        simplex=mc.block_weights(k, r),
        aux_label=aux_label,
        aux_scale=harmonic_number(k) / (k * r),
    )


def jet_bound_coefficient(
    tree: StratTree,
    base_labels: Sequence[str],
    aux_label: str,
    k: int,
    cfg: mc.MCConfig | None = None,
) -> tuple[Fraction | float, float | None]:
    """Leading coefficient of the order-k first-cohomology jet bound, and
    its standard error.

    binom(n+kr-1, kr-1) / (k!)^r  times the integral of the twisted index
    sum at index cap 1 over the block-weighted simplex, taken by
    :func:`integrate`: an exact ``Fraction`` and None when the sign
    structure allows, otherwise a float and the coefficient times the
    integral's standard error (``cfg`` is then required).
    """
    n = tree.dimension
    r = len(tuple(base_labels))
    problem = harmonic_twist(tree, base_labels, aux_label, k)
    coefficient = Fraction(
        math.comb(n + k * r - 1, k * r - 1), math.factorial(k) ** r
    )
    value, stderr = integrate(problem, 1, cfg)
    if stderr is None:
        return coefficient * value, None
    return float(coefficient) * value, float(coefficient) * stderr


def averaging_experiment(
    tree: StratTree,
    base_labels: Sequence[str],
    aux_label: str,
    whole_label: str,
    max_index: int,
    k_values: Sequence[int],
    cfg: mc.MCConfig,
) -> dict:
    """Scaled harmonic-twist integrals against the truncated whole degree.

    The tree must factor: on every edge the whole label's effective marking
    equals the sum of the base labels' plus the auxiliary's (validated
    first).  For each k the twisted integrand is integrated over the
    block-weighted simplex by :func:`integrate` (exactly when its sign
    structure allows, otherwise by Monte Carlo; each record's "method" says
    which), and the scaled value

        (k r)^n * integral / H_k^n,      H_k = 1 + 1/2 + ... + 1/k,

    is reported next to the target degree_truncated(tree, whole, i); the
    (log k)^n scaling is reported alongside for comparison (k >= 2).
    """
    if not validate_product_trivialization(tree, base_labels, whole_label, aux_label):
        raise InvalidTrivializationError(
            f"{whole_label!r} markings are not the sum of {list(base_labels)} "
            f"plus {aux_label!r} on every edge"
        )
    n = tree.dimension
    r = len(base_labels)
    target = degree_truncated(tree, whole_label, max_index)
    rows = []
    for k in k_values:
        problem = harmonic_twist(tree, base_labels, aux_label, k)
        h = harmonic_number(k)
        value, stderr = integrate(problem, max_index, cfg)
        used = "exact" if stderr is None else "mc"
        value = float(value)
        stderr = 0.0 if stderr is None else stderr
        scaled = (k * r) ** n * value / float(h) ** n
        row = {
            "experiment": "averaging",
            "params": {"k": k, "max_index": max_index, "method": used},
            "estimate": value,
            "stderr": stderr,
            "exact": None,
            "zscore": None,
            "scaled": scaled,
            "scaled_log": (k * r) ** n * value / math.log(k) ** n if k >= 2 else None,
            "target": str(target),
            "gap": abs(scaled - float(target)),
        }
        rows.append(row)
    return {
        "experiment": "averaging",
        "params": {
            "max_index": max_index,
            "k_values": list(k_values),
            "seed": cfg.seed,
            "samples": cfg.samples,
            "target": str(target),
        },
        "records": rows,
    }
