"""Reference computations the benchmark checks jetcalc's outputs against.

Nothing here calls into jetcalc: every value is computed from the tree's
JSON form or from a closed form, by a different route than the program's.

* ``index_profile``: degrees by index through a sign-splitting recursion
  over the JSON tree (shared sub-dicts are visited once).
* ``brute_cmax``: the assignment maximum by enumerating every assignment.
* ``expectation``: exact E[prod of affine forms] on D_a by the vertex-value
  formula (Baldoni et al., Math. Comp. 80, 2011), not by monomial expansion.
* ``power_sums``: composition power sums S_p(m) for every m up to a level,
  as coefficients of an integer generating-function product.
* ``jet_rank``: the q^m coefficient of prod_j (1 - q^j)^(-n) by binomial
  series, not by running prefix sums.
* ``sample_index_sum``: a numpy Monte-Carlo estimate of an index-sum
  integral from numpy's own Dirichlet sampler.
* ``parse_poly``: reads jetcalc's canonical polynomial rendering.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# -- trees in their JSON form ---------------------------------------------------


def denominator(tree: dict, label: str) -> int:
    return next(b["denominator"] for b in tree["bundles"] if b["label"] == label)


def mark(tree: dict, edge: dict, label: str) -> Fraction:
    return Fraction(edge["markings"].get(label, 0), denominator(tree, label))


def index_profile(tree: dict, label: str) -> list[Fraction]:
    """Sum of marking products times leaf degrees by exact index 0..n."""
    n = tree["dimension"]
    den = denominator(tree, label)
    memo: dict[int, list[Fraction]] = {}

    def rec(node: dict) -> list[Fraction]:
        key = id(node)
        if key in memo:
            return memo[key]
        out = [Fraction(0)] * (n + 1)
        if "degree" in node:
            out[0] = Fraction(node["degree"])
        else:
            for edge in node["children"]:
                m = edge["markings"].get(label, 0)
                if m == 0:
                    continue
                value = Fraction(m, den)
                shift = 1 if m < 0 else 0
                for j, sub in enumerate(rec(edge["node"])):
                    if sub and j + shift <= n:
                        out[j + shift] += value * sub
        memo[key] = out
        return out

    return rec(tree["root"])


def truncated(tree: dict, label: str, cap: int) -> Fraction:
    return sum(index_profile(tree, label)[: max(cap + 1, 0)], Fraction(0))


def edges_of(tree: dict) -> list[dict]:
    found = []

    def walk(node: dict) -> None:
        for edge in node.get("children", ()):
            found.append(edge)
            walk(edge["node"])

    walk(tree["root"])
    return found


def brute_cmax(tree: dict, labels: list[str], cap: int) -> Fraction:
    """max over all label-to-edge assignments of (-1)^cap * truncated sum."""
    edges = edges_of(tree)
    slot = {id(e): i for i, e in enumerate(edges)}
    options = [[mark(tree, e, label) for label in labels] for e in edges]
    sign = -1 if cap % 2 else 1

    def value(choice: tuple[Fraction, ...], node: dict, budget: int) -> Fraction:
        if "degree" in node:
            return Fraction(node["degree"])
        total = Fraction(0)
        for edge in node["children"]:
            v = choice[slot[id(edge)]]
            if v == 0 or (v < 0 and budget == 0):
                continue
            total += v * value(choice, edge["node"], budget - (v < 0))
        return total

    return max(
        sign * value(choice, tree["root"], cap) for choice in itertools.product(*options)
    )


def paths(tree: dict) -> list[tuple[list[dict], int]]:
    out = []

    def walk(node: dict, prefix: list[dict]) -> None:
        if "degree" in node:
            out.append((prefix, node["degree"]))
            return
        for edge in node["children"]:
            walk(edge["node"], prefix + [edge])

    walk(tree["root"], [])
    return out


# -- exact simplex integrals ------------------------------------------------------


def edge_form(tree, edge, labels, aux, aux_scale) -> tuple[Fraction, list[Fraction]]:
    """(constant, coefficients) of the affine mark of one edge."""
    constant = aux_scale * mark(tree, edge, aux) if aux else Fraction(0)
    return constant, [mark(tree, edge, label) for label in labels]


def expectation(weights, forms) -> Fraction:
    """E[prod_j f_j(t)] for t uniform on D_a, by vertex values.

    On D_a the constant c equals c * sum a_i t_i, so f = sum_i v_i z_i with
    v_i = c + b_i / a_i and z = (a_i t_i) uniform on the standard simplex,
    whose moments are E[z^m] = (r-1)! prod m_i! / (|m|+r-1)!.
    """
    r = len(weights)
    values = [[c + b / a for b, a in zip(coeffs, weights)] for c, coeffs in forms]
    total = Fraction(0)
    for f in itertools.product(range(r), repeat=len(values)):
        term = Fraction(math.prod(math.factorial(f.count(i)) for i in set(f)))
        for j, i in enumerate(f):
            term *= values[j][i]
            if not term:
                break
        total += term
    return total * Fraction(math.factorial(r - 1), math.factorial(len(values) + r - 1))


def exact_integral(tree, labels, weights, cap, aux=None, aux_scale=Fraction(1)) -> Fraction:
    """Integral of the index-truncated path sum over D_a, uniform measure.

    Every edge form must keep one sign on D_a (or cap >= n): the path index
    then counts edges whose vertex values are all <= 0 and not all zero.
    """
    n = tree["dimension"]
    total = Fraction(0)
    for edges, degree in paths(tree):
        forms = [edge_form(tree, e, labels, aux, aux_scale) for e in edges]
        if cap < n:
            negatives = 0
            for c, coeffs in forms:
                vertex = [c + b / a for b, a in zip(coeffs, weights)]
                if any(v < 0 for v in vertex) and any(v > 0 for v in vertex):
                    raise ValueError("edge form changes sign on the simplex")
                negatives += any(v < 0 for v in vertex)
            if negatives > cap:
                continue
        total += degree * expectation(weights, forms)
    return total


def harmonic(k: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))


def block_weights(k: int, r: int) -> list[int]:
    return [j for j in range(1, k + 1) for _ in range(r)]


def jet_coefficient(n: int, k: int, r: int) -> Fraction:
    return Fraction(math.comb(n + k * r - 1, k * r - 1), math.factorial(k) ** r)


def averaging_integral(k: int) -> Fraction:
    """Closed form of the twisted cap-1 integral of the documented averaging
    tree at order k: H_k^2 (2 - 2/(2k+1)) / (2k)^2."""
    return harmonic(k) ** 2 * (2 - Fraction(2, 2 * k + 1)) / (2 * k) ** 2


# -- compositions, Segre series, jet ranks -------------------------------------------


def power_sums(weights, powers, top: int) -> list[Fraction]:
    """[S_p(m) for m = 0..top]: the x^m coefficients of
    prod_i sum_l l^(p_i) x^(a_i l), divided by prod p_i!."""
    series = [1] + [0] * top
    for a, p in zip(weights, powers):
        factor = [0] * (top + 1)
        for l in range(top // a + 1):
            factor[a * l] = l**p
        series = [
            sum(series[i] * factor[m - i] for i in range(m + 1) if factor[m - i])
            for m in range(top + 1)
        ]
    scale = math.prod(math.factorial(p) for p in powers)
    return [Fraction(s, scale) for s in series]


def exponents(total: int, arity: int):
    return [p for p in itertools.product(range(total + 1), repeat=arity) if sum(p) == total]


def jet_rank(n: int, k: int, m: int) -> int:
    series = [1] + [0] * m
    for j in range(1, k + 1):
        binom = [0] * (m + 1)
        for t in range(m // j + 1):
            binom[j * t] = math.comb(n + t - 1, t) if n else int(t == 0)
        series = [sum(series[i] * binom[d - i] for i in range(d + 1)) for d in range(m + 1)]
    return series[m]


def parse_poly(text: str, names: list[str]) -> dict[tuple[int, ...], Fraction]:
    """Terms of a rendering like ``1/2 + x1^2 - 3/4*x1*x2``."""
    terms: dict[tuple[int, ...], Fraction] = {}
    if text.strip() == "0":
        return terms
    tokens = text.strip().split(" ")
    sign = 1
    body_tokens = []
    for tok in tokens:
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        body_tokens.append((sign, tok))
    for sign, body in body_tokens:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff = Fraction(sign)
        exps = [0] * len(names)
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            if name in names:
                exps[names.index(name)] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        if key in terms:
            raise ValueError(f"monomial {key} rendered twice")
        terms[key] = coeff
    return terms


# -- Monte-Carlo reference ----------------------------------------------------------


def sample_index_sum(tree, labels, weights, cap, aux, aux_scale, seed, samples):
    """(mean, stderr, std) of the index sum under numpy's Dirichlet sampler."""
    rng = np.random.default_rng([seed, 7919])
    a = np.asarray(weights, dtype=float)
    allpaths = []
    for edges, degree in paths(tree):
        forms = [edge_form(tree, e, labels, aux, aux_scale) for e in edges]
        allpaths.append(
            ([(np.array([float(x) for x in b]), float(c)) for c, b in forms], float(degree))
        )
    values = np.zeros(samples)
    chunk = 1 << 15
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        t = rng.dirichlet(np.ones(len(weights)), size=count) / a
        acc = np.zeros(count)
        for forms, degree in allpaths:
            prod = np.full(count, degree)
            neg = np.zeros(count, dtype=int)
            for b, c in forms:
                m = t @ b + c
                prod *= m
                neg += m < 0
            acc += np.where(neg <= cap, prod, 0.0)
        values[start : start + count] = acc
    std = float(values.std(ddof=1))
    return float(values.mean()), std / math.sqrt(samples), std
