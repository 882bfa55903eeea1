"""Properties of GradedPoly products and text, against independent oracles.

The product is compared with ``_helpers.naive_product``, a term-by-term
``Fraction`` multiply-add.  ``render`` and ``render_over_denominator`` are
parsed back by ``_helpers.parse_rendered`` and compared with ``items()``
and with the canonical term order written out here.  Each property counts
the cases it reached (cancelled terms, pairs at and past the bound,
weights above 1, zero operands) and fails if one never came up.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import naive_product, parse_rendered
from jetcalc.ring import GradedRing

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

NAMES = ("a", "b", "c")
# Few small numerators and several denominators: sums of products cancel
# often, and factors rarely share one denominator.
COEFFS = st.builds(
    Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from([1, 1, 2, 3, 4, 6, 9])
)


@st.composite
def rings(draw):
    nvars = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    return GradedRing(bound=draw(st.integers(0, 6)), variables=tuple(zip(NAMES, weights)))


def polys(ring):
    exps = st.tuples(*(st.integers(0, 2) for _ in ring.variables))
    return st.dictionaries(exps, COEFFS, min_size=1, max_size=6).map(ring.from_terms)


@st.composite
def ring_and_pair(draw):
    """A ring and two polynomials; in one draw of three the second is the
    first with some signs flipped, so that cross terms cancel."""
    ring = draw(rings())
    p = draw(polys(ring))
    if draw(st.integers(0, 2)):
        return ring, p, draw(polys(ring))
    terms = list(p.items())
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(terms), max_size=len(terms)))
    return ring, p, ring.from_terms({e: s * c for (e, c), s in zip(terms, signs)})


def canonical_order(ring, terms):
    weights = [w for _, w in ring.variables]
    return sorted(terms, key=lambda t: (sum(e * w for e, w in zip(t[0], weights)),
                                        [-e for e in t[0]]))


def test_product_matches_naive_fraction_product():
    seen = Counter()

    @SETTINGS
    @given(ring_and_pair())
    def check(drawn):
        ring, p, q = drawn
        product = p * q
        want = naive_product(p, q)
        assert dict(product.items()) == want
        assert all(type(c) is Fraction for _, c in product.items())
        for e in {e for e, _ in p.items()} | set(want):
            assert type(product.coefficient(e)) is Fraction
        assert product == q * p

        weights = [w for _, w in ring.variables]
        degrees = [
            sum(x * w for x, w in zip(e1, weights)) + sum(y * w for y, w in zip(e2, weights))
            for e1, _ in p.items()
            for e2, _ in q.items()
        ]
        kept = {
            tuple(x + y for x, y in zip(e1, e2))
            for e1, _ in p.items()
            for e2, _ in q.items()
            if sum((x + y) * w for x, y, w in zip(e1, e2, weights)) <= ring.bound
        }
        seen["cancelled term"] += bool(kept - set(want))
        seen["pair at bound"] += ring.bound in degrees
        seen["pair past bound"] += any(d > ring.bound for d in degrees)
        seen["zero product of nonzero factors"] += bool(p and q and not product)
        seen["zero factor"] += not (p and q)
        seen["weight above 1"] += max(weights) > 1 and bool(product)
        dens = [{c.denominator for _, c in f.items()} for f in (p, q)]
        seen["mixed denominators"] += len(dens[0] | dens[1]) > 1
        seen["negative coefficient"] += any(c < 0 for f in (p, q) for _, c in f.items())

    check()
    for case in (
        "cancelled term",
        "pair at bound",
        "pair past bound",
        "zero product of nonzero factors",
        "zero factor",
        "weight above 1",
        "mixed denominators",
        "negative coefficient",
    ):
        assert seen[case] >= 5, (case, seen)


def test_render_parses_back_to_the_terms_in_canonical_order():
    seen = Counter()

    @SETTINGS
    @given(ring_and_pair())
    def check(drawn):
        ring, p, q = drawn
        for poly in (p, p * q):
            terms = parse_rendered(poly.render(), ring.variables)
            assert terms == canonical_order(ring, poly.items())

            text = poly.render_over_denominator()
            den = math.lcm(*(c.denominator for _, c in poly.items()))
            if den == 1:
                body = text
            else:
                assert text.startswith("(") and text.endswith(f")/{den}")
                body = text[1 : -len(f")/{den}")]
            scaled = parse_rendered(body, ring.variables)
            assert all(c.denominator == 1 for _, c in scaled)
            assert [(e, c / den) for e, c in scaled] == canonical_order(ring, poly.items())

            seen["den > 1"] += den > 1
            seen["negative first"] += bool(terms) and terms[0][1] < 0
            seen["unit on monomial"] += any(abs(c) == 1 and any(e) for e, c in terms)
            seen["constant"] += any(not any(e) for e, _ in terms)
            seen["zero"] += not terms

    check()
    for case in ("den > 1", "negative first", "unit on monomial", "constant", "zero"):
        assert seen[case] >= 5, (case, seen)


R = GradedRing(bound=4, variables=(("x", 1), ("y", 2)))


@pytest.mark.parametrize(
    "terms, text, over_denominator",
    [
        ({}, "0", "0"),
        ({(0, 0): 1}, "1", "1"),
        ({(0, 0): Fraction(-3, 4)}, "-3/4", "(-3)/4"),
        ({(1, 0): 1}, "x", "x"),
        ({(1, 0): -1}, "-x", "-x"),
        ({(0, 0): 2, (1, 0): -1, (0, 1): 1}, "2 - x + y", "2 - x + y"),
        ({(2, 0): Fraction(5, 6), (0, 1): Fraction(-1, 4)},
         "5/6*x^2 - 1/4*y", "(10*x^2 - 3*y)/12"),
        ({(0, 0): Fraction(1, 2), (2, 1): Fraction(-7, 3)},
         "1/2 - 7/3*x^2*y", "(3 - 14*x^2*y)/6"),
        ({(1, 0): Fraction(1, 2), (0, 0): -1}, "-1 + 1/2*x", "(-2 + x)/2"),
    ],
)
def test_render_explicit_cases(terms, text, over_denominator):
    poly = R.from_terms(terms)
    assert poly.render() == text
    assert poly.render_over_denominator() == over_denominator
    assert parse_rendered(text, R.variables) == canonical_order(R, poly.items())
