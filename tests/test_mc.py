import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import whole_block_tally
from jetcalc import integrands, mc
from jetcalc.simplex import (
    AffineForm,
    SimplexSpec,
    affine_product_expectation,
    monomial_moment,
)
from jetcalc.strat import tree_from_dict

CFG = mc.MCConfig(seed=2718281828, samples=150_000)


def test_samples_lie_on_the_simplex():
    spec = SimplexSpec((1, 2, 3))
    block = mc.sample_block(spec, mc.block_rng(CFG.seed, 0), 4096)
    assert (block >= 0).all()
    levels = block @ np.asarray(spec.weights, dtype=float)
    assert np.allclose(levels, 1.0, atol=1e-12)


def test_sampler_determinism():
    spec = SimplexSpec((1, 3))
    one = mc.sample_block(spec, mc.block_rng(123, 5), 1000)
    two = mc.sample_block(spec, mc.block_rng(123, 5), 1000)
    other = mc.sample_block(spec, mc.block_rng(124, 5), 1000)
    assert (one == two).all()
    assert not (one == other).all()
    # the blocks of a run cover exactly its samples, a partial block last
    run = np.concatenate(
        [mc.sample_block(spec, mc.block_rng(17, b), n) for b, n in enumerate(mc.block_sizes(70_000))]
    )
    assert run.shape == (70_000, 2)


def test_empirical_moments_match_exact():
    for a in [(1, 1), (1, 2), (2, 3, 4)]:
        spec = SimplexSpec(a)
        r = spec.arity
        powers = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
        powers += [tuple(2 if i == 0 else 0 for i in range(r))]

        def stats(block, powers=powers):
            return np.column_stack(
                [np.prod(block ** np.asarray(p, dtype=float), axis=1) for p in powers]
            )

        tally = mc._tally_statistics(spec, CFG, len(powers), stats)
        means, errs = tally.mean(), tally.stderr()
        for i, p in enumerate(powers):
            exact = float(monomial_moment(spec, p))
            assert abs(means[i] - exact) <= 4 * max(errs[i], 1e-15)


def test_uniform_weights_mean_is_one_over_r():
    spec = SimplexSpec((1, 1, 1, 1))
    tally = mc._tally_statistics(spec, CFG, 4, lambda b: b)
    assert np.allclose(tally.mean(), 0.25, atol=4 * tally.stderr().max())


def _projection_statistic(arity: int, width: int, drop: bool):
    """A row-wise statistic of mixed signs and magnitudes on the coordinates;
    with ``drop``, rows whose first coordinate exceeds 1.2 / arity are left
    out."""
    rng = np.random.default_rng(width)
    # transposed, as integrate_mc projects: BLAS takes a different kernel
    # for a one-row product, so a one-row chunk would change the bits.  Two
    # columns at least: a one-column product is a matrix-vector product,
    # whose rows' bits depend on the chunk's row count from arity 8 on, so
    # it is not row-wise.
    columns = max(width, 2)
    matrix = rng.standard_normal((columns, arity)) * 10.0 ** rng.integers(-3, 4, (columns, 1))

    def stats(block):
        values = (block @ matrix.T)[:, :width] - 0.25
        return values[block[:, 0] <= 1.2 / arity] if drop else values

    return stats


def _spec(arity: int) -> SimplexSpec:
    return SimplexSpec([1 + i % 3 for i in range(arity)])


@pytest.mark.parametrize("drop", [False, True], ids=["all-rows", "dropping"])
@pytest.mark.parametrize("width", [1, 2, 36])
@pytest.mark.parametrize(
    "samples",
    # below one chunk, one chunk, at chunk boundaries, a one-row tail past a
    # chunk boundary in a partial last block, a longer partial last block
    [
        1000,
        mc._CHUNK_ROWS,
        3 * mc._CHUNK_ROWS,
        mc.BLOCK_SIZE + mc._CHUNK_ROWS + 1,
        2 * mc.BLOCK_SIZE + 12345,
    ],
)
# a block is drawn whole up to arity 2, in pieces of several chunks at 3, 8,
# 12 and 16, and a chunk at a time from 32 on
@pytest.mark.parametrize("arity", [1, 2, 3, 8, 12, 16, 32, 33, 64])
def test_chunked_tally_equals_whole_block_tally(arity, samples, width, drop):
    spec = _spec(arity)
    stats = _projection_statistic(arity, width, drop)
    blocks = mc.block_sizes(samples)
    for workers in (1, 2):
        cfg = mc.MCConfig(seed=99, samples=samples, workers=workers)
        want = whole_block_tally(spec, cfg, width, stats)
        with (
            mock.patch.object(mc, "block_rng", wraps=mc.block_rng) as keyed,
            mock.patch.object(mc, "sample_block", wraps=mc.sample_block) as drawn,
        ):
            got = mc._tally_statistics(spec, cfg, width, stats)
        # one generator per block, as many rows drawn as the blocks hold
        assert sorted(call.args for call in keyed.call_args_list) == [
            (99, b) for b in range(len(blocks))
        ]
        assert sum(call.args[2] for call in drawn.call_args_list) == samples
        assert got.count == want.count
        assert got.sums.tobytes() == want.sums.tobytes()
        assert got.sumsqs.tobytes() == want.sumsqs.tobytes()
    # the chunks' rows, in order, are the whole blocks' rows bit for bit (a
    # last-bit change in a few rows may not reach the sums)
    rows = []
    serial = mc.MCConfig(seed=99, samples=samples)
    mc._tally_statistics(spec, serial, width, lambda chunk: rows.append(stats(chunk)) or rows[-1])
    whole = [stats(mc.sample_block(spec, mc.block_rng(99, b), n)) for b, n in enumerate(blocks)]
    assert np.concatenate(rows).tobytes() == np.concatenate(whole).tobytes()


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("base", [1, 2, 3, 7])
def test_chunks_tile_a_block_with_no_short_chunk(base, extra):
    count = base * mc._CHUNK_ROWS + extra
    chunks = mc._chunks(count)
    assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
    assert chunks[-1][1] == count
    assert min(hi - lo for lo, hi in chunks) >= min(count, mc._CHUNK_ROWS)
    assert max(hi - lo for lo, hi in chunks) < max(count + 1, 2 * mc._CHUNK_ROWS)


def test_jets_decomposition_block_sums():
    k, r = 3, 2
    spec = mc.block_weights(k, r)
    block = mc.sample_block(spec, mc.block_rng(9, 0), 120_000)
    yprime, z = mc.jets_decomposition(block, k, r)
    assert np.allclose(yprime.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(z.sum(axis=2), 1.0, atol=1e-12)
    # E[Y_j] = 1/(jk), E[Y_j^2] = (r+1)/(j^2 k (kr+1))
    y = yprime / np.arange(1, k + 1)
    for j in range(1, k + 1):
        est = y[:, j - 1].mean()
        err = y[:, j - 1].std(ddof=1) / math.sqrt(len(y))
        assert abs(est - 1 / (j * k)) <= 4 * err
        sq = y[:, j - 1] ** 2
        est2 = sq.mean()
        err2 = sq.std(ddof=1) / math.sqrt(len(y))
        assert abs(est2 - (r + 1) / (j * j * k * (k * r + 1))) <= 4 * err2


def test_jets_decomposition_cross_block_independence():
    k, r = 2, 3
    spec = mc.block_weights(k, r)
    block = mc.sample_block(spec, mc.block_rng(31, 0), 60_000)
    _, z = mc.jets_decomposition(block, k, r)
    # covariance of coordinates of distinct normalized blocks is zero
    for l in range(r):
        for lp in range(r):
            x, y = z[:, 0, l], z[:, 1, lp]
            cov = np.mean(x * y) - x.mean() * y.mean()
            err = np.std(x * y, ddof=1) / math.sqrt(len(x))
            assert abs(cov) <= 4 * err


def test_dirichlet_density_check():
    report = mc.dirichlet_density_check(2, 1, CFG)
    assert report["density_constant"] == "1"  # uniform for r = 1
    assert report["max_abs_zscore"] <= 4
    report = mc.dirichlet_density_check(2, 2, CFG)
    assert report["density_constant"] == "6"
    assert report["max_abs_zscore"] <= 4
    # closed form: E[Y'_j] = 1/k under the density
    for rec in report["records"]:
        q = rec["params"]["moment"]
        if sum(q) == 1:
            assert Fraction(rec["exact"]) == Fraction(1, 2)


def test_negative_correlation_check():
    report = mc.negative_correlation_check(2, 1, CFG)
    # E[Y_1 Y_2] = r/(j l k (kr+1)) = 1/12 for k=2, r=1; matches the direct
    # moment on the (1,2)-weighted simplex
    rec = report["records"][0]
    assert Fraction(rec["exact"]) == Fraction(1, 12)
    assert Fraction(rec["exact"]) == affine_product_expectation(
        SimplexSpec((1, 2)), [AffineForm(0, (1, 0)), AffineForm(0, (0, 1))]
    )
    assert report["empirically_negatively_correlated"]
    assert report["max_abs_zscore"] <= 4
    with pytest.raises(ValueError):
        mc.negative_correlation_check(1, 2, CFG)


def test_variance_bound_check():
    report = mc.variance_bound_check(2, 1, [1])
    assert Fraction(report["variance"]) == Fraction(1, 48)
    assert Fraction(report["bound"]) == Fraction(5, 8)
    assert report["holds"]
    zero = mc.variance_bound_check(3, 2, [0, 0])
    assert Fraction(zero["variance"]) == 0 and Fraction(zero["bound"]) == 0
    assert zero["holds"]


def test_averaging_experiment_exact_for_dimension_one():
    tree = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
                {"label": "E", "denominator": 1},
            ],
            "root": {
                "children": [
                    {"markings": {"L": 2, "N": 0, "E": 2}, "node": {"degree": 1}},
                    {"markings": {"L": 1, "N": -2, "E": -1}, "node": {"degree": 1}},
                ]
            },
        }
    )
    cfg = mc.MCConfig(seed=7, samples=10_000)
    report = integrands.averaging_experiment(tree, ["L"], "N", "E", 1, [1, 2, 5], cfg)
    # dimension 1: every path has index <= 1, the expectation is linear and
    # the scaled value equals the target exactly for every k
    for row in report["records"]:
        assert row["params"]["method"] == "exact"
        assert row["gap"] <= 1e-12  # exact value, float-rendered


def test_averaging_experiment_positive_tree_exact_correction():
    # zero twist, all-positive dimension-2 chain: the integral is exact and
    # the scaled value carries a visible 1 + O(1/k)-type normalization
    # correction that shrinks toward the target as k grows
    tree = tree_from_dict(
        {
            "dimension": 2,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
                {"label": "E", "denominator": 1},
            ],
            "root": {
                "children": [
                    {
                        "markings": {"L": 1, "N": 0, "E": 1},
                        "node": {
                            "children": [
                                {"markings": {"L": 2, "N": 0, "E": 2}, "node": {"degree": 1}}
                            ]
                        },
                    }
                ]
            },
        }
    )
    cfg = mc.MCConfig(seed=1, samples=1000)  # unused: every k integrates exactly
    ks = [2, 4, 8, 16]
    report = integrands.averaging_experiment(tree, ["L"], "N", "E", 1, ks, cfg)
    # closed form of the scaled value: both edges mark Y = sum of coordinates,
    # so the integral is 2 E[Y^2] = 2 (H_k^2 + H_k^(2)) / (k (k+1)) and
    # scaled = 2 * k/(k+1) * (1 + H_k^(2)/H_k^2) -> target 2, correction
    # visible at every finite k
    for row, k in zip(report["records"], ks):
        assert row["params"]["method"] == "exact"
        h1 = sum(Fraction(1, j) for j in range(1, k + 1))
        h2 = sum(Fraction(1, j * j) for j in range(1, k + 1))
        expected = 2 * Fraction(k, k + 1) * (1 + h2 / h1**2)
        assert abs(row["scaled"] - float(expected)) < 1e-12
        assert row["gap"] > 0


def test_averaging_experiment_validates_trivialization():
    bad = tree_from_dict(
        {
            "dimension": 1,
            "bundles": [
                {"label": "L", "denominator": 1},
                {"label": "N", "denominator": 1},
                {"label": "E", "denominator": 1},
            ],
            "root": {
                "children": [
                    {"markings": {"L": 2, "N": 1, "E": 2}, "node": {"degree": 1}}
                ]
            },
        }
    )
    with pytest.raises(integrands.InvalidTrivializationError):
        integrands.averaging_experiment(
            bad, ["L"], "N", "E", 1, [2], mc.MCConfig(seed=1, samples=100)
        )


def test_sample_block_matches_out_of_place_division():
    spec = mc.block_weights(4, 3)
    exp = mc.block_rng(41, 2).standard_exponential((5000, spec.arity))
    want = exp / exp.sum(axis=1, keepdims=True) / np.asarray(spec.weights, dtype=float)
    assert np.array_equal(mc.sample_block(spec, mc.block_rng(41, 2), 5000), want)


@pytest.mark.parametrize("arity", [*range(1, 10), 16, 32])
def test_sample_block_matches_the_contract_formula(arity):
    # below 8 coordinates the row sums are column folds, from 8 on numpy's
    spec = _spec(arity)
    for count in (1, 5000):
        exp = mc.block_rng(7, arity).standard_exponential((count, arity))
        want = exp / exp.sum(axis=1, keepdims=True) / np.asarray(spec.weights, dtype=float)
        assert mc.sample_block(spec, mc.block_rng(7, arity), count).tobytes() == want.tobytes()


def test_consecutive_draws_continue_one_block_stream():
    # every arity gets the same drawn cut of one block into pieces
    reached = set()

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(st.just(mc.BLOCK_SIZE), st.integers(1, mc.BLOCK_SIZE - 1)),
        st.lists(st.one_of(st.just(1), st.integers(1, 3 * mc._CHUNK_ROWS)), max_size=12),
        st.integers(0, 2**64 - 1),
        st.integers(0, 100),
    )
    def check(count, sizes, seed, b):
        pieces, drawn = [], 0
        for size in [*sizes, count]:
            size = min(size, count - drawn)
            if size:
                pieces.append(size)
                drawn += size
        for arity in range(1, 41):
            spec = _spec(arity)
            rng = mc.block_rng(seed, b)
            got = np.concatenate([mc.sample_block(spec, rng, size) for size in pieces])
            want = mc.sample_block(spec, mc.block_rng(seed, b), count)
            assert got.tobytes() == want.tobytes()
        reached.add("partial block" if count < mc.BLOCK_SIZE else "whole block")
        if 1 in pieces:
            reached.add("one-row piece")
        if len(pieces) > 1:
            reached.add("several pieces")

    check()
    assert reached == {"partial block", "whole block", "one-row piece", "several pieces"}


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("arity", [32, 64])
def test_tally_holds_no_block_sized_sample_matrix(arity, width):
    # pieces of one 4096-row chunk at these arities: a whole block's sample
    # matrix would be four times the bound.  The statistics are narrower
    # than the samples, so their chunks' temporaries stay well inside it.
    spec = _spec(arity)
    stats = _projection_statistic(arity, width, False)
    cfg = mc.MCConfig(seed=3, samples=2 * mc.BLOCK_SIZE + 12345)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mc._tally_statistics(spec, cfg, width, stats)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < mc.BLOCK_SIZE * arity * 8 / 4


# signed zeros, subnormals, infinities and normal numbers of spread magnitudes
_SPECIAL_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-310, np.inf, -np.inf])
_GROUP_WIDTHS = (*range(1, 13), 16, 33, 129)  # 129: past numpy's 128-element pairwise block


def test_group_sums_match_numpy_reduction():
    reached_k, reached_r = set(), set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 9),
        st.sampled_from(_GROUP_WIDTHS),
        st.integers(0, 2**32 - 1),
        st.sampled_from((0.0, 0.05, 0.5, 1.0)),
    )
    def check(k, r, seed, special):
        rng = np.random.default_rng(seed)
        for rows in (0, 1, 4097):
            x = rng.standard_normal((rows, k * r)) * 10.0 ** rng.integers(-12, 13, (rows, k * r))
            pick = rng.random(x.shape) < special
            x[pick] = rng.choice(_SPECIAL_ENTRIES, pick.sum())
            with np.errstate(invalid="ignore"):  # inf - inf
                got = mc._group_sums(x, k, r)
                want = x.reshape(-1, k, r).sum(axis=2)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        reached_k.add(k)
        reached_r.add(r)

    check()
    assert reached_k == set(range(1, 10)) and reached_r == set(_GROUP_WIDTHS)


@pytest.mark.parametrize("k, r", [(1, 1), (2, 1), (3, 3), (6, 2)])
def test_dirichlet_statistic_matches_product_of_powers_bit_for_bit(k, r):
    # the statistic, against the product over all coordinates of Y'**q
    cfg = mc.MCConfig(seed=5 + k, samples=70_000)
    report = mc.dirichlet_density_check(k, r, cfg)
    exponents = np.asarray([rec["params"]["moment"] for rec in report["records"]], dtype=float)

    def stats(block):
        yprime, _ = mc.jets_decomposition(block, k, r)
        return np.column_stack([np.prod(yprime**q, axis=1) for q in exponents])

    tally = mc._tally_statistics(mc.block_weights(k, r), cfg, len(exponents), stats)
    assert [rec["estimate"] for rec in report["records"]] == tally.mean().tolist()
    assert [rec["stderr"] for rec in report["records"]] == tally.stderr().tolist()
