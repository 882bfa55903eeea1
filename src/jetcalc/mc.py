"""Deterministic seeded sampling on weighted simplexes and experiment suite.

Sampling contract
-----------------
Uniform points of the weighted simplex D_a are drawn as the affine image of
the standard simplex: z uniform on { z >= 0, sum z = 1 } via normalized
standard exponentials, then t_i = z_i / a_i.  Streams are generated in
fixed-size blocks (65536 samples); block b of a run with seed s uses the
Philox 64-bit counter-based generator keyed by SeedSequence((s & 2^64-1,
b)).  Results are therefore bit-identical for identical (seed, samples)
regardless of worker count; workers only split blocks, and per-block
partial statistics (count, sum, sum of squares) are merged in block order.

A block's rows are drawn in pieces of whole chunks (below), about 2^17
values (1 MB) each, that continue its one generator: the same bits as one
draw of the whole block, with no block-sized sample matrix built.  Up to
arity 2 a piece is the whole block, from arity 32 on it is one chunk.

Statistics are row-wise and evaluated on row chunks of each block, so no
block-sized statistic matrix is built.  A block's tally has the bits of
numpy's reduction of its whole statistic matrix: pairwise for one column
(gathered over the block and summed once), a fold in row order for wider
matrices (continued from chunk to chunk).  Short row sums, the sample
rows' normalizing sums and the experiments' block sums, keep numpy's order
too (:func:`_group_sums`): a left fold from +0.0 below 8 terms, numpy's
own pairwise sum from 8 on.  :func:`jetcalc.integrands.integrate_mc` takes
its edge marks from one row-major BLAS product per chunk.

Experiments
-----------
Statistical cross-checks of the exact moment formulas of
:mod:`jetcalc.simplex` on the block-weighted simplex with weight vector
(1,...,1, 2,...,2, ..., k,...,k) (each value repeated r times), written
X = (X_{j,l}):

* block sums Y_j = sum_l X_{j,l} have E[Y_j] = 1/(jk) and
  E[Y_j^2] = (r+1) / (j^2 k (kr+1));
* the rescaled vector (j Y_j)_j has density  C (y_1...y_k)^(r-1)  on the
  standard simplex with C = (kr-1)! / ((k-1)! (r-1)!^k), checked through
  its moments;
* distinct block sums are negatively correlated,
  E[Y_j Y_l] = r/(j l k (kr+1)) <= E[Y_j] E[Y_l];
* for an affine form A(t) = sum_{j,l} t_{j,l} d_l, the variance obeys the
  exact rational bound  Var[A] <= (2/k^2) (sum_{j<=k} 1/j^2) E[S^2]  with
  S = sum_l d_l T_l on the standard simplex (a sharpening of the pi^2/(3k^2)
  constant to a rational intermediate value).

Each check emits JSON-ready records {experiment, params, estimate, stderr,
exact, zscore}; the statistical acceptance threshold is 4 standard errors.
A zero standard error (a single sample, or a constant statistic) leaves the
z-score undefined: it is reported as null, and so is the report's
max_abs_zscore.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .simplex import (
    AffineForm,
    SimplexSpec,
    affine_product_expectation,
    monomial_moment,
)

BLOCK_SIZE = 1 << 16
# Rows per chunk of statistic evaluation: sixteen chunks per block, and a
# chunk's columns (32 KB each) stay in cache.
_CHUNK_ROWS = 4096

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class MCConfig:
    """Seed, sample count and worker count of one deterministic run."""

    seed: int
    samples: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.samples}")
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")


def block_sizes(samples: int) -> list[int]:
    """Sizes of the fixed blocks covering a run of the given length."""
    full, rest = divmod(samples, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rest] if rest else [])


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The Philox generator of one block; the documented determinism contract."""
    key = np.random.SeedSequence((seed & _SEED_MASK, block_index))
    return np.random.Generator(np.random.Philox(key))


def sample_block(spec: SimplexSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """The next (count, r) uniform points of D_a in rng's stream.

    The exponentials are drawn in row-major order and each row is
    normalized on its own, so consecutive draws from one generator have the
    bits of a single draw of all their rows.
    """
    points = rng.standard_exponential((count, spec.arity))
    np.divide(points, _group_sums(points, 1, spec.arity), out=points)
    return np.divide(points, np.asarray(spec.weights, dtype=float), out=points)


def _group_sums(x: np.ndarray, k: int, r: int) -> np.ndarray:
    """The (rows, k) sums of consecutive groups of r columns, with the bits
    of ``x.reshape(-1, k, r).sum(axis=2)``.

    numpy reduces each short group in its own call.  Below 8 elements its
    pairwise sum is a left fold from +0.0, done here a whole strided column
    at a time; from 8 on it keeps several accumulators (and recurses above
    128), so wider groups are left to numpy.
    """
    groups = x.reshape(-1, k, r)
    if r >= 8:
        return groups.sum(axis=2)
    sums = np.zeros(groups.shape[:2])
    for l in range(r):
        sums += groups[:, :, l]
    return sums


def map_blocks(
    cfg: MCConfig, fn: Callable[[int, int], object]
) -> list[object]:
    """Run fn(block_index, block_count) over all blocks, results in block order.

    Workers only affect scheduling; the output list is always ordered by
    block index, keeping every downstream reduction deterministic.
    """
    sizes = block_sizes(cfg.samples)
    if cfg.workers == 1 or len(sizes) <= 1:
        return [fn(b, n) for b, n in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(fn, b, n) for b, n in enumerate(sizes)]
        return [f.result() for f in futures]


@dataclass
class MomentTally:
    """Per-statistic running (count, sum, sum of squares), merged block-wise."""

    count: int
    sums: np.ndarray
    sumsqs: np.ndarray

    @classmethod
    def empty(cls, width: int) -> "MomentTally":
        return cls(0, np.zeros(width), np.zeros(width))

    def absorb(self, values: np.ndarray) -> None:
        """Add a (rows, width) matrix of statistic values.

        numpy sums a row-major matrix of two or more columns as a fold over
        its rows, which the running sums continue: the rows of one block,
        absorbed chunk by chunk in row order, get the bits of the whole
        block's ``values.sum(axis=0)``.  A single column numpy sums
        pairwise, so a one-column block is absorbed whole.
        """
        self.count += len(values)
        if self.sums.size == 1:
            self.sums += values.sum(axis=0)
            self.sumsqs += (values * values).sum(axis=0)
            return
        rows = np.empty((len(values) + 1, self.sums.size))
        rows[0] = self.sums
        rows[1:] = values
        np.add.reduce(rows, axis=0, out=self.sums)
        rows[0] = self.sumsqs
        np.multiply(values, values, out=rows[1:])
        np.add.reduce(rows, axis=0, out=self.sumsqs)

    def merge(self, other: "MomentTally") -> None:
        self.count += other.count
        self.sums += other.sums
        self.sumsqs += other.sumsqs

    def mean(self) -> np.ndarray:
        return self.sums / self.count

    def stderr(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.sums)
        var = (self.sumsqs - self.sums**2 / self.count) / (self.count - 1)
        return np.sqrt(np.maximum(var, 0.0) / self.count)


def _chunks(count: int) -> list[tuple[int, int]]:
    """Row ranges cutting a block into count // _CHUNK_ROWS chunks of
    near-equal size, or one chunk if it is shorter.

    No chunk is shorter than _CHUNK_ROWS unless the block is: BLAS takes a
    different kernel for a product of one or a few rows (one row is a
    matrix-vector product), which changes the last bit of the projections.
    """
    parts = max(1, count // _CHUNK_ROWS)
    bounds = [count * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _tally_statistics(
    spec: SimplexSpec,
    cfg: MCConfig,
    width: int,
    stats_of_block: Callable[[np.ndarray], np.ndarray],
) -> MomentTally:
    """Sample all blocks, evaluate a (rows, width) statistic matrix on row
    chunks of each, and merge the tallies in block order.

    A block is drawn in pieces of whole chunks, as many as fit in
    2 * BLOCK_SIZE values and at least one, from its one generator: the
    bits of one whole-block draw, and a piece is freed before the next is
    drawn.  The statistic must be row-wise: each output row depends on one
    sample row alone (rows may be dropped).  Each block's tally has the
    bits of :meth:`MomentTally.absorb` on the block's whole statistic
    matrix: a single column is gathered over the block and summed once,
    wider matrices are folded chunk by chunk.
    """

    per_piece = max(1, 2 * BLOCK_SIZE // (spec.arity * _CHUNK_ROWS))

    def chunk_stats(b: int, n: int) -> Iterator[np.ndarray]:
        rng = block_rng(cfg.seed, b)
        chunks = _chunks(n)
        for i in range(0, len(chunks), per_piece):
            piece = chunks[i : i + per_piece]
            start = piece[0][0]
            rows = sample_block(spec, rng, piece[-1][1] - start)
            for lo, hi in piece:
                yield stats_of_block(rows[lo - start : hi - start])
            del rows  # freed before the next piece is drawn

    def job(b: int, n: int) -> MomentTally:
        tally = MomentTally.empty(width)
        chunks = chunk_stats(b, n)
        if width > 1:
            for values in chunks:
                tally.absorb(values)
            return tally
        column, filled = np.empty((n, 1)), 0
        for values in chunks:
            column[filled : filled + len(values)] = values
            filled += len(values)
        tally.absorb(column[:filled])
        return tally

    total = MomentTally.empty(width)
    for part in map_blocks(cfg, job):
        total.merge(part)
    return total


# -- the block-weighted simplex ----------------------------------------------


def block_weights(k: int, r: int) -> SimplexSpec:
    """The weight vector (1,...,1, ..., k,...,k), each value repeated r times."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    return SimplexSpec(j for j in range(1, k + 1) for _ in range(r))


def _yprime(samples: np.ndarray, k: int, r: int) -> np.ndarray:
    """Y'_j = j * Y_j with Y_j = sum_l X_{j,l}; rows with a zero block sum
    (a measure-zero event) are dropped."""
    y = _group_sums(np.asarray(samples, dtype=float), k, r)
    return y[(y != 0).all(axis=1)] * np.arange(1, k + 1)


def jets_decomposition(
    samples: np.ndarray, k: int, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split samples of the block-weighted simplex into (Y', Z).

    For X = (X_{j,l}) reshape to blocks, set Y_j = sum_l X_{j,l}, return
    Y'_j = j * Y_j (a point of the standard simplex) and Z^j = X_j / Y_j
    (k independent uniform points of the standard (r-1)-simplex).  Rows
    with a zero block sum (a measure-zero event) are dropped.
    """
    x = np.asarray(samples, dtype=float).reshape(-1, k, r)
    y = _group_sums(x, k, r)
    keep = (y != 0).all(axis=1)
    return y[keep] * np.arange(1, k + 1), x[keep] / y[keep][:, :, None]


def _record(
    experiment: str,
    params: dict,
    estimate: float,
    stderr: float,
    exact: Fraction | None,
) -> dict:
    z = None
    if exact is not None and stderr > 0:
        z = (estimate - float(exact)) / stderr
    return {
        "experiment": experiment,
        "params": params,
        "estimate": estimate,
        "stderr": stderr,
        "exact": str(exact) if exact is not None else None,
        "zscore": z,
    }


def _max_abs_zscore(records: list[dict]) -> float | None:
    """The largest |z| over the records; None if any z-score is undefined."""
    zs = [rec["zscore"] for rec in records]
    return None if None in zs else max(abs(z) for z in zs)


def dirichlet_density_check(k: int, r: int, cfg: MCConfig) -> dict:
    """Moments of the rescaled block sums against their closed-form density.

    The density of Y' on the standard simplex is C (y_1...y_k)^(r-1) with
    C = (kr-1)!/((k-1)! (r-1)!^k); the exact moment of y^q is C times the
    uniform moment of y^(q + (r-1, ..., r-1)).  All moments with |q| <= 2
    are compared at 4-sigma.
    """
    spec = block_weights(k, r)
    unit = SimplexSpec((1,) * k)
    constant = Fraction(
        math.factorial(k * r - 1),
        math.factorial(k - 1) * math.factorial(r - 1) ** k,
    )
    exponents: list[tuple[int, ...]] = []
    for j in range(k):
        e = [0] * k
        e[j] = 1
        exponents.append(tuple(e))
    pairs = [(j, l) for j in range(k) for l in range(j, k)]
    for j, l in pairs:
        e = [0] * k
        e[j] += 1
        e[l] += 1
        exponents.append(tuple(e))
    exacts = [
        constant * monomial_moment(unit, tuple(qi + r - 1 for qi in q))
        for q in exponents
    ]

    def stats(block: np.ndarray) -> np.ndarray:
        yprime = _yprime(block, k, r)
        # squared with an array exponent, the power loop of yprime**q (a
        # broadcast scalar 2 takes numpy's exact-square path, which rounds
        # differently); the other factors of the product are 1 and exact
        squares = (yprime ** np.full(k, 2.0)).T.copy()
        y = yprime.T.copy()
        out = np.empty((len(yprime), len(exponents)))
        out[:, :k] = yprime
        for col, (j, l) in enumerate(pairs, k):
            out[:, col] = squares[j] if j == l else y[j] * y[l]
        return out

    tally = _tally_statistics(spec, cfg, len(exponents), stats)
    means, errs = tally.mean(), tally.stderr()
    records = [
        _record(
            "dirichlet-density",
            {"k": k, "r": r, "moment": list(q)},
            float(means[i]),
            float(errs[i]),
            exacts[i],
        )
        for i, q in enumerate(exponents)
    ]
    return {
        "experiment": "dirichlet-density",
        "params": {"k": k, "r": r, "seed": cfg.seed, "samples": cfg.samples},
        "records": records,
        "max_abs_zscore": _max_abs_zscore(records),
        "density_constant": str(constant),
    }


def negative_correlation_check(k: int, r: int, cfg: MCConfig) -> dict:
    """Distinct block sums are negatively correlated.

    Exact side: E[Y_j Y_l] computed through simplex moments must equal
    r/(j l k (kr+1)) and be bounded by E[Y_j] E[Y_l] = 1/(j k l k).
    Empirical side: the estimated E[Y_j Y_l] must not exceed the product of
    the estimated means by more than 4 standard errors.
    """
    if k < 2:
        raise ValueError("need k >= 2 for a pair of distinct block sums")
    spec = block_weights(k, r)
    pairs = [(j, l) for j in range(1, k + 1) for l in range(j + 1, k + 1)]

    records = []
    exact_products: dict[tuple[int, int], Fraction] = {}
    for j, l in pairs:
        form_j = AffineForm(0, [1 if (idx // r) + 1 == j else 0 for idx in range(k * r)])
        form_l = AffineForm(0, [1 if (idx // r) + 1 == l else 0 for idx in range(k * r)])
        exact = affine_product_expectation(spec, [form_j, form_l])
        closed = Fraction(r, j * l * k * (k * r + 1))
        if exact != closed:
            raise AssertionError(
                f"vertex-value expectation {exact} disagrees with closed form {closed}"
            )
        bound = Fraction(1, j * k) * Fraction(1, l * k)
        if exact > bound:
            raise AssertionError(f"E[Y_{j} Y_{l}] = {exact} exceeds {bound}")
        exact_products[(j, l)] = exact

    # statistics: all Y_j means, then all pair products
    def stats(block: np.ndarray) -> np.ndarray:
        y = _group_sums(block, k, r)
        columns = y.T.copy()
        out = np.empty((len(y), k + len(pairs)))
        out[:, :k] = y
        for col, (j, l) in enumerate(pairs, k):
            out[:, col] = columns[j - 1] * columns[l - 1]
        return out

    tally = _tally_statistics(spec, cfg, k + len(pairs), stats)
    means, errs = tally.mean(), tally.stderr()
    ok = True
    for idx, (j, l) in enumerate(pairs):
        est = float(means[k + idx])
        err = float(errs[k + idx])
        records.append(
            _record(
                "negative-correlation",
                {"k": k, "r": r, "pair": [j, l]},
                est,
                err,
                exact_products[(j, l)],
            )
        )
        if est > float(means[j - 1] * means[l - 1]) + 4 * err:
            ok = False
    return {
        "experiment": "negative-correlation",
        "params": {"k": k, "r": r, "seed": cfg.seed, "samples": cfg.samples},
        "records": records,
        "max_abs_zscore": _max_abs_zscore(records),
        "empirically_negatively_correlated": ok,
    }


def variance_bound_check(k: int, r: int, d: Sequence[int | Fraction]) -> dict:
    """Exact rational variance bound for A(t) = sum_{j,l} t_{j,l} d_l.

    Var[A] on the block-weighted simplex and E[S^2] on the standard
    (r-1)-simplex are both exact simplex expectations; the check is

        Var[A]  <=  (2/k^2) (sum_{j<=k} 1/j^2) E[S^2]

    whose constant is rational (and below pi^2/(3 k^2)).
    """
    coeffs = [Fraction(x) for x in d]
    if len(coeffs) != r:
        raise ValueError(f"need {r} coefficients, got {len(coeffs)}")
    spec = block_weights(k, r)
    form = AffineForm(0, [coeffs[idx % r] for idx in range(k * r)])
    mean = affine_product_expectation(spec, [form])
    second = affine_product_expectation(spec, [form, form])
    variance = second - mean * mean

    unit = SimplexSpec((1,) * r)
    s_form = AffineForm(0, coeffs)
    s_second = affine_product_expectation(unit, [s_form, s_form])
    constant = Fraction(2, k * k) * sum(
        (Fraction(1, j * j) for j in range(1, k + 1)), Fraction(0)
    )
    bound = constant * s_second
    holds = variance <= bound
    return {
        "experiment": "variance-bound",
        "params": {"k": k, "r": r, "d": [str(x) for x in coeffs]},
        "variance": str(variance),
        "bound": str(bound),
        "bound_constant": str(constant),
        "pi_constant": math.pi**2 / (3 * k * k),
        "holds": holds,
    }
