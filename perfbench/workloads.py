"""The four workloads: inputs made from a seed, a fixed job list, and checks.

A job is one ``jetcalc`` command line.  Its check reads the command's
stdout and returns ``None`` when the output is right, or a reason when it
is not.  Expected values come from :mod:`oracles`, or from properties the
method must have; they are computed lazily and only outside timed rounds.

The seed picks marking values, leaf degrees, simplex weights, exponents and
orders.  It never picks tree shapes, levels, sample counts or anything else
that sets how much work a job does, so every seed gives the same amount of
work and the runs of different seeds can be compared.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

# Samples of most MC jobs: eight 65536-sample blocks, so the two workers
# always have blocks to share.
MC_SAMPLES = 1 << 19
REFERENCE_SAMPLES = 1 << 18
REFERENCE_SEED = 20260401
Z_LIMIT = 4.0


@dataclass
class Job:
    kind: str
    argv: list[str]
    check: Callable[[str], str | None]


@dataclass
class Workload:
    jobs: list[Job]
    # Checks that need further program runs: (job index, argv); the rerun's
    # output must be byte-identical to the job's.
    reruns: list[tuple[int, list[str]]] = field(default_factory=list)
    # Checks over several jobs' outputs: fn(outputs) -> list of (index, reason).
    relations: list[Callable[[list[str]], list[tuple[int, str]]]] = field(
        default_factory=list
    )


def _expect_equal(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got}, expected {want}"


def _field(text: str, key: str):
    return json.loads(text)[key]


def _write(workdir: Path, name: str, tree: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(tree))
    return str(path)


def _shaped_tree(rng: random.Random, widths, bundles, edge_markings) -> dict:
    """A tree whose node at depth d has widths[d] children; the shape is
    fixed and only markings and leaf degrees come from ``rng``."""

    def build(depth: int) -> dict:
        if depth == len(widths):
            return {"degree": rng.randint(1, 3)}
        return {
            "children": [
                {"markings": edge_markings(), "node": build(depth + 1)}
                for _ in range(widths[depth])
            ]
        }

    return {
        "dimension": len(widths),
        "bundles": [{"label": lab, "denominator": den} for lab, den in bundles],
        "root": build(0),
    }


def _nef_tree(n: int, f: int, g: int) -> dict:
    """nef_difference_tree(n, f, g) in JSON form, subtrees shared in memory."""
    node: dict = {"degree": 1}
    for _ in range(n):
        node = {
            "children": [
                {"markings": {"F": f, "G": 0, "L": f}, "node": node},
                {"markings": {"F": 0, "G": g, "L": -g}, "node": node},
            ]
        }
    return {
        "dimension": n,
        "bundles": [{"label": x, "denominator": 1} for x in "FGL"],
        "root": node,
    }


# -- tree-degrees ---------------------------------------------------------------


def tree_degrees(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    jobs: list[Job] = []

    def degree_check(expected: Callable[[], Fraction], what: str):
        return lambda out: _expect_equal(Fraction(_field(out, "degree")), expected(), what)

    for n in (10, 11):
        f, g = rng.sample(range(1, 6), 2)
        path = _write(workdir, f"nef{n}", _nef_tree(n, f, g))
        upto, index = rng.randint(1, n), rng.randint(1, n)
        # (-1)^j C(n,j) f^(n-j) g^j by index, prefix sums when truncated.
        by_index = [(-1) ** j * math.comb(n, j) * f ** (n - j) * g**j for j in range(n + 1)]
        jobs.append(Job("strat-degree/upto", ["strat-degree", "--tree", path, "--label", "L",
                                               "--upto", str(upto), "--json"],
                        degree_check(lambda b=by_index, u=upto: Fraction(sum(b[: u + 1])),
                                     f"nef n={n} upto={upto}")))
        jobs.append(Job("strat-degree/index", ["strat-degree", "--tree", path, "--label", "L",
                                                "--index", str(index), "--json"],
                        degree_check(lambda b=by_index, i=index: Fraction(b[i]),
                                     f"nef n={n} index={index}")))
        floor = max(sum(b[:3]) for b in (by_index, [f**n] + [0] * n, [g**n] + [0] * n))

        def nef_cmax(out, floor=floor, n=n):
            got = Fraction(_field(out, "max"))
            # Labelling every edge L (or F, or G) is one of the assignments.
            return None if got >= floor else f"nef n={n} cmax {got} below single-label {floor}"

        jobs.append(Job("strat-cmax", ["strat-cmax", "--tree", path, "--labels", "F,G,L",
                                       "--upto", "2", "--json"], nef_cmax))

    # Random trees of a fixed shape with one, two and three labels.
    for count in (1, 2, 3):
        labels = ["A", "B", "C"][:count]
        bundles = [(lab, den) for lab, den in zip(labels, (1, 2, 3))]
        tree = _shaped_tree(rng, (3, 3, 3, 2, 2, 2, 2), bundles,
                            lambda: {lab: rng.randint(-5, 5) for lab in labels})
        path = _write(workdir, f"random{count}", tree)
        for lab in labels:
            upto = rng.randint(0, 3)
            jobs.append(Job("strat-degree/upto", ["strat-degree", "--tree", path, "--label", lab,
                                                   "--upto", str(upto), "--json"],
                            degree_check(lambda t=tree, l=lab, u=upto: oracles.truncated(t, l, u),
                                         f"random{count} {lab} upto={upto}")))
        index = rng.randint(0, 3)
        jobs.append(Job("strat-degree/index", ["strat-degree", "--tree", path, "--label",
                                                labels[-1], "--index", str(index), "--json"],
                        degree_check(lambda t=tree, l=labels[-1], i=index:
                                     oracles.index_profile(t, l)[i],
                                     f"random{count} index={index}")))

        def random_cmax(out, tree=tree, labels=labels, count=count):
            got = Fraction(_field(out, "max"))
            floor = max(-oracles.truncated(tree, lab, 1) for lab in labels)
            return None if got >= floor else f"random{count} cmax {got} below {floor}"

        jobs.append(Job("strat-cmax", ["strat-cmax", "--tree", path, "--labels", ",".join(labels),
                                       "--upto", "1", "--json"], random_cmax))

    # Small trees (8 edges) where every assignment can be enumerated.
    for i in range(4):
        labels = ["A", "B", "C"]
        tree = _shaped_tree(rng, (2, 1, 2), list(zip(labels, (1, 2, 3))),
                            lambda: {lab: rng.randint(-3, 3) for lab in labels})
        path = _write(workdir, f"small{i}", tree)
        cap = i % 3
        jobs.append(Job("strat-cmax/small", ["strat-cmax", "--tree", path, "--labels", "A,B,C",
                                             "--upto", str(cap), "--json"],
                        lambda out, t=tree, c=cap, i=i: _expect_equal(
                            Fraction(_field(out, "max")),
                            oracles.brute_cmax(t, ["A", "B", "C"], c), f"small{i} cmax")))
    return Workload(jobs)


# -- exact-integrals ------------------------------------------------------------

# The documented dimension-2 averaging tree of the acceptance suite.
AVERAGING_TREE = {
    "dimension": 2,
    "bundles": [{"label": lab, "denominator": 1} for lab in ("L1", "L2", "N", "E")],
    "root": {
        "children": [
            {"markings": {"L1": 1, "E": 1},
             "node": {"children": [{"markings": {"L2": 2, "E": 2}, "node": {"degree": 1}}]}},
            {"markings": {"L1": 1, "E": 1},
             "node": {"children": [{"markings": {"L1": 2, "E": 2}, "node": {"degree": 1}}]}},
            {"markings": {"L2": 1, "E": 1},
             "node": {"children": [{"markings": {"L2": -2, "E": -2}, "node": {"degree": 1}}]}},
        ]
    },
}


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _averaging_argv(path: str, k: int) -> list[str]:
    """upsilon-integrate of the averaging tree's order-k harmonic twist."""
    return ["upsilon-integrate", "--tree", path, "--labels", _csv(["L1", "L2"] * k),
            "--a", _csv(oracles.block_weights(k, 2)), "--upto", "1", "--aux", "N",
            "--aux-scale", str(oracles.harmonic(k) / (2 * k)), "--json"]


def _sign_definite_tree(rng: random.Random, widths, labels) -> dict:
    """Every edge marks all labels with one sign, so each edge form keeps
    that sign on any weighted simplex, with or without the twist.  The sign
    is set by the edge's position (even child positive, odd negative), so
    the paths that survive each index cap, and with them the work, do not
    depend on the seed; the seed picks the magnitudes."""

    def build(depth: int) -> dict:
        if depth == len(widths):
            return {"degree": rng.randint(1, 3)}
        return {"children": [
            {"markings": {lab: (-1) ** i * rng.randint(1, 4) for lab in labels},
             "node": build(depth + 1)} for i in range(widths[depth])]}

    return {"dimension": len(widths),
            "bundles": [{"label": lab, "denominator": 1 + i % 2} for i, lab in enumerate(labels)],
            "root": build(0)}


def exact_integrals(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    avg = _write(workdir, "averaging", AVERAGING_TREE)
    jobs: list[Job] = []
    for k in (32, 64):
        jobs.append(Job("upsilon-integrate/averaging", _averaging_argv(avg, k),
                        lambda out, k=k: _expect_equal(Fraction(_field(out, "integral")),
                                                       oracles.averaging_integral(k),
                                                       f"averaging k={k}")))
    for k in (24, 48):
        jobs.append(Job("jet-bound/averaging", ["jet-bound", "--tree", avg, "--labels", "L1,L2",
                                                "--aux", "N", "--k", str(k), "--json"],
                        lambda out, k=k: _expect_equal(
                            Fraction(_field(out, "coefficient")),
                            oracles.jet_coefficient(2, k, 2) * oracles.averaging_integral(k),
                            f"averaging jet-bound k={k}")))

    relations = []
    for name, widths, labels, weights in (
            ("definite3", (3, 2, 2), ("A", "B", "C", "X"), [1, 2, 3]),
            ("definite4", (2, 2, 2, 2), ("A", "B", "C", "D", "X"), [1, 1, 2, 3])):
        tree = _sign_definite_tree(rng, widths, labels)
        path = _write(workdir, name, tree)
        n = len(widths)
        base = list(labels[:-1])
        for cap in range(n):
            scale = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            argv = ["upsilon-integrate", "--tree", path, "--labels", _csv(base), "--a",
                    _csv(weights), "--upto", str(cap), "--aux", "X", "--aux-scale", str(scale),
                    "--json"]
            jobs.append(Job("upsilon-integrate/definite", argv,
                            lambda out, t=tree, w=weights, c=cap, s=scale, b=base, nm=name:
                            _expect_equal(Fraction(_field(out, "integral")),
                                          oracles.exact_integral(t, b, w, c, "X", s),
                                          f"{nm} cap={c}")))
        # Without the twist, weights c*a scale the integral by c^(-n).
        cap = n - 1
        first = len(jobs)
        for factor in (1, 2):
            w = [factor * x for x in weights]
            jobs.append(Job("upsilon-integrate/definite",
                            ["upsilon-integrate", "--tree", path, "--labels", _csv(base), "--a",
                             _csv(w), "--upto", str(cap), "--json"],
                            lambda out, t=tree, w=w, c=cap, b=base, nm=name:
                            _expect_equal(Fraction(_field(out, "integral")),
                                          oracles.exact_integral(t, b, w, c),
                                          f"{nm} untwisted cap={c}")))

        def scaling(outputs, i=first, n=n, name=name):
            one, two = (Fraction(_field(outputs[j], "integral")) for j in (i, i + 1))
            if two * 2**n != one:
                return [(i + 1, f"{name}: doubling the weights gave {two}, not {one}/2^{n}")]
            return []

        relations.append(scaling)
        k = 3
        pair = base[:2]
        jobs.append(Job("jet-bound/definite", ["jet-bound", "--tree", path, "--labels",
                                               _csv(pair), "--aux", "X", "--k", str(k), "--json"],
                        lambda out, t=tree, k=k, p=pair, n=n, nm=name: _expect_equal(
                            Fraction(_field(out, "coefficient")),
                            oracles.jet_coefficient(n, k, 2) * oracles.exact_integral(
                                t, p * k, oracles.block_weights(k, 2), 1, "X",
                                oracles.harmonic(k) / (2 * k)),
                            f"{nm} jet-bound k={k}")))
    return Workload(jobs, relations=relations)


# -- segre-lattice ----------------------------------------------------------------

CHI_WEIGHTS = (1, 1, 2, 3)
CHI_N = 3
CHI_DEEP = 84
CHI_SWEEP = range(42, 48)  # one level per residue class modulo lcm = 6
LATTICE_M = 120


@functools.cache
def _chi_power_sums() -> dict[tuple[int, ...], list[Fraction]]:
    return {p: oracles.power_sums(CHI_WEIGHTS, p, CHI_DEEP)
            for p in oracles.exponents(CHI_N, len(CHI_WEIGHTS))}


def _check_chi(out: str, m: int) -> str | None:
    names = [f"x{i + 1}" for i in range(len(CHI_WEIGHTS))]
    got = oracles.parse_poly(_field(out, "polynomial"), names)
    sums = _chi_power_sums()
    want = {p: s[m] for p, s in sums.items() if s[m]}
    return _expect_equal(got, want, f"chi-leading m={m}")


def _check_whitney(out: str, weights, bound: int) -> str | None:
    names = [f"x{i + 1}" for i in range(len(weights))]
    got = oracles.parse_poly(_field(out, "series"), names)
    scale = Fraction(math.gcd(*weights), math.prod(weights))
    want = {}
    for degree in range(bound + 1):
        for p in oracles.exponents(degree, len(weights)):
            want[p] = scale / math.prod(a**q for a, q in zip(weights, p))
    return _expect_equal(got, want, f"whitney {weights}")


def _check_gg(out: str, k: int) -> str | None:
    data = json.loads(out)
    alpha = sum((Fraction(1, i * j) for i in range(1, k + 1) for j in range(i, k + 1)),
                Fraction(0))
    beta = sum((Fraction(1, i * i) for i in range(1, k + 1)), Fraction(0))
    body, _, den = data["class"].rpartition(")/")
    cls = oracles.parse_poly(body.lstrip("("), ["c1", "c2"]) if den else \
        oracles.parse_poly(data["class"], ["c1", "c2"])
    scale = Fraction(1, int(den)) if den else Fraction(1)
    got = {e: c * scale for e, c in cls.items()}
    want = {(2, 0): alpha / math.factorial(k), (0, 1): -beta / math.factorial(k)}
    return (_expect_equal(Fraction(data["alpha"]), alpha, f"gg alpha k={k}")
            or _expect_equal(Fraction(data["beta"]), beta, f"gg beta k={k}")
            or _expect_equal(got, want, f"gg class k={k}"))


def segre_lattice(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    weights = _csv(CHI_WEIGHTS)
    jobs = [Job("chi-leading/deep", ["chi-leading", "--weights", weights, "--n", str(CHI_N),
                                     "--m", str(CHI_DEEP), "--json"],
                functools.partial(_check_chi, m=CHI_DEEP))]
    for m in CHI_SWEEP:
        jobs.append(Job("chi-leading/sweep", ["chi-leading", "--weights", weights, "--n",
                                              str(CHI_N), "--m", str(m), "--json"],
                        functools.partial(_check_chi, m=m)))
    for _ in range(2):
        p = rng.choice(oracles.exponents(3, len(CHI_WEIGHTS)))
        jobs.append(Job("lattice-sum", ["lattice-sum", "--a", weights, "--p", _csv(p), "--m",
                                        str(LATTICE_M), "--json"],
                        lambda out, p=p: _expect_equal(
                            Fraction(_field(out, "value")),
                            oracles.power_sums(CHI_WEIGHTS, p, LATTICE_M)[LATTICE_M],
                            f"lattice-sum p={p}")))
    order = rng.sample(range(1, 6), 5)
    jobs.append(Job("whitney", ["whitney", "--weights", _csv(order), "--bound", "10", "--json"],
                    functools.partial(_check_whitney, weights=order, bound=10)))
    k = rng.randint(20, 40)
    jobs.append(Job("gg-coeff", ["gg-coeff", "--k", str(k)], functools.partial(_check_gg, k=k)))
    n, kj, m = rng.randint(2, 4), rng.randint(3, 6), rng.randint(60, 100)
    jobs.append(Job("jet-rank", ["jet-rank", "--n", str(n), "--k", str(kj), "--m", str(m),
                                 "--json"],
                    lambda out: _expect_equal(_field(out, "rank"), oracles.jet_rank(n, kj, m),
                                              f"jet-rank n={n} k={kj} m={m}")))
    return Workload(jobs)


# -- monte-carlo --------------------------------------------------------------------


def _within(estimate: float, reference: float, *errors: float, what: str) -> str | None:
    combined = math.sqrt(sum(e * e for e in errors))
    if combined == 0:
        # Every sample gave the same value (on some seeds a low cap drops
        # every path of a sign-changing tree), so the values must be equal.
        return None if estimate == reference else f"{what}: {estimate} != {reference}"
    z = (estimate - reference) / combined
    return None if abs(z) <= Z_LIMIT else f"{what}: {estimate} is {z:.2f} SE from {reference}"


def _sign_changing_tree(rng: random.Random, widths, labels, aux) -> dict:
    """Nonzero random markings; the first edge marks labels[0] positive and
    labels[1] negative with no twist, so its form changes sign on every
    weighted simplex and the exact route is refused."""
    first = [True]

    def markings():
        out = {lab: rng.choice((-1, 1)) * rng.randint(1, 4) for lab in labels}
        if first[0]:
            first[0] = False
            out[labels[0]], out[labels[1]], out[aux] = rng.randint(1, 4), -rng.randint(1, 4), 0
        return out

    return _shaped_tree(rng, widths, [(lab, 1) for lab in labels], markings)


def _check_records(out: str, exact_of: Callable[[dict], Fraction]) -> str | None:
    report = json.loads(out)
    for rec in report["records"]:
        exact = exact_of(rec["params"])
        if Fraction(rec["exact"]) != exact:
            return f"{rec['experiment']} {rec['params']}: exact {rec['exact']} != {exact}"
        if not rec["stderr"] > 0:
            return f"{rec['experiment']} {rec['params']}: stderr {rec['stderr']}"
        bad = _within(rec["estimate"], float(exact), rec["stderr"], what=rec["experiment"])
        if bad:
            return bad
        z = (rec["estimate"] - float(exact)) / rec["stderr"]
        if not math.isclose(rec["zscore"], z, rel_tol=1e-9, abs_tol=1e-12):
            return f"{rec['experiment']}: reported z {rec['zscore']}, actual {z}"
    return None


def _dirichlet_exact(params: dict) -> Fraction:
    k, r, q = params["k"], params["r"], params["moment"]
    # Density C prod y^(r-1) on the standard (k-1)-simplex, moments by Dirichlet.
    constant = Fraction(math.factorial(k * r - 1),
                        math.factorial(k - 1) * math.factorial(r - 1) ** k)
    shifted = [qi + r - 1 for qi in q]
    return constant * Fraction(math.factorial(k - 1) * math.prod(map(math.factorial, shifted)),
                               math.factorial(sum(shifted) + k - 1))


def _correlation_exact(params: dict) -> Fraction:
    k, r, (j, l) = params["k"], params["r"], params["pair"]
    return Fraction(r, j * l * k * (k * r + 1))


def _check_variance(out: str, k: int, r: int, d: list[Fraction]) -> str | None:
    report = json.loads(out)
    weights = oracles.block_weights(k, r)
    form = (Fraction(0), [d[i % r] for i in range(k * r)])
    mean = oracles.expectation(weights, [form])
    variance = oracles.expectation(weights, [form, form]) - mean**2
    constant = Fraction(2, k * k) * sum((Fraction(1, j * j) for j in range(1, k + 1)),
                                        Fraction(0))
    bound = constant * oracles.expectation([1] * r, [(Fraction(0), d)] * 2)
    got = (Fraction(report["variance"]), Fraction(report["bound"]),
           Fraction(report["bound_constant"]), report["holds"])
    return _expect_equal(got, (variance, bound, constant, variance <= bound),
                         f"variance-bound k={k} r={r}")


def monte_carlo(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    mc = ["--samples", str(MC_SAMPLES), "--workers", "2"]
    jobs: list[Job] = []

    for k, r in ((6, 2), (8, 3)):
        d = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)]
        jobs.append(Job("mc-experiment/variance-bound",
                        ["mc-experiment", "--name", "variance-bound", "--k", str(k), "--r", str(r),
                         f"--d={_csv(d)}"],
                        functools.partial(_check_variance, k=k, r=r, d=d)))

    def reference(t, labels, w, cap, aux, s):
        return oracles.sample_index_sum(t, labels, w, cap, aux, s, REFERENCE_SEED,
                                        REFERENCE_SAMPLES)

    def check_mc(out, t, labels, w, cap, aux, s, what):
        data = json.loads(out)
        if cap >= t["dimension"]:
            want, err = float(oracles.exact_integral(t, labels, w, cap, aux, s)), 0.0
        else:
            want, err, _ = reference(t, labels, w, cap, aux, s)
        return _within(data["estimate"], want, data["stderr"], err, what=what)

    # Two sign-changing trees; (cap, twist label, samples) per job.
    small = MC_SAMPLES // 4
    for name, runs in (("changing1", ((0, "X", small), (0, "X", MC_SAMPLES), (1, "X", MC_SAMPLES),
                                      (2, None, MC_SAMPLES))),
                       ("changing2", ((1, "X", small), (0, "X", MC_SAMPLES)))):
        tree = _sign_changing_tree(rng, (3, 3), ("A", "B", "X"), "X")
        path = _write(workdir, name, tree)
        weights = [rng.randint(1, 3) for _ in range(2)]
        scale = Fraction(rng.randint(1, 3), 2)
        for cap, aux, samples in runs:
            argv = ["upsilon-integrate", "--tree", path, "--labels", "A,B", "--a",
                    _csv(weights), "--upto", str(cap), "--mc", "--json", "--samples",
                    str(samples), "--workers", "2"]
            if aux:
                argv += ["--aux", aux, "--aux-scale", str(scale)]
            jobs.append(Job("upsilon-integrate/mc", argv,
                            lambda out, t=tree, w=weights, c=cap, x=aux, s=scale, nm=name:
                            check_mc(out, t, ["A", "B"], w, c, x, s, f"{nm} cap={c}")))

    avg = _write(workdir, "averaging", AVERAGING_TREE)
    k = 16
    jobs.append(Job("upsilon-integrate/mc-averaging", _averaging_argv(avg, k) + ["--mc", *mc],
                    lambda out: _within(_field(out, "estimate"),
                                        float(oracles.averaging_integral(k)),
                                        _field(out, "stderr"), what=f"averaging mc k={k}")))

    jet_tree = _sign_changing_tree(rng, (2, 3), ("A", "B", "X"), "X")
    jet_path = _write(workdir, "jet", jet_tree)
    kj = 3

    def check_jet(out):
        data = json.loads(out)
        if data["method"] != "mc":
            return f"jet-bound took the {data['method']} route on a sign-changing tree"
        mean, err, std = reference(jet_tree, ["A", "B"] * kj, oracles.block_weights(kj, 2), 1,
                                   "X", oracles.harmonic(kj) / (2 * kj))
        coeff = float(oracles.jet_coefficient(2, kj, 2))
        # jet-bound prints no standard error; the reference's spread at the
        # program's sample count stands in for it.
        return _within(data["coefficient"], coeff * mean, coeff * err,
                       coeff * std / math.sqrt(MC_SAMPLES), what=f"jet-bound mc k={kj}")

    jobs.append(Job("jet-bound/mc", ["jet-bound", "--tree", jet_path, "--labels", "A,B",
                                     "--aux", "X", "--k", str(kj), "--mc", "--json", *mc],
                    check_jet))

    # A product-trivialized tree (E = L1 + L2 + N on every edge) whose twisted
    # forms change sign, so the averaging experiment samples.
    def trivialized():
        out = {lab: rng.choice((-1, 1)) * rng.randint(1, 3) for lab in ("L1", "L2", "N")}
        out["E"] = out["L1"] + out["L2"] + out["N"]
        return out

    triv = _shaped_tree(rng, (2, 2), [(lab, 1) for lab in ("L1", "L2", "N", "E")], trivialized)
    first = triv["root"]["children"][0]["markings"]
    first.update(L1=2, L2=-1, N=0, E=1)
    triv_path = _write(workdir, "trivialized", triv)
    ks = (4, 8)

    def check_averaging(out):
        report = json.loads(out)
        target = oracles.truncated(triv, "E", 1)
        for rec, kk in zip(report["records"], ks):
            if rec["params"]["method"] != "mc" or Fraction(rec["target"]) != target:
                return f"averaging k={kk}: method {rec['params']['method']}, target {rec['target']}"
            if not rec["stderr"] > 0:
                return f"averaging k={kk}: stderr {rec['stderr']}"
            mean, err, _ = reference(triv, ["L1", "L2"] * kk, oracles.block_weights(kk, 2), 1,
                                     "N", oracles.harmonic(kk) / (2 * kk))
            bad = _within(rec["estimate"], mean, rec["stderr"], err, what=f"averaging k={kk}")
            if bad:
                return bad
            scaled = (2 * kk) ** 2 * rec["estimate"] / float(oracles.harmonic(kk)) ** 2
            if not math.isclose(rec["scaled"], scaled, rel_tol=1e-12):
                return f"averaging k={kk}: scaled {rec['scaled']} != {scaled}"
        return None if len(report["records"]) == len(ks) else "averaging: wrong record count"

    jobs.append(Job("mc-experiment/averaging",
                    ["mc-experiment", "--name", "averaging", "--tree", triv_path, "--labels",
                     "L1,L2", "--aux", "N", "--whole", "E", "--upto", "1", "--k-values",
                     _csv(ks), *mc], check_averaging))
    jobs.append(Job("mc-experiment/dirichlet-density",
                    ["mc-experiment", "--name", "dirichlet-density", "--k", "6", "--r", "2",
                     "--samples", str(1 << 18), "--workers", "2"],
                    lambda out: _check_records(out, _dirichlet_exact)))
    jobs.append(Job("mc-experiment/negative-correlation",
                    ["mc-experiment", "--name", "negative-correlation", "--k", "8", "--r", "2",
                     *mc], lambda out: _check_records(out, _correlation_exact)))
    # README's determinism rule: the worker count only schedules blocks.
    # Job 3 is the first MC_SAMPLES job on changing1.
    rerun = [a if prev != "--workers" else "1" for prev, a in zip([""] + jobs[3].argv, jobs[3].argv)]
    return Workload(jobs, reruns=[(3, rerun)])


WORKLOADS = {
    "tree-degrees": tree_degrees,
    "exact-integrals": exact_integrals,
    "segre-lattice": segre_lattice,
    "monte-carlo": monte_carlo,
}
