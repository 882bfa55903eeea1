"""Command-line front end.

One subcommand per library operation family; exact rationals are printed
canonically as ``p/q`` (lowest terms, positive denominator), floats appear
only in Monte-Carlo outputs and are printed with 17 significant digits in
text mode (full round-trip precision in JSON mode).  ``--json`` switches
every subcommand to machine-readable output.

Exit codes: 0 on success, 2 on parse errors (bad flags, malformed input
files; the diagnostic names the offending field), 1 on domain errors such
as requesting exact integration of a sign-changing integrand.

Monte-Carlo subcommands default to the fixed seed ``DEFAULT_SEED`` so runs
are reproducible without flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import integrands, lattice, mc, segre, strat
from .ring import GradedRing
from .simplex import (
    SimplexSpec,
    monomial_moment,
    volume,
)

DEFAULT_SEED = 314159265358979
DEFAULT_SAMPLES = 100_000


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 3/4, got {text!r}")


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part) for part in text.split(","))


def _float_text(x: float) -> str:
    return f"{x:.17g}"


def _load_tree(path: str) -> strat.StratTree:
    try:
        with open(path) as handle:
            data = json.load(handle)
        return strat.tree_from_dict(data)
    except OSError as err:
        raise strat.TreeStructureError(f"cannot read tree file {path!r}: {err}")
    except json.JSONDecodeError as err:
        raise strat.TreeStructureError(f"tree file {path!r} is not valid JSON: {err}")
    except RecursionError:
        raise strat.TreeStructureError(f"tree file {path!r} is nested too deeply")


def _mc_config(args) -> mc.MCConfig:
    return mc.MCConfig(seed=args.seed, samples=args.samples, workers=args.workers)


def _add_mc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--workers", type=int, default=1)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)


# -- subcommand handlers ------------------------------------------------------


def _cmd_gg_coeff(args) -> int:
    alpha, beta = segre.gg_surface_coeffs(args.k)
    cls = segre.gg_surface_class(args.k).render_over_denominator()
    print(
        json.dumps(
            {"alpha": str(alpha), "beta": str(beta), "class": cls},
            separators=(",", ":"),
        )
    )
    return 0


def _cmd_jet_rank(args) -> int:
    rank = segre.jet_rank(args.n, args.k, args.m)
    _emit(args, {"rank": rank}, str(rank))
    return 0


def _split_bundle(weights: Sequence[int], ranks: Sequence[int], bound: int):
    """Line-bundle roots x1..xe in one ring, grouped into factors by rank."""
    total = sum(ranks)
    ring = GradedRing(bound=bound, variables=tuple((f"x{i+1}", 1) for i in range(total)))
    gens = list(ring.gens())
    factors = []
    start = 0
    for rank, weight in zip(ranks, weights):
        factors.append(
            segre.BundleFactor(roots=tuple(gens[start : start + rank]), weight=weight)
        )
        start += rank
    return ring, segre.WeightedSplitBundle(factors=tuple(factors))


def _cmd_whitney(args) -> int:
    ranks = args.ranks if args.ranks else tuple(1 for _ in args.weights)
    if len(ranks) != len(args.weights):
        raise ValueError("--ranks and --weights must have the same length")
    if min(ranks) < 1:
        raise ValueError(f"--ranks must be positive integers, got {ranks}")
    _, bundle = _split_bundle(args.weights, ranks, args.bound)
    parts = [
        (segre.segre_series_split(factor.roots), factor.rank, factor.weight)
        for factor in bundle.factors
    ]
    text = segre.whitney_weighted(parts).render()
    _emit(args, {"series": text}, text)
    return 0


def _cmd_chi_leading(args) -> int:
    ranks = tuple(1 for _ in args.weights)
    _, bundle = _split_bundle(args.weights, ranks, args.n)
    if args.m is not None:
        poly = segre.chi_leading_exact(bundle, args.n, args.m)
    else:
        poly = segre.chi_leading_asymptotic(bundle, args.n)
    text = poly.render()
    _emit(args, {"polynomial": text}, text)
    return 0


def _cmd_simplex_moment(args) -> int:
    value = monomial_moment(SimplexSpec(args.a), args.p)
    _emit(args, {"moment": str(value)}, str(value))
    return 0


def _cmd_simplex_volume(args) -> int:
    surd = volume(SimplexSpec(args.a))
    _emit(
        args,
        {
            "coeff": str(surd.coeff),
            "radicand": surd.radicand,
            "value": float(surd),
        },
        surd.render(),
    )
    return 0


def _cmd_lattice_sum(args) -> int:
    spec = SimplexSpec(args.a)
    if args.m is not None:
        value = lattice.power_sum(spec, args.p, args.m)
    else:
        value = lattice.power_sum_asymptotic(spec, args.p)
    _emit(args, {"value": str(value)}, str(value))
    return 0


def _cmd_strat_degree(args) -> int:
    tree = _load_tree(args.tree)
    if args.upto is not None:
        value = strat.degree_truncated(tree, args.label, args.upto)
    else:
        value = strat.degree_by_index(tree, args.label, args.index)
    _emit(args, {"degree": str(value)}, str(value))
    return 0


def _cmd_strat_cmax(args) -> int:
    tree = _load_tree(args.tree)
    value = strat.max_marking_degree(tree, args.labels, args.upto)
    _emit(args, {"max": str(value)}, str(value))
    return 0


def _cmd_upsilon_integrate(args) -> int:
    tree = _load_tree(args.tree)
    problem = integrands.MarkedSimplexProblem(
        tree=tree,
        labels=args.labels,
        simplex=SimplexSpec(args.a),
        aux_label=args.aux,
        aux_scale=args.aux_scale,
    )
    if args.mc:
        estimate, stderr = integrands.integrate_mc(problem, args.upto, _mc_config(args))
        _emit(
            args,
            {"estimate": estimate, "stderr": stderr},
            f"{_float_text(estimate)} +- {_float_text(stderr)}",
        )
    else:
        value = integrands.integrate_exact(problem, args.upto)
        _emit(args, {"integral": str(value)}, str(value))
    return 0


def _cmd_jet_bound(args) -> int:
    tree = _load_tree(args.tree)
    cfg = _mc_config(args) if args.mc else None
    value, stderr = integrands.jet_bound_coefficient(
        tree, args.labels, args.aux, args.k, cfg
    )
    if stderr is None:
        _emit(args, {"coefficient": str(value), "method": "exact"}, str(value))
    else:
        _emit(
            args,
            {"coefficient": value, "method": "mc", "stderr": stderr},
            _float_text(value),
        )
    return 0


def _cmd_mc_experiment(args) -> int:
    cfg = _mc_config(args)
    if args.name == "dirichlet-density":
        report = mc.dirichlet_density_check(args.k, args.r, cfg)
    elif args.name == "negative-correlation":
        report = mc.negative_correlation_check(args.k, args.r, cfg)
    elif args.name == "variance-bound":
        if args.d is None:
            raise ValueError("variance-bound needs --d with r comma-separated values")
        report = mc.variance_bound_check(args.k, args.r, args.d)
    elif args.name == "averaging":
        if None in (args.tree, args.labels, args.aux, args.whole):
            raise ValueError("averaging needs --tree, --labels, --aux and --whole")
        tree = _load_tree(args.tree)
        report = integrands.averaging_experiment(
            tree,
            args.labels,
            args.aux,
            args.whole,
            args.upto,
            args.k_values,
            cfg,
        )
    else:  # unreachable with argparse choices
        raise ValueError(f"unknown experiment {args.name!r}")
    print(json.dumps(report))
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="Exact Segre/stratification-tree/simplex calculators with "
        "seeded Monte-Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gg-coeff", help="order-k surface coefficients and class")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_gg_coeff)

    p = sub.add_parser("jet-rank", help="rank of the graded order-k jet bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_jet_rank)

    p = sub.add_parser("whitney", help="total Segre series of a weighted split sum")
    p.add_argument("--weights", type=_ints, required=True)
    p.add_argument("--ranks", type=_ints, default=None)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_whitney)

    p = sub.add_parser(
        "chi-leading",
        help="leading Euler polynomial of weighted symmetric powers "
        "(exact with --m, limit coefficient without)",
    )
    p.add_argument("--weights", type=_ints, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_chi_leading)

    p = sub.add_parser("simplex-moment", help="exact monomial moment on a weighted simplex")
    p.add_argument("--a", type=_ints, required=True)
    p.add_argument("--p", type=_ints, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_simplex_moment)

    p = sub.add_parser("simplex-volume", help="exact volume of a weighted simplex")
    p.add_argument("--a", type=_ints, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_simplex_volume)

    p = sub.add_parser(
        "lattice-sum",
        help="weighted-composition power sum (--m) or its growth coefficient "
        "(--asymptotic)",
    )
    p.add_argument("--a", type=_ints, required=True)
    p.add_argument("--p", type=_ints, required=True)
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("--m", type=int, default=None)
    level.add_argument("--asymptotic", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_lattice_sum)

    p = sub.add_parser("strat-degree", help="truncated or by-index tree degree")
    p.add_argument("--tree", required=True)
    p.add_argument("--label", required=True)
    cap = p.add_mutually_exclusive_group(required=True)
    cap.add_argument("--upto", type=int, default=None)
    cap.add_argument("--index", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_strat_degree)

    p = sub.add_parser(
        "strat-cmax", help="assignment maximum of the signed truncated degree"
    )
    p.add_argument("--tree", required=True)
    p.add_argument("--labels", type=_names, required=True)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_strat_cmax)

    p = sub.add_parser(
        "upsilon-integrate",
        help="integrate the index-truncated path sum over a weighted simplex",
    )
    p.add_argument("--tree", required=True)
    p.add_argument("--labels", type=_names, required=True)
    p.add_argument("--a", type=_ints, required=True)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--aux", default=None)
    p.add_argument("--aux-scale", type=_fraction, default=Fraction(1))
    p.add_argument("--mc", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_mc_flags(p)
    p.set_defaults(handler=_cmd_upsilon_integrate)

    p = sub.add_parser(
        "jet-bound", help="order-k first-cohomology jet bound coefficient"
    )
    p.add_argument("--tree", required=True)
    p.add_argument("--labels", type=_names, required=True, help="base labels")
    p.add_argument("--aux", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_mc_flags(p)
    p.set_defaults(handler=_cmd_jet_bound)

    p = sub.add_parser("mc-experiment", help="statistical experiment suite")
    p.add_argument(
        "--name",
        required=True,
        choices=(
            "dirichlet-density",
            "negative-correlation",
            "variance-bound",
            "averaging",
        ),
    )
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--d", type=_fractions, default=None)
    p.add_argument("--tree", default=None)
    p.add_argument("--labels", type=_names, default=None)
    p.add_argument("--aux", default=None)
    p.add_argument("--whole", default=None)
    p.add_argument("--upto", type=int, default=1)
    p.add_argument("--k-values", type=_ints, default=(4, 8, 16))
    _add_mc_flags(p)
    p.set_defaults(handler=_cmd_mc_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls in the process."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except strat.TreeStructureError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
