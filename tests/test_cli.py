import json
import random
from pathlib import Path
from unittest import mock

import pytest

from _helpers import label_options, random_tree
from jetcalc import cli
from jetcalc.cli import main
from jetcalc.integrands import MarkedSimplexProblem, MixedSignError, integrate_exact
from jetcalc.simplex import SimplexSpec
from jetcalc.strat import assignment_max_brute, tree_from_dict, tree_to_dict

GOLDEN = Path(__file__).parent / "golden"
TREE = str(GOLDEN / "two_leaf_tree.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_golden_invocations(capsys):
    expected = json.loads((GOLDEN / "expected_outputs.json").read_text())
    code, out, _ = run(capsys, "gg-coeff", "--k", "3")
    assert code == 0 and out == expected["gg-coeff --k 3"]
    code, out, _ = run(capsys, "simplex-moment", "--a", "1,2", "--p", "1,1")
    assert code == 0 and out == expected["simplex-moment --a 1,2 --p 1,1"]
    code, out, _ = run(capsys, "strat-degree", "--tree", TREE, "--label", "L", "--upto", "1")
    assert code == 0 and out == expected["strat-degree --tree TREE --label L --upto 1"]


GRADED_POLY_GOLDENS = [
    "whitney --weights 3,1,4,2,5 --bound 6",
    "whitney --weights 2,3 --ranks 2,1 --bound 6",
    "chi-leading --weights 1,1,2,3 --n 3 --m 40",
    "chi-leading --weights 1,2,3 --n 3",
    "chi-leading --weights 1,1,2,3 --n 3 --m 12 --json",
    "gg-coeff --k 20",
    "gg-coeff --k 40",
]


@pytest.mark.parametrize("invocation", GRADED_POLY_GOLDENS)
def test_golden_graded_poly_outputs(capsys, invocation):
    """Byte-exact stdout of the commands that multiply and render GradedPoly."""
    expected = json.loads((GOLDEN / "expected_outputs.json").read_text())
    code, out, _ = run(capsys, *invocation.split())
    assert code == 0 and out == expected[invocation]


# Sample counts: one sample, part of a block, two whole blocks, and two whole
# blocks plus a partial one.
MC_SAMPLE_COUNTS = (1, 1000, 1 << 17, (1 << 17) + 12345)
MC_TREES = {
    "SIGN_TREE": str(GOLDEN / "sign_changing_tree.json"),
    "TRIV_TREE": str(GOLDEN / "trivialized_tree.json"),
    "ONE_EDGE_TREE": str(GOLDEN / "one_edge_tree.json"),
}
MC_GOLDENS = [
    f"upsilon-integrate --tree SIGN_TREE --labels A,B --a 1,2 --upto {cap}{aux}"
    f" --mc --samples {n} --workers {w}"
    for cap in range(-1, 4)
    for aux in ("", " --aux X --aux-scale 1/2")
    for n in MC_SAMPLE_COUNTS
    for w in (1, 2)
] + [
    f"jet-bound --tree SIGN_TREE --labels A,B --aux X --k {k} --mc --json --samples {n} --workers 2"
    for k in (1, 3, 8, 16)
    for n in (1000, (1 << 17) + 12345)
] + [
    f"mc-experiment --name {name} --k {k} --r {r} --samples {n} --workers 2"
    for name, ks in (("dirichlet-density", (1, 6)), ("negative-correlation", (2, 8)))
    for k in ks
    for r in (2, 3, 8, 9)
    for n in (1000, (1 << 17) + 12345)
] + [
    "mc-experiment --name averaging --tree TRIV_TREE --labels L1,L2 --aux N --whole E"
    f" --upto 1 --k-values 2,4 --samples {n} --workers 2"
    for n in (1000, (1 << 17) + 12345)
] + [
    # one distinct edge at arity 8: t @ C.T is a matrix-vector product whose
    # rounding depends on the chunk's row count (three 4115-row chunks here)
    "upsilon-integrate --tree ONE_EDGE_TREE --labels A,B,A,B,A,B,A,B --a 1,2,3,1,2,3,1,2"
    " --upto 0 --mc --samples 12345 --workers 2",
]


@pytest.mark.parametrize("invocation", MC_GOLDENS)
def test_golden_mc_outputs(capsys, invocation):
    """Byte-exact stdout of Monte-Carlo commands: the bits of the sampled
    statistics and of their block tallies under the determinism contract."""
    expected = json.loads((GOLDEN / "expected_outputs.json").read_text())
    code, out, _ = run(capsys, *(MC_TREES.get(a, a) for a in invocation.split()))
    assert code == 0 and out == expected[invocation]


def test_gg_coeff_k2(capsys):
    code, out, _ = run(capsys, "gg-coeff", "--k", "2")
    assert code == 0
    assert json.loads(out) == {
        "alpha": "7/4",
        "beta": "5/4",
        "class": "(7*c1^2 - 5*c2)/8",
    }


def test_jet_rank(capsys):
    code, out, _ = run(capsys, "jet-rank", "--n", "2", "--k", "1", "--m", "2")
    assert code == 0 and out == "3"
    code, out, _ = run(capsys, "jet-rank", "--n", "1", "--k", "2", "--m", "3", "--json")
    assert code == 0 and json.loads(out) == {"rank": 2}


def test_whitney(capsys):
    code, out, _ = run(capsys, "whitney", "--weights", "1,2", "--bound", "1")
    assert code == 0 and out == "1/2 + 1/2*x1 + 1/4*x2"


def test_chi_leading(capsys):
    code, out, _ = run(capsys, "chi-leading", "--weights", "1,1", "--n", "1", "--m", "4")
    assert code == 0 and out == "10*x1 + 10*x2"
    code, out, _ = run(capsys, "chi-leading", "--weights", "1,2", "--n", "1")
    assert code == 0 and out == "1/2*x1 + 1/4*x2"


def test_simplex_volume(capsys):
    code, out, _ = run(capsys, "simplex-volume", "--a", "1,1")
    assert code == 0 and out == "sqrt(2)"
    code, out, _ = run(capsys, "simplex-volume", "--a", "1,1,1", "--json")
    data = json.loads(out)
    assert code == 0 and data["coeff"] == "1/2" and data["radicand"] == 3


def test_lattice_sum(capsys):
    code, out, _ = run(capsys, "lattice-sum", "--a", "1,2", "--p", "0,0", "--m", "6")
    assert code == 0 and out == "4"
    code, out, _ = run(capsys, "lattice-sum", "--a", "1,2", "--p", "0,0", "--asymptotic")
    assert code == 0 and out == "1/2"
    with pytest.raises(SystemExit) as exc:
        main(["lattice-sum", "--a", "1,2", "--p", "0,0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("powers", ["-2,0", "-1,0"])
def test_lattice_sum_asymptotic_rejects_negative_exponents(capsys, powers):
    # unchecked, -2,0 would reach Fraction(1, 1.5) and -1,0 would print 1/3
    code, out, err = run(capsys, "lattice-sum", "--a", "2,3", f"--p={powers}", "--asymptotic")
    assert code == 1 and out == "" and "exponents must be non-negative" in err


@pytest.mark.parametrize("ranks", ["-1,3", "0,3", "1,2,1"])
def test_whitney_rejects_bad_ranks(capsys, ranks):
    # unchecked, rank -1 would slice the generators from the end and print
    # the series for ranks (1, 1)
    code, out, err = run(capsys, "whitney", "--weights", "1,2", f"--ranks={ranks}", "--bound", "2")
    assert code == 1 and out == "" and "--ranks" in err


def test_strat_degree_by_index(capsys):
    code, out, _ = run(capsys, "strat-degree", "--tree", TREE, "--label", "L", "--index", "1")
    assert code == 0 and out == "-1"


@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "one of the arguments --upto --index is required"),
        (["--upto", "1", "--index", "1"], "argument --index: not allowed with argument --upto"),
    ],
)
def test_strat_degree_needs_exactly_one_of_upto_and_index(capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["strat-degree", "--tree", TREE, "--label", "L", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: jetcalc strat-degree") and message in err


def test_strat_cmax(capsys, tmp_path):
    tree = {
        "dimension": 1,
        "bundles": [
            {"label": "L1", "denominator": 1},
            {"label": "L2", "denominator": 1},
        ],
        "root": {"children": [{"markings": {"L1": 1, "L2": -2}, "node": {"degree": 1}}]},
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, out, _ = run(capsys, "strat-cmax", "--tree", str(path), "--labels", "L1,L2", "--upto", "1")
    assert code == 0 and out == "2"
    code, out, _ = run(capsys, "strat-cmax", "--tree", str(path), "--labels", "L1,L2", "--upto", "0")
    assert code == 0 and out == "1"
    # strat-cmax takes no --algorithm flag: the subtree dp is its only method
    with pytest.raises(SystemExit) as exc:
        main(["strat-cmax", "--tree", str(path), "--labels", "L1,L2", "--upto", "0",
              "--algorithm", "dp"])
    assert exc.value.code == 2


def test_negative_cap_admits_no_path(capsys):
    # every tree command reads a negative cap the same way: no path qualifies
    code, out, err = run(capsys, "strat-cmax", "--tree", TREE, "--labels", "L", "--upto", "-1")
    assert (code, out, err) == (0, "0", "")
    tree = tree_from_dict(json.loads(Path(TREE).read_text()))
    assert assignment_max_brute(tree.root, label_options(tree, ["L"]), -1) == 0
    code, out, _ = run(capsys, "strat-degree", "--tree", TREE, "--label", "L", "--upto", "-1")
    assert code == 0 and out == "0"


def test_upsilon_integrate_exact_and_mc(capsys, tmp_path):
    tree = {
        "dimension": 1,
        "bundles": [
            {"label": "L1", "denominator": 1},
            {"label": "L2", "denominator": 1},
        ],
        "root": {
            "children": [
                {"markings": {"L1": 1, "L2": 0}, "node": {"degree": 1}},
                {"markings": {"L1": 0, "L2": -1}, "node": {"degree": 1}},
            ]
        },
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, out, _ = run(
        capsys, "upsilon-integrate", "--tree", str(path), "--labels", "L1,L2",
        "--a", "1,1", "--upto", "0",
    )
    assert code == 0 and out == "1/2"
    code, out, _ = run(
        capsys, "upsilon-integrate", "--tree", str(path), "--labels", "L1,L2",
        "--a", "1,1", "--upto", "0", "--mc", "--samples", "20000", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["estimate"] - 0.5) <= 5 * data["stderr"]


def test_upsilon_integrate_mixed_sign_is_domain_error(capsys, tmp_path):
    tree = {
        "dimension": 1,
        "bundles": [
            {"label": "L1", "denominator": 1},
            {"label": "L2", "denominator": 1},
        ],
        "root": {"children": [{"markings": {"L1": 1, "L2": -1}, "node": {"degree": 1}}]},
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, _, err = run(
        capsys, "upsilon-integrate", "--tree", str(path), "--labels", "L1,L2",
        "--a", "1,1", "--upto", "0",
    )
    assert code == 1 and "sign" in err


def test_mixed_sign_error_names_the_edge_and_its_vertex_values(capsys, tmp_path):
    # the edge at root->1->0 marks t1 - t2/2, worth 1 at e1 and -1/4 at e2/2
    tree = {
        "dimension": 2,
        "bundles": [
            {"label": "L1", "denominator": 1},
            {"label": "L2", "denominator": 2},
        ],
        "root": {
            "children": [
                {
                    "markings": {"L1": 1, "L2": 0},
                    "node": {"children": [{"markings": {"L1": 1, "L2": 0}, "node": {"degree": 1}}]},
                },
                {
                    "markings": {"L1": 0, "L2": 1},
                    "node": {"children": [{"markings": {"L1": 1, "L2": -1}, "node": {"degree": 1}}]},
                },
            ]
        },
    }
    message = (
        "the edge form at root→1→0 changes sign on the simplex "
        "(vertex values 1, -1/4); use Monte-Carlo integration"
    )
    prob = MarkedSimplexProblem(
        tree=tree_from_dict(tree), labels=("L1", "L2"), simplex=SimplexSpec((1, 2))
    )
    with pytest.raises(MixedSignError) as raised:
        integrate_exact(prob, 0)
    assert str(raised.value) == message
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, out, err = run(
        capsys, "upsilon-integrate", "--tree", str(path), "--labels", "L1,L2",
        "--a", "1,2", "--upto", "0",
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_jet_bound(capsys, tmp_path):
    tree = {
        "dimension": 1,
        "bundles": [
            {"label": "L", "denominator": 1},
            {"label": "N", "denominator": 1},
        ],
        "root": {
            "children": [
                {"markings": {"L": 2, "N": 0}, "node": {"degree": 1}},
                {"markings": {"L": 1, "N": 0}, "node": {"degree": 3}},
            ]
        },
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, out, _ = run(capsys, "jet-bound", "--tree", str(path), "--labels", "L", "--aux", "N", "--k", "2")
    assert code == 0 and out == "15/4"  # H_2 * 5 / 2!


def test_jet_bound_mc_json_reports_stderr(capsys, tmp_path):
    # each edge's mark on the k=2 block simplex changes sign, so MC runs
    edge = {"markings": {"L": 2, "N": -2}}
    tree = {
        "dimension": 2,
        "bundles": [
            {"label": "L", "denominator": 1},
            {"label": "N", "denominator": 1},
        ],
        "root": {
            "children": [{**edge, "node": {"children": [{**edge, "node": {"degree": 1}}]}}]
        },
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    argv = ["jet-bound", "--tree", str(path), "--labels", "L", "--aux", "N", "--k", "2",
            "--mc", "--samples", "20000"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "mc"
    assert isinstance(data["stderr"], float) and data["stderr"] > 0
    code, text, _ = run(capsys, *argv)
    assert code == 0 and float(text) == data["coefficient"]


def _deep_text(depth):
    # built as text: json.dump of so deep an object overflows too
    root = '{"children": [{"markings": {"L": 1}, "node": ' * depth + '{"degree": 1}'
    root += "}]}" * depth
    return (
        f'{{"dimension": {depth}, "bundles": [{{"label": "L", "denominator": 1}}], '
        f'"root": {root}}}'
    )


def test_deep_tree_file_is_a_parse_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(_deep_text(5000))
    code, out, err = run(capsys, "strat-degree", "--tree", str(deep), "--label", "L", "--upto", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "nested too deeply" in err


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "strat-degree", "--tree", str(bad), "--label", "L", "--upto", "0")
    assert code == 2 and "not valid JSON" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(
        json.dumps(
            {
                "dimension": 1,
                "bundles": [{"label": "L", "denominator": 1}],
                "root": {"children": [{"markings": {"X": 1}, "node": {"degree": 1}}]},
            }
        )
    )
    code, _, err = run(capsys, "strat-degree", "--tree", str(unknown), "--label", "L", "--upto", "0")
    assert code == 2 and "unknown label 'X'" in err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dimension": 1, "bundles": []}))
    code, _, err = run(capsys, "strat-degree", "--tree", str(missing), "--label", "L", "--upto", "0")
    assert code == 2 and "missing field 'root'" in err

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


LABELLED_TREE = {
    "dimension": 2,
    "bundles": [{"label": label, "denominator": 1} for label in "LNE"],
    "root": {
        "children": [
            {
                "markings": {"L": 1, "N": 1, "E": 1},
                "node": {
                    "children": [
                        {"markings": {"L": 2, "N": 1, "E": 2}, "node": {"degree": 1}}
                    ]
                },
            }
        ]
    },
}


@pytest.mark.parametrize(
    "argv",
    [
        ["strat-degree", "--label", "X", "--upto", "0"],
        ["strat-degree", "--label", "X", "--index", "0"],
        ["strat-cmax", "--labels", "L,X", "--upto", "0"],
        ["upsilon-integrate", "--labels", "L,X", "--a", "1,1", "--upto", "0"],
        ["upsilon-integrate", "--labels", "L", "--a", "1", "--aux", "X", "--upto", "0"],
        ["upsilon-integrate", "--labels", "L", "--a", "1", "--aux", "X", "--upto", "0",
         "--mc", "--samples", "8"],
        ["jet-bound", "--labels", "L,X", "--aux", "N", "--k", "1"],
        ["jet-bound", "--labels", "L", "--aux", "X", "--k", "1"],
        ["mc-experiment", "--name", "averaging", "--labels", "X", "--aux", "N",
         "--whole", "E", "--k-values", "1", "--samples", "8"],
        ["mc-experiment", "--name", "averaging", "--labels", "L", "--aux", "X",
         "--whole", "E", "--k-values", "1", "--samples", "8"],
        ["mc-experiment", "--name", "averaging", "--labels", "L", "--aux", "N",
         "--whole", "X", "--k-values", "1", "--samples", "8"],
    ],
)
def test_undeclared_label_is_a_domain_error(capsys, tmp_path, argv):
    # every flag that names a label looks it up through the tree's
    # declaration, which raises a ValueError, never a KeyError
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(LABELLED_TREE))
    code, out, err = run(capsys, argv[0], "--tree", str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == "error: label 'X' is not declared\n"


def test_key_error_is_not_a_domain_error():
    # no input reaches a KeyError (the labels above, and the CLI property's
    # argvs, exit 0, 1 or 2 without one), so one escapes main as the
    # internal error it is instead of exiting 1
    with mock.patch.object(cli.segre, "gg_surface_coeffs", side_effect=KeyError("x")):
        with pytest.raises(KeyError):
            main(["gg-coeff", "--k", "2"])


def test_one_parser_serves_consecutive_commands(capsys):
    # the parser is built once per process; a parse error between two
    # commands still exits 2, and no flag value carries over to the next
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
        code, out, _ = run(capsys, "chi-leading", "--weights", "1,1", "--n", "1", "--m", "4")
        assert code == 0 and out == "10*x1 + 10*x2"
        with pytest.raises(SystemExit) as exc:
            main(["jet-rank", "--n", "2"])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        code, out, _ = run(capsys, "jet-rank", "--n", "2", "--k", "1", "--m", "3")
        assert code == 0 and out == "4"
        code, out, _ = run(capsys, "chi-leading", "--weights", "1,1", "--n", "1")
        assert code == 0 and out == "x1 + x2"
    assert build.call_count == 1


def test_mc_experiment_reports(capsys, tmp_path):
    code, out, _ = run(
        capsys, "mc-experiment", "--name", "variance-bound", "--k", "2", "--r", "1",
        "--d", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["holds"] and report["variance"] == "1/48"

    code, out, _ = run(
        capsys, "mc-experiment", "--name", "dirichlet-density", "--k", "2", "--r", "1",
        "--samples", "20000",
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_abs_zscore"] <= 4
    for rec in report["records"]:
        assert set(rec) == {"experiment", "params", "estimate", "stderr", "exact", "zscore"}

    tree = {
        "dimension": 1,
        "bundles": [
            {"label": "L", "denominator": 1},
            {"label": "N", "denominator": 1},
            {"label": "E", "denominator": 1},
        ],
        "root": {
            "children": [{"markings": {"L": 1, "N": 0, "E": 1}, "node": {"degree": 2}}]
        },
    }
    path = tmp_path / "avg.json"
    path.write_text(json.dumps(tree))
    code, out, _ = run(
        capsys, "mc-experiment", "--name", "averaging", "--tree", str(path),
        "--labels", "L", "--aux", "N", "--whole", "E", "--upto", "1",
        "--k-values", "1,2", "--samples", "1000",
    )
    assert code == 0
    report = json.loads(out)
    assert [row["params"]["k"] for row in report["records"]] == [1, 2]


def test_mc_experiment_zero_stderr_has_no_zscore(capsys):
    # one sample has no standard error: no z-score may be reported as passing
    for name in ("dirichlet-density", "negative-correlation"):
        code, out, _ = run(
            capsys, "mc-experiment", "--name", name, "--k", "2", "--r", "1",
            "--samples", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_abs_zscore"] is None
        for rec in report["records"]:
            assert rec["stderr"] == 0 and rec["zscore"] is None


def test_tree_roundtrip_through_cli_format(tmp_path):
    rng = random.Random(67)
    for _ in range(10):
        tree = random_tree(rng, rng.randint(0, 2), (("L", 1), ("M", 3)))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tree_to_dict(tree)))
        assert tree_from_dict(json.loads(path.read_text())) == tree


def test_averaging_without_its_labels_is_a_domain_error(capsys, tmp_path):
    # each of --labels, --aux and --whole is required by the averaging experiment
    path = tmp_path / "avg.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 1,
                "bundles": [{"label": label, "denominator": 1} for label in "LNE"],
                "root": {"children": [{"markings": {"L": 1, "E": 1}, "node": {"degree": 2}}]},
            }
        )
    )
    flags = {"--labels": "L", "--aux": "N", "--whole": "E"}
    for left_out in flags:
        argv = ["mc-experiment", "--name", "averaging", "--tree", str(path)]
        for flag, value in flags.items():
            if flag != left_out:
                argv += [flag, value]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "averaging needs --tree, --labels, --aux and --whole" in err


# -- the tree loader's parse cache --------------------------------------------

# L + N = E on the one edge, so the averaging experiment accepts the tree too
CACHED_TREE = {
    "dimension": 1,
    "bundles": [{"label": label, "denominator": 1} for label in "LNE"],
    "root": {"children": [{"markings": {"L": 1, "N": 2, "E": 3}, "node": {"degree": 2}}]},
}
TREE_READERS = [
    ["strat-degree", "--label", "E", "--upto", "1"],
    ["strat-degree", "--label", "L", "--index", "0"],
    ["strat-cmax", "--labels", "L,N", "--upto", "0"],
    ["upsilon-integrate", "--labels", "L,N", "--a", "1,2", "--upto", "1"],
    ["upsilon-integrate", "--labels", "L,N", "--a", "1,2", "--upto", "1", "--aux", "E",
     "--mc", "--samples", "64", "--workers", "2"],
    ["jet-bound", "--labels", "L", "--aux", "N", "--k", "2"],
    ["mc-experiment", "--name", "averaging", "--labels", "L", "--aux", "N", "--whole", "E",
     "--k-values", "1,2", "--samples", "64"],
]


def _degree_command(path):
    return ["strat-degree", "--tree", str(path), "--label", "L", "--upto", "1"]


def _one_edge_tree(marking):
    """A one-edge tree of dimension 1 whose L degree is ``marking``."""
    return {
        "dimension": 1,
        "bundles": [{"label": "L", "denominator": 1}],
        "root": {"children": [{"markings": {"L": marking}, "node": {"degree": 1}}]},
    }


def test_every_tree_command_parses_a_file_once(capsys, tmp_path):
    # one file read 3 times by each tree command: one parse, and each
    # command prints the same bytes every time
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(CACHED_TREE))
    cli._parse_tree.cache_clear()
    for argv in TREE_READERS:
        runs = {run(capsys, argv[0], "--tree", str(path), *argv[1:]) for _ in range(3)}
        assert len(runs) == 1
        (code, out, err), = runs
        assert (code, err) == (0, "") and out
    info = cli._parse_tree.cache_info()
    assert (info.misses, info.hits) == (1, 3 * len(TREE_READERS) - 1)


def test_same_text_at_two_paths_is_parsed_once(tmp_path):
    text = json.dumps(CACHED_TREE)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(text)
    second.write_text(text)
    cli._parse_tree.cache_clear()
    tree = cli._load_tree(str(first))
    assert cli._load_tree(str(second)) is tree
    assert tree == tree_from_dict(CACHED_TREE)
    assert cli._parse_tree.cache_info().misses == 1


def test_a_file_rewritten_in_place_is_read_again(capsys, tmp_path):
    # same size, different marking: the text, not the path or the size, is the key
    path = tmp_path / "tree.json"
    cli._parse_tree.cache_clear()
    for marking in (3, 5, 3):
        path.write_text(json.dumps(_one_edge_tree(marking)))
        assert run(capsys, *_degree_command(path)) == (0, str(marking), "")
    assert cli._parse_tree.cache_info().misses == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "not valid JSON"),
        (json.dumps({**_one_edge_tree(1), "bundles": []}), "unknown label 'L'"),
        (_deep_text(5000), "nested too deeply"),
        (None, "cannot read tree file"),
    ],
    ids=["invalid-json", "unknown-label", "depth-5000", "missing-path"],
)
def test_a_failed_parse_is_not_kept(capsys, tmp_path, text, message):
    # each failure repeats with the same exit code and message, the file is
    # parsed again every time, and once it is fixed the command succeeds
    path = tmp_path / "tree.json"
    if text is not None:
        path.write_text(text)
    cli._parse_tree.cache_clear()
    first = run(capsys, *_degree_command(path))
    assert first[:2] == (2, "") and message in first[2]
    assert run(capsys, *_degree_command(path)) == first
    info = cli._parse_tree.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0 if text is None else 2, 0, 0)
    path.write_text(json.dumps(_one_edge_tree(7)))
    assert run(capsys, *_degree_command(path)) == (0, "7", "")


def test_more_files_than_the_cache_holds(capsys, tmp_path):
    # one file more than the bound evicts the first; read again, it is
    # parsed again and still gives its own value
    size = cli._parse_tree.cache_parameters()["maxsize"]
    cli._parse_tree.cache_clear()
    paths = []
    for marking in range(1, size + 2):
        path = tmp_path / f"tree{marking}.json"
        path.write_text(json.dumps(_one_edge_tree(marking)))
        paths.append(path)
        assert run(capsys, *_degree_command(path)) == (0, str(marking), "")
    assert run(capsys, *_degree_command(paths[0])) == (0, "1", "")
    info = cli._parse_tree.cache_info()
    assert info.currsize == size and info.misses == size + 2


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["upsilon-integrate", "--tree", TREE, "--labels", "L", "--a", "1", "--upto", "0",
          "--aux", "L", "--aux-scale", "1/0"], 2, "expected a rational like 3/4, got '1/0'"),
        (["mc-experiment", "--name", "variance-bound", "--k", "0", "--d", "1"], 1,
         "error: k and r must be >= 1\n"),
    ],
)
def test_inputs_nearest_a_division_by_zero(capsys, argv, code, message):
    # no handler divides by a value the user gives without checking it
    # first, so main catches no ZeroDivisionError
    try:
        got = main(argv)
    except SystemExit as exit_:
        got = exit_.code
    err = capsys.readouterr().err
    assert got == code and message in err
