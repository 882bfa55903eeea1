"""Property test of the CLI exit-code contract.

One property per subcommand: random argv with flags left out, malformed,
or given small valid values, and random tree files, valid or broken (wrong
types, missing fields, bad depths, unknown labels, not JSON at all).  Each
subcommand draws only its own flags, so an edit to one subcommand's flags
does not move what another's property reaches.  A pair of flags that
argparse makes mutually exclusive is drawn as one choice: neither, one,
the other or both.  Every run must end in exit code 0, 1 or 2; any other
exception escaping ``main`` is a traceback the user would see.  Every
handler must be reached by some argv that the parser accepts, and must
exit 0 on some argv: a third of the argvs are coherent, with every value in
its flag's domain, labels drawn from the tree file's bundles and list
lengths that agree (``--a`` with ``--labels``, ``--p`` with ``--a``).
Exponent vectors (``--p``) may hold negative entries, which every handler
must refuse with exit 1.  Every domain error that README's exit-code
paragraph names must exit 1 from its handler at least once; explicit
examples back the ones the random stream reaches rarely.  The exact
integrals also draw sign-changing argvs: coherent ones on a tree whose
first edge form changes sign, which the random stream itself must carry
to the sign-change refusal.  An argv that names a tree file runs twice in
the same process and must end the same way both times.  Values stay small
so that every run is quick: at most 1024 samples and one or two workers.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jetcalc.cli import main

# 40 examples for each of the 12 subcommands: 480 in all
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

MALFORMED = st.sampled_from(["", "x", "1,,2", "2.5", "1/0", "-", "--json"])


def _text(values):
    return values.map(str)


def _int_list(lo, hi, max_size):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs))
    )


# sampled, not drawn as integers, so that negative entries come up often
EXPONENTS = st.lists(st.sampled_from(range(-2, 4)), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)
FLAG = object()  # a store_true flag: present or absent
OMIT = object()  # in an override table: leave the flag out
# A key that is a pair of flags names an argparse mutually exclusive group;
# its value holds the two flags' values.
EXCLUSIVE_CHOICES = ((), (0,), (1,), (0, 1))  # neither, one, the other, both
LABEL_LISTS = st.sampled_from(["L", "M", "L,M", "M,L", "L,L", "X", ",", "L,N"])
LABELS = st.sampled_from(["L", "M", "N", "X", ""])
TREES = st.sampled_from(["TREE", "TREE", "TREE", "MISSING"])
MC_FLAGS = {
    "--seed": _text(st.integers(-5, 2**70)),
    "--samples": _text(st.integers(-1, 1024)),
    "--workers": st.sampled_from(["1", "2", "0", "-1"]),
}

SUBCOMMANDS = {
    "gg-coeff": {"--k": _text(st.integers(-1, 6))},
    "jet-rank": {
        "--n": _text(st.integers(-1, 4)),
        "--k": _text(st.integers(-1, 4)),
        "--m": _text(st.integers(-1, 12)),
        "--json": FLAG,
    },
    "whitney": {
        "--weights": _int_list(0, 4, 3),
        "--ranks": _int_list(0, 3, 3),
        "--bound": _text(st.integers(-1, 4)),
        "--json": FLAG,
    },
    "chi-leading": {
        "--weights": _int_list(0, 4, 4),
        "--n": _text(st.integers(-1, 4)),
        "--m": _text(st.integers(-2, 12)),
        "--json": FLAG,
    },
    "simplex-moment": {
        "--a": _int_list(0, 4, 4),
        "--p": EXPONENTS,
        "--json": FLAG,
    },
    "simplex-volume": {"--a": _int_list(0, 4, 4), "--json": FLAG},
    "lattice-sum": {
        "--a": _int_list(0, 4, 4),
        "--p": EXPONENTS,
        ("--m", "--asymptotic"): (_text(st.integers(-2, 12)), FLAG),
        "--json": FLAG,
    },
    "strat-degree": {
        "--tree": TREES,
        "--label": LABELS,
        ("--upto", "--index"): (_text(st.integers(-1, 3)), _text(st.integers(-1, 3))),
        "--json": FLAG,
    },
    "strat-cmax": {
        "--tree": TREES,
        "--labels": LABEL_LISTS,
        "--upto": _text(st.integers(-1, 3)),
        "--json": FLAG,
    },
    "upsilon-integrate": {
        "--tree": TREES,
        "--labels": LABEL_LISTS,
        "--a": _int_list(0, 3, 3),
        "--upto": _text(st.integers(-1, 3)),
        "--aux": LABELS,
        "--aux-scale": st.sampled_from(["1", "1/2", "-3/2", "0"]),
        "--mc": FLAG,
        "--json": FLAG,
        **MC_FLAGS,
    },
    "jet-bound": {
        "--tree": TREES,
        "--labels": LABEL_LISTS,
        "--aux": LABELS,
        "--k": _text(st.integers(-1, 3)),
        "--mc": FLAG,
        "--json": FLAG,
        **MC_FLAGS,
    },
    "mc-experiment": {
        "--name": st.sampled_from(
            ["dirichlet-density", "negative-correlation", "variance-bound", "averaging",
             "bogus"]
        ),
        "--k": _text(st.integers(-1, 4)),
        "--r": _text(st.integers(-1, 3)),
        "--d": st.lists(st.sampled_from(["1", "-2", "1/3", "0"]), min_size=1, max_size=3).map(
            ",".join
        ),
        "--tree": TREES,
        "--labels": LABEL_LISTS,
        "--aux": LABELS,
        "--whole": LABELS,
        "--upto": _text(st.integers(-1, 3)),
        "--k-values": _int_list(0, 4, 3),
        **MC_FLAGS,
    },
}


def _list_like(flag, lo, hi):
    """Entries in lo..hi, one per entry of an earlier flag's value."""
    return lambda labels, drawn: st.lists(
        st.integers(lo, hi), min_size=len(drawn[flag].split(",")),
        max_size=len(drawn[flag].split(",")),
    ).map(lambda xs: ",".join(map(str, xs)))


def _tree_label(labels, drawn):
    return st.sampled_from(labels)


def _tree_labels(labels, drawn):
    return st.lists(st.sampled_from(labels), min_size=1, max_size=3).map(",".join)


# What a coherent argv draws instead of SUBCOMMANDS' values: strategies, or
# functions of the tree file's labels and of the values drawn so far that
# return one.  A flag not listed keeps its values.
COHERENT_MC_FLAGS = {
    "--samples": _text(st.integers(1, 1024)),
    "--workers": st.sampled_from(["1", "2"]),
}
COHERENT = {
    "gg-coeff": {"--k": _text(st.integers(1, 6))},
    "jet-rank": {
        "--n": _text(st.integers(0, 4)),
        "--k": _text(st.integers(0, 4)),
        "--m": _text(st.integers(0, 12)),
    },
    "whitney": {
        "--weights": _int_list(1, 4, 3),
        "--ranks": _list_like("--weights", 1, 3),
        "--bound": _text(st.integers(0, 4)),
    },
    "chi-leading": {
        "--weights": _int_list(1, 4, 4),
        "--n": _text(st.integers(0, 4)),
        "--m": _text(st.integers(0, 12)),
    },
    "simplex-moment": {
        "--a": _int_list(1, 4, 4),
        "--p": _list_like("--a", 0, 3),
    },
    "simplex-volume": {"--a": _int_list(1, 4, 4)},
    "lattice-sum": {
        "--a": _int_list(1, 4, 4),
        "--p": _list_like("--a", 0, 3),
        "--m": _text(st.integers(0, 12)),
    },
    "strat-degree": {"--label": _tree_label},
    "strat-cmax": {"--labels": _tree_labels},
    "upsilon-integrate": {
        "--labels": _tree_labels,
        "--a": _list_like("--labels", 1, 3),
        "--aux": _tree_label,
        **COHERENT_MC_FLAGS,
    },
    "jet-bound": {
        "--labels": _tree_labels,
        "--aux": _tree_label,
        "--k": _text(st.integers(1, 3)),
        **COHERENT_MC_FLAGS,
    },
    "mc-experiment": {
        "--name": st.sampled_from(
            ["dirichlet-density", "negative-correlation", "variance-bound"]
        ),
        "--k": _text(st.integers(2, 4)),
        "--r": _text(st.integers(1, 3)),
        "--d": lambda labels, drawn: st.lists(
            st.sampled_from(["1", "-2", "1/3", "0"]),
            min_size=int(drawn["--r"]), max_size=int(drawn["--r"]),
        ).map(",".join),
        **COHERENT_MC_FLAGS,
    },
}


# What a sign-changing argv draws instead of COHERENT's values, on a tree
# from ``sign_changing_trees``: both signed labels as base labels, the
# unmarked E as the twist label, a cap below the dimension and no --mc, so
# the exact integral meets the sign change.
SIGN_CHANGING = {
    "upsilon-integrate": {
        "--labels": st.permutations(["L", "M"]).map(",".join),
        "--aux": st.just("E"),
        "--upto": _text(st.integers(0, 1)),
        "--mc": OMIT,
    },
    "jet-bound": {
        "--labels": st.permutations(["L", "M"]).map(",".join),
        "--aux": st.just("E"),
        "--mc": OMIT,
    },
}


@st.composite
def argvs(draw, command, mode, labels):
    """The subcommand; each of its flags left out, malformed or valid.

    A noisy argv leaves flags out or malformed and may carry a stray
    token; a clean one has no malformed value; a coherent one gives every
    flag a value, exactly one of each exclusive pair, and draws from
    COHERENT where it lists the flag, with ``labels`` the tree file's; a
    sign-changing one is coherent but draws from SIGN_CHANGING first.
    """
    noisy = mode == "noisy"
    coherent = None
    if mode == "coherent":
        coherent = COHERENT.get(command, {})
    elif mode == "sign-changing":
        coherent = {**COHERENT[command], **SIGN_CHANGING[command]}
    ways = ("valid", "valid", "omit", "malformed") if noisy else ("valid",) * 9 + ("omit",)
    argv = [command]
    drawn = {}

    def add(flag, values):
        if values is FLAG:
            argv.append(flag)
            return
        how = "valid" if coherent is not None else draw(st.sampled_from(ways))
        if how == "malformed":
            argv.extend([flag, draw(MALFORMED)])
        elif how == "valid":
            if coherent is not None and flag in coherent:
                values = coherent[flag]
                if callable(values):
                    values = values(labels, drawn)
            value = drawn[flag] = draw(values)
            # argparse reads "--p -1,0" as a flag missing its value
            argv.extend([f"{flag}={value}"] if value.startswith("-") else [flag, value])

    for flag, values in SUBCOMMANDS[command].items():
        if coherent is not None and coherent.get(flag) is OMIT:
            continue
        if isinstance(flag, tuple):
            choices = EXCLUSIVE_CHOICES[1:3] if coherent is not None else EXCLUSIVE_CHOICES
            for i in draw(st.sampled_from(choices)):
                add(flag[i], values[i])
        elif flag == "--tree" and coherent is not None:
            argv.extend([flag, "TREE"])
        elif values is not FLAG or draw(st.booleans()):
            add(flag, values)
    if noisy and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--bogus", "extra"])))
    return argv


@st.composite
def valid_trees(
    draw,
    dimensions=st.integers(0, 2),
    label_lists=st.lists(st.sampled_from("LMNE"), min_size=1, max_size=4, unique=True),
    min_children=0,
):
    """A coherent tree; internal nodes below the root have at least
    ``min_children`` children (the root at least one)."""
    dimension = draw(dimensions)
    labels = draw(label_lists)

    def node(depth):
        if depth == dimension:
            return {"degree": draw(st.integers(1, 3))}
        return {
            "children": [
                {
                    "markings": {
                        label: draw(st.integers(-3, 3))
                        for label in labels
                        if draw(st.booleans())
                    },
                    "node": node(depth + 1),
                }
                for _ in range(draw(st.integers(min_children if depth else 1, 2)))
            ]
        }

    return {
        "dimension": dimension,
        "bundles": [
            {"label": label, "denominator": draw(st.integers(1, 3))} for label in labels
        ],
        "root": node(0),
    }


@st.composite
def sign_changing_trees(draw):
    """A coherent tree of dimension 2 whose first edge marks L positive, M
    negative and E not at all, and in which every internal node has a
    child, so that edge lies on a path.  Its form changes sign on every
    simplex whose base labels are L and M, with E as the twist label."""
    tree = draw(valid_trees(st.just(2), st.permutations("LME"), min_children=1))
    tree["root"]["children"][0]["markings"] = {
        "L": draw(st.integers(1, 3)),
        "M": draw(st.integers(-3, -1)),
    }
    return tree


def _objects(value):
    """Every dict and list inside a JSON value, outermost first."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _objects(item)


WRONG = st.sampled_from([None, "1", 1.5, True, [], {}, -1, 0, 10**30])


@st.composite
def tree_texts(draw, valid):
    """The text of a tree file, valid or (unless ``valid``) broken in one of
    several ways, and the labels of the tree it was made from."""
    ways = ("valid",) * 4 + ("replace", "delete", "depth", "unknown", "text")
    how = "valid" if valid else draw(st.sampled_from(ways))
    if how == "text":
        text = draw(st.sampled_from(["", "{not json", "[]", "3", "null", '"tree"', "{}"]))
        return text, []
    tree = draw(valid_trees())
    labels = [bundle["label"] for bundle in tree["bundles"]]
    containers = list(_objects(tree))
    target = draw(st.sampled_from(containers))
    if how == "replace" and target:
        key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                   else range(len(target))))
        target[key] = draw(WRONG)
    elif how == "delete" and target:
        key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                   else range(len(target))))
        del target[key]
    elif how == "depth":
        tree["dimension"] += draw(st.sampled_from([-1, 1]))
    elif how == "unknown":
        markings = [obj["markings"] for obj in containers
                    if isinstance(obj, dict) and "markings" in obj]
        if markings:
            draw(st.sampled_from(markings))["X"] = 1
    return json.dumps(tree), labels


@st.composite
def cases(draw, command):
    """An argv of the subcommand and the text of its tree file: noisy,
    clean, coherent with a valid tree file or, for the subcommands that
    SIGN_CHANGING lists, sign-changing with a tree from
    ``sign_changing_trees``."""
    modes = ("noisy", "clean", "coherent")
    if command in SIGN_CHANGING:
        modes += ("sign-changing",)
    mode = draw(st.sampled_from(modes))
    if mode == "sign-changing":
        text, labels = json.dumps(draw(sign_changing_trees())), ["L", "M", "E"]
    else:
        text, labels = draw(tree_texts(valid=mode == "coherent"))
    return draw(argvs(command, mode, labels)), text


AVERAGING_TREE = json.dumps(
    {
        "dimension": 1,
        "bundles": [{"label": label, "denominator": 1} for label in "LNE"],
        "root": {"children": [{"markings": {"L": 1, "E": 1}, "node": {"degree": 2}}]},
    }
)


# The first edge's form changes sign on every simplex with labels L,M.
SIGN_CHANGING_TREE = json.dumps(
    {
        "dimension": 2,
        "bundles": [{"label": label, "denominator": 1} for label in "LM"],
        "root": {
            "children": [
                {
                    "markings": {"L": 1, "M": -1},
                    "node": {
                        "children": [{"markings": {"L": 1, "M": 1}, "node": {"degree": 1}}]
                    },
                }
            ]
        },
    }
)


# The last two examples are the inputs nearest a division by zero: a zero
# --aux-scale denominator (argparse refuses it, exit 2) and a zero block
# count k under the variance bound's 2/k^2 (a domain error, exit 1).
EXAMPLES = {
    "mc-experiment": [
        (["mc-experiment", "--name", "averaging", "--tree", "TREE"], AVERAGING_TREE),
        (["mc-experiment", "--name", "variance-bound", "--k", "0", "--d", "1"], "3"),
    ],
    "strat-degree": [(["strat-degree", "--tree", "TREE", "--label", "L", "--upto", "0"], "3")],
    "lattice-sum": [
        (["lattice-sum", "--a", "2,3", "--p=-2,0", "--asymptotic"], "3"),
        (["lattice-sum", "--a", "2,3", "--p=-1,0", "--m", "4"], "3"),
    ],
    "simplex-moment": [(["simplex-moment", "--a", "1,2", "--p=-1,1"], "3")],
    "whitney": [(["whitney", "--weights", "1,2", "--ranks", "0,1", "--bound", "2"], "3")],
    "upsilon-integrate": [
        (["upsilon-integrate", "--tree", "TREE", "--labels", "L,M", "--a", "1,1", "--upto", "0"],
         SIGN_CHANGING_TREE),
        (["upsilon-integrate", "--tree", "TREE", "--labels", "L,M", "--a", "1,1", "--upto", "0",
          "--aux", "M", "--aux-scale", "1/0"], SIGN_CHANGING_TREE),
    ],
    "jet-bound": [
        (["jet-bound", "--tree", "TREE", "--labels", "L,M", "--aux", "M", "--k", "1"],
         SIGN_CHANGING_TREE)
    ],
}


def _negative_exponents(argv):
    return any(token.startswith("--p=-") for token in argv)


# The domain errors that README's exit-code paragraph names, by subcommand:
# each must exit 1, from its handler, on some argv of the property.
DOMAIN_ERRORS = {
    "upsilon-integrate": {
        "exact integral of a sign-changing integrand": lambda argv, err: "changes sign" in err,
    },
    "jet-bound": {
        "exact integral of a sign-changing integrand": lambda argv, err: "changes sign" in err,
    },
    "mc-experiment": {
        "averaging without --tree, --labels, --aux or --whole":
            lambda argv, err: "averaging needs --tree, --labels, --aux and --whole" in err,
    },
    "simplex-moment": {
        "negative exponent": lambda argv, err: "exponents must be non-negative" in err,
    },
    "lattice-sum": {
        "negative exponent with --m":
            lambda argv, err: "exponents must be non-negative" in err and "--m" in argv,
        "negative exponent with --asymptotic":
            lambda argv, err: "exponents must be non-negative" in err and "--asymptotic" in argv,
    },
    "whitney": {
        "rank below 1": lambda argv, err: "--ranks must be positive integers" in err,
    },
}


def _run_once(argv):
    """(exit code, stdout, stderr, whether the handler was entered) of one
    in-process run.  ``main`` returns only from the handler that the parser
    chose; a parse error leaves it through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv), out.getvalue(), err.getvalue(), True
        except SystemExit as exit_:
            return exit_.code, out.getvalue(), err.getvalue(), False


def _run(argv, tree_text):
    """``_run_once`` of one argv, with its TREE and MISSING tokens pointing
    at a temporary tree file and a missing one.  An argv that names a tree
    file runs twice on the same files, and the second run must end exactly
    as the first: the CLI keeps a file's parsed tree for the process, so a
    command that changed a shared tree, or a failed parse that was kept,
    would show here."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree.json"
        tree.write_text(tree_text)
        paths = {"TREE": str(tree), "MISSING": str(Path(tmp) / "missing.json")}
        argv = [paths.get(token, token) for token in argv]
        first = _run_once(argv)
        if "--tree" in argv:
            assert _run_once(argv) == first, argv
        return first


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_argv_exits_0_1_or_2(command):
    handled = []  # (argv, exit code, stderr) of every run that entered the handler
    drawn_sign_changes = 0  # drawn (not example) argvs refused for a sign change

    def check(case):
        nonlocal drawn_sign_changes
        argv, tree_text = case
        code, out, err, entered = _run(argv, tree_text)
        assert code in (0, 1, 2), (argv, err)
        if code == 0:
            assert out and not err
        else:
            assert not out and err
        if entered:
            handled.append((argv, code, err))
            if code == 1 and "changes sign" in err and case not in EXAMPLES.get(command, ()):
                drawn_sign_changes += 1
            if _negative_exponents(argv):
                # a negative exponent is a domain error in every handler
                assert code == 1, (argv, out)

    for case in EXAMPLES.get(command, ()):
        check = example(case)(check)
    SETTINGS(given(cases(command))(check))()
    assert handled, f"no {command} argv got past the parser to its handler"
    assert any(code == 0 for _, code, _ in handled), f"no {command} argv exited 0"
    for name, matches in DOMAIN_ERRORS.get(command, {}).items():
        assert any(
            code == 1 and matches(argv, err) for argv, code, err in handled
        ), f"no {command} argv reached the domain error: {name}"
    if command in SIGN_CHANGING:
        assert drawn_sign_changes, f"no drawn {command} argv reached the sign change"
