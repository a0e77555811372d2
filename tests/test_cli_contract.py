"""The CLI contract on outside input: exit 0, 2 or 3, never a traceback.

Fixed reproductions of inputs that once crashed, printed invalid JSON or
were read with a misspelled key silently dropped; a Hypothesis property
that swaps leaves of the shipped configs for arbitrary JSON values and
renames or inserts keys; one that swaps a whole section, or the whole
document; one that runs ``curve`` on extreme scheme arguments, loss
grids and session leaves; and one that reads command lines of the
documented grammar with the tool's parser and with the argparse parser
it replaced, which must agree.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoyqkd import FluctuationPolicy, InvalidParameterError
from decoyqkd import cli
from decoyqkd.cli import CURVE_POINTS_MAX, main
from decoyqkd.config import experiment_from_dict
from decoyqkd.sources import N_MAX_LIMIT

from helpers import reference_parse, reference_parser

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SESSION = "session-36db.json"


def shipped(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text(encoding="utf-8"))


def run(argv: list[str], err: io.StringIO | None = None) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err or io.StringIO()):
            code = main(argv)
    return code, out.getvalue()


def strict_loads(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in output")

    return json.loads(text, parse_constant=reject)


def session_with(tmp_path, **run_fields) -> str:
    doc = shipped("session-36db.json")
    doc["run"].update(run_fields)
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestOutsideInput:
    @pytest.mark.parametrize(
        "run_fields",
        [
            {"n_sigma": math.inf},
            {"intensity_ratio": [10, math.inf, 1]},
            {"total_pulses": 10**30},
            {"intensity_ratio": [1e308, 1e308, 1e308]},
            {"intensity_ratio": [10, 1e308, 1]},
            {"intensity_ratio": [10**400, 4, 1]},
        ],
    )
    def test_session_rejects(self, tmp_path, run_fields):
        cfg = session_with(tmp_path, **run_fields)
        assert run(["session", "--config", cfg])[0] == 2

    @pytest.mark.parametrize(
        "literal",
        ["1e400", "1" + "0" * 5000],
        ids=["1e400", "5001-digit-int"],
    )
    def test_numbers_past_float_or_digit_limits(self, tmp_path, literal):
        text = (CONFIGS / "session-36db.json").read_text(encoding="utf-8")
        path = tmp_path / "session.json"
        path.write_text(text.replace('"n_sigma": 10.0', f'"n_sigma": {literal}'))
        assert run(["session", "--config", str(path)])[0] == 2

    @pytest.mark.parametrize(
        "scheme, grid, name",
        [
            ("wcs-no-decoy:inf", ("0", "1", "1"), "wcs_mu=inf"),
            ("ideal-sps", ("3000", "4000", "500"), "loss_db=3500.0"),
            (" , ", ("0", "1", "1"), "no schemes given"),
            (
                "hsps-decoy:abc",
                ("0", "1", "1"),
                "scheme argument 'abc' is not a number",
            ),
            (
                "ideal-sps:0.3",
                ("0", "1", "1"),
                "scheme 'ideal-sps' takes no argument, got 0.3",
            ),
            ("ideal-sps:abc", ("0", "1", "1"), "scheme argument 'abc' is not a number"),
            (
                "ideal-sps",
                ("0", "1e-12", "1e-13"),
                "config error: --loss-step 1e-13 is too small for the grid: two "
                "points round to the same loss",
            ),
            (
                "ideal-sps",
                ("0", "1", "0"),
                "config error: --loss-step must be > 0, got 0.0",
            ),
            (
                "ideal-sps",
                ("0", "1", "-1"),
                "config error: --loss-step must be > 0, got -1.0",
            ),
        ],
        ids=[
            "infinite-mu",
            "eta-underflow",
            "no-schemes",
            "argument-not-a-number",
            "argument-to-a-kind-without-one",
            "argument-not-a-number-to-a-kind-without-one",
            "step-repeats-points",
            "zero-step",
            "negative-step",
        ],
    )
    def test_curve_names_the_value(self, scheme, grid, name):
        argv = ["curve", "--config", str(CONFIGS / SESSION), "--schemes", scheme]
        argv += ["--loss-from", grid[0], "--loss-to", grid[1], "--loss-step", grid[2]]
        err = io.StringIO()
        assert run(argv, err)[0] == 2
        assert name in err.getvalue()

    def test_sigma_flag_must_be_finite(self, tmp_path):
        cfg = session_with(tmp_path)
        assert run(["session", "--config", cfg, "--sigma", "inf"])[0] == 2

    def test_n_max_cap(self, tmp_path):
        doc = shipped("session-36db.json")
        doc["source"]["n_max"] = N_MAX_LIMIT + 1
        session = tmp_path / "session.json"
        session.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["session", "--config", str(session)])[0] == 2
        for name in ("source-hsps.json", "rates.json"):
            doc = shipped(name)
            doc.setdefault("source", {})["n_max"] = N_MAX_LIMIT + 1
            path = tmp_path / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert run(["distribution", "--config", str(path)])[0] == 2
        doc["source"]["n_max"] = N_MAX_LIMIT
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(["distribution", "--config", str(path)])
        assert code == 0
        assert strict_loads(out)["distribution"]["n_max"] == N_MAX_LIMIT
        for n_max in (0, 1):
            doc = {"source": {"kind": "ideal", "n_max": n_max}}
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert run(["distribution", "--config", str(path)])[0] == 2

    @pytest.mark.parametrize(
        "grid",
        [
            ("0", "inf", "1"),
            ("0", "60", "1e-20"),
            ("1e300", "1e300", "1"),
            ("0", str(CURVE_POINTS_MAX), "1"),
            ("0", "60", "nan"),
        ],
    )
    def test_curve_grid_cap(self, tmp_path, grid):
        loss_from, loss_to, step = grid
        argv = ["curve", "--config", str(CONFIGS / "session-36db.json")]
        argv += ["--schemes", "ideal-sps", "--loss-from", loss_from]
        argv += ["--loss-to", loss_to, "--loss-step", step]
        assert run(argv)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["session", "--config=--"],
            ["session", "--config", str(CONFIGS / SESSION), "--sigma=--"],
            ["curve", "--config", str(CONFIGS / SESSION), "--schemes=--"]
            + ["--loss-from", "0", "--loss-to", "1", "--loss-step", "1"],
        ],
        ids=["session-config", "session-sigma", "curve-schemes"],
    )
    def test_double_dash_is_no_option_value(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_near_vacuum_source_has_no_g2(self, tmp_path):
        path = tmp_path / "source.json"
        doc = {"source": {"kind": "hsps", "p_cor": 4e-301, "mu_acc": 0.0}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(["distribution", "--config", str(path)])
        assert code == 0
        assert strict_loads(out)["distribution"]["g2_zero"] is None

    @pytest.mark.parametrize("command", ["infer", "distribution"])
    def test_flux_past_float_range(self, tmp_path, command):
        doc = shipped("rates.json")
        doc["rates"].update(eta_s=4.8e-302, gate_time_ns=4.8e-302)
        path = tmp_path / "rates.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run([command, "--config", str(path)])[0] == 2

    def test_limits_are_inclusive(self):
        cfg, _ = experiment_from_dict(shipped("session-36db.json"))
        assert replace(cfg, total_pulses=2**63 - 1).total_pulses == 2**63 - 1
        with pytest.raises(InvalidParameterError):
            replace(cfg, total_pulses=2**63)
        with pytest.raises(InvalidParameterError):
            replace(cfg, n_max=N_MAX_LIMIT + 1)
        with pytest.raises(InvalidParameterError):
            FluctuationPolicy(math.inf)


# the arguments each command needs besides --config
COMMAND_ARGS = {
    "distribution": [],
    "infer": [],
    "session": [],
    "curve": ["--schemes", "ideal-sps", "--loss-from", "0", "--loss-to", "1"]
    + ["--loss-step", "1"],
}


class TestParserLimits:
    """Input past what the JSON parser or the file system takes exits 2,
    naming what failed, never with a traceback."""

    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    # deep enough for every CPython the package supports: from 3.13 the
    # parser takes 5,000 nested objects
    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"rates": ' + '{"a": ' * 100_000 + "1" + "}" * 100_001],
        ids=["arrays", "objects-in-a-section"],
    )
    def test_nesting_past_the_parser_depth(self, tmp_path, command, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        argv = [command, "--config", str(path), *COMMAND_ARGS[command]]
        assert run(argv, err)[0] == 2
        assert err.getvalue().startswith(
            f"config error: config {str(path)!r} is not valid JSON: "
        )

    @pytest.mark.parametrize("target", ["missing-dir", "directory", "manifest"])
    def test_unwritable_out(self, tmp_path, target):
        out = tmp_path / "x.json"
        if target == "missing-dir":
            out = tmp_path / "missing" / "x.json"
        elif target == "directory":
            out.mkdir()
        else:
            Path(f"{out}.manifest.json").mkdir()
        err = io.StringIO()
        argv = ["infer", "--config", str(CONFIGS / "rates.json"), "--out", str(out)]
        assert run(argv, err)[0] == 2
        assert err.getvalue().startswith(f"config error: cannot write --out {str(out)!r}")

    def test_failed_manifest_leaves_no_report(self, tmp_path):
        # every report written with --out has its sidecar, or is removed
        out = tmp_path / "x.json"
        Path(f"{out}.manifest.json").mkdir()
        argv = ["infer", "--config", str(CONFIGS / "rates.json"), "--out", str(out)]
        assert run(argv)[0] == 2
        assert not out.exists()


class TestUnknownKeys:
    """A key no reader pops exits 2 naming its path; it never stands in
    for a default."""

    @pytest.mark.parametrize(
        "command, name, block, old, new",
        [
            ("session", SESSION, "source", "vacuum_mu", "vacum_mu"),
            ("session", SESSION, "source.signal", "d_i", "D_i"),
            ("session", SESSION, "channel", "e0_background", "e0"),
            ("session", SESSION, "protocol", "q_sift", "q_shift"),
            ("session", SESSION, "run", "n_sigma", "n_sigmaa"),
            ("infer", "rates.json", "rates", None, "d_I"),
            ("distribution", "rates.json", "rates", None, "d_I"),
            ("distribution", "source-hsps.json", "source", "n_max", "nmax"),
            ("session", SESSION, "", "protocol", "protocl"),
            ("distribution", "source-hsps.json", "", "source", "sources"),
        ],
    )
    def test_exits_2_naming_the_path(self, tmp_path, command, name, block, old, new):
        doc = shipped(name)
        node = at(doc, block.split(".") if block else ())
        node[new] = node.pop(old) if old else 1e-3
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        assert run([command, "--config", str(path)], err)[0] == 2
        assert "unknown" in err.getvalue()
        assert (f"{block}.{new}" if block else new) in err.getvalue()


# command -> shipped config documents it runs on
TARGETS = (
    ("session", "session-36db.json"),
    ("distribution", "source-hsps.json"),
    ("distribution", "rates.json"),
    ("infer", "rates.json"),
)


def key_names(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from key_names(value)


# every key some reader pops: those of the shipped configs, plus the
# channel's eta and the coherent source's mu
KNOWN_KEYS = {key for _, name in TARGETS for key in key_names(shipped(name))}
KNOWN_KEYS |= {"eta", "mu"}


def dict_paths(node, prefix=()):
    if isinstance(node, dict):
        yield prefix
        for key, value in node.items():
            yield from dict_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from dict_paths(value, prefix + (index,))


def leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaf_paths(value, prefix + (index,))
    else:
        yield prefix


numbers = st.integers(min_value=-(10**30), max_value=10**30) | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
# magnitudes at the edges of the float and the C int64 ranges
EXTREME_NUMBERS = (0.0, -0.0, 5e-324, 1e308, 2**63 - 1, 2**63, 2**64)
# what a swapped leaf becomes: an extreme number six times in eight,
# another number once and any JSON value once
SWAP_VALUES = (st.sampled_from(EXTREME_NUMBERS),) * 6 + (numbers, json_values)


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_targets(draw):
    """A shipped config after 1-3 edits, each of which swaps a leaf for
    any JSON value, renames a key or inserts one; and whether an edit
    wrote a key outside ``KNOWN_KEYS``."""
    command, name = draw(st.sampled_from(TARGETS))
    doc = shipped(name)
    unknown = False
    # most edits swap a leaf: a renamed or inserted key only ever exits 2
    edits = st.sampled_from(("swap", "swap", "swap", "rename", "insert"))
    for edit in draw(st.lists(edits, min_size=1, max_size=3)):
        if edit == "swap":
            # an earlier insert may have replaced every leaf by an empty
            # container, leaving nothing to swap
            leaves = list(leaf_paths(doc))
            if leaves:
                path = draw(st.sampled_from(leaves))
                at(doc, path[:-1])[path[-1]] = draw(draw(st.sampled_from(SWAP_VALUES)))
            continue
        block = at(doc, draw(st.sampled_from(list(dict_paths(doc)))))
        key = draw(st.text(max_size=8))
        if edit == "rename" and block:
            block[key] = block.pop(draw(st.sampled_from(list(block))))
        else:
            block[key] = draw(json_values)
        unknown |= key not in KNOWN_KEYS
    return command, doc, unknown


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=500, deadline=None)
@given(target=mutated_targets())
def test_mutated_shipped_configs_keep_the_contract(workdir, target):
    command, doc, unknown = target
    path = workdir / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run([command, "--config", str(path)])
    assert code in (0, 2, 3)
    if unknown:
        assert code == 2
    if code == 0:
        report = strict_loads(out)
        assert report["report"] == command


@st.composite
def replaced_sections(draw):
    """A shipped config with one whole section, nested ones included, or
    the whole document swapped for any JSON value."""
    command, name = draw(st.sampled_from(TARGETS))
    doc = shipped(name)
    path = draw(st.sampled_from(list(dict_paths(doc))))
    value = draw(json_values)
    if not path:
        return command, value
    at(doc, path[:-1])[path[-1]] = value
    return command, doc


@settings(max_examples=100, deadline=None)
@given(target=replaced_sections())
def test_replaced_sections_keep_the_contract(workdir, target):
    command, doc = target
    path = workdir / "replaced.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run([command, "--config", str(path)])
    assert code in (0, 2, 3)
    if code == 0:
        assert strict_loads(out)["report"] == command


# numbers at and past the edges of every range, and text that is none
EXTREMES = ("0", "5e-324", "1e-310", "1e308", "inf", "-inf", "nan", "-1", "-1e-300")
EXTREMES += ("", "abc", "1e", "--")
SCHEME_TOKENS = (
    "wcs-no-decoy",
    "wcs-no-decoy:0.3",
    "hsps-no-decoy",
    "wcs-decoy-opt",
    "hsps-decoy:0.40",
    "hsps-decoy:1",
    "ideal-sps",
)
# every kind, and a name of none
SCHEME_NAMES = (
    "wcs-no-decoy",
    "hsps-no-decoy",
    "wcs-decoy-opt",
    "hsps-decoy",
    "ideal-sps",
    "coherent",
)


@st.composite
def curve_runs(draw):
    """``curve`` arguments and a session config with one channel or
    source leaf swapped: ordinary scheme tokens and a grid of at most 201
    points, then up to three of the scheme arguments and loss arguments
    replaced by extremes. An extreme grid exits 2 before any rate is
    computed, at the latest once it passes ``CURVE_POINTS_MAX``."""
    doc = shipped(SESSION)
    leaves = [p for p in leaf_paths(doc) if p[0] in ("channel", "source")]
    path = draw(st.sampled_from(leaves))
    at(doc, path[:-1])[path[-1]] = draw(
        st.floats(min_value=0.0, max_value=1.0)
        | st.integers(min_value=0, max_value=40)
        | json_values
    )
    tokens = draw(st.lists(st.sampled_from(SCHEME_TOKENS), min_size=1, max_size=4))
    grid = [
        draw(st.sampled_from(["0", "10", "36"])),
        draw(st.sampled_from(["36", "60", "100"])),
        draw(st.sampled_from(["0.5", "1", "5", "20"])),
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        extreme = draw(st.sampled_from(EXTREMES))
        slot = draw(st.integers(min_value=0, max_value=len(tokens) + 2))
        if slot < 3:
            grid[slot] = extreme
        else:
            tokens[slot - 3] = f"{draw(st.sampled_from(SCHEME_NAMES))}:{extreme}"
    return doc, tokens, grid


@settings(max_examples=200, deadline=None)
@given(target=curve_runs())
def test_curve_keeps_the_contract(workdir, target):
    doc, tokens, (loss_from, loss_to, step) = target
    path = workdir / "curve.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["curve", "--config", str(path), "--schemes", ",".join(tokens)]
    argv += [f"--loss-from={loss_from}", f"--loss-to={loss_to}"]
    argv += [f"--loss-step={step}"]
    try:
        code, out = run(argv)
    except SystemExit as exc:
        # argparse exits 2 itself on an argument that is not a number
        code, out = exc.code, ""
    assert code in (0, 2, 3)
    if code == 0:
        rows = [line.split(",") for line in out.splitlines() if line[:1] != "#"]
        assert len(rows[0]) == 1 + len(tokens)
        for row in rows[1:]:
            assert len(row) == 1 + len(tokens)
            rates = [float(v) for v in row[1:]]
            assert all(math.isfinite(r) and r >= 0.0 for r in rates)


# the documented grammar, on which the parser must agree with argparse
COMMANDS = ("distribution", "infer", "session", "curve")
REQUIRED = {
    "distribution": ["--config", "c.json"],
    "infer": ["--config", "c.json"],
    "session": ["--config", "c.json"],
    "curve": ["--config", "c.json", "--schemes", "ideal-sps"]
    + ["--loss-from", "0", "--loss-to", "1", "--loss-step", "0.5"],
}
# flags of the table, named exactly or by an unambiguous prefix
KNOWN = ("--config", "--out", "--seed", "--sigma", "--schemes", "--loss-from")
KNOWN += ("--loss-to", "--loss-step", "--conf", "--o", "--se", "--loss-t")
# ambiguous prefixes ("--=x" is one of every long flag), unknown flags,
# "--", and tokens that are no flag at all
OTHER = ("--s", "--loss", "--", "--bogus", "---", "-x", "-c", "-", "-5")
HELP = ("-h", "--help", "--he", "--h")
VALUES = ("c.json", "ideal-sps", "7", "0.5", "-5", "-.5", "-1e3", "nan", "-inf")
VALUES += ("1_0", "+3", "", "--", "-", "-x", "-5.", "--config")
# tokens from the characters flags and values are made of; a token with
# a space never starts with "-", and "--" is no value, joined or apart
LONG_PIECES = st.text(alphabet="-=cfilmnoprstu", max_size=5).map("--{}".format)
PIECES = st.text(alphabet="-=.15e_", max_size=5)
SPACED = st.sampled_from((" 7", "a b")) | st.text(alphabet="=.1e x_", max_size=5)
JOINED = (st.sampled_from((*VALUES, "-h")) | PIECES).filter(lambda v: v != "--")
PARSE_FIELDS = ("config", "out", "seed", "sigma", "schemes")
PARSE_FIELDS += ("loss_from", "loss_to", "loss_step")
REFERENCE = reference_parser()


@st.composite
def argument_lists(draw):
    """A command line of the documented grammar: a command (or an unknown
    one) followed by ``--opt value``, ``--opt=value``, flags missing their
    value and lone tokens, in any order and repeated, then perhaps help; or
    help first, followed by anything."""

    def item():
        if draw(st.booleans()):
            flag, value = draw(st.sampled_from(KNOWN)), draw(st.sampled_from(VALUES))
        else:
            flag = draw(st.sampled_from(KNOWN + OTHER) | LONG_PIECES)
            value = draw(PIECES | SPACED)
        form = draw(st.sampled_from(["apart", "apart", "joined", "alone", "token"]))
        if form == "joined":
            return [f"{flag}={draw(JOINED)}"]
        return {"apart": [flag, value], "alone": [flag], "token": [value]}[form]

    other = draw(st.integers(0, 3)) == 0
    first = draw(st.sampled_from((*HELP, "bogus", "") if other else COMMANDS))
    body = list(REQUIRED.get(first, [])) if draw(st.booleans()) else []
    # repeats, insertions and the options that are not required
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(body)))
        body[pos:pos] = item()
    # help comes last: argparse checks every flag for ambiguity before it
    # acts on any, so it refuses "-h --s" where the grammar reads help
    if draw(st.integers(0, 3)) == 0:
        body.append(draw(st.sampled_from((*HELP, "--help=", "--he=x"))))
    return [first, *body]


def parse_outcome(parse, argv: list[str]):
    """What ``parse(argv)`` returns, or the code it exits with."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                args = parse(argv)
    except SystemExit as exc:
        return exc.code
    return args


@settings(max_examples=1000, deadline=None)
@given(argv=argument_lists())
@example(argv=["session", "--config", "c.json", "--seed", "x", "-h"])
@example(argv=["session", "--s", "1", "-h"])
@example(argv=["session", "--c", "-"])
@example(argv=["session", "--c", "c.json", "--seed", "-5", "--sigma", "-.5"])
@example(argv=["session", "--c", "c.json", "--sigma", "-1e3"])
@example(argv=["session", "--c", "c.json", "--sigma=-1e3"])
@example(argv=["session", "--c=- x", "--out=a b"])
@example(argv=["session", "--c", "c.json", "--", "--seed", "1"])
@example(argv=["--he", "bogus", "--s"])
@example(argv=[])
def test_parser_agrees_with_argparse(argv):
    ours = parse_outcome(cli._parse, argv)
    theirs = parse_outcome(lambda a: reference_parse(REFERENCE, a), argv)
    if isinstance(ours, int) or isinstance(theirs, int):
        assert ours == theirs
        return
    assert ours.func is cli._COMMANDS[theirs.command][1]
    for name in PARSE_FIELDS:
        # repr tells nan and -0.0 apart
        assert repr(getattr(ours, name)) == repr(getattr(theirs, name, None)), name


@pytest.mark.parametrize(
    "argv, code",
    [
        # help where it is read, before the ambiguous --s
        (["session", "-h", "--s", "1"], 0),
        # "--" is no value, and the line stops there
        (["session", "--config=--", "-h"], 2),
        (["session", "--c=--", "--c", "c.json"], 2),
        # no token but help comes before the command
        (["--bogus", "session", "-h"], 2),
        # -h takes no tail
        (["-hh"], 2),
        (["-hx", "session"], 2),
        (["session", "-hh"], 2),
        (["session", "-h=h"], 2),
        # a value apart starting with "-" is a negative number or "-"
        (["session", "--c", "- x"], 2),
    ],
)
def test_forms_argparse_read_otherwise(argv, code):
    # the grammar's reading of forms that argparse read otherwise, on
    # CPython 3.10-3.12 or on 3.13
    assert parse_outcome(cli._parse, argv) == code
