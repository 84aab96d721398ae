"""``cli.main`` reads well-formed argv from the argument table itself and
hands every other argv to argparse.

The reader either declines an argv or makes the namespace argparse makes
of it, ``func`` included.  What it declines, argparse reads: help, usage
and error texts stay argparse's.  A well-formed command does not import
argparse, nor the ``gettext`` and ``locale`` that it brings in.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from relaydof import cli
from test_lazy_imports import COMMANDS, bad_files, files, stdlib_loaded_by_main  # noqa: F401

ARGUMENTS = [(command, name, spec) for command, (_, arguments) in cli._ARGUMENTS.items() for name, spec in arguments]
WORDS = ["t.json", "d.json", "x"]
TOKENS = st.sampled_from(
    sorted(
        {*cli._ARGUMENTS, *(name for _, name, _ in ARGUMENTS), *(c for *_, spec in ARGUMENTS for c in spec.get("choices", ()))}
    )
    + WORDS
    + ["--form", "--dec", "--o", "--format=json", "--out=o.csv", "--", "-h", "--help", "-x", "", "-", "-1", "ANALYZE"]
)
PARSER = cli.build_parser()


@st.composite
def near_well_formed(draw):
    """A command's arguments in a drawn order, with values from its choices or
    plain words, then up to two edits, each splicing in a token of any kind
    or dropping one: well-formed argv and ones a token or two away."""
    command = draw(st.sampled_from(sorted(cli._ARGUMENTS)))
    groups = []
    for name, spec in cli._ARGUMENTS[command][1]:
        if not name.startswith("-"):
            groups.append([draw(st.sampled_from(WORDS))])
        elif spec.get("action") == "store_true":
            groups += [[name]] * draw(st.integers(0, 2))
        elif spec.get("required") or draw(st.booleans()):
            groups.append([name, draw(st.sampled_from(spec.get("choices", WORDS)))])
    tokens = [token for group in draw(st.permutations(groups)) for token in group]
    for insert in draw(st.lists(st.booleans(), max_size=2)):
        if insert:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(TOKENS))
        elif tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
    return [command, *tokens]


def parsed(argv):
    return vars(PARSER.parse_args(argv))


@settings(max_examples=400, deadline=None)
@given(argv=near_well_formed() | st.lists(TOKENS, max_size=7))
def test_the_reader_declines_or_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == parsed(argv)


WELL_FORMED = [
    ["analyze", "t.json"],
    ["analyze", "--decimal", "--format", "csv", "t.json"],
    ["analyze", "t.json", "--format", "json", "--format", "table", "--decimal", "--decimal"],
    ["analyze", ""],
    ["check", "t.json", "--format", "table", "d.json"],
    ["check", "--decimal", "t.json", "d.json"],
    ["schedule", "--demand", "d.json", "t.json", "--format", "dot"],
    ["schedule", "t.json", "--demand", "analyze"],
    ["classify", "f.json"],
    ["sweep", "--out", "rows.csv", "f.json"],
    ["sweep", "f.json", "--out", "check"],
]


@pytest.mark.parametrize("argv", WELL_FORMED)
def test_the_reader_reads_a_well_formed_argv(argv):
    read = cli._read_argv(argv)
    assert read is not None and vars(read) == parsed(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--format", "json", "analyze", "t.json"],
        ["ANALYZE", "t.json"],
        ["analyze"],
        ["analyze", "t.json", "x"],
        ["check", "t.json"],
        ["analyze", "t.json", "--form", "json"],
        ["analyze", "t.json", "--format=json"],
        ["analyze", "--", "t.json"],
        ["analyze", "t.json", "-h"],
        ["analyze", "t.json", "--format", "xml"],
        ["analyze", "t.json", "--format"],
        ["analyze", "t.json", "--format", "-x"],
        ["analyze", "t.json", "--out", "o.csv"],
        ["schedule", "t.json", "--demand", "-1"],
        ["schedule", "t.json", "--decimal"],
        ["sweep", "f.json"],
        ["analyze", "-"],
    ],
)
def test_the_reader_leaves_argv_to_argparse(argv):
    assert cli._read_argv(argv) is None


# -- what argparse writes ------------------------------------------------------

TOPOLOGY = '{"layers":[{"nodes":3},{"nodes":2},{"nodes":3}]}'
TABLE = (
    "achievable sum DoF    3/4\n"
    "achievable per hop    3/2, 3/2\n"
    "cut-set bound         1\n"
    "cut-set per hop       2, 2\n"
    "inverse gap           1/3\n"
    "absolute gap          1/4\n"
    "fractional gap bound  1/3\n"
    "bounding hops         0, 1\n"
    "optimal               no\n"
    "ultimate capacity     3/2\n"
    "relay loss factor     5/6\n"
)
# The texts relaydof owns, pinned: the prog name, the description and the
# argument table's help strings.  Everything else in a help, usage or error
# text is argparse's and may change with the interpreter's patch release.
OWN_TEXTS = {
    (): [
        "usage: relaydof ",
        "Exact DoF bounds, demand checks, and decode-and-forward schedules for layered relay networks.",
        "bounds, gaps, and optimality for a topology",
        "test a demand matrix against the achievable region",
        "construct the integer phase schedule and split plan",
        "classify a topology family's scaling law",
        "classify a family and write its samples as CSV",
    ],
    ("analyze",): ["usage: relaydof analyze ", "topology document (JSON)", "render rationals as decimals"],
    ("check",): ["usage: relaydof check ", "demand document (JSON)"],
    ("schedule",): ["usage: relaydof schedule ", "optional demand document; default is the uniform boundary demand"],
    ("classify",): ["usage: relaydof classify ", "family document (JSON)"],
    ("sweep",): ["usage: relaydof sweep ", "CSV output path"],
}


@pytest.fixture
def topology(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    (tmp_path / "t.json").write_text(TOPOLOGY, encoding="utf-8")


def _captured(call):
    """(exit code, stdout, stderr) of ``call()``; argparse's exits give their code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(argv):
    """What ``cli.main(argv)`` exits with and writes."""
    return _captured(lambda: cli.main(argv))


def written_by_argparse(argv):
    """What ``build_parser()`` exits with and writes for ``argv``, in this interpreter."""
    return _captured(lambda: cli.build_parser().parse_args(argv))


def _squeezed(text: str) -> str:
    return "".join(text.split())  # help wraps at spaces and at hyphens


@pytest.mark.parametrize("command", OWN_TEXTS, ids=lambda command: " ".join(command) or "relaydof")
def test_help_carries_the_texts_relaydof_owns(topology, command):
    code, out, err = run([*command, "--help"])
    assert (code, err) == (0, "") and out.startswith(OWN_TEXTS[command][0])
    for text in OWN_TEXTS[command]:
        assert _squeezed(text) in _squeezed(out)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--help"], (0,)),
        (["analyze", "--help"], (0,)),
        (["analyze", "t.json", "--format", "xml"], (2,)),
        (["sweep", "f.json"], (2,)),
        (["analyze", "--", "t.json"], (0, TABLE, "")),
    ],
)
def test_argparse_reads_what_the_reader_declines(topology, argv, expected):
    """A one-item ``expected`` is an exit code: the argv exits with it and
    writes what ``build_parser()`` writes for it in this interpreter, help
    or usage under relaydof's prog name."""
    assert cli._read_argv(argv) is None
    if len(expected) == 1:
        code, out, err = written_by_argparse(argv)
        assert (code,) == expected and (out if code == 0 else err).startswith("usage: relaydof ")
        expected = code, out, err
    assert run(argv) == expected


def test_an_abbreviation_means_what_argparse_makes_of_it(topology):
    code, out, err = run(["analyze", "t.json", "--form", "json"])
    assert (code, out, err) == run(["analyze", "t.json", "--format", "json"])
    assert code == 0 and out.startswith('{\n  "topology"') and err == ""


def test_main_without_argv_reads_the_process_arguments(topology, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["relaydof", "analyze", "t.json"])
    assert run(None) == (0, TABLE, "")


# -- what a command imports ------------------------------------------------------

ARGPARSE = ("argparse", "gettext", "locale")


@COMMANDS
def test_command_loads_no_argparse(bad_files, argv, code):
    assert stdlib_loaded_by_main(argv, bad_files, ARGPARSE) == (code, [])


def test_a_declined_argv_loads_argparse(files):
    code, loaded = stdlib_loaded_by_main(["analyze", "t.json", "--form", "json"], files, ARGPARSE)
    assert code == 0 and "argparse" in loaded
