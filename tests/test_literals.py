"""Rational literals are read as written: ``p/q``, an integer, a sign, a
decimal or an exponent, or exactly ``inf``.  Text that ``Fraction`` would
coerce (surrounding or inner whitespace, ``_`` digit separators, non-ASCII
digits) is a bad literal, exit 2, in every document that carries one."""

import json
import re
import time
from fractions import Fraction

import pytest

from relaydof.cli import main
from relaydof.model import INFINITY, DocumentError, ExtRational, parse_demand
from relaydof.scaling import parse_family

from support import write  # noqa: F401

ACCEPTED = [
    ("1/2", Fraction(1, 2)),
    ("2/4", Fraction(1, 2)),
    ("7", Fraction(7)),
    ("-1/5", Fraction(-1, 5)),
    ("+3", Fraction(3)),
    ("1.5", Fraction(3, 2)),
    (".5", Fraction(1, 2)),
    ("1e3", Fraction(1000)),
    ("1E-2", Fraction(1, 100)),
    ("0", Fraction(0)),
    ("1e4300", Fraction(10**4300)),
    ("1e-4300", Fraction(1, 10**4300)),
]

REJECTED = [
    " 1/2 ",
    "1/2 ",
    "\t1/2",
    "1/2\n",
    "1 / 2",
    "1_0",
    "1/1_0",
    "١/2",  # ARABIC-INDIC DIGIT ONE
    "１/2",  # FULLWIDTH DIGIT ONE
    "½",
    " inf",
    "inf ",
    "+inf",
    "Inf",
    "infinity",
    "nan",
    "",
    "1/0",
    "1/",
    "e3",
    "1e-20000000",
]


@pytest.mark.parametrize("text, value", ACCEPTED, ids=[t for t, _ in ACCEPTED])
def test_accepted_literal(text, value):
    assert ExtRational(text) == value


def test_inf_literal():
    assert ExtRational("inf") == INFINITY


@pytest.mark.parametrize("text", REJECTED, ids=[repr(t) for t in REJECTED])
def test_rejected_literal(text):
    with pytest.raises(DocumentError, match=f"^{re.escape(f'bad rational literal {text!r}')}$"):
        ExtRational(text)


@pytest.mark.parametrize("text", [" 1/5 ", "1_0", "١/5"])
def test_demand_dof_literal_is_strict(text):
    with pytest.raises(DocumentError, match="bad rational literal"):
        parse_demand(json.dumps({"demands": [{"dst": 1, "src": 1, "dof": text}]}))


@pytest.mark.parametrize("text", [" 1", "1_0", "١"])
def test_family_base_literal_is_strict(text):
    with pytest.raises(DocumentError, match="bad rational literal"):
        parse_family(json.dumps({"kind": "ProportionalFixedK", "base": [text, "1"]}))


@pytest.mark.parametrize("text", [" 1/5 ", "1_0", "١/5", "1 / 5"])
def test_cli_check_rejects_padded_dof(text, write, capsys):
    topology = write("t.json", {"layers": [{"nodes": 2}] * 3})
    demand = write("d.json", {"demands": [{"dst": 1, "src": 1, "dof": text}]})
    assert main(["check", topology, demand]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: bad rational literal {text!r}\n"


def test_cli_check_negative_dof_reaches_demand_validation(write, capsys):
    topology = write("t.json", {"layers": [{"nodes": 2}] * 3})
    demand = write("d.json", {"demands": [{"dst": 1, "src": 1, "dof": "-1/5"}]})
    assert main(["check", topology, demand]) == 2
    assert capsys.readouterr().err == "error: demand (dst 1, src 1): negative value -1/5\n"


@pytest.mark.parametrize("text", [" 1", "1_0", "١"])
def test_cli_classify_rejects_padded_base(text, write, capsys):
    family = write("f.json", {"kind": "ProportionalFixedK", "base": [text, "1"]})
    assert main(["classify", family]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: bad rational literal {text!r}\n"


# Fraction builds 10**|e| for an exponent e, 28 s for "1e-20000000", so an
# exponent past the int-string limit is a bad literal, as a literal written
# out in that many digits already is
@pytest.mark.parametrize(
    "command, text", [("check", "1e-20000000"), ("check", "1e-100000000"), ("classify", "1e20000000")]
)
def test_cli_rejects_a_huge_exponent_at_once(command, text, write, capsys):
    if command == "check":
        topology = write("t.json", {"layers": [{"nodes": 2}, {"nodes": 3}, {"nodes": 2}]})
        argv = ["check", topology, write("d.json", {"demands": [{"dst": 1, "src": 1, "dof": text}]})]
    else:
        argv = ["classify", write("f.json", {"kind": "ProportionalFixedK", "base": [text, "1"]})]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: bad rational literal {text!r}\n"
