"""Exact output of command paths no other test runs: ``check --format
table``, the ``-`` cell of a value an analysis leaves undefined, a schedule
that fails its own verification (exit 3), and every family and demand
document error (exit 2)."""

import json
from fractions import Fraction

import pytest

from relaydof import cli
from relaydof.model import LayerSpec, NetworkTopology, demand_from_obj
from relaydof.schedule import integer_schedule

from support import replace, run_cli as run, write  # noqa: F401

T222 = {"layers": [{"nodes": 2}] * 3}


def _demand(*entries):
    return {"demands": [{"dst": j, "src": i, "dof": dof} for j, i, dof in entries]}


# -- check --format table --------------------------------------------------------


FEASIBLE = "feasible  yes\nbinding   -\n"
BINDING = "feasible  yes\nbinding   src:1, dst:1\n"
INFEASIBLE = (
    "feasible        no\n"
    "violated total  5/6 > 2/3\n"
    "violated src:1  1/2 > 1/3\n"
    "violated dst:1  5/6 > 1/3\n"
    "binding         src:2\n"
)
INFEASIBLE_DECIMAL = (
    "feasible        no\n"
    "violated total  0.833333 > 0.666667\n"
    "violated src:1  0.5 > 0.333333\n"
    "violated dst:1  0.833333 > 0.333333\n"
    "binding         src:2\n"
)


@pytest.mark.parametrize(
    "entries, decimal, code, out",
    [
        ([(1, 1, "1/5"), (2, 2, "1/5")], False, 0, FEASIBLE),
        ([(1, 1, "1/5"), (2, 2, "1/5")], True, 0, FEASIBLE),
        ([(1, 1, "1/3")], False, 0, BINDING),
        ([(1, 1, "1/2"), (1, 2, "1/3")], False, 1, INFEASIBLE),
        ([(1, 1, "1/2"), (1, 2, "1/3")], True, 1, INFEASIBLE_DECIMAL),
    ],
    ids=["feasible", "feasible-decimal", "binding", "infeasible", "infeasible-decimal"],
)
def test_check_table(entries, decimal, code, out, write):
    argv = ["check", write("t.json", T222), write("d.json", _demand(*entries)), "--format", "table"]
    assert run(*argv, *(["--decimal"] if decimal else [])) == (code, out, "")


# -- the "-" cell ----------------------------------------------------------------


INF_SOURCE = {"layers": [{"nodes": "inf"}, {"nodes": 2}, {"nodes": 3}]}


@pytest.mark.parametrize("decimal", [False, True])
def test_analyze_table_marks_undefined_values(decimal, write):
    code, out, err = run("analyze", write("t.json", INF_SOURCE), *(["--decimal"] if decimal else []))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == ("achievable sum DoF    0.857143" if decimal else "achievable sum DoF    6/7")
    assert lines[-2:] == ["ultimate capacity     -", "relay loss factor     -"]


def test_analyze_csv_marks_undefined_values(write):
    assert run("analyze", write("t.json", INF_SOURCE), "--format", "csv") == (
        0,
        "sizes,achievable,achievable_per_hop,cutset,cutset_per_hop,inverse_gap,absolute_gap,"
        "fractional_gap_bound,bounding_set,optimal,ultimate_capacity,relay_loss_factor\r\n"
        "inf 2 3,6/7,2 3/2,1,2 2,1/6,1/7,1/6,0 1,False,-,-\r\n",
        "",
    )


# -- a schedule that fails its own checks ---------------------------------------------


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_schedule_verification_failure_exits_3(fmt, write, monkeypatch):
    s = integer_schedule(NetworkTopology(tuple(LayerSpec(nodes=2) for _ in range(3))))
    plan = s.split_plan
    short = replace(plan, per_pair=(plan.per_pair[0] - 1, *plan.per_pair[1:]))
    tampered = replace(s, split_plan=short, sum_dof=s.sum_dof + 1)
    monkeypatch.setattr(cli, "integer_schedule", lambda topology, demand: tampered)
    assert run("schedule", write("t.json", T222), "--format", fmt) == (
        3,
        "",
        "verification failed: bit-conservation: node imbalance at"
        " ['ph0[1->1]', 'ph0[1->1]', 'ph0[1->2]', 'ph0[1->2]'];"
        " relay (layer, node) imbalance at [(1, 0), (1, 1)]; phase totals off at [0]\n"
        "verification failed: sum-dof: sum_dof 5/3 vs achievable 2/3\n",
    )


# -- family document errors ------------------------------------------------------------


PINNED = {"kind": "PinnedLayerFixedK", "base": [1, 1, 1]}
FAMILY_ERRORS = [
    ({"kind": "ProportionalFixedK"}, "ProportionalFixedK needs a base profile"),
    ({"kind": "ProportionalFixedK", "base": []}, "ProportionalFixedK needs a base profile"),
    ({"kind": "ProportionalFixedK", "base": [1, 0]}, "base profile entries must be positive"),
    ({"kind": "ProportionalFixedK", "base": ["-1/2", 1]}, "base profile entries must be positive"),
    ({"kind": "FixedSizesGrowingK", "base": [2, 3]}, "FixedSizesGrowingK takes a single integer layer size"),
    ({"kind": "FixedSizesGrowingK", "base": ["3/2"]}, "FixedSizesGrowingK takes a single integer layer size"),
    ({"kind": "ProportionalFixedK", "base": [1]}, "ProportionalFixedK base profile needs at least 2 layers"),
    (PINNED, "PinnedLayerFixedK needs at least one pinned layer"),
    ({**PINNED, "pinned": {}}, "PinnedLayerFixedK needs at least one pinned layer"),
    ({**PINNED, "pinned": {"3": 2}}, "pinned layer 3 outside base profile"),
    ({**PINNED, "pinned": {"1": 0}}, "pinned layer 1: size must be >= 1"),
    ({**PINNED, "pinned": {"0": 1, "1": 1, "2": 1}}, "pinning every layer leaves nothing to grow"),
    ({"kind": "Quadratic", "base": [1, 2]}, "unknown family kind 'Quadratic'"),
    ({"kind": "AntennaScaled"}, "AntennaScaled needs a base topology"),
    (
        {"kind": "AntennaScaled", "topology": {"layers": [{"nodes": 1}, {"nodes": "inf"}, {"nodes": 1}]}},
        "AntennaScaled base topology must be finite",
    ),
    ([1], "family document must be an object with a 'kind'"),
    ({"base": [1]}, "family document must be an object with a 'kind'"),
    ({"kind": "ProportionalFixedK", "base": "1,1"}, "'base' must be a list of positive rationals"),
    ({"kind": "ProportionalFixedK", "base": ["inf", 1]}, "base profile entries must be finite"),
    ({"kind": "ProportionalFixedK", "base": [1.5, 1]}, "bad base profile entry 1.5"),
    ({"kind": "ProportionalFixedK", "base": [True, 1]}, "bad base profile entry True"),
    ({**PINNED, "pinned": [[1, 2]]}, "'pinned' must map layer indices to sizes"),
    ({**PINNED, "pinned": {"1": 2, "01": 3}}, "'pinned' names layer 1 more than once"),
    ({**PINNED, "pinned": {"1": 2.0}}, "pinned size of layer 1 must be an integer, got 2.0"),
    ({"kind": "FixedSizesGrowingK", "base": [100]}, "degenerate instantiation at n=16: fewer than 2 layers"),
]


@pytest.mark.parametrize("family, message", FAMILY_ERRORS)
def test_family_error_exits_2(family, message, write):
    assert run("classify", write("f.json", family)) == (2, "", f"error: {message}\n")


# -- demand document errors --------------------------------------------------------------


DEMAND_ERRORS = [
    ([], "demand document must be an object with a 'demands' list"),
    ({}, "demand document must be an object with a 'demands' list"),
    ({"demands": {}}, "'demands' must be a list"),
    ({"demands": [[1, 1, "1/5"]]}, "demand entry 0: expected keys dst, src, dof"),
    ({"demands": [{"dst": 1, "src": 1}]}, "demand entry 0: expected keys dst, src, dof"),
    ({"demands": [{"dst": 1, "src": 1, "dof": "1/5", "x": 1}]}, "demand entry 0: expected keys dst, src, dof"),
    (_demand((0, 1, "1/5")), "demand entry 0: 'dst' must be a 1-based integer index"),
    (_demand((1, True, "1/5")), "demand entry 0: 'src' must be a 1-based integer index"),
    (_demand(("1", 1, "1/5")), "demand entry 0: 'dst' must be a 1-based integer index"),
    (_demand((1, 1, "inf")), "demand entry 0: 'dof' must be finite"),
    (_demand((1, 1, 0.2)), "demand entry 0: 'dof' must be a rational string"),
    (_demand((1, 1, True)), "demand entry 0: 'dof' must be a rational string"),
    (_demand((1, 1, None)), "demand entry 0: 'dof' must be a rational string"),
    (_demand((1, 1, "1/5"), (1, 1, "1/7")), "demand entry 1: duplicate (dst 1, src 1)"),
    (_demand((1, 1, -1)), "demand (dst 1, src 1): negative value -1"),
    ("{", "demand document is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
]


@pytest.mark.parametrize("demand, message", DEMAND_ERRORS)
def test_demand_error_exits_2(demand, message, write):
    assert run("check", write("t.json", T222), write("d.json", demand)) == (2, "", f"error: {message}\n")


def test_integer_dof_is_a_whole_rational(write):
    assert demand_from_obj(_demand((1, 1, 1), (2, 1, 0))).entries == {(0, 0): Fraction(1)}
    code, out, err = run("check", write("t.json", T222), write("d.json", _demand((1, 1, 1))))
    assert (code, err) == (1, "")
    assert json.loads(out)["violations"][0] == {"constraint": "total", "lhs": "1", "rhs": "2/3"}
