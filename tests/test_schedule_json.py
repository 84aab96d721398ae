"""The ``relaydof schedule`` JSON and DOT as written, parsed back and checked
on their own: per-node bit conservation recomputed from the edges with
Fractions, every phase carrying the whole ``total_bits``, and sources at the
plan rate.  Each check runs on four fixed documents, one case each, and on
drawn ones."""

import json
import re
import tempfile
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from support import SCHEDULE_TOPOLOGIES, SMALL_DOFS, demands, run_cli

CASES = {
    "uniform": ('{"layers":[{"nodes":2},{"nodes":3},{"nodes":2}]}', None),
    "demand": (
        '{"layers":[{"nodes":3},{"nodes":2},{"nodes":4},{"nodes":3}]}',
        '{"demands":[{"dst":1,"src":1,"dof":"1/10"},{"dst":3,"src":2,"dof":"1/7"},{"dst":2,"src":3,"dof":"1/20"}]}',
    ),
    "antennas": (
        '{"layers":[{"antennas":[1,2]},{"nodes":3},{"antennas":[2,1,1]}]}',
        '{"demands":[{"dst":1,"src":1,"dof":"1/10"},{"dst":2,"src":2,"dof":"1/5"}]}',
    ),
    "antennas-uniform": ('{"layers":[{"antennas":[2,1]},{"nodes":2},{"antennas":[1,3]}]}', None),
}
# (topology text, demand text or None): no demand, or one mostly inside the region
DOCUMENTS = SCHEDULE_TOPOLOGIES.flatmap(
    lambda t: st.tuples(st.just(json.dumps(t)), st.none() | demands(t, SMALL_DOFS).map(json.dumps))
)


def written(document, *options) -> str:
    """What ``relaydof schedule`` writes for the document; a demand that it
    refuses (outside the region, or zero) is not a drawn case, and no fixed
    document is refused."""
    topology, demand = document
    with tempfile.TemporaryDirectory() as folder:
        argv = ["schedule", str(Path(folder, "t.json")), *options]
        Path(folder, "t.json").write_text(topology, encoding="utf-8")
        if demand is not None:
            Path(folder, "d.json").write_text(demand, encoding="utf-8")
            argv += ["--demand", str(Path(folder, "d.json"))]
        code, out, err = run_cli(*argv)
    assert code in (0, 2), err
    if code:
        reject()
    return out


def _conserves(nodes, kinds, edges):
    """Every node's bits flow out (sources and padding), in (destinations), or
    both (transfers) along ``edges``, (from, to, bits) rows of positive bits."""
    inflow, outflow = defaultdict(Fraction), defaultdict(Fraction)
    for head, tail, bits in edges:
        assert bits > 0
        outflow[head] += bits
        inflow[tail] += bits
    assert set(inflow) | set(outflow) <= set(nodes)
    for node_id, bits in nodes.items():
        if kinds[node_id] in ("source", "padding"):
            assert node_id not in inflow and outflow[node_id] == bits, node_id
        elif kinds[node_id] == "transfer":
            assert inflow[node_id] == bits == outflow[node_id], node_id
        else:
            assert node_id not in outflow and inflow[node_id] == bits, node_id


def plan_conserves_bits(document):
    emitted = json.loads(written(document))
    plan = emitted["split_plan"]
    total = Fraction(plan["total_bits"])
    assert total == emitted["total_bits"]
    nodes = {node["id"]: Fraction(node["bits"]) for node in plan["nodes"]}
    assert len(nodes) == len(plan["nodes"])
    kinds = {node["id"]: node["kind"] for node in plan["nodes"]}
    _conserves(nodes, kinds, ((e["from"], e["to"], Fraction(e["bits"])) for e in plan["edges"]))
    for node in plan["nodes"]:
        if node["kind"] == "destination":
            received = sum(Fraction(r["bits"]) for r in node["received"])
            assert received + Fraction(node["padding_bits"]) == nodes[node["id"]], node["id"]
    assert sum(bits for node_id, bits in nodes.items() if kinds[node_id] == "destination") == total
    assert sum(bits for node_id, bits in nodes.items() if kinds[node_id] in ("source", "padding")) == total


_DOT_NODE = re.compile(r'^  "([^"]+)" \[.*\\n(\S+) bits"\];$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[label="(\S+)"\];$')
_KINDS = {"msg": "source", "pad": "padding", "dst": "destination"}


def dot_conserves_bits(document):
    lines = written(document, "--format", "dot").split("\n")
    assert lines[:2] == ["digraph split_plan {", "  rankdir=LR;"] and lines[-2:] == ["}", ""]
    nodes, edges = {}, []
    for line in lines[2:-2]:
        if edge := _DOT_EDGE.match(line):
            edges.append((edge[1], edge[2], Fraction(edge[3])))
        else:
            node = _DOT_NODE.match(line)
            assert node, line
            nodes[node[1]] = Fraction(node[2])
    kinds = {node_id: _KINDS.get(node_id[:3], "transfer") for node_id in nodes}
    _conserves(nodes, kinds, edges)
    # DOT does not carry the plan's total; the JSON of the same run does
    total = json.loads(written(document))["total_bits"]
    assert sum(bits for node_id, bits in nodes.items() if kinds[node_id] in ("source", "padding")) == total


def phases_carry_total_bits(document):
    emitted = json.loads(written(document))
    plan = emitted["split_plan"]
    total = Fraction(plan["total_bits"])
    carried = defaultdict(Fraction)
    for node in plan["nodes"]:
        if node["kind"] == "transfer":
            carried[node["phase"]] += Fraction(node["bits"])
            assert Fraction(node["bits"]) == Fraction(emitted["phases"][node["phase"]]["per_pair_bits"])
    assert sorted(carried) == [phase["hop"] for phase in emitted["phases"]]
    assert all(bits == total for bits in carried.values())


def sources_carry_their_demand(document):
    emitted = json.loads(written(document))
    plan = emitted["split_plan"]
    rate = Fraction(plan["bits_per_dof"])
    demand = {f"msg[{d['dst']},{d['src']}]": Fraction(d["dof"]) for d in plan["demand"]["demands"]}
    sources = {n["id"]: Fraction(n["bits"]) for n in plan["nodes"] if n["kind"] == "source"}
    assert sources == {node_id: dof * rate for node_id, dof in demand.items()}
    assert Fraction(emitted["sum_dof"]) == Fraction(emitted["total_bits"], emitted["total_delay"])


CHECKS = (plan_conserves_bits, dot_conserves_bits, phases_carry_total_bits, sources_carry_their_demand)
FIXED = pytest.mark.parametrize("case", sorted(CASES))


@FIXED
def test_emitted_plan_conserves_bits_at_every_node(case):
    plan_conserves_bits(CASES[case])


@FIXED
def test_emitted_dot_conserves_bits_at_every_node(case):
    dot_conserves_bits(CASES[case])


@FIXED
def test_every_phase_carries_total_bits(case):
    phases_carry_total_bits(CASES[case])


@FIXED
def test_sources_carry_their_demand_at_the_plan_rate(case):
    sources_carry_their_demand(CASES[case])


@settings(max_examples=60, deadline=None)
@given(DOCUMENTS)
def test_drawn_documents_pass_every_check(document):
    for check in CHECKS:
        check(document)
