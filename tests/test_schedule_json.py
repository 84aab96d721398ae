"""The ``relaydof schedule`` JSON as written, parsed back and checked on its
own: per-node bit conservation recomputed from its ``edges`` with
Fractions, and every phase carrying the whole ``total_bits``."""

import json
from collections import defaultdict
from fractions import Fraction

import pytest

from relaydof.cli import main

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


@pytest.fixture(params=sorted(CASES))
def emitted(request, tmp_path, capsys):
    topology, demand = CASES[request.param]
    (tmp_path / "t.json").write_text(topology, encoding="utf-8")
    argv = ["schedule", str(tmp_path / "t.json")]
    if demand is not None:
        (tmp_path / "d.json").write_text(demand, encoding="utf-8")
        argv += ["--demand", str(tmp_path / "d.json")]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_emitted_plan_conserves_bits_at_every_node(emitted):
    plan = emitted["split_plan"]
    total = Fraction(plan["total_bits"])
    assert total == emitted["total_bits"]
    inflow, outflow = defaultdict(Fraction), defaultdict(Fraction)
    for edge in plan["edges"]:
        bits = Fraction(edge["bits"])
        assert bits > 0
        outflow[edge["from"]] += bits
        inflow[edge["to"]] += bits
    nodes = {node["id"]: node for node in plan["nodes"]}
    assert len(nodes) == len(plan["nodes"])
    assert set(inflow) | set(outflow) <= set(nodes)
    for node_id, node in nodes.items():
        bits = Fraction(node["bits"])
        if node["kind"] in ("source", "padding"):
            assert node_id not in inflow and outflow[node_id] == bits, node_id
        elif node["kind"] == "transfer":
            assert inflow[node_id] == bits == outflow[node_id], node_id
        else:
            received = sum(Fraction(r["bits"]) for r in node["received"])
            assert node_id not in outflow and inflow[node_id] == bits, node_id
            assert received + Fraction(node["padding_bits"]) == bits, node_id
    assert sum(Fraction(n["bits"]) for n in plan["nodes"] if n["kind"] == "destination") == total
    assert sum(Fraction(n["bits"]) for n in plan["nodes"] if n["kind"] in ("source", "padding")) == total


def test_every_phase_carries_total_bits(emitted):
    plan = emitted["split_plan"]
    total = Fraction(plan["total_bits"])
    carried = defaultdict(Fraction)
    for node in plan["nodes"]:
        if node["kind"] == "transfer":
            carried[node["phase"]] += Fraction(node["bits"])
            assert Fraction(node["bits"]) == Fraction(emitted["phases"][node["phase"]]["per_pair_bits"])
    assert sorted(carried) == [phase["hop"] for phase in emitted["phases"]]
    assert all(bits == total for bits in carried.values())


def test_sources_carry_their_demand_at_the_plan_rate(emitted):
    plan = emitted["split_plan"]
    rate = Fraction(plan["bits_per_dof"])
    demand = {f"msg[{d['dst']},{d['src']}]": Fraction(d["dof"]) for d in plan["demand"]["demands"]}
    sources = {n["id"]: Fraction(n["bits"]) for n in plan["nodes"] if n["kind"] == "source"}
    assert sources == {node_id: dof * rate for node_id, dof in demand.items()}
    assert Fraction(emitted["sum_dof"]) == Fraction(emitted["total_bits"], emitted["total_delay"])
