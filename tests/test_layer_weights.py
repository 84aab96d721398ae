"""Per-layer work done once: shared layer specs, stored effective sizes,
reciprocal sums from per-layer weights and hop values formatted once.

``reference.reference_topology`` is the per-layer parse that
``topology_from_obj`` replaced (one ``LayerSpec`` per layer, shape checked
through key sets), kept as an oracle beside the per-hop sums.
"""

import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof.analysis import (
    achievable_sum_dof,
    analyze,
    bounding_set,
    cutset_sum_dof,
    hop_achievable_dof,
    report_to_obj,
)
from relaydof.model import (
    INFINITY,
    ExtRational,
    LayerSpec,
    TopologyError,
    parse_topology,
    topology_from_obj,
)
from relaydof.scaling import FamilySpec, evaluate_family

import reference
from support import CHAIN, calls, parsed, run_cli


# -- parsing: the shared-spec parse against the per-layer one ------------------------

VALID_NODES = [1, 2, 3, 7, 64, "inf", 10**30]
BAD_NODES = [True, False, 1.0, 2.0, 2.5, "1", "inf ", "", 0, -3, None, [], [2], {"nodes": 2}]
BAD_LAYERS = [{}, {"nodes": 1, "antennas": [1]}, {"node": 2}, [1], 3, "x", None]


@st.composite
def topology_documents(draw):
    """Mostly repeated valid values, with bad values, antenna lists and
    malformed layers mixed in; now and then a malformed document."""
    def layer():
        roll = draw(st.integers(0, 99))
        if roll < 70:
            return {"nodes": draw(st.sampled_from(VALID_NODES))}
        if roll < 80:
            return {"nodes": draw(st.sampled_from(BAD_NODES))}
        if roll < 93:
            entry = st.one_of(st.integers(1, 4), st.sampled_from([0, -1, True, 1.0, "inf", "2", [1]]))
            return {"antennas": draw(st.lists(entry, max_size=4))}
        return draw(st.sampled_from(BAD_LAYERS))

    roll = draw(st.integers(0, 19))
    if roll == 0:
        return draw(st.sampled_from([[], {}, {"layers": 3}, {"layer": []}, "layers"]))
    return {"layers": [layer() for _ in range(draw(st.integers(0, 12)))]}


@settings(max_examples=400, deadline=None)
@given(topology_documents())
def test_parse_matches_the_per_layer_parse(obj):
    assert parsed(topology_from_obj, obj) == parsed(reference.reference_topology, obj)


@settings(max_examples=150, deadline=None)
@given(topology_documents())
def test_analyze_on_any_document_exits_0_or_2(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        code, _, err = run_cli("analyze", path)
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


@pytest.mark.parametrize(
    "layers, message",
    [
        ([{"nodes": 1}, {"nodes": True}], "layer 1: node count must be a positive integer or 'inf', got True"),
        ([{"nodes": 2}, {"nodes": 2.0}], "layer 1: node count must be a positive integer or 'inf', got 2.0"),
        ([{"nodes": "inf"}, {"nodes": 3}, {"nodes": "inf "}], "layer 2: node count must be a positive integer or 'inf', got 'inf '"),
    ],
)
def test_a_shared_value_never_admits_an_equal_value_of_another_type(layers, message):
    with pytest.raises(TopologyError) as info:
        parse_topology(json.dumps({"layers": layers}))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "layers, message",
    [
        ([{"antennas": [1, 2]}, {"antennas": [True, 2]}], "layer 1: antenna count must be a positive integer, got True"),
        ([{"antennas": [2, 1]}, {"antennas": [2, 1.0]}], "layer 1: antenna count must be a positive integer, got 1.0"),
        ([{"antennas": [3]}, {"nodes": 3}, {"antennas": ["3"]}], "layer 2: antenna count must be a positive integer, got '3'"),
    ],
)
def test_a_shared_antenna_list_never_admits_entries_of_another_type(layers, message):
    with pytest.raises(TopologyError) as info:
        parse_topology(json.dumps({"layers": layers}))
    assert str(info.value) == message


def test_repeated_values_share_one_spec():
    t = parse_topology('{"layers":[{"nodes":3},{"antennas":[1,2]},{"nodes":3},{"antennas":[1,2]},{"nodes":3}]}')
    assert t.layers[0] is t.layers[2] is t.layers[4]
    assert t.layers[1] == t.layers[3]
    assert t.effective_sizes() is t.effective_sizes() == (3, 3, 3, 3, 3)


def test_parse_builds_one_spec_per_distinct_value(monkeypatch):
    built = calls(monkeypatch, LayerSpec, "__init__")
    t = parse_topology(json.dumps(CHAIN))
    assert len(t.layers) == 4000
    assert len(built) <= 65


ANTENNA_LISTS = [[1], [2], [1, 2], [2, 1], [1, 1], [3, 1, 2], [1, 2, 3], [4, 4], [1, 1, 1, 1], [7], [2, 2, 2]]
ANTENNA_CHAIN = {"layers": [{"antennas": ANTENNA_LISTS[(k * 7) % 11]} for k in range(4000)]}


def test_parse_keeps_every_antenna_list():
    t = parse_topology(json.dumps(ANTENNA_CHAIN))
    assert len(t.layers) == 4000
    assert [layer.antennas for layer in t.layers] == [tuple(layer["antennas"]) for layer in ANTENNA_CHAIN["layers"]]
    assert t.effective_sizes() == tuple(sum(layer["antennas"]) for layer in ANTENNA_CHAIN["layers"])


def test_warm_report_formats_each_hop_value_once(monkeypatch):
    t = parse_topology(json.dumps(CHAIN))
    report_to_obj(analyze(t))  # fills the hop caches and their texts
    # every report text is made at this one site, from the value's int pair
    rendered = calls(monkeypatch, ExtRational, "_render")
    obj = report_to_obj(analyze(t))
    assert len(rendered) < 50
    assert obj["achievable_per_hop"][:2] == [str(hop_achievable_dof(38, 11)), str(hop_achievable_dof(11, 48))]


def test_cached_text_is_the_value_text():
    for value in (ExtRational(INFINITY), ExtRational(0), ExtRational(-7, 21), ExtRational("10/4")):
        first = str(value)
        assert first == str(value) == ("inf" if not value.is_finite else str(value.as_fraction()))
    assert str(ExtRational(6, 4)) == "3/2"


# -- reciprocal sums from layer weights ---------------------------------------------


@pytest.mark.parametrize(
    "sizes",
    [
        [10**400, 10**400],
        [10**400 + 1, 3, INFINITY, 10**400, 10**399 + 7],
        [INFINITY, 2, INFINITY, INFINITY, 2, INFINITY],
        [1, INFINITY, 1],
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71],
        [64, 1, 64, 1, 63, 62, 61],
    ],
)
def test_weight_sums_match_the_extrational_route(sizes):
    assert (achievable_sum_dof(sizes), cutset_sum_dof(sizes)) == reference.sum_dofs(sizes)


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(1, 70), st.just(INFINITY)), min_size=2, max_size=60))
def test_bounding_set_matches_the_per_hop_rule(sizes):
    assert bounding_set(sizes) == frozenset(reference.bounding_hops(sizes))


def test_growing_family_reuses_one_spec(monkeypatch):
    built = calls(monkeypatch, LayerSpec, "__init__")
    topology, alpha = evaluate_family(FamilySpec(kind="FixedSizesGrowingK", base=(Fraction(2),)), 4096)
    assert len(topology.layers) == 2048 and len(built) == 1
    assert alpha == reference.sum_dofs(topology.effective_sizes())[0]
