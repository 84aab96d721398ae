"""Per-layer work done once: shared layer specs, stored effective sizes,
reciprocal sums from per-layer weights and hop values formatted once.

``reference_topology`` is the per-layer parse that ``topology_from_obj``
replaced (one ``LayerSpec`` per layer, shape checked through key sets),
kept as an oracle the way the ``ExtRational`` summation is kept in
``test_exact_core``.
"""

import contextlib
import io
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
    hop_cutset_dof,
    report_to_obj,
)
from relaydof.cli import main
from relaydof.model import (
    INFINITY,
    ExtRational,
    LayerSpec,
    NetworkTopology,
    TopologyError,
    parse_topology,
    topology_from_obj,
)
from relaydof.scaling import FamilySpec, evaluate_family

from test_exact_core import reference_sum


def reference_layer(obj, index: int) -> LayerSpec:
    if not isinstance(obj, dict):
        raise TopologyError(f"layer {index}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    try:
        if keys == {"nodes"}:
            raw = obj["nodes"]
            return LayerSpec(nodes=INFINITY if raw == "inf" else raw)
        if keys == {"antennas"}:
            raw = obj["antennas"]
            if not isinstance(raw, list):
                raise TopologyError("'antennas' must be a nonempty list")
            if "inf" in raw:
                raise TopologyError("infinite layer cannot carry an antenna list")
            return LayerSpec(antennas=tuple(raw))
    except TopologyError as exc:
        raise TopologyError(f"layer {index}: {exc}") from None
    raise TopologyError(f"layer {index}: expected exactly one of 'nodes' or 'antennas'")


def reference_topology(obj) -> NetworkTopology:
    if not isinstance(obj, dict) or "layers" not in obj:
        raise TopologyError("topology document must be an object with a 'layers' list")
    layers = obj["layers"]
    if not isinstance(layers, list):
        raise TopologyError("'layers' must be a list")
    if len(layers) < 2:
        raise TopologyError("topology needs at least 2 layers")
    return NetworkTopology(tuple(reference_layer(layer, k) for k, layer in enumerate(layers)))


def layer_values(t: NetworkTopology):
    return [(type(layer.nodes), layer.nodes, layer.antennas, layer.effective_size) for layer in t.layers]


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


def outcome(parse, obj):
    try:
        return "ok", layer_values(parse(obj))
    except TopologyError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(topology_documents())
def test_parse_matches_the_per_layer_parse(obj):
    assert outcome(topology_from_obj, obj) == outcome(reference_topology, obj)


@settings(max_examples=150, deadline=None)
@given(topology_documents())
def test_analyze_on_any_document_exits_0_or_2(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", path])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


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


def test_repeated_values_share_one_spec():
    t = parse_topology('{"layers":[{"nodes":3},{"antennas":[1,2]},{"nodes":3},{"antennas":[1,2]},{"nodes":3}]}')
    assert t.layers[0] is t.layers[2] is t.layers[4]
    assert t.layers[1] == t.layers[3]
    assert t.effective_sizes() is t.effective_sizes() == (3, 3, 3, 3, 3)


CHAIN = {"layers": [{"nodes": "inf" if k % 97 == 0 else 1 + (k * 37) % 64} for k in range(1, 4001)]}


def test_parse_builds_one_spec_per_distinct_value(monkeypatch):
    built = 0
    original = LayerSpec.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(LayerSpec, "__init__", counting)
    t = parse_topology(json.dumps(CHAIN))
    assert len(t.layers) == 4000
    assert built <= 65


def test_warm_report_formats_each_hop_value_once(monkeypatch):
    t = parse_topology(json.dumps(CHAIN))
    report_to_obj(analyze(t))  # fills the hop caches and their texts
    calls = 0
    original = Fraction.__str__

    def counting(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(Fraction, "__str__", counting)
    obj = report_to_obj(analyze(t))
    assert calls < 50
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
    assert achievable_sum_dof(sizes) == reference_sum(sizes, hop_achievable_dof)
    assert cutset_sum_dof(sizes) == reference_sum(sizes, hop_cutset_dof)


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(1, 10**6), st.integers(10**20, 10**40), st.just(INFINITY)), min_size=2, max_size=40))
def test_weight_sums_match_on_large_distinct_sizes(sizes):
    if all(s is INFINITY for s in sizes):
        return
    assert achievable_sum_dof(sizes) == reference_sum(sizes, hop_achievable_dof)
    assert cutset_sum_dof(sizes) == reference_sum(sizes, hop_cutset_dof)


def _hops(sizes):
    return list(zip(sizes, sizes[1:]))


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(1, 70), st.just(INFINITY)), min_size=2, max_size=60))
def test_bounding_set_matches_the_per_hop_rule(sizes):
    assert bounding_set(sizes) == frozenset(k for k, (m, n) in enumerate(_hops(sizes)) if min(m, n) > 1)


def test_growing_family_reuses_one_spec(monkeypatch):
    built = 0
    original = LayerSpec.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(LayerSpec, "__init__", counting)
    topology, alpha = evaluate_family(FamilySpec(kind="FixedSizesGrowingK", base=(Fraction(2),)), 4096)
    assert len(topology.layers) == 2048 and built == 1
    assert alpha == reference_sum(topology.effective_sizes(), hop_achievable_dof)
