"""Work per distinct value, not per layer, from document to report.

A node-count layer is never read alone: its spec comes from the bounded
``model._node_spec`` cache, shared across documents.  A report reads each
hop's text from the value the hop cache formatted, ``inverse_gap`` takes
the layer weights once, and the 1/(mn) terms are summed per distinct
product.  The reference model's per-layer parse stays the oracle.
"""

import json
import sys

import pytest

from relaydof import analysis, model
from relaydof.analysis import AnalysisReport, analyze, hop_achievable_dof, hop_cutset_dof, inverse_gap, report_to_obj
from relaydof.model import INFINITY, ExtRational, LayerSpec, NetworkTopology, TopologyError, parse_topology

import reference
from support import CHAIN, calls, layer_values, parsed


# -- parsing -------------------------------------------------------------------------


@pytest.mark.parametrize("cold", [True, False])
def test_parse_reads_no_node_count_layer_alone(monkeypatch, cold):
    if cold:
        model._node_spec.cache_clear()
    read = calls(monkeypatch, model, "_layer_from_obj")
    t = parse_topology(json.dumps(CHAIN))
    assert len(t.layers) == 4000 and read == []
    assert layer_values(t) == layer_values(reference.reference_topology(CHAIN))


def test_antenna_layers_alone_are_read_one_at_a_time(monkeypatch):
    layers = [{"nodes": 3}, {"antennas": [1, 2]}, {"nodes": "inf"}, {"antennas": [4]}, {"nodes": 3}]
    read = calls(monkeypatch, model, "_layer_from_obj")
    t = parse_topology(json.dumps({"layers": layers}))
    assert [index for _, index in read] == [1, 3]
    assert t.effective_sizes() == (3, 3, INFINITY, 4, 3)


def test_node_specs_are_shared_across_documents():
    first = parse_topology('{"layers":[{"nodes":5},{"nodes":"inf"}]}')
    second = parse_topology('{"layers":[{"nodes":"inf"},{"nodes":7},{"nodes":5}]}')
    assert second.layers[2] is first.layers[0] and second.layers[0] is first.layers[1]


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "layer 1: node count must be a positive integer or 'inf', got True"),
        (1.0, "layer 1: node count must be a positive integer or 'inf', got 1.0"),
        ("1", "layer 1: node count must be a positive integer or 'inf', got '1'"),
    ],
)
def test_a_cached_count_never_admits_an_equal_value_of_another_type(bad, message):
    parse_topology('{"layers":[{"nodes":1},{"nodes":1}]}')  # puts 1 in the cache
    for layers in ([{"nodes": 1}, {"nodes": bad}], [{"nodes": 2}, {"nodes": bad}, {"nodes": 1}]):
        obj = {"layers": layers}
        with pytest.raises(TopologyError) as info:
            parse_topology(json.dumps(obj))
        assert str(info.value) == message
        assert parsed(model.topology_from_obj, obj) == parsed(reference.reference_topology, obj)


def test_more_distinct_counts_than_the_cache_holds():
    maxsize = model._node_spec.cache_info().maxsize
    obj = {"layers": [{"nodes": 1 + (k * 7919) % (3 * maxsize)} for k in range(4 * maxsize)]}
    for _ in range(2):
        assert layer_values(parse_topology(json.dumps(obj))) == layer_values(reference.reference_topology(obj))
    assert model._node_spec.cache_info().currsize == maxsize


def test_a_400_digit_count_parses():
    obj = {"layers": [{"nodes": 10**400}, {"nodes": 3}, {"nodes": 10**400}, {"nodes": 10**400 + 1}]}
    t = parse_topology(json.dumps(obj))
    assert layer_values(t) == layer_values(reference.reference_topology(obj))
    assert t.layers[0] is t.layers[2] and t.effective_sizes()[3] == 10**400 + 1


class Count(int):
    pass


@pytest.mark.parametrize(
    "antennas",
    [(1,), (3, 1, 2), (0,), (2, -1), (True, 2), (2, False), (1, 1.0), (1, "2"), (1, None), (Count(2), 1), (Count(0),)],
)
def test_antenna_entries_follow_the_per_entry_rule(antennas):
    bad = [a for a in antennas if not isinstance(a, int) or isinstance(a, bool) or a < 1]
    if not bad:
        assert LayerSpec(antennas=antennas).effective_size == sum(antennas)
        return
    with pytest.raises(TopologyError) as info:
        LayerSpec(antennas=antennas)
    assert str(info.value) == f"antenna count must be a positive integer, got {bad[0]!r}"


# -- reports -------------------------------------------------------------------------


def test_warm_report_calls_str_a_few_times(monkeypatch):
    t = parse_topology(json.dumps(CHAIN))
    expected = report_to_obj(analyze(t))
    texts = calls(monkeypatch, ExtRational, "__str__")
    assert report_to_obj(analyze(t)) == expected
    assert len(texts) <= 10


def _values(report: AnalysisReport) -> dict:
    return {
        "achievable": str(report.achievable),
        "achievable_per_hop": [str(v) for v in report.achievable_per_hop],
        "cutset": str(report.cutset),
        "cutset_per_hop": [str(v) for v in report.cutset_per_hop],
        "inverse_gap": str(report.inverse_gap),
        "absolute_gap": str(report.absolute_gap),
        "fractional_gap_bound": str(report.fractional_gap_bound),
        "bounding_set": sorted(report.bounding_set),
        "optimal": report.optimal,
    }


# values built outside any hop cache, with the text str() gives each
FRESH = [
    (lambda: ExtRational(6, 4), "3/2"),
    (lambda: ExtRational(INFINITY), "inf"),
    (lambda: ExtRational(0), "0"),
    (lambda: ExtRational("-10/4"), "-5/2"),
    (lambda: ExtRational(10**40 + 1, 3), f"{10**40 + 1}/3"),
    (lambda: ExtRational(2) + ExtRational(1, 3), "7/3"),
]


@pytest.mark.parametrize("cached", [False, True])
def test_hand_built_report_prints_what_str_does(cached):
    per_hop = tuple(make() for make, _ in FRESH)  # no text made yet
    texts = [text for _, text in FRESH]
    if cached:  # mixed with values from the hop caches
        per_hop = (hop_achievable_dof(2, 3), *per_hop, hop_cutset_dof(4, INFINITY))
        texts = ["3/2", *texts, "4"]
    make = [make for make, _ in FRESH]
    report = AnalysisReport(
        achievable=make[0](),
        achievable_per_hop=per_hop,
        cutset=make[1](),
        cutset_per_hop=tuple(reversed(per_hop)),
        inverse_gap=make[3](),
        absolute_gap=make[4](),
        fractional_gap_bound=make[5](),
        bounding_set=frozenset({2, 0}),
        optimal=False,
        ultimate_capacity=make[0](),
        relay_loss_factor=make[2](),
    )
    obj = report_to_obj(report)  # before any str() below
    assert obj["achievable_per_hop"] == texts and obj["cutset_per_hop"] == texts[::-1]
    assert obj == {**_values(report), "ultimate_capacity": "3/2", "relay_loss_factor": "0"}


def test_a_hop_past_the_int_string_limit_fails_only_in_the_report():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int-string limit in this interpreter")
    big = 10 ** (limit // 2 + 10)
    t = NetworkTopology((LayerSpec(nodes=big), LayerSpec(nodes=big + 1)))
    report = analyze(t)  # the hop cache keeps the value without its text
    assert report.achievable_per_hop[0] == hop_achievable_dof(big, big + 1)
    with pytest.raises(ValueError, match="limit"):
        report_to_obj(report)


# -- sums ----------------------------------------------------------------------------


def test_inverse_gap_takes_the_layer_weights_once(monkeypatch):
    sizes = [1 + k * k % 64 for k in range(1, 400)] + [INFINITY, 7]
    expected = inverse_gap(sizes)
    weights = calls(monkeypatch, analysis, "_layer_weights")
    assert inverse_gap(sizes) == expected
    assert len(weights) == 1


def test_analyze_on_an_all_infinite_chain_stores_nothing():
    t = NetworkTopology((LayerSpec(nodes=INFINITY),) * 4000)
    with pytest.raises(analysis.AnalysisError, match="all layers infinite"):
        analyze(t)
    assert not hasattr(t, "_sums")
    assert analyze(NetworkTopology((LayerSpec(nodes=INFINITY),) * 3999 + (LayerSpec(nodes=2),))).achievable == 2
