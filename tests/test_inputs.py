"""Inputs that used to be coerced silently, and invariants that must not
rely on ``assert``."""

import json
import math
import re
from fractions import Fraction

import pytest

from relaydof.analysis import (
    AnalysisError,
    absolute_and_fractional_gap,
    achievable_sum_dof,
    bounding_set,
    cutset_sum_dof,
    hop_achievable_dof,
    hop_cutset_dof,
    inverse_gap,
    is_optimal,
    relay_loss_factor,
    ultimate_capacity,
)
from relaydof.cli import main
from relaydof.model import DemandError, DemandMatrix, TopologyError, parse_topology
from relaydof.scaling import FamilyError, FamilySpec, parse_family
from relaydof.schedule import phase_ratios, recurrence_sum_dof


# -- raw layer sizes: one check at every entry point --------------------------------

# functions of two sizes take them as the 2-chain (m, n)
PAIR_ENTRY_POINTS = (hop_achievable_dof, hop_cutset_dof, ultimate_capacity, relay_loss_factor)
CHAIN_ENTRY_POINTS = (
    achievable_sum_dof,
    cutset_sum_dof,
    inverse_gap,
    absolute_and_fractional_gap,
    bounding_set,
    is_optimal,
    phase_ratios,
    recurrence_sum_dof,
)
BAD_SIZES = (0, -1, True, 2.0, Fraction(2), "x")


@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS + CHAIN_ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", BAD_SIZES, ids=repr)
def test_every_raw_size_entry_point_rejects_a_bad_size(entry, bad):
    chain = [3, 2] if entry in PAIR_ENTRY_POINTS else [3, 2, 4]
    for k in range(len(chain)):
        sizes = chain[:k] + [bad] + chain[k + 1 :]
        what = "transmitter count" if k == 0 else "receiver count"
        message = f"^{what} must be a positive integer or INFINITY, got {re.escape(repr(bad))}$"
        with pytest.raises(AnalysisError, match=message):
            entry(*sizes) if entry in PAIR_ENTRY_POINTS else entry(sizes)


@pytest.mark.parametrize("hop", (hop_achievable_dof, hop_cutset_dof), ids=lambda f: f.__name__)
def test_warm_hop_caches_still_reject_bad_sizes(hop):
    # (2.0, 3), (Fraction(2), 3) and (True, 2) are equal, as cache keys, to warm ones
    hop(2, 3)
    hop(1, 2)
    for m, n in ((2.0, 3), (Fraction(2), 3), (True, 2)):
        with pytest.raises(AnalysisError):
            hop(m, n)


# -- invariants raise InvariantError (python -O strips assert) ----------------------


def test_broken_integrality_is_an_internal_error_with_exit_3(tmp_path, capsys, monkeypatch):
    # an LCM that ignores the denominators leaves the [1, 2, 4] phase-1 block fractional
    monkeypatch.setattr(math, "lcm", lambda *args: 1)
    topology = tmp_path / "t.json"
    topology.write_text('{"layers":[{"nodes":1},{"nodes":2},{"nodes":4}]}', encoding="utf-8")
    assert main(["schedule", str(topology)]) == 3
    assert "internal error: hop 1" in capsys.readouterr().err


# -- pinned layers ------------------------------------------------------------------


def test_duplicate_pinned_layer_is_rejected():
    with pytest.raises(FamilyError, match="layer 1 more than once"):
        parse_family('{"kind":"PinnedLayerFixedK","base":[1,1,1],"pinned":{"1":2,"01":3}}')


def test_duplicate_pinned_layer_exits_2(tmp_path, capsys):
    family = tmp_path / "f.json"
    family.write_text('{"kind":"PinnedLayerFixedK","base":[1,1,1],"pinned":{"1":2,"01":3}}', encoding="utf-8")
    assert main(["classify", str(family)]) == 2
    assert "layer 1" in capsys.readouterr().err


# JSON object keys are strings; only ASCII digits name a layer ("01" is layer 1)
BAD_PINNED_KEYS = ["1_0", " 1", "1 ", "+1", "-1", "\u0661", "\u00b9", "1.0", "", "x", "1" * 5000]


@pytest.mark.parametrize("key", BAD_PINNED_KEYS, ids=lambda key: repr(key[:8]))
def test_pinned_key_that_is_not_ascii_digits_is_rejected(key):
    with pytest.raises(FamilyError, match=r"^'pinned' key .* is not a layer index$"):
        parse_family(json.dumps({"kind": "PinnedLayerFixedK", "base": [1, 1, 1], "pinned": {key: 2}}))


@pytest.mark.parametrize("key", ["1_0", "\u0661"])
def test_pinned_key_that_is_not_ascii_digits_exits_2(key, tmp_path, capsys):
    family = tmp_path / "f.json"
    family.write_text(json.dumps({"kind": "PinnedLayerFixedK", "base": [1, 1, 1], "pinned": {key: 2}}), encoding="utf-8")
    assert main(["classify", str(family)]) == 2
    assert capsys.readouterr().err == f"error: 'pinned' key {key!r} is not a layer index\n"


@pytest.mark.parametrize("size", ["true", "2.9", '"2"'])
def test_non_integer_pinned_size_is_rejected(size):
    with pytest.raises(FamilyError, match="pinned size of layer 1"):
        parse_family('{"kind":"PinnedLayerFixedK","base":[1,1,1],"pinned":{"1":' + size + "}}")


# -- family fields: a kind takes only its own -----------------------------------------

BASE_222 = '"topology":{"layers":[{"nodes":2},{"nodes":2},{"nodes":2}]}'


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind":"ProportionalFixedK","base":[1,1,1],"pinned":{"7":5}}', "ProportionalFixedK takes no 'pinned'"),
        ('{"kind":"ProportionalFixedK","base":[1,1,1],"pinned":{}}', "ProportionalFixedK takes no 'pinned'"),
        ('{"kind":"ProportionalFixedK","base":[1,1,1],' + BASE_222 + "}", "ProportionalFixedK takes no 'topology'"),
        ('{"kind":"FixedSizesGrowingK","base":[2],"pinned":{"0":1}}', "FixedSizesGrowingK takes no 'pinned'"),
        ('{"kind":"FixedSizesGrowingK","base":[2],' + BASE_222 + "}", "FixedSizesGrowingK takes no 'topology'"),
        ('{"kind":"PinnedLayerFixedK","base":[1,1,1],"pinned":{"1":2},' + BASE_222 + "}", "PinnedLayerFixedK takes no 'topology'"),
        ('{"kind":"AntennaScaled","base":[1,1],' + BASE_222 + "}", "AntennaScaled takes no 'base'"),
        ('{"kind":"AntennaScaled","pinned":{"0":1},' + BASE_222 + "}", "AntennaScaled takes no 'pinned'"),
        ('{"kind":"PinnedLayerFixedK","base":[1,1,1],"pinnned":{"1":2}}', "unknown family field 'pinnned'"),
        ('{"kind":"ProportionalFixedK","base":[1,1],"n":4}', "unknown family field 'n'"),
    ],
)
def test_family_field_the_kind_does_not_take_exits_2(tmp_path, capsys, text, message):
    with pytest.raises(FamilyError) as info:
        parse_family(text)
    assert str(info.value) == message
    family = tmp_path / "f.json"
    family.write_text(text, encoding="utf-8")
    assert main(["classify", str(family)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_family_spec_rejects_a_field_the_kind_does_not_take():
    with pytest.raises(FamilyError, match="^ProportionalFixedK takes no 'pinned'$"):
        FamilySpec(kind="ProportionalFixedK", base=(Fraction(1), Fraction(1)), pinned=((0, 1),))
    with pytest.raises(FamilyError, match="^AntennaScaled takes no 'base'$"):
        FamilySpec(kind="AntennaScaled", base=(Fraction(1),), topology=parse_topology('{"layers":[{"nodes":2},{"nodes":2}]}'))


# -- family values: FamilySpec is their one checker -----------------------------------

# parse_family checks only the JSON and hands each base entry and pinned size
# to FamilySpec as read, so a value fault reads the same from either door
VALUE_FAULTS = [
    ("ProportionalFixedK", ["inf", 1], None),
    ("ProportionalFixedK", ["1/2", "0"], None),
    ("FixedSizesGrowingK", ["3/2"], None),
    ("PinnedLayerFixedK", [1, 1, 1], {3: 2}),
    ("PinnedLayerFixedK", [1, 1, 1], {1: 2.0}),
    ("PinnedLayerFixedK", [1, 1, 1], {1: "2"}),
    ("PinnedLayerFixedK", [1, 1, 1], {1: 0}),
]


@pytest.mark.parametrize("kind, base, pinned", VALUE_FAULTS)
def test_a_family_value_fault_reads_the_same_from_the_document_and_the_spec(kind, base, pinned):
    doc = {"kind": kind, "base": base, **({"pinned": {str(k): v for k, v in pinned.items()}} if pinned else {})}
    with pytest.raises(FamilyError) as from_doc:
        parse_family(json.dumps(doc))
    with pytest.raises(FamilyError) as from_spec:
        FamilySpec(kind=kind, base=tuple(base), pinned=tuple(pinned.items()) if pinned else None)
    assert str(from_doc.value) == str(from_spec.value)


# a document with two faults names the first one met: the reader checks the
# JSON types before FamilySpec checks the values, in its own order
TWO_FAULTS = [
    ('{"kind":"ProportionalFixedK","base":["inf",1.5]}', "bad base profile entry 1.5"),
    ('{"kind":"AntennaScaled","base":["inf"]}', "AntennaScaled takes no 'base'"),
    ('{"kind":"PinnedLayerFixedK","base":[1,1],"pinned":{"5":2.0}}', "pinned layer 5 outside base profile"),
]


@pytest.mark.parametrize("text, message", TWO_FAULTS)
def test_a_family_with_two_faults_names_the_first(tmp_path, capsys, text, message):
    with pytest.raises(FamilyError, match=f"^{re.escape(message)}$"):
        parse_family(text)
    family = tmp_path / "f.json"
    family.write_text(text, encoding="utf-8")
    assert main(["classify", str(family)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# -- demand keys --------------------------------------------------------------------


@pytest.mark.parametrize("key", [(0.7, 0), (0, Fraction(1)), (True, 0), (0, False), (0,), "ab"])
def test_demand_key_must_be_a_pair_of_plain_ints(key):
    with pytest.raises(DemandError, match="pair of ints"):
        DemandMatrix({key: 1})


# -- layer values: one validation path (LayerSpec), reported per layer -----------------


@pytest.mark.parametrize(
    "layer, message",
    [
        ('{"nodes":2.5}', "layer 1: node count must be a positive integer or 'inf', got 2.5"),
        ('{"nodes":true}', "layer 1: node count must be a positive integer or 'inf', got True"),
        ('{"nodes":-3}', "layer 1: node count must be positive, got -3"),
        ('{"antennas":[]}', "layer 1: antenna list must be nonempty"),
        ('{"antennas":[1,true]}', "layer 1: antenna count must be a positive integer, got True"),
        ('{"antennas":3}', "layer 1: 'antennas' must be a nonempty list"),
    ],
)
def test_layer_value_errors_name_the_layer(layer, message):
    with pytest.raises(TopologyError) as info:
        parse_topology('{"layers":[{"nodes":2},' + layer + "]}")
    assert str(info.value) == message


# -- exact values too large for floats or per-node expansion ------------------------

HUGE = 10**400
HUGE_TOPOLOGY = json.dumps({"layers": [{"nodes": HUGE}, {"nodes": HUGE}]})


@pytest.mark.parametrize(
    "argv, files",
    [
        (["analyze", "t.json", "--decimal"], {"t.json": HUGE_TOPOLOGY}),
        (
            ["check", "t.json", "d.json", "--format", "table", "--decimal"],
            {"t.json": HUGE_TOPOLOGY, "d.json": json.dumps({"demands": [{"dst": 1, "src": 1, "dof": str(10 * HUGE)}]})},
        ),
        (["classify", "f.json"], {"f.json": '{"kind":"AntennaScaled","topology":' + HUGE_TOPOLOGY + "}"}),
    ],
    ids=["analyze-decimal", "check-table-decimal", "classify-antenna-scaled"],
)
def test_overflow_is_an_input_error_with_exit_2(tmp_path, capsys, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_check_on_huge_endpoints_gives_a_verdict(tmp_path, capsys):
    # a plain {"nodes": N} endpoint is never expanded into N shares
    (tmp_path / "t.json").write_text(HUGE_TOPOLOGY, encoding="utf-8")
    (tmp_path / "d.json").write_text('{"demands":[{"dst":1,"src":1,"dof":"1/2"}]}', encoding="utf-8")
    assert main(["check", str(tmp_path / "t.json"), str(tmp_path / "d.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": True, "violations": [], "binding": []}
