"""Per-layer plan storage: the lazy views, structural verification against
the reference model's expanded plan, and the integer-unit build, checks and
writers against the reference model's Fraction routes they replaced."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from relaydof import schedule
from relaydof.model import DemandMatrix, LayerSpec, NetworkTopology
from relaydof.region import max_uniform_scale
from relaydof.schedule import (
    PhaseMessage,
    SplitEdge,
    _structural_conservation,
    integer_schedule,
    plan_to_dot,
    schedule_to_obj,
    verify_schedule,
)

import reference
from support import calls, chain, fractions_built, put, replace, with_plan


_COPRIME = (1, 2, 3, 5, 7)


@st.composite
def _endpoint(draw, largest):
    """A source or destination layer: plain nodes, or antennas summing to at most ``largest``."""
    if draw(st.booleans()):
        return LayerSpec(nodes=draw(st.integers(1, largest)))
    antennas = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda a: sum(a) <= largest)
    return LayerSpec(antennas=tuple(draw(antennas)))


@st.composite
def schedules(draw, largest=8):
    """Chains of 3-6 layers with sizes 1-``largest`` (or pairwise coprime
    sizes), antenna or plain endpoints, and no demand, or a sparse demand on
    the region boundary or inside it."""
    length = draw(st.integers(3, 6))
    if draw(st.booleans()):
        relays = [LayerSpec(nodes=n) for n in draw(st.lists(st.integers(1, largest), min_size=length - 2, max_size=length - 2))]
        t = NetworkTopology((draw(_endpoint(largest)), *relays, draw(_endpoint(largest))))
    else:
        t = chain(draw(st.permutations(_COPRIME))[: min(length, len(_COPRIME))])
    demand = None
    if draw(st.booleans()):
        src, dst = len(t.source_layer.antenna_profile()), len(t.destination_layer.antenna_profile())
        cells = draw(
            st.dictionaries(
                st.tuples(st.integers(0, dst - 1), st.integers(0, src - 1)), st.integers(1, 5), min_size=1, max_size=6
            )
        )
        demand = max_uniform_scale(t, DemandMatrix(cells)).scaled
        if draw(st.booleans()):
            demand = demand.scale(draw(st.fractions(min_value=Fraction(1, 9), max_value=1, max_denominator=9)))
    return integer_schedule(t, demand)


_deltas = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)
# a change to a stored count, in the plan's unit
_count_deltas = st.integers(-6, 6).filter(bool)


def _bump(rows: tuple, k: int, delta) -> tuple:
    """The plan rows with the last item of row ``k`` (its count) changed by ``delta``."""
    return put(rows, k, (*rows[k][:-1], rows[k][-1] + delta))


def _listed(plan) -> tuple[list, list, list]:
    """The reference's findings on the plan's own expanded views, as the
    structural check lists them: four nodes and relays at most."""
    edges = [(e.head, e.tail, e.bits) for e in plan.edges]
    transfers = [(t.phase, t.tx, t.rx, t.bits) for t in plan.transfers]
    bad_nodes, bad_relays, uneven_phases = reference.conservation(plan, edges, transfers)
    return bad_nodes[:4], bad_relays[:4], uneven_phases


# -- views ----------------------------------------------------------------------


def test_views_behave_like_the_expanded_tuples():
    plan = integer_schedule(chain([2, 3, 1, 2]), DemandMatrix({(1, 0): Fraction(1, 9)})).split_plan
    for view, kind in ((plan.transfers, PhaseMessage), (plan.edges, SplitEdge)):
        items = tuple(view)
        assert len(view) == len(items) and all(type(x) is kind for x in items)
        assert [view[i] for i in range(-len(view), len(view))] == list(items * 2)
        assert view[1:-1:2] == items[1:-1:2]
        assert tuple(reversed(view)) == items[::-1]
        assert view == type(view)(*view._key) and view != items
    # the views are not stored: a plan rebuilt from its fields has equal ones
    assert replace(plan).edges == plan.edges and replace(plan).transfers == plan.transfers


@settings(max_examples=40, deadline=None)
@given(schedules(6))
def test_view_indexing_matches_iteration(s):
    for view in (s.split_plan.transfers, s.split_plan.edges):
        assert [view[i] for i in range(len(view))] == list(view)


def test_equal_plans_compare_equal_by_structure():
    a = integer_schedule(chain([3, 2, 3]))
    b = integer_schedule(chain([3, 2, 3]))
    assert a == b and a.split_plan.edges is not b.split_plan.edges
    assert a != integer_schedule(chain([3, 2, 2]))


def test_structural_path_expands_nothing(monkeypatch):
    edges, transfers = calls(monkeypatch, schedule, "SplitEdge"), calls(monkeypatch, schedule, "PhaseMessage")
    s = integer_schedule(chain([16] * 4))
    assert verify_schedule(s).ok
    schedule_to_obj(s)
    plan_to_dot(s.split_plan)
    assert (len(edges), len(transfers)) == (0, 0)
    # fan-out of 16*16 messages, two relay layers, 16*16 sink edges
    assert len(s.split_plan.edges) == 3 * 16**3 + 16**2
    # the counters do see an expansion
    next(iter(s.split_plan.edges))
    next(iter(s.split_plan.transfers))
    assert (len(edges), len(transfers)) == (1, 1)


# -- structural verification against the reference expansion -------------------------


@settings(max_examples=60, deadline=None)
@given(schedules(6))
def test_structural_and_expanded_verification_agree(s):
    report = verify_schedule(s)
    assert report.ok, report.failures()
    assert _structural_conservation(s.split_plan) == _listed(s.split_plan) == ([], [], [])


@settings(max_examples=80, deadline=None)
@given(schedules(6), st.sampled_from(["source", "padding", "sink", "share", "duplicate", "relabel", "resink"]), st.data())
def test_structural_mutation_fails_both_routes_alike(s, target, data):
    plan = s.split_plan
    delta = data.draw(_deltas if target == "share" else _count_deltas)
    if target == "source":
        k = data.draw(st.integers(0, len(plan.sources) - 1))
        mutated = replace(plan, sources=_bump(plan.sources, k, delta))
    elif target == "padding":
        if plan.paddings:
            paddings = _bump(plan.paddings, data.draw(st.integers(0, len(plan.paddings) - 1)), delta)
        else:
            paddings = ((data.draw(st.integers(0, plan.sizes[0] - 1)), abs(delta)),)
        mutated = replace(plan, paddings=paddings)
    elif target == "sink":
        # a sink row's last item is its padding count
        k = data.draw(st.integers(0, len(plan.sinks) - 1))
        mutated = replace(plan, sinks=_bump(plan.sinks, k, delta))
    elif target == "duplicate":
        # a repeated source or padding node sends its bits twice
        field = data.draw(st.sampled_from(["sources", "paddings"] if plan.paddings else ["sources"]))
        nodes = getattr(plan, field)
        mutated = replace(plan, **{field: nodes + (data.draw(st.sampled_from(nodes)),)})
    elif target == "relabel":
        # a source or destination index just past its layer
        if data.draw(st.booleans()):
            mutated = replace(plan, sources=put(plan.sources, 0, put(plan.sources[0], 1, plan.sizes[0])))
        else:
            last = len(plan.sinks) - 1
            mutated = replace(plan, sinks=put(plan.sinks, last, put(plan.sinks[last], 0, plan.sizes[-1])))
    elif target == "resink":
        # a sink row dropped, or named for the next row's destination
        k = data.draw(st.integers(0, len(plan.sinks) - 1))
        if len(plan.sinks) > 1 and data.draw(st.booleans()):
            mutated = replace(plan, sinks=put(plan.sinks, k, put(plan.sinks[k], 0, plan.sinks[k - 1][0])))
        else:
            mutated = replace(plan, sinks=plan.sinks[:k] + plan.sinks[k + 1 :])
    else:
        # a layer share is the structural form of every transfer in that phase
        k = data.draw(st.integers(0, len(plan.per_pair) - 1))
        per_pair = plan.per_pair[:k] + (plan.per_pair[k] + delta,) + plan.per_pair[k + 1 :]
        mutated = replace(plan, per_pair=per_pair)
    assert not verify_schedule(replace(s, split_plan=mutated)).ok
    assert _structural_conservation(mutated) == _listed(mutated)


@settings(max_examples=60, deadline=None)
@given(schedules(6), st.booleans(), st.data())
def test_single_edge_or_transfer_mutation_fails_conservation(s, edge, data):
    # a single edge or transfer has no structural counterpart (each layer's
    # share is common to all of them), so only the oracle can be handed one
    plan = s.split_plan
    items = reference.edge_rows(plan) if edge else reference.transfer_rows(plan)
    k = data.draw(st.integers(0, len(items) - 1))
    items[k] = (*items[k][:-1], items[k][-1] + data.draw(_deltas))
    findings = reference.conservation(plan, **{"edges" if edge else "transfers": items})
    assert findings != ([], [], [])


# -- the integer unit against the Fraction route ------------------------------------
#
# The reference model keeps the Fraction-route writers, demand-share check and
# plan build that the integer-unit code replaced.

_route_settings = settings(max_examples=40, deadline=None)


def _halved(plan, k):
    """The plan's source rows with row k's count halved."""
    dst, src, count = plan.sources[k]
    return put(plan.sources, k, (dst, src, count // 2))


def _tamper(s, how, data):
    plan = s.split_plan
    if how == "source":
        return with_plan(s, sources=_halved(plan, data.draw(st.integers(0, len(plan.sources) - 1))))
    if how == "padding":
        delta = data.draw(_count_deltas)
        if plan.paddings:
            return with_plan(s, paddings=_bump(plan.paddings, data.draw(st.integers(0, len(plan.paddings) - 1)), delta))
        sinks = _bump(plan.sinks, data.draw(st.integers(0, len(plan.sinks) - 1)), delta)
        return with_plan(s, sinks=sinks, padding_bits=plan.padding_bits + Fraction(delta, plan.unit))
    # a wrong sink `received`: one entry's count or source index changed, or one dropped
    k = data.draw(st.integers(0, len(plan.sinks) - 1))
    dst, received, padding = plan.sinks[k]
    entries = list(received) or [(0, 0)]
    r = data.draw(st.integers(0, len(entries) - 1))
    i, count = entries[r]
    changes = [(i, count + data.draw(_count_deltas)), (i + 1, count)] + [None] * bool(received)
    entries[r] = data.draw(st.sampled_from(changes))
    entries = tuple(x for x in entries if x is not None)
    return with_plan(s, sinks=put(plan.sinks, k, (dst, entries, padding)))


def _assert_matches_the_fraction_route(s):
    # texts are compared by lines: a failing comparison of lists reports the
    # first differing line without diffing whole documents on every shrink step
    plan = s.split_plan
    assert plan_to_dot(plan).splitlines() == reference.plan_dot(plan).splitlines()
    new, old = schedule_to_obj(s)["split_plan"], reference.plan_obj(plan)
    assert json.dumps(new, indent=2).splitlines() == json.dumps(old, indent=2).splitlines()
    assert list(plan.edges) == [SplitEdge(*row) for row in reference.edge_rows(plan)]
    assert list(plan.transfers) == [PhaseMessage(*row) for row in reference.transfer_rows(plan)]
    assert verify_schedule(s).checks[3] == reference.demand_shares(s)


@_route_settings
@given(schedules())
def test_integer_unit_matches_the_fraction_route(s):
    _assert_matches_the_fraction_route(s)
    assert verify_schedule(s).ok
    plan = s.split_plan
    assert plan == reference.split_plan(plan.sizes, plan.demand.entries, s.total_bits, s.total_delay)


@_route_settings
@given(schedules(), st.sampled_from(["source", "padding", "received"]), st.data())
def test_integer_unit_matches_the_fraction_route_on_tampered_plans(s, how, data):
    tampered = _tamper(s, how, data)
    _assert_matches_the_fraction_route(tampered)
    assert [(c.name, c.detail) for c in verify_schedule(tampered).failures()]


def test_integer_unit_reports_as_the_fraction_route():
    # one plan per tampering, with the detail strings the Fraction route gives
    s = integer_schedule(chain([2, 3, 2]), DemandMatrix({(0, 0): Fraction(1, 5), (1, 1): Fraction(1, 7)}))
    plan = s.split_plan
    dst, received, padding = plan.sinks[0]
    halved = replace(plan, sources=_halved(plan, 0))
    padded = replace(plan, sinks=_bump(plan.sinks, 0, plan.unit))  # one bit more padding
    misrouted = replace(plan, sinks=put(plan.sinks, 0, (dst, ((1, received[0][1]),), padding)))
    details = [verify_schedule(replace(s, split_plan=p)).checks[3].detail for p in (halved, padded, misrouted)]
    assert details == ["message msg[1,1]", "dst 1 padding", "dst 1 reassembly"]
    for p in (halved, padded, misrouted):
        assert verify_schedule(replace(s, split_plan=p)).checks[3] == reference.demand_shares(replace(s, split_plan=p))


# -- checks (1) and (3) in integers against the Fraction route ----------------------
#
# verify_schedule cross-multiplies block lengths and phase fields, and compares
# sum_dof with the integers of the reciprocal sum; the reference model keeps
# the Fraction forms it replaced.


def _assert_checks_1_and_3_match(s):
    report = verify_schedule(s)
    assert report.checks[0] == reference.phase_recurrence(s)
    assert report.checks[2] == reference.sum_dof_check(s)


def _tamper_numbers(s, how, data):
    """A schedule with one phase field, sum_dof or total_delay changed."""
    if how in ("sum_dof", "total_delay"):
        value = getattr(s, how)
        if data.draw(st.booleans()):
            value += data.draw(st.sampled_from([-1, 1]))
        elif how == "sum_dof":
            value = data.draw(st.sampled_from([value.numerator, value.numerator // value.denominator]))
        return replace(s, **{how: value})
    k = data.draw(st.integers(0, len(s.phases) - 1))
    phase = s.phases[k]
    value = getattr(phase, how)
    if how != "block_length" and data.draw(st.booleans()):
        # an int where a Fraction was: the value itself when it is whole
        value = data.draw(st.sampled_from([value.numerator, value.numerator // value.denominator]))
    else:
        value += data.draw(_deltas)
    phases = s.phases[:k] + (replace(phase, **{how: value}),) + s.phases[k + 1 :]
    return replace(s, phases=phases)


@_route_settings
@given(schedules())
def test_checks_1_and_3_match_the_fraction_route(s):
    _assert_checks_1_and_3_match(s)
    assert verify_schedule(s).ok


@_route_settings
@given(
    schedules(),
    st.sampled_from(["block_length", "per_pair_dof", "per_pair_bits", "sum_dof", "total_delay"]),
    st.data(),
)
def test_checks_1_and_3_match_the_fraction_route_on_tampered_numbers(s, how, data):
    _assert_checks_1_and_3_match(_tamper_numbers(s, how, data))


def test_checks_1_and_3_report_as_the_fraction_route():
    s = integer_schedule(chain([2, 3, 2]))
    longer = replace(s.phases[1], block_length=s.phases[1].block_length + Fraction(1, 2))
    cases = {
        "phases": replace(s, phases=(s.phases[0], longer)),
        "sum_dof": replace(s, sum_dof=s.sum_dof + 1),
        "whole sum_dof": replace(s, sum_dof=1),
    }
    details = {name: (verify_schedule(t).checks[0].detail, verify_schedule(t).checks[2].detail) for name, t in cases.items()}
    assert details == {
        "phases": ("forwarding mismatch at hop(s) [1]; phase fields off at hop(s) [1]", "sum_dof 3/4 vs achievable 3/4"),
        "sum_dof": ("", "sum_dof 7/4 vs achievable 3/4"),
        "whole sum_dof": ("", "sum_dof 1 vs achievable 3/4"),
    }
    for t in cases.values():
        _assert_checks_1_and_3_match(t)


def test_verification_builds_no_fraction_per_hop(monkeypatch):
    short = integer_schedule(chain([2, 3, 4, 3, 2]))
    long = integer_schedule(chain([2, *([3, 4, 5, 6] * 15)[:58], 2]))
    assert len(long.phases) == 59
    built = fractions_built(monkeypatch)
    counts = []
    for s in (short, long):
        built.clear()
        assert verify_schedule(s).ok
        counts.append(len(built))
    assert counts[0] == counts[1]
    # the counter does see a per-hop Fraction
    built.clear()
    reference.phase_recurrence(long)
    assert len(built) >= 3 * len(long.phases)
