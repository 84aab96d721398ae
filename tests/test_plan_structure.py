"""Per-layer plan storage: the lazy views, and structural verification
against the expansion oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from relaydof import schedule
from relaydof.model import DemandMatrix, LayerSpec, NetworkTopology
from relaydof.region import max_uniform_scale
from relaydof.schedule import (
    PaddingMessage,
    PhaseMessage,
    SplitEdge,
    _msg_id,
    _pad_id,
    _phase_id,
    _sink_id,
    _structural_conservation,
    integer_schedule,
    plan_to_dot,
    schedule_to_obj,
    verify_schedule,
)


def _chain(sizes):
    return NetworkTopology(tuple(LayerSpec(nodes=s) for s in sizes))


@st.composite
def schedules(draw):
    """Chains of 3-6 layers with sizes 1-6, half of them with a random
    feasible demand (a sparse pattern scaled to the boundary, then shrunk)."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=6))
    t = _chain(sizes)
    demand = None
    if draw(st.booleans()):
        cells = draw(
            st.dictionaries(
                st.tuples(st.integers(0, sizes[-1] - 1), st.integers(0, sizes[0] - 1)),
                st.integers(1, 5),
                min_size=1,
                max_size=6,
            )
        )
        shrink = draw(st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8))
        demand = max_uniform_scale(t, DemandMatrix(cells)).scaled.scale(shrink)
    return integer_schedule(t, demand)


_deltas = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


def _replace(record, **changes):
    """A copy of the record with some fields changed, through its constructor."""
    return type(record)(**{name: changes.pop(name, getattr(record, name)) for name in record._fields}, **changes)


def _with_plan(s, plan):
    return _replace(s, split_plan=plan)


def _expanded_conservation(plan, edges=None, transfers=None) -> tuple[list, list, list]:
    """Conservation by summing every edge into its endpoints (the oracle).

    ``edges`` and ``transfers`` default to the plan's views.  Returns the
    unbalanced node ids, relay (layer, node) pairs and phases.
    """
    edges = plan.edges if edges is None else edges
    transfers = plan.transfers if transfers is None else transfers
    hops = len(plan.sizes) - 1
    inbound: dict[str, Fraction] = {}
    outbound: dict[str, Fraction] = {}
    for e in edges:
        outbound[e.head] = outbound.get(e.head, Fraction(0)) + e.bits
        inbound[e.tail] = inbound.get(e.tail, Fraction(0)) + e.bits
    bad_nodes = []
    for msg in plan.sources:
        if outbound.get(_msg_id(msg.dst, msg.src), Fraction(0)) != msg.bits:
            bad_nodes.append(_msg_id(msg.dst, msg.src))
    for pad in plan.paddings:
        if outbound.get(_pad_id(pad.src), Fraction(0)) != pad.bits:
            bad_nodes.append(_pad_id(pad.src))
    for tr in transfers:
        node = _phase_id(tr.phase, tr.tx, tr.rx)
        if inbound.get(node, Fraction(0)) != tr.bits:
            bad_nodes.append(node)
        if outbound.get(node, Fraction(0)) != tr.bits:
            bad_nodes.append(node)
    for sink in plan.sinks:
        if inbound.get(_sink_id(sink.dst), Fraction(0)) != sink.bits:
            bad_nodes.append(_sink_id(sink.dst))
    relay_totals: dict[tuple[int, int], list[Fraction]] = {}
    for tr in transfers:
        if tr.phase >= 1:
            key = (tr.phase, tr.tx)
            relay_totals.setdefault(key, [Fraction(0), Fraction(0)])[1] += tr.bits
        if tr.phase <= hops - 2:
            key = (tr.phase + 1, tr.rx)
            relay_totals.setdefault(key, [Fraction(0), Fraction(0)])[0] += tr.bits
    bad_relays = [key for key, (got, sent) in relay_totals.items() if got != sent]
    phase_totals = {}
    for tr in transfers:
        phase_totals[tr.phase] = phase_totals.get(tr.phase, Fraction(0)) + tr.bits
    uneven_phases = [k for k, total in phase_totals.items() if total != plan.total_bits]
    return bad_nodes, bad_relays, uneven_phases


def _oracle_findings(plan):
    """The oracle's findings as the structural check lists them: at most
    four unbalanced nodes and relays."""
    bad_nodes, bad_relays, uneven_phases = _expanded_conservation(plan)
    return bad_nodes[:4], bad_relays[:4], uneven_phases


# -- views ----------------------------------------------------------------------


def test_views_behave_like_the_expanded_tuples():
    plan = integer_schedule(_chain([2, 3, 1, 2]), DemandMatrix({(1, 0): Fraction(1, 9)})).split_plan
    for view, kind in ((plan.transfers, PhaseMessage), (plan.edges, SplitEdge)):
        items = tuple(view)
        assert len(view) == len(items) and all(type(x) is kind for x in items)
        assert [view[i] for i in range(-len(view), len(view))] == list(items * 2)
        assert view[1:-1:2] == items[1:-1:2]
        assert tuple(reversed(view)) == items[::-1]
        assert view == type(view)(*view._key) and view != items
    # the views are not stored: a plan rebuilt from its fields has equal ones
    assert _replace(plan).edges == plan.edges and _replace(plan).transfers == plan.transfers


@settings(max_examples=40, deadline=None)
@given(schedules())
def test_view_indexing_matches_iteration(s):
    for view in (s.split_plan.transfers, s.split_plan.edges):
        assert [view[i] for i in range(len(view))] == list(view)


def test_equal_plans_compare_equal_by_structure():
    a = integer_schedule(_chain([3, 2, 3]))
    b = integer_schedule(_chain([3, 2, 3]))
    assert a == b and a.split_plan.edges is not b.split_plan.edges
    assert a != integer_schedule(_chain([3, 2, 2]))


def test_structural_path_expands_nothing(monkeypatch):
    made = {SplitEdge: 0, PhaseMessage: 0}

    def counting(cls):
        def make(*args, **kwargs):
            made[cls] += 1
            return cls(*args, **kwargs)

        return make

    monkeypatch.setattr(schedule, "SplitEdge", counting(SplitEdge))
    monkeypatch.setattr(schedule, "PhaseMessage", counting(PhaseMessage))
    s = integer_schedule(_chain([16] * 4))
    assert verify_schedule(s).ok
    schedule_to_obj(s)
    plan_to_dot(s.split_plan)
    assert made == {SplitEdge: 0, PhaseMessage: 0}
    # fan-out of 16*16 messages, two relay layers, 16*16 sink edges
    assert len(s.split_plan.edges) == 3 * 16**3 + 16**2
    # the counters do see an expansion
    next(iter(s.split_plan.edges))
    next(iter(s.split_plan.transfers))
    assert made == {SplitEdge: 1, PhaseMessage: 1}


# -- structural verification against the expansion oracle ---------------------------


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_structural_and_expanded_verification_agree(s):
    report = verify_schedule(s)
    assert report.ok, report.failures()
    assert _structural_conservation(s.split_plan) == _oracle_findings(s.split_plan) == ([], [], [])


@settings(max_examples=80, deadline=None)
@given(schedules(), st.sampled_from(["source", "padding", "sink", "share", "duplicate", "relabel"]), st.data())
def test_structural_mutation_fails_both_routes_alike(s, target, data):
    plan = s.split_plan
    delta = data.draw(_deltas)
    if target == "source":
        k = data.draw(st.integers(0, len(plan.sources) - 1))
        victim = plan.sources[k]
        sources = plan.sources[:k] + (_replace(victim, bits=victim.bits + delta),) + plan.sources[k + 1 :]
        mutated = _replace(plan, sources=sources)
    elif target == "padding":
        if plan.paddings:
            k = data.draw(st.integers(0, len(plan.paddings) - 1))
            victim = plan.paddings[k]
            padding = _replace(victim, bits=victim.bits + delta)
            paddings = plan.paddings[:k] + (padding,) + plan.paddings[k + 1 :]
        else:
            paddings = (PaddingMessage(src=data.draw(st.integers(0, plan.sizes[0] - 1)), bits=abs(delta)),)
        mutated = _replace(plan, paddings=paddings)
    elif target == "sink":
        k = data.draw(st.integers(0, len(plan.sinks) - 1))
        victim = plan.sinks[k]
        sinks = plan.sinks[:k] + (_replace(victim, padding_bits=victim.padding_bits + delta),) + plan.sinks[k + 1 :]
        mutated = _replace(plan, sinks=sinks)
    elif target == "duplicate":
        # a repeated source or padding node sends its bits twice
        field = data.draw(st.sampled_from(["sources", "paddings"] if plan.paddings else ["sources"]))
        nodes = getattr(plan, field)
        mutated = _replace(plan, **{field: nodes + (data.draw(st.sampled_from(nodes)),)})
    elif target == "relabel":
        # a source or destination index just past its layer
        if data.draw(st.booleans()):
            sources = (_replace(plan.sources[0], src=plan.sizes[0]),) + plan.sources[1:]
            mutated = _replace(plan, sources=sources)
        else:
            sinks = plan.sinks[:-1] + (_replace(plan.sinks[-1], dst=plan.sizes[-1]),)
            mutated = _replace(plan, sinks=sinks)
    else:
        # a layer share is the structural form of every transfer in that phase
        k = data.draw(st.integers(0, len(plan.per_pair) - 1))
        per_pair = plan.per_pair[:k] + (plan.per_pair[k] + delta,) + plan.per_pair[k + 1 :]
        mutated = _replace(plan, per_pair=per_pair)
    assert not verify_schedule(_with_plan(s, mutated)).ok
    assert _structural_conservation(mutated) == _oracle_findings(mutated)


@settings(max_examples=60, deadline=None)
@given(schedules(), st.booleans(), st.data())
def test_single_edge_or_transfer_mutation_fails_conservation(s, edge, data):
    # a single edge or transfer has no structural counterpart (each layer's
    # share is common to all of them), so only the oracle can be handed one
    plan = s.split_plan
    items = list(plan.edges if edge else plan.transfers)
    k = data.draw(st.integers(0, len(items) - 1))
    items[k] = _replace(items[k], bits=items[k].bits + data.draw(_deltas))
    findings = _expanded_conservation(plan, **{"edges" if edge else "transfers": items})
    assert findings != ([], [], [])
