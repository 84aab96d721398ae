"""Per-layer plan storage: the lazy views, structural verification against
the expansion oracle, and the integer-unit build, checks and writers against
the Fraction-route oracles they replaced."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from relaydof import schedule
from relaydof.analysis import achievable_sum_dof
from relaydof.model import DemandMatrix, ExtRational, LayerSpec, NetworkTopology, demand_to_obj
from relaydof.region import max_uniform_scale
from relaydof.schedule import (
    CheckResult,
    PaddingMessage,
    PhaseMessage,
    SplitEdge,
    _msg_id,
    _pad_id,
    _phase_id,
    _sink_id,
    _plan_units,
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
    assert _structural_conservation(s.split_plan, _plan_units(s.split_plan)) == _oracle_findings(s.split_plan) == ([], [], [])


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
    assert _structural_conservation(mutated, _plan_units(mutated)) == _oracle_findings(mutated)


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


# -- the integer unit against the Fraction route ------------------------------------
#
# The oracles below are the Fraction-route text path, writers, demand-share
# check and build steps (`_to_bits`, `unused`) that the integer-unit code
# replaced, kept as they were apart from reading the plan from their arguments.

_oracle_settings = settings(max_examples=40, deadline=None)


def _oracle_sink_bits(sink):
    return sum((b for _, b in sink.received), Fraction(0)) + sink.padding_bits


def _oracle_transfer_rows(plan, text=False):
    sizes, per_pair = plan.sizes, plan.per_pair
    for k, bits in enumerate(per_pair):
        bits = str(bits) if text else bits
        for tx in range(sizes[k]):
            for rx in range(sizes[k + 1]):
                yield k, tx, rx, bits


def _oracle_edge_rows(plan, text=False):
    sizes, per_pair, sources, paddings = plan.sizes, plan.per_pair, plan.sources, plan.paddings
    fmt = str if text else (lambda bits: bits)
    ids = [
        [[_phase_id(k, tx, rx) for rx in range(sizes[k + 1])] for tx in range(sizes[k])]
        for k in range(len(sizes) - 1)
    ]

    def fan_out(src):
        if 0 <= src < sizes[0]:
            return ids[0][src]
        return [_phase_id(0, src, n) for n in range(sizes[1])]

    for msg in sources:
        head, share = _msg_id(msg.dst, msg.src), fmt(msg.bits / sizes[1])
        for tail in fan_out(msg.src):
            yield head, tail, share
    for pad in paddings:
        head, share = _pad_id(pad.src), fmt(pad.bits / sizes[1])
        for tail in fan_out(pad.src):
            yield head, tail, share
    for k in range(1, len(sizes) - 1):
        share = fmt(per_pair[k] / sizes[k - 1])
        for n in range(sizes[k]):
            tails = ids[k][n]
            for inbound in ids[k - 1]:
                head = inbound[n]
                for tail in tails:
                    yield head, tail, share
    share = fmt(per_pair[-1])
    for j in range(sizes[-1]):
        sink = _sink_id(j)
        for inbound in ids[-1]:
            yield inbound[j], sink, share


def _oracle_plan_to_obj(plan):
    nodes = []
    for msg in plan.sources:
        nodes.append({"id": _msg_id(msg.dst, msg.src), "kind": "source", "bits": str(msg.bits)})
    for pad in plan.paddings:
        nodes.append({"id": _pad_id(pad.src), "kind": "padding", "bits": str(pad.bits)})
    nodes.extend(
        {"id": _phase_id(k, tx, rx), "kind": "transfer", "phase": k, "bits": bits}
        for k, tx, rx, bits in _oracle_transfer_rows(plan, text=True)
    )
    for sink in plan.sinks:
        nodes.append(
            {
                "id": _sink_id(sink.dst),
                "kind": "destination",
                "bits": str(_oracle_sink_bits(sink)),
                "received": [{"src": i + 1, "bits": str(b)} for i, b in sink.received],
                "padding_bits": str(sink.padding_bits),
            }
        )
    return {
        "demand": demand_to_obj(plan.demand),
        "total_bits": plan.total_bits,
        "padding_bits": str(plan.padding_bits),
        "bits_per_dof": str(plan.bits_per_dof),
        "padding_policy": "uniform-fill",
        "nodes": nodes,
        "edges": [{"from": h, "to": t, "bits": b} for h, t, b in _oracle_edge_rows(plan, text=True)],
    }


def _oracle_plan_to_dot(plan):
    lines = ["digraph split_plan {", "  rankdir=LR;"]
    for msg in plan.sources:
        lines.append(f'  "{_msg_id(msg.dst, msg.src)}" [shape=box, label="{_msg_id(msg.dst, msg.src)}\\n{msg.bits} bits"];')
    for pad in plan.paddings:
        lines.append(f'  "{_pad_id(pad.src)}" [shape=box, style=dashed, label="{_pad_id(pad.src)}\\n{pad.bits} bits"];')
    for k, tx, rx, bits in _oracle_transfer_rows(plan, text=True):
        node = _phase_id(k, tx, rx)
        lines.append(f'  "{node}" [label="{node}\\n{bits} bits"];')
    for sink in plan.sinks:
        lines.append(
            f'  "{_sink_id(sink.dst)}" [shape=doublecircle, label="{_sink_id(sink.dst)}\\n{_oracle_sink_bits(sink)} bits"];'
        )
    lines.extend(f'  "{h}" -> "{t}" [label="{b}"];' for h, t, b in _oracle_edge_rows(plan, text=True))
    lines.append("}")
    return "\n".join(lines)


def _oracle_to_bits(entries, bits_per_dof):
    out = {}
    value = bits = None
    for key, v in entries.items():
        if v is not value:
            value, bits = v, v * bits_per_dof
        out[key] = bits
    return out


def _oracle_demand_shares(s):
    """Check (4) of verify_schedule, by the Fraction route."""
    sizes = [p.tx_count for p in s.phases] + [s.phases[-1].rx_count]
    plan = s.split_plan
    norm = plan.bits_per_dof
    unit, _, cols = plan.demand.unit_sums()
    wanted = _oracle_to_bits(plan.demand.entries, norm)
    expected = {}
    for (j, i), bits in wanted.items():
        if 0 <= i < sizes[0]:
            expected.setdefault(j, {})[i] = bits
    sink_budget = Fraction(plan.total_bits, sizes[-1])
    problems = []
    for sink in plan.sinks:
        if dict(sink.received) != expected.get(sink.dst, {}):
            problems.append(f"dst {sink.dst + 1} reassembly")
        if sink.padding_bits != sink_budget - Fraction(cols.get(sink.dst, 0), unit) * norm:
            problems.append(f"dst {sink.dst + 1} padding")
    for msg in plan.sources:
        if msg.bits != wanted.get((msg.dst, msg.src), 0):
            problems.append(f"message {_msg_id(msg.dst, msg.src)}")
    if plan.padding_bits != plan.total_bits - Fraction(sum(cols.values()), unit) * norm:
        problems.append("total padding")
    return CheckResult("demand-shares", not problems, "" if not problems else "; ".join(problems[:4]))


def _oracle_plan(s):
    """The plan as the Fraction route builds it from the schedule's demand."""
    plan = s.split_plan
    sizes, delay = list(plan.sizes), s.total_delay
    unit, rows, cols = plan.demand.unit_sums()
    received, sources = {}, []
    for (j, i), bits in sorted(_oracle_to_bits(plan.demand.entries, delay).items()):
        sources.append(schedule.SourceMessage(dst=j, src=i, bits=bits))
        if 0 <= i < sizes[0]:
            received.setdefault(j, []).append((i, bits))

    def unused(demand_units, count):
        return Fraction(s.total_bits * unit - count * demand_units * delay, count * unit)

    paddings = [PaddingMessage(src=i, bits=unused(rows.get(i, 0), sizes[0])) for i in range(sizes[0])]
    sinks = tuple(
        schedule.DestinationBin(dst=j, received=tuple(received.get(j, ())), padding_bits=unused(cols.get(j, 0), sizes[-1]))
        for j in range(sizes[-1])
    )
    return _replace(
        plan,
        sources=tuple(sources),
        paddings=tuple(p for p in paddings if p.bits > 0),
        sinks=sinks,
        padding_bits=unused(sum(rows.values()), 1),
        bits_per_dof=Fraction(delay),
    )


_COPRIME = (1, 2, 3, 5, 7)


@st.composite
def _endpoint(draw):
    """A source or destination layer: plain nodes, or antennas summing to at most 8."""
    if draw(st.booleans()):
        return LayerSpec(nodes=draw(st.integers(1, 8)))
    return LayerSpec(antennas=tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda a: sum(a) <= 8))))


@st.composite
def oracle_schedules(draw):
    """Chains of 3-6 layers with sizes 1-8 (or pairwise coprime sizes),
    antenna or plain endpoints, and no demand, or a sparse demand on the
    region boundary or inside it."""
    length = draw(st.integers(3, 6))
    if draw(st.booleans()):
        relays = [LayerSpec(nodes=n) for n in draw(st.lists(st.integers(1, 8), min_size=length - 2, max_size=length - 2))]
        t = NetworkTopology((draw(_endpoint()), *relays, draw(_endpoint())))
    else:
        t = _chain(draw(st.permutations(_COPRIME))[: min(length, len(_COPRIME))])
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


def _tamper(s, how, data):
    plan = s.split_plan
    if how == "source":
        k = data.draw(st.integers(0, len(plan.sources) - 1))
        victim = plan.sources[k]
        sources = plan.sources[:k] + (_replace(victim, bits=victim.bits / 2),) + plan.sources[k + 1 :]
        return _with_plan(s, _replace(plan, sources=sources))
    if how == "padding":
        delta = data.draw(_deltas)
        if plan.paddings:
            k = data.draw(st.integers(0, len(plan.paddings) - 1))
            victim = plan.paddings[k]
            paddings = plan.paddings[:k] + (_replace(victim, bits=victim.bits + delta),) + plan.paddings[k + 1 :]
            return _with_plan(s, _replace(plan, paddings=paddings))
        k = data.draw(st.integers(0, len(plan.sinks) - 1))
        victim = plan.sinks[k]
        sinks = plan.sinks[:k] + (_replace(victim, padding_bits=victim.padding_bits + delta),) + plan.sinks[k + 1 :]
        return _with_plan(s, _replace(plan, sinks=sinks, padding_bits=plan.padding_bits + delta))
    # a wrong sink `received`: one entry's bits or source index changed, or one dropped
    k = data.draw(st.integers(0, len(plan.sinks) - 1))
    victim = plan.sinks[k]
    received = list(victim.received) or [(0, Fraction(0))]
    r = data.draw(st.integers(0, len(received) - 1))
    i, bits = received[r]
    changes = [(i, bits + data.draw(_deltas)), (i + 1, bits)] + [None] * bool(victim.received)
    received[r] = data.draw(st.sampled_from(changes))
    received = tuple(x for x in received if x is not None)
    sinks = plan.sinks[:k] + (_replace(victim, received=received),) + plan.sinks[k + 1 :]
    return _with_plan(s, _replace(plan, sinks=sinks))


def _assert_matches_the_fraction_route(s):
    # texts are compared by lines: a failing comparison of lists reports the
    # first differing line without diffing whole documents on every shrink step
    plan = s.split_plan
    assert plan_to_dot(plan).splitlines() == _oracle_plan_to_dot(plan).splitlines()
    new, old = schedule_to_obj(s)["split_plan"], _oracle_plan_to_obj(plan)
    assert json.dumps(new, indent=2).splitlines() == json.dumps(old, indent=2).splitlines()
    assert list(plan.edges) == [SplitEdge(*row) for row in _oracle_edge_rows(plan)]
    assert list(plan.transfers) == [PhaseMessage(*row) for row in _oracle_transfer_rows(plan)]
    for sink in plan.sinks:
        bits = sink.bits
        assert type(bits) is Fraction and bits == _oracle_sink_bits(sink)
    assert verify_schedule(s).checks[3] == _oracle_demand_shares(s)


@_oracle_settings
@given(oracle_schedules())
def test_integer_unit_matches_the_fraction_route(s):
    _assert_matches_the_fraction_route(s)
    assert verify_schedule(s).ok
    assert s.split_plan == _oracle_plan(s)


@_oracle_settings
@given(oracle_schedules(), st.sampled_from(["source", "padding", "received"]), st.data())
def test_integer_unit_matches_the_fraction_route_on_tampered_plans(s, how, data):
    tampered = _tamper(s, how, data)
    _assert_matches_the_fraction_route(tampered)
    assert [(c.name, c.detail) for c in verify_schedule(tampered).failures()]


def test_integer_unit_reports_as_the_fraction_route():
    # one plan per tampering, with the detail strings the Fraction route gives
    s = integer_schedule(_chain([2, 3, 2]), DemandMatrix({(0, 0): Fraction(1, 5), (1, 1): Fraction(1, 7)}))
    plan = s.split_plan
    halved = _replace(plan, sources=(_replace(plan.sources[0], bits=plan.sources[0].bits / 2),) + plan.sources[1:])
    padded = _replace(plan, sinks=(_replace(plan.sinks[0], padding_bits=plan.sinks[0].padding_bits + 1),) + plan.sinks[1:])
    misrouted = _replace(plan, sinks=(_replace(plan.sinks[0], received=((1, plan.sinks[0].received[0][1]),)),) + plan.sinks[1:])
    details = [verify_schedule(_with_plan(s, p)).checks[3].detail for p in (halved, padded, misrouted)]
    assert details == ["message msg[1,1]", "dst 1 padding", "dst 1 reassembly"]
    for p in (halved, padded, misrouted):
        assert verify_schedule(_with_plan(s, p)).checks[3] == _oracle_demand_shares(_with_plan(s, p))


# -- checks (1) and (3) in integers against the Fraction route ----------------------
#
# verify_schedule cross-multiplies block lengths and phase fields, and compares
# sum_dof with the integers of the reciprocal sum; these are the Fraction forms
# it replaced.


def _oracle_phase_recurrence(s):
    """Check (1) of verify_schedule, by the Fraction route."""
    sizes = [p.tx_count for p in s.phases] + [s.phases[-1].rx_count]
    bad_hops, bad_fields = [], []
    for k, p in enumerate(s.phases):
        pairs = sizes[k] + sizes[k + 1] - 1
        if k and decoded != Fraction(p.block_length * sizes[k + 1], pairs):
            bad_hops.append(k)
        decoded = Fraction(p.block_length * sizes[k], pairs)
        fields = (p.hop, p.rx_count, p.per_pair_dof, p.per_pair_bits)
        if fields != (k, sizes[k + 1], Fraction(1, pairs), Fraction(p.block_length, pairs)):
            bad_fields.append(k)
    parts = [f"forwarding mismatch at hop(s) {bad_hops}"] if bad_hops else []
    if bad_fields:
        parts.append(f"phase fields off at hop(s) {bad_fields}")
    return CheckResult("phase-recurrence", not parts, "; ".join(parts))


def _oracle_sum_dof(s):
    """Check (3) of verify_schedule, by the Fraction route."""
    sizes = [p.tx_count for p in s.phases] + [s.phases[-1].rx_count]
    alpha = achievable_sum_dof(sizes)
    delay_ok = s.total_delay == sum(p.block_length for p in s.phases)
    rate_ok = ExtRational(s.sum_dof) == alpha and s.sum_dof * s.total_delay == s.total_bits and delay_ok
    return CheckResult("sum-dof", rate_ok, "" if rate_ok else f"sum_dof {s.sum_dof} vs achievable {alpha}")


def _assert_checks_1_and_3_match(s):
    report = verify_schedule(s)
    assert report.checks[0] == _oracle_phase_recurrence(s)
    assert report.checks[2] == _oracle_sum_dof(s)


def _tamper_numbers(s, how, data):
    """A schedule with one phase field, sum_dof or total_delay changed."""
    if how in ("sum_dof", "total_delay"):
        value = getattr(s, how)
        if data.draw(st.booleans()):
            value += data.draw(st.sampled_from([-1, 1]))
        elif how == "sum_dof":
            value = data.draw(st.sampled_from([value.numerator, value.numerator // value.denominator]))
        return _replace(s, **{how: value})
    k = data.draw(st.integers(0, len(s.phases) - 1))
    phase = s.phases[k]
    value = getattr(phase, how)
    if how != "block_length" and data.draw(st.booleans()):
        # an int where a Fraction was: the value itself when it is whole
        value = data.draw(st.sampled_from([value.numerator, value.numerator // value.denominator]))
    else:
        value += data.draw(_deltas)
    phases = s.phases[:k] + (_replace(phase, **{how: value}),) + s.phases[k + 1 :]
    return _replace(s, phases=phases)


@_oracle_settings
@given(oracle_schedules())
def test_checks_1_and_3_match_the_fraction_route(s):
    _assert_checks_1_and_3_match(s)
    assert verify_schedule(s).ok


@_oracle_settings
@given(
    oracle_schedules(),
    st.sampled_from(["block_length", "per_pair_dof", "per_pair_bits", "sum_dof", "total_delay"]),
    st.data(),
)
def test_checks_1_and_3_match_the_fraction_route_on_tampered_numbers(s, how, data):
    _assert_checks_1_and_3_match(_tamper_numbers(s, how, data))


def test_checks_1_and_3_report_as_the_fraction_route():
    s = integer_schedule(_chain([2, 3, 2]))
    longer = _replace(s.phases[1], block_length=s.phases[1].block_length + Fraction(1, 2))
    cases = {
        "phases": _replace(s, phases=(s.phases[0], longer)),
        "sum_dof": _replace(s, sum_dof=s.sum_dof + 1),
        "whole sum_dof": _replace(s, sum_dof=1),
    }
    details = {name: (verify_schedule(t).checks[0].detail, verify_schedule(t).checks[2].detail) for name, t in cases.items()}
    assert details == {
        "phases": ("forwarding mismatch at hop(s) [1]; phase fields off at hop(s) [1]", "sum_dof 3/4 vs achievable 3/4"),
        "sum_dof": ("", "sum_dof 7/4 vs achievable 3/4"),
        "whole sum_dof": ("", "sum_dof 1 vs achievable 3/4"),
    }
    for t in cases.values():
        _assert_checks_1_and_3_match(t)


def _counting_fractions(monkeypatch) -> list[int]:
    """Count the Fractions built from here on, in a one-item list: through
    the constructor, and through the arithmetic's shortcut where it has one."""
    built = [0]
    original = Fraction.__new__

    def counting_new(klass, *args, **kwargs):
        built[0] += 1
        return original(klass, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Fraction):
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(klass, numerator, denominator, /):
            built[0] += 1
            return coprime(klass, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return built


def test_verification_builds_no_fraction_per_hop(monkeypatch):
    short = integer_schedule(_chain([2, 3, 4, 3, 2]))
    long = integer_schedule(_chain([2, *([3, 4, 5, 6] * 15)[:58], 2]))
    assert len(long.phases) == 59
    built = _counting_fractions(monkeypatch)
    counts = []
    for s in (short, long):
        built[0] = 0
        assert verify_schedule(s).ok
        counts.append(built[0])
    assert counts[0] == counts[1]
    # the counter does see a per-hop Fraction
    built[0] = 0
    _oracle_phase_recurrence(long)
    assert built[0] >= 3 * len(long.phases)
