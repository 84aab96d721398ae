"""Phase schedules, split plans, verification, and the recurrence oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof.analysis import achievable_sum_dof
from relaydof.model import (
    INFINITY,
    DemandError,
    DemandMatrix,
    LayerSpec,
    NetworkTopology,
    TopologyError,
    antenna_split,
    parse_topology,
    virtual_node_map,
)
from relaydof.region import check_demand, max_uniform_scale
from relaydof.schedule import (
    InvariantError,
    PhaseMessage,
    integer_schedule,
    phase_ratios,
    plan_to_dot,
    recurrence_sum_dof,
    schedule_to_obj,
    splitting_plan,
    verify_schedule,
)


def _chain(sizes):
    return NetworkTopology(tuple(LayerSpec(nodes=s) for s in sizes))


def _replace(record, **changes):
    """A copy of the record with some fields changed, through its constructor."""
    return type(record)(**{name: changes.pop(name, getattr(record, name)) for name in record._fields}, **changes)


# -- phase ratios --------------------------------------------------------------


@pytest.mark.parametrize(
    "sizes, expected",
    [
        ([2, 2, 2], [Fraction(1), Fraction(1)]),
        ([1, 2, 4], [Fraction(1), Fraction(5, 8)]),
        ([2, 3, 2], [Fraction(1), Fraction(1)]),
    ],
)
def test_phase_ratio_values(sizes, expected):
    assert phase_ratios(sizes) == expected


def test_phase_ratios_satisfy_forwarding_recurrence():
    rng = random.Random(21)
    for _ in range(200):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(3, 7))]
        r = phase_ratios(sizes)
        assert r[0] == 1
        for k in range(1, len(sizes) - 1):
            lhs = r[k - 1] * Fraction(sizes[k - 1], sizes[k - 1] + sizes[k] - 1)
            rhs = r[k] * Fraction(sizes[k + 1], sizes[k] + sizes[k + 1] - 1)
            assert lhs == rhs
        # telescoped closed form gives the same ratios
        for k in range(len(sizes) - 1):
            closed = Fraction(sizes[0] * sizes[1], sizes[k] * sizes[k + 1]) * Fraction(
                sizes[k] + sizes[k + 1] - 1, sizes[0] + sizes[1] - 1
            )
            assert r[k] == closed


def test_phase_ratios_reject_bad_inputs():
    with pytest.raises(TopologyError):
        phase_ratios([2, 2])
    with pytest.raises(TopologyError):
        phase_ratios([2, INFINITY, 2])


# -- recurrence oracle ----------------------------------------------------------


@pytest.mark.parametrize(
    "sizes, expected",
    [
        ([2, 2, 2], Fraction(2, 3)),
        ([1, 2, 4], Fraction(8, 13)),
        ([3, 3, 3, 3], Fraction(3, 5)),
    ],
)
def test_recurrence_sum_dof_values(sizes, expected):
    assert recurrence_sum_dof(sizes) == expected


# -- integer schedules -----------------------------------------------------------


def test_integer_schedule_1_2_4():
    s = integer_schedule(_chain([1, 2, 4]))
    assert [p.block_length for p in s.phases] == [8, 5]
    assert [p.per_pair_bits for p in s.phases] == [4, 1]
    assert s.total_bits == 8
    assert s.total_delay == 13
    assert s.sum_dof == Fraction(8, 13)
    assert s.sum_dof == achievable_sum_dof([1, 2, 4])


def test_integer_schedule_2_2_2():
    s = integer_schedule(_chain([2, 2, 2]))
    assert [p.block_length for p in s.phases] == [3, 3]
    assert all(p.per_pair_bits == 1 for p in s.phases)
    assert s.total_bits == 4
    assert s.total_delay == 6
    assert s.sum_dof == Fraction(2, 3)


def test_integer_schedule_single_node_chain():
    s = integer_schedule(_chain([1, 1, 1]))
    assert [p.block_length for p in s.phases] == [1, 1]
    assert s.total_bits == 1
    assert s.total_delay == 2
    assert s.sum_dof == Fraction(1, 2)


def test_integer_schedule_rejects_infinite_and_relayless():
    with pytest.raises(TopologyError):
        integer_schedule(_chain([2, INFINITY, 2]))
    with pytest.raises(TopologyError):
        integer_schedule(_chain([3, 3]))


def test_integerization_is_minimal():
    rng = random.Random(22)
    for _ in range(150):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(3, 6))]
        s = integer_schedule(_chain(sizes))
        t0 = s.phases[0].block_length
        ratios = phase_ratios(sizes)
        pair_counts = [sizes[k] + sizes[k + 1] - 1 for k in range(len(sizes) - 1)]
        for p in {f for f in range(2, t0 + 1) if t0 % f == 0 and _is_prime(f)}:
            smaller = Fraction(t0, p)
            broken = any(
                (r * smaller).denominator != 1 or (r * smaller / c).denominator != 1
                for r, c in zip(ratios, pair_counts)
            )
            assert broken, f"T0={t0} not minimal for sizes {sizes}"


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _check_closed_form_phases(sizes):
    phases = integer_schedule(_chain(sizes)).phases
    t0 = phases[0].block_length
    ratios = phase_ratios(sizes)
    assert [Fraction(p.block_length, t0) for p in phases] == ratios
    # every prime factor of T0 divides a size or S0 + S1 - 1, so it is below 2 * max size
    pair_counts = [sizes[k] + sizes[k + 1] - 1 for k in range(len(sizes) - 1)]
    for p in filter(_is_prime, range(2, 2 * max(sizes))):
        if t0 % p:
            continue
        smaller = Fraction(t0, p)
        broken = any(
            (r * smaller).denominator != 1 or (r * smaller / c).denominator != 1
            for r, c in zip(ratios, pair_counts)
        )
        assert broken, f"T0={t0} not minimal for sizes {sizes}"


@settings(deadline=None)
@given(st.lists(st.integers(1, 64), min_size=3, max_size=40))
def test_closed_form_phases_match_the_recurrence(sizes):
    _check_closed_form_phases(sizes)


def test_closed_form_phases_match_the_recurrence_on_4000_layers():
    rng = random.Random(23)
    _check_closed_form_phases([rng.randint(1, 64) for _ in range(4000)])


# -- split plans -----------------------------------------------------------------


def test_default_plan_has_no_padding():
    s = integer_schedule(_chain([2, 3, 2]))
    plan = s.split_plan
    assert plan.padding_bits == 0
    assert not plan.paddings
    assert sum(m.bits for m in plan.sources) == s.total_bits


def _one_object_per_value(values):
    return len(set(map(id, values))) == len(set(values))


def test_uniform_plan_holds_one_object_per_count():
    # a 1000^3 uniform plan would otherwise hold 10^6 separate Fractions
    plan = integer_schedule(_chain([3, 4, 5])).split_plan
    carried = [m.bits for m in plan.sources] + [b for sink in plan.sinks for _, b in sink.received]
    assert len(carried) == 30 and len(set(map(id, carried))) == 1
    assert len(set(id(sink.padding_bits) for sink in plan.sinks)) == 1


def test_sparse_plan_shares_equal_counts():
    demand = {(0, 0): Fraction(1, 10), (2, 0): Fraction(1, 10), (1, 1): Fraction(1, 5)}
    plan = splitting_plan(_chain([3, 2, 3]), DemandMatrix(demand))
    paddings = [p.bits for p in plan.paddings]
    # sources 1 and 2 pad alike, from separate row sums
    assert paddings == [Fraction(2, 5), Fraction(2, 5), Fraction(2)]
    counts = paddings + [m.bits for m in plan.sources]
    counts += [b for sink in plan.sinks for _, b in sink.received] + [sink.padding_bits for sink in plan.sinks]
    assert _one_object_per_value(counts)


def test_boundary_single_demand_plan_1_2_4():
    # one message scaled to the boundary: the column share binds at alpha/4
    t = _chain([1, 2, 4])
    demand = DemandMatrix({(0, 0): Fraction(2, 13)})
    plan = splitting_plan(t, demand)
    assert plan.bits_per_dof == 13
    [msg] = plan.sources
    assert (msg.dst, msg.src, msg.bits) == (0, 0, Fraction(2))
    # the lone source still fills its whole 8-bit budget, the rest is padding
    [pad] = plan.paddings
    assert pad.bits == 6
    # two first-phase blocks of 4 bits, eight one-bit final messages
    assert [m.bits for m in plan.transfers if m.phase == 0] == [4, 4]
    assert [m.bits for m in plan.transfers if m.phase == 1] == [1] * 8
    sink0 = plan.sinks[0]
    assert dict(sink0.received) == {0: Fraction(2)} and sink0.padding_bits == 0
    for sink in plan.sinks[1:]:
        assert sink.received == () and sink.padding_bits == 2


def test_diagonal_plan_3333():
    t = _chain([3, 3, 3, 3])
    demand = DemandMatrix({(k, k): Fraction(1, 5) for k in range(3)})
    plan = splitting_plan(t, demand)
    assert plan.padding_bits == 0
    assert plan.total_bits == 9
    # every source message splits three ways
    for msg in plan.sources:
        assert msg.bits == 3
        fanout = [e for e in plan.edges if e.head == f"msg[{msg.dst + 1},{msg.src + 1}]"]
        assert len(fanout) == 3 and all(e.bits == 1 for e in fanout)
    # every destination column collects exactly a third of the bits
    for sink in plan.sinks:
        assert sink.bits == 3 and sink.padding_bits == 0


def test_zero_demand_rejected():
    with pytest.raises(DemandError):
        splitting_plan(_chain([2, 2, 2]), DemandMatrix({}))


def test_infeasible_demand_rejected():
    with pytest.raises(DemandError, match="outside the achievable region"):
        splitting_plan(_chain([3, 3, 3, 3]), DemandMatrix({(0, 0): Fraction(1, 4)}))


# -- verification -----------------------------------------------------------------


def test_verification_passes_by_construction():
    rng = random.Random(23)
    for _ in range(60):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(3, 6))]
        report = verify_schedule(integer_schedule(_chain(sizes)))
        assert report.ok, report.failures()


def test_perturbed_block_length_fails_recurrence():
    s = integer_schedule(_chain([1, 2, 4]))
    bad_phase = _replace(s.phases[1], block_length=s.phases[1].block_length + 1)
    report = verify_schedule(_replace(s, phases=(s.phases[0], bad_phase)))
    failed = {c.name for c in report.failures()}
    assert "phase-recurrence" in failed
    [rec] = [c for c in report.checks if c.name == "phase-recurrence"]
    assert "hop(s) [1]" in rec.detail


def test_reduced_relay_share_fails_conservation():
    s = integer_schedule(_chain([2, 2, 2]))
    plan = s.split_plan
    # every phase-0 message one bit short: its relay receives more than it sends
    reduced = _replace(plan, per_pair=(plan.per_pair[0] - 1,) + plan.per_pair[1:])
    report = verify_schedule(_replace(s, split_plan=reduced))
    failed = {c.name for c in report.failures()}
    assert "bit-conservation" in failed
    [cons] = [c for c in report.checks if c.name == "bit-conservation"]
    assert "ph0[1->1]" in cons.detail


def test_tampered_edge_fails_conservation():
    s = integer_schedule(_chain([2, 2, 2]))
    plan = s.split_plan
    # the first edge fans out the first source message, which fixes its bits
    first = plan.sources[0]
    sources = (_replace(first, bits=first.bits / 2),) + plan.sources[1:]
    report = verify_schedule(_replace(s, split_plan=_replace(plan, sources=sources)))
    assert "bit-conservation" in {c.name for c in report.failures()}


@pytest.mark.parametrize("phase_sizes, plan_sizes", [([2, 3, 2], [2, 3, 2, 2]), ([2, 3, 2, 2], [2, 3, 2])])
def test_plan_for_other_sizes_fails_conservation(phase_sizes, plan_sizes):
    s = integer_schedule(_chain(phase_sizes))
    carried = _replace(s, split_plan=integer_schedule(_chain(plan_sizes)).split_plan)
    report = verify_schedule(carried)
    [cons] = report.failures()
    assert cons.name == "bit-conservation"
    assert str(phase_sizes) in cons.detail and str(plan_sizes) in cons.detail
    # the other checks read the phases or the plan alone, and still pass
    assert [c for c in report.checks if c is not cons] == [c for c in verify_schedule(s).checks if c.name != cons.name]


@pytest.mark.parametrize("shares", [lambda p: p[:-1], lambda p: p + p[-1:]], ids=["one-short", "one-extra"])
def test_share_count_other_than_hop_count_fails_conservation(shares):
    s = integer_schedule(_chain([2, 3, 2, 2]))
    plan = s.split_plan
    carried = _replace(s, split_plan=_replace(plan, per_pair=shares(plan.per_pair)))
    report = verify_schedule(carried)
    [cons] = report.failures()
    assert cons.name == "bit-conservation"
    assert cons.detail == f"plan has {len(shares(plan.per_pair))} per-pair shares for 3 hops"
    assert [c for c in report.checks if c is not cons] == [c for c in verify_schedule(s).checks if c.name != cons.name]


def test_plan_carrying_other_bits_than_its_schedule_fails_conservation():
    t = _chain([2, 3, 2])
    eighth = DemandMatrix({(0, 0): Fraction(1, 8)})
    s = integer_schedule(t, eighth)  # B = 6 bits over T = 8
    plan = s.split_plan
    # every count doubled: 12 bits through phases that carry 6
    doubled = _replace(
        plan,
        per_pair=tuple(2 * b for b in plan.per_pair),
        sources=tuple(_replace(m, bits=2 * m.bits) for m in plan.sources),
        paddings=tuple(_replace(p, bits=2 * p.bits) for p in plan.paddings),
        sinks=tuple(
            _replace(d, received=tuple((i, 2 * b) for i, b in d.received), padding_bits=2 * d.padding_bits)
            for d in plan.sinks
        ),
        total_bits=2 * plan.total_bits,
        padding_bits=2 * plan.padding_bits,
        bits_per_dof=2 * plan.bits_per_dof,
    )
    # the plan of demand 1/4, relabelled 1/8 at twice the bits per DoF
    quarter = integer_schedule(t, DemandMatrix({(0, 0): Fraction(1, 4)})).split_plan
    relabelled = _replace(quarter, demand=eighth, bits_per_dof=2 * quarter.bits_per_dof)
    for tampered, carried in ((doubled, "(12, 16)"), (relabelled, "(6, 16)")):
        report = verify_schedule(_replace(s, split_plan=tampered))
        [cons] = report.failures()
        assert cons.name == "bit-conservation"
        assert cons.detail == (
            f"plan (total_bits, bits_per_dof) {carried} differs from schedule (total_bits, total_delay) (6, 8)"
        )


_PLAN_USES = {
    "len(edges)": lambda s: len(s.split_plan.edges),
    "len(transfers)": lambda s: len(s.split_plan.transfers),
    "iter(edges)": lambda s: list(s.split_plan.edges),
    "iter(transfers)": lambda s: list(s.split_plan.transfers),
    "plan_to_dot": lambda s: plan_to_dot(s.split_plan),
    "schedule_to_obj": schedule_to_obj,
}


@pytest.mark.parametrize("use", _PLAN_USES.values(), ids=_PLAN_USES.keys())
@pytest.mark.parametrize("shares", [lambda p: p[:-1], lambda p: p + p[-1:]], ids=["one-short", "one-extra"])
def test_share_count_other_than_hop_count_breaks_views_and_writers(shares, use):
    s = integer_schedule(_chain([2, 3, 2, 2]))
    carried = _replace(s, split_plan=_replace(s.split_plan, per_pair=shares(s.split_plan.per_pair)))
    count = len(carried.split_plan.per_pair)
    with pytest.raises(InvariantError, match=rf"^plan has {count} per-pair shares for 3 hops$"):
        use(carried)


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_cli_writer_invariant_error_exits_3(fmt, tmp_path, monkeypatch, capsys):
    from relaydof import cli
    from relaydof.schedule import VerificationReport

    s = integer_schedule(_chain([2, 3, 2, 2]))
    carried = _replace(s, split_plan=_replace(s.split_plan, per_pair=s.split_plan.per_pair[:-1]))
    # a schedule that passes its checks but cannot be written
    monkeypatch.setattr(cli, "integer_schedule", lambda topology, demand: carried)
    monkeypatch.setattr(cli, "verify_schedule", lambda schedule: VerificationReport(()))
    topology = tmp_path / "t.json"
    topology.write_text('{"layers":[{"nodes":2},{"nodes":3},{"nodes":2},{"nodes":2}]}', encoding="utf-8")
    assert cli.main(["schedule", str(topology), "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "internal error: plan has 2 per-pair shares for 3 hops\n"


# -- structural properties ----------------------------------------------------------


def test_delay_per_bit_grows_with_inserted_layer():
    rng = random.Random(24)
    for _ in range(80):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(3, 5))]
        base = integer_schedule(_chain(sizes))
        position = rng.randint(1, len(sizes) - 1)
        longer_sizes = sizes[:position] + [rng.randint(1, 5)] + sizes[position:]
        longer = integer_schedule(_chain(longer_sizes))
        assert Fraction(longer.total_delay, longer.total_bits) > Fraction(
            base.total_delay, base.total_bits
        )


def test_multi_antenna_schedule_equals_expanded_schedule():
    docs = [
        '{"layers":[{"antennas":[2,1]},{"antennas":[2,2]},{"antennas":[1,1,1]}]}',
        '{"layers":[{"antennas":[3]},{"nodes":2},{"antennas":[1,2]}]}',
    ]
    for doc in docs:
        t = parse_topology(doc)
        assert integer_schedule(t) == integer_schedule(antenna_split(t))


@st.composite
def _antenna_demands(draw):
    """A chain of 3-5 layers with 1-3 antennas per node, and a feasible
    demand on its physical endpoints: a sparse pattern scaled to the region
    boundary, then shrunk."""
    layers = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=3, max_size=5))
    t = NetworkTopology(tuple(LayerSpec(antennas=tuple(a)) for a in layers))
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, len(layers[-1]) - 1), st.integers(0, len(layers[0]) - 1)),
            st.integers(1, 5),
            min_size=1,
            max_size=6,
        )
    )
    shrink = draw(st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8))
    return t, max_uniform_scale(t, DemandMatrix(cells)).scaled.scale(shrink)


@settings(max_examples=100, deadline=None)
@given(_antenna_demands())
def test_antenna_demand_schedules_as_its_split_twin(case):
    t, demand = case
    split = antenna_split(t)
    src, dst = t.source_layer.antenna_profile(), t.destination_layer.antenna_profile()
    # each physical demand spread evenly over its endpoints' antennas
    virtual = DemandMatrix(
        {
            (jv, iv): demand.entries[j, i] / (dst[j] * src[i])
            for jv, j in enumerate(virtual_node_map(t.destination_layer))
            for iv, i in enumerate(virtual_node_map(t.source_layer))
            if (j, i) in demand.entries
        }
    )
    s = integer_schedule(t, demand)
    assert s == integer_schedule(split, virtual)
    assert s.split_plan.demand == virtual
    assert check_demand(t, demand).feasible and check_demand(split, virtual).feasible
    assert max_uniform_scale(t, demand).t_star == max_uniform_scale(split, virtual).t_star


def test_schedule_serialization_and_dot():
    s = integer_schedule(_chain([1, 2, 4]))
    obj = schedule_to_obj(s)
    assert obj["total_delay"] == 13
    assert obj["sum_dof"] == "8/13"
    assert obj["split_plan"]["padding_policy"] == "uniform-fill"
    ids = {n["id"] for n in obj["split_plan"]["nodes"]}
    assert "ph0[1->1]" in ids and "dst[4]" in ids
    dot = plan_to_dot(s.split_plan)
    assert dot.startswith("digraph") and '"ph0[1->1]"' in dot
