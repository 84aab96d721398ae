"""Decode-and-forward phase schedules and message split/merge plans.

The scheme runs one phase per hop, strictly sequential (half duplex).  In
phase k the layer-k nodes act as an X network toward layer k+1: every
(transmitter, receiver) pair carries one message of exactly
T_k/(S_k + S_{k+1} - 1) symbols.  Relays never add information, which pins
the block-length ratios T_k/T_{k-1}; the smallest T_0 that makes every
block length and per-pair bit count integral gives the canonical schedule.

The split plan is the bit-accounting DAG behind those phases: each source
message is split evenly over the first relay layer, every relay merges its
inbound bits and re-splits them evenly toward the next layer, and the last
relay layer only reorganizes bits by destination.  Demands below capacity
are topped up with explicitly marked padding so the uniform structure (and
hence the X-network rate guarantee) is preserved.

Multi-antenna nodes are handled by antenna splitting: plans are built
entirely on the virtual single-antenna network, and
``relaydof.model.virtual_node_map`` recovers the physical node behind each
virtual endpoint.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .analysis import _finite_sizes, achievable_sum_dof
from .model import (
    DemandError,
    DemandMatrix,
    ExtRational,
    INFINITY,
    NetworkTopology,
    TopologyError,
    demand_to_obj,
)
from .region import check_demand

__all__ = [
    "InvariantError",
    "PhasePlan",
    "SourceMessage",
    "PaddingMessage",
    "PhaseMessage",
    "DestinationBin",
    "SplitEdge",
    "SplitPlan",
    "Schedule",
    "CheckResult",
    "VerificationReport",
    "phase_ratios",
    "recurrence_sum_dof",
    "integer_schedule",
    "splitting_plan",
    "verify_schedule",
    "schedule_to_obj",
    "plan_to_dot",
]


class InvariantError(RuntimeError):
    """A construction invariant does not hold: a bug, never a bad input."""


@dataclass(frozen=True, slots=True)
class PhasePlan:
    """One hop's X-network phase: who transmits, for how long, at what rate."""

    hop: int
    tx_count: int
    rx_count: int
    block_length: int
    per_pair_dof: Fraction
    per_pair_bits: Fraction


@dataclass(frozen=True, slots=True)
class SourceMessage:
    """Payload bits a source owes one destination (virtual indices, 0-based)."""

    dst: int
    src: int
    bits: Fraction


@dataclass(frozen=True, slots=True)
class PaddingMessage:
    """Dummy bits that top a source up to the uniform outbound budget."""

    src: int
    bits: Fraction


@dataclass(frozen=True, slots=True)
class PhaseMessage:
    """The phase-k X-network message from layer-k node tx to node rx."""

    phase: int
    tx: int
    rx: int
    bits: Fraction


@dataclass(frozen=True, slots=True)
class DestinationBin:
    """What one destination reassembles: real bits per source, plus padding."""

    dst: int
    received: tuple[tuple[int, Fraction], ...]
    padding_bits: Fraction

    @property
    def bits(self) -> Fraction:
        return sum((b for _, b in self.received), Fraction(0)) + self.padding_bits


@dataclass(frozen=True, slots=True)
class SplitEdge:
    head: str
    tail: str
    bits: Fraction


class _PlanView(Sequence):
    """Read-only sequence over a plan's per-layer structure, expanded on demand.

    ``len`` is O(1) and indexing O(layers); iteration yields the elements
    in plan order without keeping them.  Two views compare equal when they
    are views of the same kind over equal structure.
    """

    __slots__ = ("_key", "_len")

    def __init__(self, *key):
        self._key = key
        self._len = self._count()

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        if not -self._len <= index < self._len:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._at(index % self._len)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __repr__(self):
        return f"<{type(self).__name__} of {self._len}>"


class _TransferView(_PlanView):
    """Every phase message: phase by phase, transmitter-major.  Key: sizes, per_pair."""

    __slots__ = ()

    def _count(self) -> int:
        sizes = self._key[0]
        return sum(a * b for a, b in zip(sizes, sizes[1:]))

    def _rows(self, text: bool = False):
        sizes, per_pair = self._key
        for k, bits in enumerate(per_pair):
            bits = str(bits) if text else bits
            for tx in range(sizes[k]):
                for rx in range(sizes[k + 1]):
                    yield k, tx, rx, bits

    def _at(self, i: int) -> PhaseMessage:
        sizes, per_pair = self._key
        for k, bits in enumerate(per_pair):
            if i < sizes[k] * sizes[k + 1]:
                return PhaseMessage(k, *divmod(i, sizes[k + 1]), bits)
            i -= sizes[k] * sizes[k + 1]

    def __iter__(self):
        return (PhaseMessage(*row) for row in self._rows())


class _EdgeView(_PlanView):
    """Every split edge: source fan-out, padding fan-out, relay layers, sinks.

    Key: sizes, per_pair, sources, paddings.  Each relay layer's edges all
    carry the same share, so the view only formats node ids and shares.
    """

    __slots__ = ()

    def _count(self) -> int:
        sizes, _, sources, paddings = self._key
        relays = sum(a * b * c for a, b, c in zip(sizes, sizes[1:], sizes[2:]))
        return (len(sources) + len(paddings)) * sizes[1] + relays + sizes[-2] * sizes[-1]

    def _rows(self, text: bool = False):
        sizes, per_pair, sources, paddings = self._key
        fmt = str if text else (lambda bits: bits)
        ids = [
            [[_phase_id(k, tx, rx) for rx in range(sizes[k + 1])] for tx in range(sizes[k])]
            for k in range(len(sizes) - 1)
        ]

        def fan_out(src):
            if 0 <= src < sizes[0]:
                return ids[0][src]
            return [_phase_id(0, src, n) for n in range(sizes[1])]

        # phase 0: every source message and padding block splits evenly over
        # the first relay layer
        for msg in sources:
            head, share = _msg_id(msg.dst, msg.src), fmt(msg.bits / sizes[1])
            for tail in fan_out(msg.src):
                yield head, tail, share
        for pad in paddings:
            head, share = _pad_id(pad.src), fmt(pad.bits / sizes[1])
            for tail in fan_out(pad.src):
                yield head, tail, share
        # relay layers: merge everything inbound, re-split evenly outbound; the
        # last layer's "split" is the reorganization by destination
        for k in range(1, len(sizes) - 1):
            share = fmt(per_pair[k] / sizes[k - 1])
            for n in range(sizes[k]):
                tails = ids[k][n]
                for inbound in ids[k - 1]:
                    head = inbound[n]
                    for tail in tails:
                        yield head, tail, share
        # destination bins collect their full inbound messages
        share = fmt(per_pair[-1])
        for j in range(sizes[-1]):
            sink = _sink_id(j)
            for inbound in ids[-1]:
                yield inbound[j], sink, share

    def _at(self, i: int) -> SplitEdge:
        sizes, per_pair, sources, paddings = self._key
        fan = sizes[1]
        if i < len(sources) * fan:
            msg = sources[i // fan]
            return SplitEdge(_msg_id(msg.dst, msg.src), _phase_id(0, msg.src, i % fan), msg.bits / fan)
        i -= len(sources) * fan
        if i < len(paddings) * fan:
            pad = paddings[i // fan]
            return SplitEdge(_pad_id(pad.src), _phase_id(0, pad.src, i % fan), pad.bits / fan)
        i -= len(paddings) * fan
        for k in range(1, len(sizes) - 1):
            before, layer, after = sizes[k - 1 : k + 2]
            if i < before * layer * after:
                n, rest = divmod(i, before * after)
                tx, rx = divmod(rest, after)
                return SplitEdge(_phase_id(k - 1, tx, n), _phase_id(k, n, rx), per_pair[k] / before)
            i -= before * layer * after
        j, n = divmod(i, sizes[-2])
        return SplitEdge(_phase_id(len(sizes) - 2, n, j), _sink_id(j), per_pair[-1])

    def __iter__(self):
        return (SplitEdge(*row) for row in self._rows())


@dataclass(frozen=True)
class SplitPlan:
    """Layered split/merge DAG with exact bit shares on every node and edge.

    Everything lives on the virtual (antenna-split) network, so a
    multi-antenna topology and its expanded single-antenna form produce
    identical plans; :func:`relaydof.model.virtual_node_map` recovers the
    physical node behind each virtual endpoint.  ``bits_per_dof`` converts
    demand DoF values into bits (it equals the schedule's total delay).

    The plan is stored per layer: ``per_pair[k]`` is the size of every
    phase-k message, and each relay re-splits its inbound bits evenly, so
    the DAG is fixed by the sizes, the shares, the sources and the padding.
    ``transfers`` and ``edges`` default to lazy views over that structure;
    an explicitly supplied sequence is kept as given and verified by
    expansion.
    """

    sizes: tuple[int, ...]
    demand: DemandMatrix
    per_pair: tuple[Fraction, ...]
    sources: tuple[SourceMessage, ...]
    paddings: tuple[PaddingMessage, ...]
    sinks: tuple[DestinationBin, ...]
    total_bits: int
    padding_bits: Fraction
    bits_per_dof: Fraction
    transfers: Sequence[PhaseMessage] | None = None
    edges: Sequence[SplitEdge] | None = None

    def __post_init__(self):
        if self.transfers is None:
            object.__setattr__(self, "transfers", _TransferView(*self._transfer_key()))
        if self.edges is None:
            object.__setattr__(self, "edges", _EdgeView(*self._edge_key()))

    def _transfer_key(self) -> tuple:
        return (self.sizes, self.per_pair)

    def _edge_key(self) -> tuple:
        return (self.sizes, self.per_pair, self.sources, self.paddings)

    def _structural(self) -> bool:
        """True when ``transfers`` and ``edges`` are views of this plan's own structure."""
        return (
            isinstance(self.transfers, _TransferView)
            and isinstance(self.edges, _EdgeView)
            and self.transfers._key == self._transfer_key()
            and self.edges._key == self._edge_key()
        )


@dataclass(frozen=True)
class Schedule:
    """Integer phase plan plus the split/merge plan that fills it."""

    phases: tuple[PhasePlan, ...]
    total_delay: int
    total_bits: int
    sum_dof: Fraction
    split_plan: SplitPlan


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


# -- node identifiers (1-based, matching the document conventions) ----------


def _msg_id(dst: int, src: int) -> str:
    return f"msg[{dst + 1},{src + 1}]"


def _pad_id(src: int) -> str:
    return f"pad[{src + 1}]"


def _phase_id(phase: int, tx: int, rx: int) -> str:
    return f"ph{phase}[{tx + 1}->{rx + 1}]"


def _sink_id(dst: int) -> str:
    return f"dst[{dst + 1}]"


# -- schedule construction ---------------------------------------------------


def _schedule_sizes(sizes: Sequence[int]) -> list[int]:
    """The sizes of a chain that a schedule can run on: valid sizes
    (``AnalysisError`` otherwise), every layer finite and at least one relay
    layer (``TopologyError`` otherwise)."""
    sizes = list(sizes)
    _finite_sizes(sizes)
    if INFINITY in sizes:
        raise TopologyError(f"layer {sizes.index(INFINITY)}: schedules are finite-network objects")
    if len(sizes) < 3:
        raise TopologyError("schedule synthesis needs at least one relay layer")
    return sizes


def phase_ratios(sizes: Sequence[int]) -> list[Fraction]:
    """Block-length ratios T_k/T_0, from the no-new-information recurrence.

    Built hop by hop: each relay layer must forward exactly the bits it
    decoded, so T_k * S_{k+1}/(S_k + S_{k+1} - 1) is constant across k.
    """
    sizes = _schedule_sizes(sizes)
    ratios = [Fraction(1)]
    for k in range(1, len(sizes) - 1):
        step = Fraction(sizes[k - 1], sizes[k + 1]) * Fraction(
            sizes[k] + sizes[k + 1] - 1, sizes[k - 1] + sizes[k] - 1
        )
        ratios.append(ratios[-1] * step)
    return ratios


def recurrence_sum_dof(sizes: Sequence[int]) -> ExtRational:
    """Sum DoF by the schedule route: first-hop X DoF over the delay ratio sum.

    Deliberately avoids the harmonic closed form, so it can serve as an
    independent oracle for ``achievable_sum_dof``.
    """
    ratios = phase_ratios(sizes)
    first_hop = Fraction(sizes[0] * sizes[1], sizes[0] + sizes[1] - 1)
    return ExtRational(first_hop / sum(ratios))


def _integer_phases(sizes: list[int]) -> list[PhasePlan]:
    """The phases of the smallest T_0, in closed form.

    Every hop carries the same total bits B, so hop k sends B/(S_k*S_{k+1})
    bits per pair in a block of B*(S_k + S_{k+1} - 1)/(S_k*S_{k+1}) symbols.
    Whole per-pair bits on every hop make B a multiple of each S_k*S_{k+1},
    so the smallest T_0 is the one of B = lcm(S_k*S_{k+1}).  The recurrence
    in ``phase_ratios`` is its test oracle.
    """
    products = list(map(operator.mul, sizes, sizes[1:]))
    total_bits = math.lcm(*products)
    phases = []
    for k, product in enumerate(products):
        pairs = sizes[k] + sizes[k + 1] - 1
        block, rest = divmod(total_bits * pairs, product)
        if rest:
            block = Fraction(total_bits * pairs, product)
            raise InvariantError(f"hop {k}: block length {block} is not whole")
        phases.append(
            PhasePlan(
                hop=k,
                tx_count=sizes[k],
                rx_count=sizes[k + 1],
                block_length=block,
                per_pair_dof=Fraction(1, pairs),
                per_pair_bits=Fraction(block, pairs),
            )
        )
    return phases


def _virtualize_demand(t: NetworkTopology, demand: DemandMatrix) -> dict[tuple[int, int], Fraction]:
    """Spread each physical demand evenly over its endpoints' antennas."""
    src_antennas = t.source_layer.antenna_profile()
    dst_antennas = t.destination_layer.antenna_profile()
    src_offsets = [0]
    for a in src_antennas:
        src_offsets.append(src_offsets[-1] + a)
    dst_offsets = [0]
    for a in dst_antennas:
        dst_offsets.append(dst_offsets[-1] + a)
    entries: dict[tuple[int, int], Fraction] = {}
    for (j, i), value in demand.entries.items():
        share = value / (src_antennas[i] * dst_antennas[j])
        for jv in range(dst_offsets[j], dst_offsets[j + 1]):
            for iv in range(src_offsets[i], src_offsets[i + 1]):
                entries[(jv, iv)] = share
    return entries


def _to_bits(entries, bits_per_dof) -> dict[tuple[int, int], Fraction]:
    """Each demand entry in bits; runs of one value object (a uniform demand)
    share one product."""
    out = {}
    value = bits = None
    for key, v in entries.items():
        if v is not value:
            value, bits = v, v * bits_per_dof
        out[key] = bits
    return out


def _build_plan(
    sizes: list[int],
    phases: list[PhasePlan],
    entries: dict[tuple[int, int], Fraction],
) -> SplitPlan:
    per_pair = tuple(p.per_pair_bits for p in phases)
    total_bits = per_pair[0] * sizes[0] * sizes[1]
    if total_bits.denominator != 1:
        raise InvariantError(f"total bits {total_bits} are not whole")
    total_bits = int(total_bits)
    delay = sum(p.block_length for p in phases)

    demand = DemandMatrix(entries)
    unit, rows, cols = demand.unit_sums()
    received: dict[int, list[tuple[int, Fraction]]] = {}
    sources = []
    for (j, i), bits in sorted(_to_bits(demand.entries, delay).items()):
        sources.append(SourceMessage(dst=j, src=i, bits=bits))
        if 0 <= i < sizes[0]:
            received.setdefault(j, []).append((i, bits))

    def unused(demand_units: int, count: int) -> Fraction:
        """Bits left in a 1/count share of the total that carries demand_units."""
        return Fraction(total_bits * unit - count * demand_units * delay, count * unit)

    paddings = []
    for i in range(sizes[0]):
        pad = unused(rows.get(i, 0), sizes[0])
        if pad > 0:
            paddings.append(PaddingMessage(src=i, bits=pad))
    sinks = tuple(
        DestinationBin(
            dst=j,
            received=tuple(received.get(j, ())),
            padding_bits=unused(cols.get(j, 0), sizes[-1]),
        )
        for j in range(sizes[-1])
    )

    return SplitPlan(
        sizes=tuple(sizes),
        demand=demand,
        per_pair=per_pair,
        sources=tuple(sources),
        paddings=tuple(paddings),
        sinks=sinks,
        total_bits=total_bits,
        padding_bits=unused(sum(rows.values()), 1),
        bits_per_dof=Fraction(delay),
    )


def integer_schedule(t: NetworkTopology, demand: DemandMatrix | None = None) -> Schedule:
    """Canonical integer schedule; smallest T_0 keeping all bit counts whole.

    Without a demand, the plan carries the uniform boundary demand (every
    virtual endpoint pair equal), which has no padding.  Plans are built on
    the antenna-split network, so a multi-antenna topology and its expanded
    single-antenna form yield identical schedules.
    """
    sizes = _schedule_sizes(t.effective_sizes())
    phases = _integer_phases(sizes)
    total_bits = int(phases[0].per_pair_bits * sizes[0] * sizes[1])
    total_delay = sum(p.block_length for p in phases)
    sum_dof = Fraction(total_bits, total_delay)

    if demand is None:
        share = sum_dof / (sizes[0] * sizes[-1])
        entries = {(j, i): share for j in range(sizes[-1]) for i in range(sizes[0])}
    else:
        verdict = check_demand(t, demand)
        if not verdict.feasible:
            failed = ", ".join(v.constraint for v in verdict.violations)
            raise DemandError(f"demand is outside the achievable region ({failed})")
        if demand.is_zero:
            raise DemandError("cannot build a split plan for a zero demand")
        entries = _virtualize_demand(t, demand)

    plan = _build_plan(sizes, phases, entries)
    return Schedule(
        phases=tuple(phases),
        total_delay=total_delay,
        total_bits=total_bits,
        sum_dof=sum_dof,
        split_plan=plan,
    )


def splitting_plan(t: NetworkTopology, demand: DemandMatrix) -> SplitPlan:
    """Split/merge DAG for a feasible demand (boundary allowed)."""
    return integer_schedule(t, demand).split_plan


# -- verification -------------------------------------------------------------


def _expanded_conservation(plan: SplitPlan, hops: int) -> tuple[list, list, list]:
    """Conservation by summing every edge into its endpoints (the oracle).

    Returns the unbalanced node ids, relay (layer, node) pairs and phases.
    """
    inbound: dict[str, Fraction] = {}
    outbound: dict[str, Fraction] = {}
    for e in plan.edges:
        outbound[e.head] = outbound.get(e.head, Fraction(0)) + e.bits
        inbound[e.tail] = inbound.get(e.tail, Fraction(0)) + e.bits
    bad_nodes = []
    for msg in plan.sources:
        if outbound.get(_msg_id(msg.dst, msg.src), Fraction(0)) != msg.bits:
            bad_nodes.append(_msg_id(msg.dst, msg.src))
    for pad in plan.paddings:
        if outbound.get(_pad_id(pad.src), Fraction(0)) != pad.bits:
            bad_nodes.append(_pad_id(pad.src))
    for tr in plan.transfers:
        node = _phase_id(tr.phase, tr.tx, tr.rx)
        if inbound.get(node, Fraction(0)) != tr.bits:
            bad_nodes.append(node)
        if outbound.get(node, Fraction(0)) != tr.bits:
            bad_nodes.append(node)
    for sink in plan.sinks:
        if inbound.get(_sink_id(sink.dst), Fraction(0)) != sink.bits:
            bad_nodes.append(_sink_id(sink.dst))
    relay_totals: dict[tuple[int, int], list[Fraction]] = {}
    for tr in plan.transfers:
        if tr.phase >= 1:
            key = (tr.phase, tr.tx)
            relay_totals.setdefault(key, [Fraction(0), Fraction(0)])[1] += tr.bits
        if tr.phase <= hops - 2:
            key = (tr.phase + 1, tr.rx)
            relay_totals.setdefault(key, [Fraction(0), Fraction(0)])[0] += tr.bits
    bad_relays = [key for key, (got, sent) in relay_totals.items() if got != sent]
    phase_totals = {}
    for tr in plan.transfers:
        phase_totals[tr.phase] = phase_totals.get(tr.phase, Fraction(0)) + tr.bits
    uneven_phases = [k for k, total in phase_totals.items() if total != plan.total_bits]
    return bad_nodes, bad_relays, uneven_phases


def _structural_conservation(plan: SplitPlan) -> tuple[list, list, list]:
    """The expansion check's findings, derived from the per-layer structure.

    Every bit count is an integer in one unit, the LCM of all denominators.
    A relay edge into phase k carries per_pair[k]/S_{k-1}, so phase-k
    in-flow is per_pair[k] for k >= 1 and phase k's out-flow is
    S_{k+2}*per_pair[k+1]/S_k; phase-0 in-flow is its source row over S_1.
    Only the first four unbalanced nodes and relays are listed.
    """
    sizes, hops = plan.sizes, len(plan.sizes) - 1
    values = [*plan.per_pair, plan.total_bits]
    values += [m.bits for m in plan.sources] + [p.bits for p in plan.paddings]
    for sink in plan.sinks:
        values += [b for _, b in sink.received] + [sink.padding_bits]
    unit = math.lcm(*(v.denominator for v in values))

    def units(v) -> int:
        return v.numerator * (unit // v.denominator)

    pair = [units(b) for b in plan.per_pair]
    sent: dict[tuple[int, int], int] = {}
    padded: dict[int, int] = {}
    row: dict[int, int] = {}
    for m in plan.sources:
        sent[m.dst, m.src] = sent.get((m.dst, m.src), 0) + units(m.bits)
        row[m.src] = row.get(m.src, 0) + units(m.bits)
    for p in plan.paddings:
        padded[p.src] = padded.get(p.src, 0) + units(p.bits)
        row[p.src] = row.get(p.src, 0) + units(p.bits)
    out_bad = [k < hops - 1 and sizes[k + 2] * pair[k + 1] != sizes[k] * pair[k] for k in range(hops)]
    sink_in = sizes[-2] * pair[-1]

    def bad_nodes():
        for m in plan.sources:
            if sent[m.dst, m.src] != units(m.bits):
                yield _msg_id(m.dst, m.src)
        for p in plan.paddings:
            if padded[p.src] != units(p.bits):
                yield _pad_id(p.src)
        for k in range(hops):
            for tx in range(sizes[k]):
                in_bad = k == 0 and row.get(tx, 0) != sizes[1] * pair[0]
                if in_bad or out_bad[k]:
                    for rx in range(sizes[k + 1]):
                        node = _phase_id(k, tx, rx)
                        yield from [node] * (in_bad + out_bad[k])
        for sink in plan.sinks:
            got = sink_in if 0 <= sink.dst < sizes[-1] else 0
            if got != sum(units(b) for _, b in sink.received) + units(sink.padding_bits):
                yield _sink_id(sink.dst)

    bad_relays = (
        (k, n)
        for k in range(1, hops)
        if sizes[k - 1] * pair[k - 1] != sizes[k + 1] * pair[k]
        for n in range(sizes[k])
    )
    total = units(plan.total_bits)
    uneven_phases = [k for k in range(hops) if sizes[k] * sizes[k + 1] * pair[k] != total]
    return list(islice(bad_nodes(), 4)), list(islice(bad_relays, 4)), uneven_phases


def verify_schedule(s: Schedule) -> VerificationReport:
    """Re-derive the schedule's defining identities and report each one.

    Failures are reported, never raised.
    """
    sizes = [p.tx_count for p in s.phases] + [s.phases[-1].rx_count]
    hops = len(s.phases)
    plan = s.split_plan
    checks = []

    # (1) forwarding recurrence between consecutive phases
    bad_hops = []
    for k in range(1, hops):
        lhs = Fraction(s.phases[k - 1].block_length * sizes[k - 1], sizes[k - 1] + sizes[k] - 1)
        rhs = Fraction(s.phases[k].block_length * sizes[k + 1], sizes[k] + sizes[k + 1] - 1)
        if lhs != rhs:
            bad_hops.append(k)
    checks.append(
        CheckResult(
            "phase-recurrence",
            not bad_hops,
            "" if not bad_hops else f"forwarding mismatch at hop(s) {bad_hops}",
        )
    )

    # (2) bit conservation: edge sums must reproduce every node total, each
    # relay node forwards exactly what it decoded, each phase carries the
    # same total
    if plan._structural() and len(plan.sizes) == hops + 1:
        bad_nodes, bad_relays, uneven_phases = _structural_conservation(plan)
    else:
        bad_nodes, bad_relays, uneven_phases = _expanded_conservation(plan, hops)
    ok = not (bad_nodes or bad_relays or uneven_phases)
    detail = ""
    if not ok:
        parts = []
        if bad_nodes:
            parts.append(f"node imbalance at {bad_nodes[:4]}")
        if bad_relays:
            parts.append(f"relay (layer, node) imbalance at {bad_relays[:4]}")
        if uneven_phases:
            parts.append(f"phase totals off at {uneven_phases}")
        detail = "; ".join(parts)
    checks.append(CheckResult("bit-conservation", ok, detail))

    # (3) the realized rate equals the achievable sum DoF
    alpha = achievable_sum_dof(sizes)
    delay_ok = s.total_delay == sum(p.block_length for p in s.phases)
    rate_ok = (
        ExtRational(s.sum_dof) == alpha
        and s.sum_dof * s.total_delay == s.total_bits
        and delay_ok
    )
    checks.append(
        CheckResult(
            "sum-dof",
            rate_ok,
            "" if rate_ok else f"sum_dof {s.sum_dof} vs achievable {alpha}",
        )
    )

    # (4) destination bins and source messages match the demand exactly
    norm = plan.bits_per_dof
    unit, _, cols = plan.demand.unit_sums()
    wanted = _to_bits(plan.demand.entries, norm)
    expected: dict[int, dict[int, Fraction]] = {}
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
    checks.append(
        CheckResult(
            "demand-shares",
            not problems,
            "" if not problems else "; ".join(problems[:4]),
        )
    )

    return VerificationReport(tuple(checks))


# -- serialization ------------------------------------------------------------


def _transfer_rows(plan: SplitPlan):
    """(phase, tx, rx, bits text) per transfer, in plan order."""
    if isinstance(plan.transfers, _TransferView):
        return plan.transfers._rows(text=True)
    return ((t.phase, t.tx, t.rx, str(t.bits)) for t in plan.transfers)


def _edge_rows(plan: SplitPlan):
    """(head, tail, bits text) per edge, in plan order."""
    if isinstance(plan.edges, _EdgeView):
        return plan.edges._rows(text=True)
    return ((e.head, e.tail, str(e.bits)) for e in plan.edges)


def _plan_to_obj(plan: SplitPlan) -> dict:
    nodes = []
    for msg in plan.sources:
        nodes.append(
            {"id": _msg_id(msg.dst, msg.src), "kind": "source", "bits": str(msg.bits)}
        )
    for pad in plan.paddings:
        nodes.append({"id": _pad_id(pad.src), "kind": "padding", "bits": str(pad.bits)})
    nodes.extend(
        {"id": _phase_id(k, tx, rx), "kind": "transfer", "phase": k, "bits": bits}
        for k, tx, rx, bits in _transfer_rows(plan)
    )
    for sink in plan.sinks:
        nodes.append(
            {
                "id": _sink_id(sink.dst),
                "kind": "destination",
                "bits": str(sink.bits),
                "received": [
                    {"src": i + 1, "bits": str(b)} for i, b in sink.received
                ],
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
        "edges": [{"from": h, "to": t, "bits": b} for h, t, b in _edge_rows(plan)],
    }


def schedule_to_obj(s: Schedule) -> dict:
    return {
        "phases": [
            {
                "hop": p.hop,
                "tx_count": p.tx_count,
                "rx_count": p.rx_count,
                "block_length": p.block_length,
                "per_pair_dof": str(p.per_pair_dof),
                "per_pair_bits": str(p.per_pair_bits),
            }
            for p in s.phases
        ],
        "total_delay": s.total_delay,
        "total_bits": s.total_bits,
        "sum_dof": str(s.sum_dof),
        "split_plan": _plan_to_obj(s.split_plan),
    }


def plan_to_dot(plan: SplitPlan) -> str:
    """Graph-description text for the split DAG (external rendering)."""
    lines = ["digraph split_plan {", "  rankdir=LR;"]
    for msg in plan.sources:
        lines.append(f'  "{_msg_id(msg.dst, msg.src)}" [shape=box, label="{_msg_id(msg.dst, msg.src)}\\n{msg.bits} bits"];')
    for pad in plan.paddings:
        lines.append(f'  "{_pad_id(pad.src)}" [shape=box, style=dashed, label="{_pad_id(pad.src)}\\n{pad.bits} bits"];')
    for k, tx, rx, bits in _transfer_rows(plan):
        node = _phase_id(k, tx, rx)
        lines.append(f'  "{node}" [label="{node}\\n{bits} bits"];')
    for sink in plan.sinks:
        lines.append(f'  "{_sink_id(sink.dst)}" [shape=doublecircle, label="{_sink_id(sink.dst)}\\n{sink.bits} bits"];')
    lines.extend(f'  "{h}" -> "{t}" [label="{b}"];' for h, t, b in _edge_rows(plan))
    lines.append("}")
    return "\n".join(lines)
