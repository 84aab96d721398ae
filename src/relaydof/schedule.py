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
hence the X-network rate guarantee) is preserved.  Every bit count of a plan
is a whole number of one unit, so it is built, verified and written with
integers, each share's text rendered once per fan-out block.

Multi-antenna nodes are handled by antenna splitting: plans are built
entirely on the virtual single-antenna network, and
``relaydof.model.virtual_node_map`` recovers the physical node behind each
virtual endpoint.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice

from .analysis import AnalysisError, _finite_sizes, achievable_sum_dof
from .model import (
    DemandError,
    DemandMatrix,
    ExtRational,
    INFINITY,
    InvariantError,
    NetworkTopology,
    Record,
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


class PhasePlan(Record):
    """One hop's X-network phase: who transmits, for how long, at what rate."""

    __slots__ = _fields = ("hop", "tx_count", "rx_count", "block_length", "per_pair_dof", "per_pair_bits")

    hop: int
    tx_count: int
    rx_count: int
    block_length: int
    per_pair_dof: Fraction
    per_pair_bits: Fraction


class SourceMessage(Record):
    """Payload bits a source owes one destination (virtual indices, 0-based)."""

    __slots__ = _fields = ("dst", "src", "bits")

    dst: int
    src: int
    bits: Fraction


class PaddingMessage(Record):
    """Dummy bits that top a source up to the uniform outbound budget."""

    __slots__ = _fields = ("src", "bits")

    src: int
    bits: Fraction


class PhaseMessage(Record):
    """The phase-k X-network message from layer-k node tx to node rx."""

    __slots__ = _fields = ("phase", "tx", "rx", "bits")

    phase: int
    tx: int
    rx: int
    bits: Fraction


class DestinationBin(Record):
    """What one destination reassembles: real bits per source, plus padding."""

    __slots__ = _fields = ("dst", "received", "padding_bits")

    dst: int
    received: tuple[tuple[int, Fraction], ...]
    padding_bits: Fraction

    @property
    def bits(self) -> Fraction:
        values = [*(b for _, b in self.received), self.padding_bits]
        unit = math.lcm(*(v.denominator for v in values))
        return Fraction(sum(v.numerator * (unit // v.denominator) for v in values), unit)


class SplitEdge(Record):
    """One edge of the split DAG: ``bits`` flow from node ``head`` to ``tail``."""

    __slots__ = _fields = ("head", "tail", "bits")

    head: str
    tail: str
    bits: Fraction


class _PlanView(Sequence):
    """Read-only sequence over a plan's per-layer structure, expanded on demand.

    ``len`` is O(1); iteration yields the elements in plan order without
    keeping them, and indexing walks that iteration, so ``view[i]`` is O(i).
    Two views compare equal when they are views of the same kind over equal
    structure.
    """

    __slots__ = ("_key", "_len")

    def __init__(self, sizes, per_pair, *key):
        if len(per_pair) != len(sizes) - 1:
            raise InvariantError(f"plan has {len(per_pair)} per-pair shares for {len(sizes) - 1} hops")
        self._key = sizes, per_pair, *key
        self._len = self._count()

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        if not -self._len <= index < self._len:
            raise IndexError(f"{type(self).__name__} index out of range")
        return next(islice(self, index % self._len, None))

    def __reversed__(self):
        return reversed(tuple(self))

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

    def __iter__(self):
        sizes, per_pair = self._key
        return (
            PhaseMessage(k, tx, rx, bits)
            for k, bits in enumerate(per_pair)
            for tx in range(sizes[k])
            for rx in range(sizes[k + 1])
        )


class _EdgeView(_PlanView):
    """Every split edge: source fan-out, padding fan-out, relay layers, sinks.

    Key: sizes, per_pair, sources, paddings.  The edges come in fan-out
    blocks whose edges all carry one share, so the view computes each share
    once per block, from integers, and otherwise only formats node ids.
    """

    __slots__ = ()

    def _count(self) -> int:
        sizes, _, sources, paddings = self._key
        relays = sum(a * b * c for a, b, c in zip(sizes, sizes[1:], sizes[2:]))
        return (len(sources) + len(paddings)) * sizes[1] + relays + sizes[-2] * sizes[-1]

    def _blocks(self, ids, text: bool = False):
        """(heads, tails, share) per block: every head sends ``share`` (its
        text, or a Fraction) to every tail, head-major.  ``ids`` is the
        plan's :func:`_phase_ids` table."""
        sizes, per_pair, sources, paddings = self._key
        share = _text if text else Fraction

        def fan_out(src):
            if 0 <= src < sizes[0]:
                return ids[0][src]
            return [_phase_id(0, src, n) for n in range(sizes[1])]

        # phase 0: every source message and padding block splits evenly over
        # the first relay layer
        for msg in sources:
            bits = msg.bits
            yield (_msg_id(msg.dst, msg.src),), fan_out(msg.src), share(bits.numerator, bits.denominator * sizes[1])
        for pad in paddings:
            bits = pad.bits
            yield (_pad_id(pad.src),), fan_out(pad.src), share(bits.numerator, bits.denominator * sizes[1])
        # relay layers: node n merges column n of the phase before it and
        # re-splits evenly over its row of the next; the last layer's "split"
        # is the reorganization by destination
        for k in range(1, len(sizes) - 1):
            bits = per_pair[k]
            relay_share = share(bits.numerator, bits.denominator * sizes[k - 1])
            for heads, tails in zip(zip(*ids[k - 1]), ids[k]):
                yield heads, tails, relay_share
        # destination bins collect their full inbound messages
        bits = per_pair[-1]
        sink_share = share(bits.numerator, bits.denominator)
        for j, heads in enumerate(zip(*ids[-1])):
            yield heads, (_sink_id(j),), sink_share

    def __iter__(self):
        blocks = self._blocks(_phase_ids(self._key[0]))
        return (SplitEdge(h, t, s) for heads, tails, s in blocks for h in heads for t in tails)


class SplitPlan(Record):
    """Layered split/merge DAG with exact bit shares on every node and edge.

    Everything lives on the virtual (antenna-split) network, so a
    multi-antenna topology and its expanded single-antenna form produce
    identical plans; :func:`relaydof.model.virtual_node_map` recovers the
    physical node behind each virtual endpoint.  ``bits_per_dof`` converts
    demand DoF values into bits (it equals the schedule's total delay).

    The plan is stored per layer: ``per_pair[k]`` is the size of every
    phase-k message, and each relay re-splits its inbound bits evenly, so
    the DAG is fixed by the sizes, the shares, the sources and the padding.
    ``transfers`` and ``edges`` are always lazy views over that structure,
    never stored.
    """

    __slots__ = _fields = (
        "sizes",
        "demand",
        "per_pair",
        "sources",
        "paddings",
        "sinks",
        "total_bits",
        "padding_bits",
        "bits_per_dof",
    )

    sizes: tuple[int, ...]
    demand: DemandMatrix
    per_pair: tuple[Fraction, ...]
    sources: tuple[SourceMessage, ...]
    paddings: tuple[PaddingMessage, ...]
    sinks: tuple[DestinationBin, ...]
    total_bits: int
    padding_bits: Fraction
    bits_per_dof: Fraction

    @property
    def transfers(self) -> _TransferView:
        """Every phase message, as :class:`PhaseMessage` values."""
        return _TransferView(self.sizes, self.per_pair)

    @property
    def edges(self) -> _EdgeView:
        """Every split edge, as :class:`SplitEdge` values."""
        return _EdgeView(self.sizes, self.per_pair, self.sources, self.paddings)


class Schedule(Record):
    """Integer phase plan plus the split/merge plan that fills it."""

    __slots__ = _fields = ("phases", "total_delay", "total_bits", "sum_dof", "split_plan")

    phases: tuple[PhasePlan, ...]
    total_delay: int
    total_bits: int
    sum_dof: Fraction
    split_plan: SplitPlan


class CheckResult(Record):
    __slots__ = _fields = ("name", "passed", "detail")
    _defaults = {"detail": ""}

    name: str
    passed: bool
    detail: str


class VerificationReport(Record):
    __slots__ = _fields = ("checks",)

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


def _phase_ids(sizes: Sequence[int]) -> list[list[list[str]]]:
    """Every phase node's id, by phase, transmitter and receiver."""
    return [
        [[_phase_id(k, tx, rx) for rx in range(sizes[k + 1])] for tx in range(sizes[k])]
        for k in range(len(sizes) - 1)
    ]


def _text(numerator: int, denominator: int) -> str:
    """``str(Fraction(numerator, denominator))`` for a positive denominator."""
    g = math.gcd(numerator, denominator)
    return f"{numerator // g}" if g == denominator else f"{numerator // g}/{denominator // g}"


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
    decoded, T_{k-1} * S_{k-1}/(S_{k-1} + S_k - 1) = T_k * S_{k+1}/(S_k + S_{k+1} - 1),
    so every hop carries the same bits, T_k * S_k * S_{k+1}/(S_k + S_{k+1} - 1).
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


def _integer_phases(sizes: list[int]) -> tuple[list[PhasePlan], int]:
    """The phases of the smallest T_0, in closed form, and their bits B.

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
    return phases, total_bits


def _virtualize_demand(t: NetworkTopology, demand: DemandMatrix) -> DemandMatrix:
    """Spread each physical demand evenly over its endpoints' antennas."""
    src_antennas = t.source_layer.antenna_profile()
    dst_antennas = t.destination_layer.antenna_profile()
    src_offsets = [0, *accumulate(src_antennas)]
    dst_offsets = [0, *accumulate(dst_antennas)]
    entries: dict[tuple[int, int], Fraction] = {}
    for (j, i), value in demand.entries.items():
        share = Fraction(value.numerator, value.denominator * src_antennas[i] * dst_antennas[j])
        for jv in range(dst_offsets[j], dst_offsets[j + 1]):
            for iv in range(src_offsets[i], src_offsets[i + 1]):
                entries[(jv, iv)] = share
    return DemandMatrix(entries)


def integer_schedule(t: NetworkTopology, demand: DemandMatrix | None = None) -> Schedule:
    """Canonical integer schedule; smallest T_0 keeping all bit counts whole.

    ``_integer_phases`` gives the phases and B, the bits of every hop, and
    their block lengths sum to T, the delay and the plan's bits per DoF.
    The plan carries ``demand`` checked against the region and spread over
    the antennas by ``_virtualize_demand``, or else the uniform boundary
    demand, B/(T*S_0*S_L) per virtual endpoint pair, which has no padding.
    Plans are built on the antenna-split network, so a multi-antenna
    topology and its expanded single-antenna form yield identical schedules.
    """
    sizes = _schedule_sizes(t.effective_sizes())
    phases, total_bits = _integer_phases(sizes)
    delay = sum(p.block_length for p in phases)
    if demand is None:
        share = Fraction(total_bits, delay * sizes[0] * sizes[-1])
        demand = DemandMatrix({(j, i): share for j in range(sizes[-1]) for i in range(sizes[0])})
    else:
        verdict = check_demand(t, demand)
        if not verdict.feasible:
            failed = ", ".join(v.constraint for v in verdict.violations)
            raise DemandError(f"demand is outside the achievable region ({failed})")
        if demand.is_zero:
            raise DemandError("cannot build a split plan for a zero demand")
        demand = _virtualize_demand(t, demand)

    # every bit count is a whole number of U = 1/(unit*S_0*S_L) bits, with
    # unit the demand's; d demand units (d/unit DoF) carry d*per_unit of them
    unit, rows, cols = demand.unit_sums()
    denominator = unit * sizes[0] * sizes[-1]
    total, per_unit = total_bits * denominator, delay * sizes[0] * sizes[-1]
    # a count of U as bits; equal counts share one Fraction
    bits = lru_cache(maxsize=None)(lambda units: Fraction(units, denominator))
    received: dict[int, list[tuple[int, Fraction]]] = {}
    sources = []
    last = None
    for (j, i), v in sorted(demand.entries.items()):
        if v is not last:  # a run of one value object (a uniform demand) shares one count
            last, b = v, bits(v.numerator * (unit // v.denominator) * per_unit)
        sources.append(SourceMessage(dst=j, src=i, bits=b))
        received.setdefault(j, []).append((i, b))
    # padding tops each source and destination up to its 1/S share of the total
    paddings = []
    for i in range(sizes[0]):
        pad = total // sizes[0] - rows.get(i, 0) * per_unit
        if pad > 0:
            paddings.append(PaddingMessage(src=i, bits=bits(pad)))
    sinks = tuple(
        DestinationBin(
            dst=j,
            received=tuple(received.get(j, ())),
            padding_bits=bits(total // sizes[-1] - cols.get(j, 0) * per_unit),
        )
        for j in range(sizes[-1])
    )
    plan = SplitPlan(
        sizes=tuple(sizes),
        demand=demand,
        per_pair=tuple(p.per_pair_bits for p in phases),
        sources=tuple(sources),
        paddings=tuple(paddings),
        sinks=sinks,
        total_bits=total_bits,
        padding_bits=bits(total - sum(rows.values()) * per_unit),
        bits_per_dof=Fraction(delay),
    )
    return Schedule(
        phases=tuple(phases),
        total_delay=delay,
        total_bits=total_bits,
        sum_dof=Fraction(total_bits, delay),
        split_plan=plan,
    )


def splitting_plan(t: NetworkTopology, demand: DemandMatrix) -> SplitPlan:
    """Split/merge DAG for a feasible demand (boundary allowed)."""
    return integer_schedule(t, demand).split_plan


# -- verification -------------------------------------------------------------


def _plan_units(plan: SplitPlan):
    """The function that writes any of the plan's bit counts as an integer
    in the plan's unit U, the LCM of all their denominators."""
    values = [*plan.per_pair, plan.total_bits, plan.padding_bits, plan.bits_per_dof]
    values += [m.bits for m in plan.sources] + [p.bits for p in plan.paddings]
    for sink in plan.sinks:
        values += [b for _, b in sink.received] + [sink.padding_bits]
    unit = math.lcm(*(v.denominator for v in values))
    return lambda v: v.numerator * (unit // v.denominator)


def _structural_conservation(plan: SplitPlan, units) -> tuple[list, list, list]:
    """Bit conservation on the per-layer structure: the unbalanced node ids,
    relay (layer, node) pairs and phases, as summing every edge into its
    endpoints would find them.

    Every bit count is an integer in the plan's unit (``units``, from
    :func:`_plan_units`).  A relay edge into phase k carries
    per_pair[k]/S_{k-1}, so phase-k in-flow is per_pair[k] for k >= 1 and
    phase k's out-flow is S_{k+2}*per_pair[k+1]/S_k; phase-0 in-flow is its
    source row over S_1.  Only the first four unbalanced nodes and relays
    are listed.
    """
    sizes, hops = plan.sizes, len(plan.sizes) - 1
    pair = [units(b) for b in plan.per_pair]
    sources = [(m.dst, m.src, units(m.bits)) for m in plan.sources]
    paddings = [(p.src, units(p.bits)) for p in plan.paddings]
    sent: dict[tuple[int, int], int] = {}
    padded: dict[int, int] = {}
    row: dict[int, int] = {}
    for j, i, bits in sources:
        sent[j, i] = sent.get((j, i), 0) + bits
        row[i] = row.get(i, 0) + bits
    for i, bits in paddings:
        padded[i] = padded.get(i, 0) + bits
        row[i] = row.get(i, 0) + bits
    out_bad = [k < hops - 1 and sizes[k + 2] * pair[k + 1] != sizes[k] * pair[k] for k in range(hops)]
    sink_in = sizes[-2] * pair[-1]

    def bad_nodes():
        for j, i, bits in sources:
            if sent[j, i] != bits:
                yield _msg_id(j, i)
        for i, bits in paddings:
            if padded[i] != bits:
                yield _pad_id(i)
        for k in range(hops):
            if k and not out_bad[k]:
                continue  # only phase 0's in-flow or a bad out-flow unbalances a node
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

    # relay layer k + 1 is unbalanced exactly when phase k's out-flow is
    bad_relays = ((k + 1, n) for k in range(hops) if out_bad[k] for n in range(sizes[k + 1]))
    total = units(plan.total_bits)
    uneven_phases = [k for k in range(hops) if sizes[k] * sizes[k + 1] * pair[k] != total]
    return list(islice(bad_nodes(), 4)), list(islice(bad_relays, 4)), uneven_phases


_CHECKS = ("phase-recurrence", "bit-conservation", "sum-dof", "demand-shares")
_phase_fields = operator.attrgetter(*PhasePlan._fields)
_TOTALS = ("total_delay", "total_bits", "sum_dof", "split_plan.total_bits", "split_plan.padding_bits",
           "split_plan.bits_per_dof")
_totals = operator.attrgetter(*_TOTALS)


def verify_schedule(s: Schedule) -> VerificationReport:
    """Re-derive the schedule's defining identities and report each one.

    Failures are reported, never raised: phases whose sizes no schedule
    runs on fail every check before any check reads them, and so does a
    phase field, plan share or total that is not an int or a Fraction (a
    bool or float would pass for the value it equals) or a field the checks
    cannot read (a ``None``, a sink entry that is not a pair).
    """
    try:
        sizes = [p.tx_count for p in s.phases] + [p.rx_count for p in s.phases[-1:]]
        try:
            _schedule_sizes(sizes)
        except (AnalysisError, TopologyError) as exc:
            detail = f"phase sizes {sizes}: {exc}"
        else:
            results = _run_checks(s, sizes)
            return VerificationReport(tuple(CheckResult(name, *r) for name, r in zip(_CHECKS, results)))
    except (TypeError, AttributeError, ValueError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
    return VerificationReport(tuple(CheckResult(name, False, detail) for name in _CHECKS))


def _run_checks(s: Schedule, sizes: list[int]) -> list[tuple[bool, str]]:
    """(passed, detail) of each check in ``_CHECKS`` order, on phases of
    valid ``sizes``; raises when a field cannot be read."""
    plan = s.split_plan
    # the number rule, on all but the per-node counts: True == 1 and 8.0 == 8
    numbers = [*chain.from_iterable(map(_phase_fields, s.phases)), *plan.per_pair, *_totals(s)]
    if not {int, Fraction}.issuperset(map(type, numbers)):  # int subclasses come here too
        names = [f"phases[{k}].{name}" for k in range(len(s.phases)) for name in PhasePlan._fields]
        names += [f"split_plan.per_pair[{k}]" for k in range(len(plan.per_pair))] + list(_TOTALS)
        for name, value in zip(names, numbers):
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise TypeError(f"{name} must be an int or a Fraction, got {value!r}")
    hops = len(s.phases)
    units = _plan_units(plan)
    results = []  # (passed, detail) of each check, in _CHECKS order

    # (1) forwarding recurrence: a relay sends in phase k the bits it decoded
    # in phase k-1; and each phase's own fields: its hop index, its receivers
    # (the next layer's size) and its per-pair share of the X network
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
    results.append((not parts, "; ".join(parts)))

    # (2) bit conservation: edge sums must reproduce every node total, each
    # relay node forwards exactly what it decoded, each phase carries the
    # same total, and the plan carries the schedule's bits over its delay; a
    # plan for other layer sizes than the phases', or with other than one
    # share per hop, conserves none of their bits
    if list(plan.sizes) != sizes:
        parts = [f"plan sizes {list(plan.sizes)} differ from phase sizes {sizes}"]
    elif len(plan.per_pair) != hops:
        parts = [f"plan has {len(plan.per_pair)} per-pair shares for {hops} hops"]
    else:
        bad_nodes, bad_relays, uneven_phases = _structural_conservation(plan, units)
        parts = []
        if bad_nodes:
            parts.append(f"node imbalance at {bad_nodes}")
        if bad_relays:
            parts.append(f"relay (layer, node) imbalance at {bad_relays}")
        if uneven_phases:
            parts.append(f"phase totals off at {uneven_phases}")
        if (plan.total_bits, plan.bits_per_dof) != (s.total_bits, s.total_delay):
            parts.append(
                f"plan (total_bits, bits_per_dof) ({plan.total_bits}, {plan.bits_per_dof}) differs"
                f" from schedule (total_bits, total_delay) ({s.total_bits}, {s.total_delay})"
            )
    results.append((not parts, "; ".join(parts)))

    # (3) the realized rate equals the achievable sum DoF
    alpha = achievable_sum_dof(sizes)
    delay_ok = s.total_delay == sum(p.block_length for p in s.phases)
    rate_ok = (
        ExtRational(s.sum_dof) == alpha
        and s.sum_dof * s.total_delay == s.total_bits
        and delay_ok
    )
    results.append((rate_ok, "" if rate_ok else f"sum_dof {s.sum_dof} vs achievable {alpha}"))

    # (4) destination bins and source messages match the demand exactly; with
    # d the demand's unit, a bit count b is right when b*U*d equals its DoF
    # in d times the bits per DoF in U
    per_dof = units(plan.bits_per_dof)
    unit, _, cols = plan.demand.unit_sums()
    wanted = {key: v.numerator * (unit // v.denominator) * per_dof for key, v in plan.demand.entries.items()}
    expected: dict[int, dict[int, int]] = {}
    for (j, i), bits in wanted.items():
        if 0 <= i < sizes[0]:
            expected.setdefault(j, {})[i] = bits
    total = units(plan.total_bits) * unit
    problems = []
    for sink in plan.sinks:
        if {i: units(b) * unit for i, b in sink.received} != expected.get(sink.dst, {}):
            problems.append(f"dst {sink.dst + 1} reassembly")
        if units(sink.padding_bits) * unit * sizes[-1] != total - sizes[-1] * cols.get(sink.dst, 0) * per_dof:
            problems.append(f"dst {sink.dst + 1} padding")
    for msg in plan.sources:
        if units(msg.bits) * unit != wanted.get((msg.dst, msg.src), 0):
            problems.append(f"message {_msg_id(msg.dst, msg.src)}")
    if units(plan.padding_bits) * unit != total - sum(cols.values()) * per_dof:
        problems.append("total padding")
    results.append((not problems, "; ".join(problems[:4])))
    return results


# -- serialization ------------------------------------------------------------


def _plan_to_obj(plan: SplitPlan) -> dict:
    edges = plan.edges  # checks the share count
    ids = _phase_ids(plan.sizes)
    nodes = [
        {"id": _msg_id(msg.dst, msg.src), "kind": "source", "bits": str(msg.bits)} for msg in plan.sources
    ]
    nodes += [{"id": _pad_id(pad.src), "kind": "padding", "bits": str(pad.bits)} for pad in plan.paddings]
    for k, (phase, bits) in enumerate(zip(ids, plan.per_pair)):
        bits = str(bits)
        nodes += [{"id": node, "kind": "transfer", "phase": k, "bits": bits} for row in phase for node in row]
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
        "edges": [
            {"from": h, "to": t, "bits": share}
            for heads, tails, share in edges._blocks(ids, text=True)
            for h in heads
            for t in tails
        ],
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
    edges = plan.edges  # checks the share count
    ids = _phase_ids(plan.sizes)
    lines = ["digraph split_plan {", "  rankdir=LR;"]
    for msg in plan.sources:
        node = _msg_id(msg.dst, msg.src)
        lines.append(f'  "{node}" [shape=box, label="{node}\\n{msg.bits} bits"];')
    for pad in plan.paddings:
        node = _pad_id(pad.src)
        lines.append(f'  "{node}" [shape=box, style=dashed, label="{node}\\n{pad.bits} bits"];')
    for phase, bits in zip(ids, plan.per_pair):
        suffix = f'\\n{bits} bits"];'
        lines += [f'  "{node}" [label="{node}{suffix}' for row in phase for node in row]
    for sink in plan.sinks:
        node = _sink_id(sink.dst)
        lines.append(f'  "{node}" [shape=doublecircle, label="{node}\\n{sink.bits} bits"];')
    for heads, tails, share in edges._blocks(ids, text=True):
        suffix = f'" [label="{share}"];'
        lines += [f'  "{h}" -> "{t}{suffix}' for h in heads for t in tails]
    lines.append("}")
    return "\n".join(lines)
