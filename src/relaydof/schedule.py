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
hence the X-network rate guarantee) is preserved.  Every per-node bit count
of a plan is a whole number of one unit 1/U, and the plan stores it as that
int, so it is built, verified and written with integers: verification
cross-multiplies block lengths and phase fields and makes no Fraction per
hop or node, each share's text is rendered once per fan-out block, and the
DOT writer formats one row string per head.

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
from itertools import accumulate, chain, islice, product

from .analysis import AnalysisError, _finite_sizes, _reciprocal_sums
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
from .model import _on_unit, _text
from .region import check_demand

__all__ = [
    "InvariantError",
    "PhasePlan",
    "PhaseMessage",
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


class PhaseMessage(Record):
    """The phase-k X-network message from layer-k node tx to node rx."""

    __slots__ = _fields = ("phase", "tx", "rx", "bits")

    phase: int
    tx: int
    rx: int
    bits: Fraction


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

    Key: sizes, per_pair, unit, sources, paddings, the last two as the
    plan's int rows.  The edges come in fan-out blocks whose edges all carry
    one share, so the view computes each share once per block, from
    integers, and otherwise only formats node ids.
    """

    __slots__ = ()

    def _count(self) -> int:
        sizes, _, _, sources, paddings = self._key
        relays = sum(a * b * c for a, b, c in zip(sizes, sizes[1:], sizes[2:]))
        return (len(sources) + len(paddings)) * sizes[1] + relays + sizes[-2] * sizes[-1]

    def _blocks(self, ids, text: bool = False):
        """(heads, tails, share) per block: every head sends ``share`` (its
        text, or a Fraction) to every tail, head-major.  ``ids`` is the
        plan's :func:`_phase_ids` table."""
        sizes, per_pair, unit, sources, paddings = self._key
        share = _text if text else Fraction

        def fan_out(src):
            if 0 <= src < sizes[0]:
                return ids[0][src]
            return [_phase_id(0, src, n) for n in range(sizes[1])]

        # phase 0: every source message and padding block splits evenly over
        # the first relay layer
        fanned = unit * sizes[1]
        for dst, src, count in sources:
            yield (_msg_id(dst, src),), fan_out(src), share(count, fanned)
        for src, count in paddings:
            yield (_pad_id(src),), fan_out(src), share(count, fanned)
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

    The per-node counts are ints in 1/``unit`` bits: ``sources`` holds a
    ``(dst, src, count)`` row per source message, ``paddings`` a
    ``(src, count)`` row per padding block, and ``sinks`` a
    ``(dst, ((src, count), ...), padding_count)`` row per destination
    (virtual indices, 0-based).  ``per_pair``, ``total_bits``,
    ``padding_bits`` and ``bits_per_dof`` are in bits.
    """

    __slots__ = _fields = (
        "sizes",
        "demand",
        "per_pair",
        "unit",
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
    unit: int
    sources: tuple[tuple[int, int, int], ...]
    paddings: tuple[tuple[int, int], ...]
    sinks: tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]
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
        return _EdgeView(self.sizes, self.per_pair, self.unit, self.sources, self.paddings)


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
    """Every phase node's id, by phase, transmitter and receiver: each
    :func:`_phase_id` text joined from a transmitter's and a receiver's part."""
    ids = []
    for k in range(len(sizes) - 1):
        tails = [f"{rx}]" for rx in range(1, sizes[k + 1] + 1)]
        heads = [f"ph{k}[{tx}->" for tx in range(1, sizes[k] + 1)]
        ids.append([[head + tail for tail in tails] for head in heads])
    return ids


# -- schedule construction ---------------------------------------------------


def _schedule_sizes(sizes: Sequence[int], receivers: int = 1) -> list[int]:
    """The sizes of a chain that a schedule can run on: valid sizes
    (``AnalysisError`` otherwise, ``receivers`` as in ``_finite_sizes``), every
    layer finite and at least one relay layer (``TopologyError`` otherwise)."""
    sizes = list(sizes)
    _finite_sizes(sizes, receivers)
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
                per_pair_bits=Fraction(total_bits // product),
            )
        )
    return phases, total_bits


def _virtualize_demand(t: NetworkTopology, demand: DemandMatrix) -> DemandMatrix:
    """Spread each physical demand evenly over its endpoints' antennas: c units
    on a*b antenna pairs are c/(a*b) units each, on a unit LCM(a*b) times finer."""
    src_antennas = t.source_layer.antenna_profile()
    dst_antennas = t.destination_layer.antenna_profile()
    src_offsets = [0, *accumulate(src_antennas)]
    dst_offsets = [0, *accumulate(dst_antennas)]
    spread = math.lcm(*[src_antennas[i] * dst_antennas[j] for j, i in demand.counts])
    counts = {key: c * (spread // (src_antennas[i] * dst_antennas[j])) for (j, i), c in demand.counts.items()
              for key in product(range(dst_offsets[j], dst_offsets[j + 1]), range(src_offsets[i], src_offsets[i + 1]))}
    return _on_unit(demand.unit * spread, counts)


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
        unit = delay * sizes[0] * sizes[-1]  # one count B/(T*S_0*S_L) per pair, as one reduced object
        g = math.gcd(total_bits, unit)
        demand = _on_unit(unit // g, dict.fromkeys(product(range(sizes[-1]), range(sizes[0])), total_bits // g))
    else:
        verdict = check_demand(t, demand)
        if not verdict.feasible:
            failed = ", ".join(v.constraint for v in verdict.violations)
            raise DemandError(f"demand is outside the achievable region ({failed})")
        if demand.is_zero:
            raise DemandError("cannot build a split plan for a zero demand")
        demand = _virtualize_demand(t, demand)

    # every per-node count is a whole number of 1/U bits, U = d*S_0*S_L with
    # d the demand's unit; c demand units (c/d DoF) carry c*per_unit of them
    d, rows, cols = demand.unit_sums()
    unit = d * sizes[0] * sizes[-1]
    total, per_unit = total_bits * unit, delay * sizes[0] * sizes[-1]
    received: dict[int, list[tuple[int, int]]] = {}
    sources = []
    last = None
    for (j, i), c in sorted(demand.counts.items()):
        if c is not last:  # a run of one count object (a uniform demand) shares one product
            last, count = c, c * per_unit
        sources.append((j, i, count))
        received.setdefault(j, []).append((i, count))
    # padding tops each source and destination up to its 1/S share of the total
    paddings = []
    for i in range(sizes[0]):
        pad = total // sizes[0] - rows.get(i, 0) * per_unit
        if pad > 0:
            paddings.append((i, pad))
    sinks = tuple(
        (j, tuple(received.get(j, ())), total // sizes[-1] - cols.get(j, 0) * per_unit) for j in range(sizes[-1])
    )
    plan = SplitPlan(
        sizes=tuple(sizes),
        demand=demand,
        per_pair=tuple(p.per_pair_bits for p in phases),
        unit=unit,
        sources=tuple(sources),
        paddings=tuple(paddings),
        sinks=sinks,
        total_bits=total_bits,
        padding_bits=Fraction(total - sum(rows.values()) * per_unit, unit),
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


def _structural_conservation(plan: SplitPlan) -> tuple[list, list, list]:
    """Bit conservation on the per-layer structure: the unbalanced node ids,
    relay (layer, node) pairs and phases, as summing every edge into its
    endpoints would find them.

    Every bit count is an integer in 1/V bits, V the least multiple of the
    plan's unit in which the per-pair shares and ``total_bits`` are whole
    (the unit itself on a plan as built), so a stored count is ``scale`` =
    V/unit of them.  A relay edge into phase k carries per_pair[k]/S_{k-1},
    so phase-k in-flow is per_pair[k] for k >= 1 and phase k's out-flow is
    S_{k+2}*per_pair[k+1]/S_k; phase-0 in-flow is its source row over S_1.
    So is a destination with other than one sink row, or an extra sink.
    Only the first four unbalanced nodes and relays are listed.
    """
    sizes, hops, total = plan.sizes, len(plan.sizes) - 1, plan.total_bits
    fine = math.lcm(plan.unit, total.denominator, *(b.denominator for b in plan.per_pair))
    scale = fine // plan.unit
    pair = [b.numerator * (fine // b.denominator) for b in plan.per_pair]
    sent: dict[tuple[int, int], int] = {}
    padded: dict[int, int] = {}
    row: dict[int, int] = {}
    for j, i, count in plan.sources:
        sent[j, i] = sent.get((j, i), 0) + count
        row[i] = row.get(i, 0) + count
    for i, count in plan.paddings:
        padded[i] = padded.get(i, 0) + count
        row[i] = row.get(i, 0) + count
    out_bad = [k < hops - 1 and sizes[k + 2] * pair[k + 1] != sizes[k] * pair[k] for k in range(hops)]
    inflow, sink_in = sizes[1] * pair[0], sizes[-2] * pair[-1]

    def bad_nodes():
        # a message or padding node sends other bits than its own only when
        # its key repeats
        if len(sent) < len(plan.sources):
            for j, i, count in plan.sources:
                if sent[j, i] != count:
                    yield _msg_id(j, i)
        if len(padded) < len(plan.paddings):
            for i, count in plan.paddings:
                if padded[i] != count:
                    yield _pad_id(i)
        for k in range(hops):
            if k and not out_bad[k]:
                continue  # only phase 0's in-flow or a bad out-flow unbalances a node
            for tx in range(sizes[k]):
                in_bad = k == 0 and row.get(tx, 0) * scale != inflow
                if in_bad or out_bad[k]:
                    for rx in range(sizes[k + 1]):
                        node = _phase_id(k, tx, rx)
                        yield from [node] * (in_bad + out_bad[k])
        for dst, received, padding in plan.sinks:
            got = sink_in if 0 <= dst < sizes[-1] else 0
            if got != (sum(count for _, count in received) + padding) * scale:
                yield _sink_id(dst)
        if (named := [dst for dst, _, _ in plan.sinks]) != list(range(sizes[-1])):
            wrong = (j for j in sorted({*named, *range(sizes[-1])}) if named.count(j) != (0 <= j < sizes[-1]))
            yield from map(_sink_id, wrong)

    # relay layer k + 1 is unbalanced exactly when phase k's out-flow is
    bad_relays = ((k + 1, n) for k in range(hops) if out_bad[k] for n in range(sizes[k + 1]))
    total = total.numerator * (fine // total.denominator)
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
    phase field, plan share or total that is not an int or a Fraction, a
    plan unit that is not a positive int, a stored count that is not an int
    (a bool or float would pass for the value it equals), or a field the
    checks cannot read (a ``None``, a row of the wrong length).
    """
    try:
        sizes = [p.tx_count for p in s.phases] + [p.rx_count for p in s.phases[-1:]]
        try:
            # only the last size is a receiver count: the others are the phases' transmitters
            _schedule_sizes(sizes, len(sizes) - 1)
        except (AnalysisError, TopologyError) as exc:
            detail = f"phase sizes {sizes}: {exc}"
        else:
            return VerificationReport(_run_checks(s, sizes))
    except (TypeError, AttributeError, ValueError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
    return VerificationReport(tuple(CheckResult(name, False, detail) for name in _CHECKS))


def _run_checks(s: Schedule, sizes: list[int]) -> tuple[CheckResult, ...]:
    """The result of each check in ``_CHECKS``, on phases of valid
    ``sizes``; raises when a field cannot be read."""
    plan = s.split_plan
    # the number rule, on all but the per-node counts: True == 1 and 8.0 == 8; checked item
    # by item, it made verify of small chains 16% and plan-ladder op_p50_ms 3.3% slower (CPython 3.11)
    numbers = [*chain.from_iterable(map(_phase_fields, s.phases)), *plan.per_pair, *_totals(s)]
    if not {int, Fraction}.issuperset(map(type, numbers)):  # int subclasses come here too
        names = [f"phases[{k}].{name}" for k in range(len(s.phases)) for name in PhasePlan._fields]
        names += [f"split_plan.per_pair[{k}]" for k in range(len(plan.per_pair))] + list(_TOTALS)
        for name, value in zip(names, numbers):
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise TypeError(f"{name} must be an int or a Fraction, got {value!r}")
    # the count rule: the unit is a positive int, and every per-node count and row index
    # an int (True == 1 and 4.0 == 4 too), in one type pass like the number rule's
    unit = plan.unit
    if isinstance(unit, bool) or not isinstance(unit, int) or unit < 1:
        raise TypeError(f"split_plan.unit must be a positive int, got {unit!r}")
    received = [*chain.from_iterable(pairs for _, pairs, _ in plan.sinks)]
    stored = [*chain.from_iterable(plan.sources), *chain.from_iterable(plan.paddings),
              *chain.from_iterable((dst, padding) for dst, _, padding in plan.sinks), *chain.from_iterable(received)]
    if not {int}.issuperset(map(type, stored)):  # int subclasses come here too
        names = [f"split_plan.sources[{k}] {n}" for k, (_, _, _) in enumerate(plan.sources)
                 for n in ("dst", "src", "count")]
        names += [f"split_plan.paddings[{k}] {n}" for k, (_, _) in enumerate(plan.paddings) for n in ("src", "count")]
        names += [f"split_plan.sinks[{k}] {n}" for k in range(len(plan.sinks)) for n in ("dst", "padding count")]
        names += [f"split_plan.sinks[{k}] received[{r}] {n}" for k, (_, pairs, _) in enumerate(plan.sinks)
                  for r, (_, _) in enumerate(pairs) for n in ("src", "count")]
        for name, value in zip(names, stored):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
    hops = len(s.phases)
    results = []  # (passed, detail) of each check, in _CHECKS order

    # (1) forwarding recurrence: a relay sends in phase k the T_k*S_{k+1}/P_k
    # bits it decoded in phase k-1, T_{k-1}*S_{k-1}/P_{k-1}, with P_k =
    # S_k + S_{k+1} - 1; and each phase's own fields: its hop index, its
    # receivers, its per-pair DoF 1/P_k and bits T_k/P_k; all cross-multiplied
    bad_hops, bad_fields = [], []
    for k, p in enumerate(s.phases):
        rx, block = sizes[k + 1], p.block_length
        pairs = sizes[k] + rx - 1
        if k and last_block * (sizes[k - 1] * pairs) != block * (rx * last_pairs):
            bad_hops.append(k)
        last_block, last_pairs = block, pairs
        dof, bits = p.per_pair_dof, p.per_pair_bits
        if (p.hop, p.rx_count, dof.numerator * pairs, bits.numerator * pairs) != (
            k, rx, dof.denominator, block * bits.denominator
        ):
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
        bad_nodes, bad_relays, uneven_phases = _structural_conservation(plan)
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

    # (3) the realized rate equals the achievable sum DoF, 1/(sum of 1/alpha_k)
    # = d/n, and the schedule's bits over its delay: a/b = sum_dof is both
    # when a*n == b*d and a*T == b*B
    n, d = _reciprocal_sums(sizes)[0]
    a, b = s.sum_dof.numerator, s.sum_dof.denominator
    rate_ok = (
        a * n == b * d
        and a * s.total_delay == b * s.total_bits
        and s.total_delay == sum(p.block_length for p in s.phases)
    )
    results.append((rate_ok, "" if rate_ok else f"sum_dof {s.sum_dof} vs achievable {ExtRational(d, n)}"))

    # (4) destination bins and source messages match the demand exactly: in
    # 1/(V*d) bits, with d the demand's unit and V the least multiple of the
    # plan's unit that makes its totals whole, a count is right when it
    # equals its DoF in 1/d times the bits per DoF in 1/V; one pass over the
    # demand's counts gives each entry's bits and the column sums in 1/d,
    # which ``DemandMatrix.unit_sums`` would give in a pass of its own
    per_dof, total, padding = plan.bits_per_dof, plan.total_bits, plan.padding_bits
    fine = math.lcm(unit, per_dof.denominator, total.denominator, padding.denominator)
    per_dof = per_dof.numerator * (fine // per_dof.denominator)
    d = plan.demand.unit
    wanted: dict[tuple[int, int], int] = {}
    expected: dict[int, dict[int, int]] = {}
    cols: dict[int, int] = {}
    for (j, i), count in plan.demand.counts.items():
        cols[j] = cols.get(j, 0) + count
        wanted[j, i] = bits = count * per_dof
        if 0 <= i < sizes[0]:
            expected.setdefault(j, {})[i] = bits
    scale = fine // unit * d  # a stored count in 1/(V*d) bits
    total = total.numerator * (fine // total.denominator) * d
    problems = []
    for dst, received, padding_count in plan.sinks:
        if {i: count * scale for i, count in received} != expected.get(dst, {}):
            problems.append(f"dst {dst + 1} reassembly")
        if padding_count * scale * sizes[-1] != total - sizes[-1] * cols.get(dst, 0) * per_dof:
            problems.append(f"dst {dst + 1} padding")
    for j, i, count in plan.sources:
        if count * scale != wanted.get((j, i), 0):
            problems.append(f"message {_msg_id(j, i)}")
    if padding.numerator * (fine // padding.denominator) * d != total - sum(cols.values()) * per_dof:
        problems.append("total padding")
    results.append((not problems, "; ".join(problems[:4])))
    return tuple(CheckResult(name, *r) for name, r in zip(_CHECKS, results))


# -- serialization ------------------------------------------------------------


def _plan_to_obj(plan: SplitPlan) -> dict:
    edges = plan.edges  # checks the share count
    ids, unit = _phase_ids(plan.sizes), plan.unit
    nodes = [{"id": _msg_id(j, i), "kind": "source", "bits": _text(count, unit)} for j, i, count in plan.sources]
    nodes += [{"id": _pad_id(i), "kind": "padding", "bits": _text(count, unit)} for i, count in plan.paddings]
    for k, (phase, bits) in enumerate(zip(ids, plan.per_pair)):
        bits = str(bits)
        nodes += [{"id": node, "kind": "transfer", "phase": k, "bits": bits} for row in phase for node in row]
    for dst, received, padding in plan.sinks:
        nodes.append(
            {
                "id": _sink_id(dst),
                "kind": "destination",
                "bits": _text(sum(count for _, count in received) + padding, unit),
                "received": [{"src": i + 1, "bits": _text(count, unit)} for i, count in received],
                "padding_bits": _text(padding, unit),
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
    ids, unit = _phase_ids(plan.sizes), plan.unit
    lines = ["digraph split_plan {", "  rankdir=LR;"]
    for j, i, count in plan.sources:
        node = _msg_id(j, i)
        lines.append(f'  "{node}" [shape=box, label="{node}\\n{_text(count, unit)} bits"];')
    for i, count in plan.paddings:
        node = _pad_id(i)
        lines.append(f'  "{node}" [shape=box, style=dashed, label="{node}\\n{_text(count, unit)} bits"];')
    for phase, bits in zip(ids, plan.per_pair):
        suffix = f'\\n{bits} bits"];'
        lines += [f'  "{node}" [label="{node}{suffix}' for row in phase for node in row]
    for dst, received, padding in plan.sinks:
        node = _sink_id(dst)
        bits = _text(sum(count for _, count in received) + padding, unit)
        lines.append(f'  "{node}" [shape=doublecircle, label="{node}\\n{bits} bits"];')
    # one string per head: its edges' rows differ only in the tail; one per edge
    # made plan_to_dot 66% and plan-ladder op_p50_ms 3.8% slower (CPython 3.11)
    for heads, tails, share in edges._blocks(ids, text=True):
        end = f'" [label="{share}"];'
        for h in heads:
            start = '  "' + h + '" -> "'
            lines.append(start + (end + "\n" + start).join(tails) + end)
    lines.append("}")
    return "\n".join(lines)
