"""The reference model: the paper's closed forms, the region and the split/merge
plan, written the plain way, one ``Fraction`` at a time (``INF`` stands for an
unbounded layer).  Every test that wants an independent answer takes it from
here, and a route that a refactor replaces becomes one more function here.

It imports no private name from relaydof.  It reads documents itself and
checks their layer and count rules itself, fills relaydof's public record
types so that results compare with ``==`` (but reads a layer's size from its
``nodes`` and ``antennas`` alone), reads a relaydof plan through its public
fields (so a tampered plan can be handed to it) and its int counts as
Fractions of bits (``records``), and writes every CLI output with dicts,
``json`` and ``csv``: ``main`` is the whole CLI for a well-formed argv.
"""

import csv
import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from relaydof.model import INFINITY as INF
from relaydof.model import DemandError, DemandMatrix, DocumentError, LayerSpec, NetworkTopology, TopologyError
from relaydof.region import RegionVerdict, Violation
from relaydof.scaling import FamilyError
from relaydof.schedule import CheckResult, PhasePlan, Schedule, SplitPlan

# -- documents ---------------------------------------------------------------------

LITERAL_CHARS = frozenset("0123456789+-/.eE")


def reference_exact(value: str) -> Fraction:
    """A rational literal as Fraction reads it, within the document rules:
    literal characters only, and an exponent within the int-string limit."""
    try:
        if not LITERAL_CHARS.issuperset(value):
            raise ValueError(value)
        exponent = value.lower().partition("e")[2]
        if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent)):
            raise ValueError(value)
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational literal {value!r}") from exc


def _count(value) -> bool:
    """Whether a value is a count: a positive int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _layer_rule(obj) -> str | None:
    """The rule a layer object breaks, None for a good one: a positive int
    or "inf" node count, or a nonempty list of positive antenna counts."""
    if set(obj) == {"nodes"}:
        raw = obj["nodes"]
        if raw == "inf" or _count(raw):
            return None
        if isinstance(raw, bool) or not isinstance(raw, int):
            return f"node count must be a positive integer or 'inf', got {raw!r}"
        return "zero nodes" if raw == 0 else f"node count must be positive, got {raw}"
    if set(obj) == {"antennas"}:
        raw = obj["antennas"]
        if not isinstance(raw, list):
            return "'antennas' must be a nonempty list"
        if "inf" in raw:
            return "infinite layer cannot carry an antenna list"
        if not raw:
            return "antenna list must be nonempty"
        bad = [a for a in raw if not _count(a)]
        return f"antenna count must be a positive integer, got {bad[0]!r}" if bad else None
    return "expected exactly one of 'nodes' or 'antennas'"


def reference_layer(obj, index: int) -> LayerSpec:
    """One layer, checked against the document rules here; relaydof's
    ``LayerSpec`` only holds it, so its refusal of a layer that keeps the
    rules is a fault, not a ``ValueError`` for ``main`` to turn into exit 2."""
    if not isinstance(obj, dict):
        raise TopologyError(f"layer {index}: expected an object, got {type(obj).__name__}")
    rule = _layer_rule(obj)
    if rule is not None:
        raise TopologyError(f"layer {index}: {rule}")
    try:
        if "nodes" in obj:
            return LayerSpec(nodes=INF if obj["nodes"] == "inf" else obj["nodes"])
        return LayerSpec(antennas=tuple(obj["antennas"]))
    except TopologyError as exc:
        raise RuntimeError(f"LayerSpec refused layer {index}, {obj!r}") from exc


def reference_topology(obj) -> NetworkTopology:
    """A topology document, read one layer at a time."""
    if not isinstance(obj, dict) or "layers" not in obj:
        raise TopologyError("topology document must be an object with a 'layers' list")
    layers = obj["layers"]
    if not isinstance(layers, list):
        raise TopologyError("'layers' must be a list")
    if len(layers) < 2:
        raise TopologyError("topology needs at least 2 layers")
    return NetworkTopology(tuple(reference_layer(layer, k) for k, layer in enumerate(layers)))


def reference_demand(obj) -> dict:
    """A valid demand document as {(dst, src): dof}, 0-based, zeros left out."""
    entries = {(e["dst"] - 1, e["src"] - 1): reference_exact(str(e["dof"])) for e in obj["demands"]}
    return {key: v for key, v in entries.items() if v}


def reference_family_document(obj) -> SimpleNamespace:
    """A valid family document, with the fields of ``FamilySpec``."""
    pinned = obj.get("pinned")
    return SimpleNamespace(
        kind=obj["kind"],
        base=tuple(reference_exact(str(b)) for b in obj["base"]) if "base" in obj else None,
        pinned=tuple((int(k), v) for k, v in pinned.items()) if pinned else None,
        topology=reference_topology(obj["topology"]) if "topology" in obj else None,
    )


def _profile(layer) -> tuple:
    """Per-node antenna counts of a finite layer."""
    return layer.antennas or (1,) * layer.nodes


def _size(layer):
    """A layer's size: its antenna total, or its node count (INF if unbounded)."""
    return sum(layer.antennas) if layer.antennas else layer.nodes


def _nodes(layer):
    """A finite layer's node count."""
    return len(layer.antennas) if layer.antennas else layer.nodes


def effective_sizes(t: NetworkTopology) -> list:
    return [_size(layer) for layer in t.layers]


def _node_map(layer) -> list[int]:
    """The physical node of each virtual (single-antenna) node of a finite layer."""
    return [node for node, count in enumerate(_profile(layer)) for _ in range(count)]


# -- the closed forms ------------------------------------------------------------


def hop_sums(m, n) -> tuple[Fraction, Fraction]:
    """(1/alpha, 1/beta) of one hop: 1/m + 1/n - 1/(mn) and 1/min(m, n); one
    unbounded end leaves 1/(the other end) in both, two leave 0."""
    if m is INF or n is INF:
        inverse = Fraction(0) if m is n else Fraction(1, n if m is INF else m)
        return inverse, inverse
    return Fraction(m + n - 1, m * n), Fraction(1, min(m, n))


def reciprocal_sums(sizes) -> tuple[Fraction, Fraction]:
    """(sum of 1/alpha, sum of 1/beta) over the hops: they add like series
    capacitors; equal hops are added once, times their count."""
    alpha = beta = Fraction(0)
    for (m, n), count in Counter(zip(sizes, sizes[1:])).items():
        a, b = hop_sums(m, n)
        alpha, beta = alpha + a * count, beta + b * count
    return alpha, beta


def harmonic(inverse: Fraction):
    return INF if inverse == 0 else 1 / inverse


def sum_dofs(sizes) -> tuple:
    """(achievable, cut-set) sum DoF of a chain."""
    return tuple(map(harmonic, reciprocal_sums(sizes)))


def bounding_hops(sizes) -> list[int]:
    """The hops whose smaller end exceeds 1: only these carry gap."""
    return [k for k in range(len(sizes) - 1) if min(sizes[k], sizes[k + 1]) > 1]


def report(sizes) -> dict:
    """``analyze``'s fields by their definitions, over effective sizes."""
    if all(s is INF for s in sizes):
        raise ValueError("all layers infinite")
    hops = list(zip(sizes, sizes[1:]))
    alpha, beta = sum_dofs(sizes)
    finite_ends = INF not in (sizes[0], sizes[-1])
    ends = sizes[0] + sizes[-1] if finite_ends else None
    return {
        "achievable": alpha,
        "achievable_per_hop": tuple(harmonic(hop_sums(m, n)[0]) for m, n in hops),
        "cutset": beta,
        "cutset_per_hop": tuple(harmonic(hop_sums(m, n)[1]) for m, n in hops),
        "inverse_gap": sum((Fraction(min(m, n) - 1, m * n) for m, n in hops if INF not in (m, n)), Fraction()),
        "absolute_gap": beta - alpha,
        "fractional_gap_bound": beta * (1 / alpha - 1 / beta),
        "bounding_set": frozenset(bounding_hops(sizes)),
        "optimal": all(1 in hop or INF in hop for hop in hops),
        "ultimate_capacity": Fraction(sizes[0] * sizes[-1], ends) if finite_ends else None,
        "relay_loss_factor": 1 - Fraction(1, ends) if finite_ends else None,
    }


def gap_bounds(sizes) -> tuple[Fraction, Fraction]:
    """``inverse_gap``'s bounds: the sum of 1/max(m, n) over the hops whose
    smaller end exceeds 1, and their count over the smallest finite
    transmitter among them (0 when there is none)."""
    hops = [(sizes[k], sizes[k + 1]) for k in bounding_hops(sizes)]
    bound1 = sum((Fraction(1, max(hop)) for hop in hops if INF not in hop), Fraction(0))
    finite = [m for m, _ in hops if m is not INF]
    return bound1, Fraction(len(hops), min(finite)) if finite else Fraction(0)


# -- the region ---------------------------------------------------------------------


def constraints(t: NetworkTopology, entries) -> list[tuple[str, Fraction, Fraction]]:
    """(name, demand, share of alpha) of the total and of every source and
    destination with demand, in report order; a demand that does not fit
    the topology raises ``DemandError``."""
    src, dst = t.layers[0], t.layers[-1]
    if INF in (src.nodes, dst.nodes):
        raise DemandError("demands need finite endpoints")
    rows, cols = {}, {}
    for (j, i), v in entries.items():
        if not (0 <= j < _nodes(dst) and 0 <= i < _nodes(src) and v >= 0):
            raise DemandError(f"demand (dst {j + 1}, src {i + 1}) does not fit")
        rows[i], cols[j] = rows.get(i, 0) + v, cols.get(j, 0) + v
    alpha = 1 / reciprocal_sums(effective_sizes(t))[0]
    found = [("total", sum(entries.values(), Fraction(0)), alpha)]
    for prefix, layer, sums in (("src", src, rows), ("dst", dst, cols)):
        for k in sorted(sums):
            share = Fraction(layer.antennas[k] if layer.antennas else 1, _size(layer))
            found.append((f"{prefix}:{k + 1}", sums[k], alpha * share))
    return found


def verdict(t: NetworkTopology, entries) -> RegionVerdict:
    found = constraints(t, entries)
    violations = tuple(Violation(name, lhs, rhs) for name, lhs, rhs in found if lhs > rhs)
    return RegionVerdict(not violations, violations, tuple(name for name, lhs, rhs in found if lhs == rhs))


def t_star(t: NetworkTopology, entries) -> Fraction:
    """The largest factor that keeps a demand pattern inside the region."""
    return min(rhs / lhs for _, lhs, rhs in constraints(t, entries) if lhs)


# -- families -------------------------------------------------------------------------

SAMPLE_GRID = tuple(16 * 2**i for i in range(9))
CLASSES = (("Linear", 1.0), ("Constant", 0.0), ("Inverse", -1.0))


def _round_half_up(q: Fraction) -> int:
    return math.floor(q + Fraction(1, 2))


def reference_family(f, n) -> tuple[NetworkTopology, Fraction]:
    """The family at parameter n, built layer by layer, and its sum DoF."""
    if n < 1:
        raise FamilyError(f"family parameter must be positive, got {n}")
    if f.kind == "AntennaScaled":
        layers = _scaled(f.topology, n).layers
    elif f.kind == "FixedSizesGrowingK":
        size = int(f.base[0])
        layers = [LayerSpec(nodes=size)] * _round_half_up(Fraction(n, size))
        if len(layers) < 2:
            raise FamilyError(f"degenerate instantiation at n={n}: fewer than 2 layers")
    else:
        pinned = dict(f.pinned or ())
        budget = max(0, n - sum(pinned.values()))
        growth = sum(b for k, b in enumerate(f.base) if k not in pinned)
        sizes = [pinned.get(k) or max(1, _round_half_up(b * budget / growth)) for k, b in enumerate(f.base)]
        specs = {s: LayerSpec(nodes=s) for s in sizes}
        layers = [specs[s] for s in sizes]
    topology = NetworkTopology(tuple(layers))
    return topology, 1 / reciprocal_sums(effective_sizes(topology))[0]


def _scaled(t: NetworkTopology, s: int) -> NetworkTopology:
    """The topology with every node's antenna count multiplied by s."""
    return NetworkTopology(tuple(LayerSpec(antennas=tuple(a * s for a in _profile(x))) for x in t.layers))


def antenna_scale(t: NetworkTopology, s) -> tuple[Fraction, Fraction, Fraction]:
    """The sum DoF before and after multiplying every antenna count by s, and
    their ratio, through the scaled topology."""
    if isinstance(s, bool) or not isinstance(s, int) or s < 1:
        raise TopologyError(f"antenna scale factor must be a positive integer, got {s!r}")
    for k, layer in enumerate(t.layers):
        if layer.nodes is INF:
            raise TopologyError(f"layer {k}: cannot antenna-scale an infinite layer")
    base, scaled = (1 / reciprocal_sums(effective_sizes(x))[0] for x in (t, _scaled(t, s)))
    return base, scaled, scaled / base


def exact_limit(f) -> tuple[int, Fraction]:
    """(p, c): alpha(n) / n**p tends to c, exactly, with 0 < c < inf.

    With a fixed hop count and every layer growing like b_k * n / G, the hops
    add reciprocals (b_k + b_k+1) / (b_k * b_k+1) * G / n, so p = 1.  A pinned
    layer keeps its hops bounded while the others grow without bound, so
    p = 0 and c is the harmonic combination with the unpinned layers
    unbounded.  A fixed size s over about n/s layers gives p = -1 and
    c = s**3 / (2s - 1).
    """
    if f.kind == "FixedSizesGrowingK":
        s = f.base[0]
        return -1, s**3 / (2 * s - 1)
    if f.kind == "PinnedLayerFixedK":
        pinned = dict(f.pinned)
        return 0, 1 / reciprocal_sums([pinned.get(k, INF) for k in range(len(f.base))])[0]
    if f.kind == "AntennaScaled":
        profile, total = [Fraction(s) for s in effective_sizes(f.topology)], 1
    else:
        profile, total = f.base, sum(f.base)
    return 1, 1 / (total * sum((a + b) / (a * b) for a, b in zip(profile, profile[1:])))


def classify(f) -> tuple[str | None, float, list]:
    """(class or None, least-squares slope of log alpha against log n, samples)."""
    samples = [(n, reference_family(f, n)[1]) for n in SAMPLE_GRID]
    xs = [math.log(n) for n, _ in samples]
    ys = [math.log(float(alpha)) for _, alpha in samples]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / spread
    return next((name for name, target in CLASSES if abs(slope - target) <= 0.15), None), slope, samples


# -- the schedule and its plan --------------------------------------------------------


def phases(sizes) -> tuple[tuple[PhasePlan, ...], int]:
    """The phases by the recurrence, and the bits B every hop carries: relays
    forward what they decoded, T_k * S_{k+1} / P_k = T_{k-1} * S_{k-1} / P_{k-1}
    with P_k = S_k + S_{k+1} - 1, and T_0 is the smallest that makes every
    per-pair bit count T_k / P_k whole."""
    pairs = [m + n - 1 for m, n in zip(sizes, sizes[1:])]
    ratios = [Fraction(1)]
    for k in range(1, len(pairs)):
        ratios.append(ratios[-1] * Fraction(sizes[k - 1] * pairs[k], pairs[k - 1] * sizes[k + 1]))
    t0 = math.lcm(*((r / p).denominator for r, p in zip(ratios, pairs)))
    blocks = [int(t0 * r) for r in ratios]
    found = tuple(
        PhasePlan(k, sizes[k], sizes[k + 1], block, Fraction(1, p), Fraction(block, p))
        for k, (block, p) in enumerate(zip(blocks, pairs))
    )
    return found, sizes[0] * sizes[1] * t0 // pairs[0]


def schedule(t: NetworkTopology, entries=None) -> Schedule:
    """The canonical schedule of ``phases``.  ``entries`` is a feasible
    physical demand, spread evenly over the endpoints' antennas, or None for
    the uniform boundary demand."""
    sizes = effective_sizes(t)
    if INF in sizes or len(sizes) < 3:
        raise TopologyError("schedules need finite layers and a relay layer")
    found, total_bits = phases(sizes)
    delay = sum(p.block_length for p in found)
    if entries is None:
        share = Fraction(total_bits, delay * sizes[0] * sizes[-1])
        virtual = {(j, i): share for j in range(sizes[-1]) for i in range(sizes[0])}
    else:
        if not verdict(t, entries).feasible:
            raise DemandError("demand is outside the achievable region")
        if not entries:
            raise DemandError("cannot build a split plan for a zero demand")
        virtual = virtual_demand(t, entries)
    plan = split_plan(sizes, virtual, total_bits, delay)
    return Schedule(found, delay, total_bits, Fraction(total_bits, delay), plan)


def virtual_demand(t: NetworkTopology, entries) -> dict:
    """A physical demand spread evenly over its endpoints' antennas."""
    src, dst = _node_map(t.layers[0]), _node_map(t.layers[-1])
    return {
        (jv, iv): entries[j, i] / (src.count(i) * dst.count(j))
        for jv, j in enumerate(dst) for iv, i in enumerate(src) if (j, i) in entries
    }


def split_plan(sizes, entries, total_bits: int, delay: int) -> SplitPlan:
    """The plan of a virtual demand: each entry carries dof * delay bits, and
    padding fills every source and destination to its 1/S share of the bits.
    Each per-node count is stored as a whole number of 1/unit bits, with unit
    the LCM of the demand's denominators times S_0 * S_L."""
    unit = math.lcm(*(v.denominator for v in entries.values())) * sizes[0] * sizes[-1]

    def count(bits: Fraction) -> int:
        if (bits * unit).denominator != 1:
            raise ValueError(f"{bits} bits is not a whole number of 1/{unit} bits")
        return int(bits * unit)

    rows, cols, received, sources = {}, {}, {}, []
    for (j, i), v in sorted(entries.items()):
        sources.append((j, i, count(v * delay)))
        rows[i], cols[j] = rows.get(i, 0) + v, cols.get(j, 0) + v
        if 0 <= i < sizes[0]:
            received.setdefault(j, []).append((i, count(v * delay)))
    paddings = [(i, Fraction(total_bits, sizes[0]) - rows.get(i, 0) * delay) for i in range(sizes[0])]
    sinks = [
        (j, tuple(received.get(j, ())), count(Fraction(total_bits, sizes[-1]) - cols.get(j, 0) * delay))
        for j in range(sizes[-1])
    ]
    return SplitPlan(
        sizes=tuple(sizes),
        demand=DemandMatrix(entries),
        per_pair=tuple(Fraction(total_bits, m * n) for m, n in zip(sizes, sizes[1:])),
        unit=unit,
        sources=tuple(sources),
        paddings=tuple((i, count(bits)) for i, bits in paddings if bits > 0),
        sinks=tuple(sinks),
        total_bits=total_bits,
        padding_bits=total_bits - sum(rows.values(), Fraction(0)) * delay,
        bits_per_dof=Fraction(delay),
    )


def records(plan) -> SimpleNamespace:
    """The plan's per-node rows as records of bits, one ``Fraction`` per
    count: ``sources`` with (dst, src, bits), ``paddings`` with (src, bits)
    and ``sinks`` with (dst, received, padding_bits), ``received`` a tuple of
    (src, bits) pairs."""
    bits = lambda count: Fraction(count, plan.unit)
    return SimpleNamespace(
        sources=[SimpleNamespace(dst=j, src=i, bits=bits(c)) for j, i, c in plan.sources],
        paddings=[SimpleNamespace(src=i, bits=bits(c)) for i, c in plan.paddings],
        sinks=[
            SimpleNamespace(dst=j, received=tuple((i, bits(c)) for i, c in received), padding_bits=bits(p))
            for j, received, p in plan.sinks
        ],
    )


def msg_id(dst, src):
    return f"msg[{dst + 1},{src + 1}]"


def pad_id(src):
    return f"pad[{src + 1}]"


def phase_id(phase, tx, rx):
    return f"ph{phase}[{tx + 1}->{rx + 1}]"


def sink_id(dst):
    return f"dst[{dst + 1}]"


def sink_bits(sink) -> Fraction:
    return sum((b for _, b in sink.received), Fraction(0)) + sink.padding_bits


def transfer_rows(plan):
    """(phase, tx, rx, bits) of every phase message, phase by phase."""
    sizes = plan.sizes
    return [(k, tx, rx, bits) for k, bits in enumerate(plan.per_pair)
            for tx in range(sizes[k]) for rx in range(sizes[k + 1])]


def edge_rows(plan):
    """(head, tail, bits) of every split edge: each source message and padding
    splits evenly over the first relay layer, each relay merges its column of
    the phase before and re-splits it evenly over its row of the next, and
    each destination collects its column of the last phase."""
    sizes, plan_records = plan.sizes, records(plan)
    heads = [(msg_id(m.dst, m.src), m.src, m.bits / sizes[1]) for m in plan_records.sources]
    heads += [(pad_id(p.src), p.src, p.bits / sizes[1]) for p in plan_records.paddings]
    rows = [(head, phase_id(0, src, rx), share) for head, src, share in heads for rx in range(sizes[1])]
    for k in range(1, len(sizes) - 1):
        share = plan.per_pair[k] / sizes[k - 1]
        rows += [(phase_id(k - 1, tx, n), phase_id(k, n, rx), share)
                 for n in range(sizes[k]) for tx in range(sizes[k - 1]) for rx in range(sizes[k + 1])]
    last = len(sizes) - 2
    return rows + [(phase_id(last, tx, j), sink_id(j), plan.per_pair[-1])
                   for j in range(sizes[-1]) for tx in range(sizes[-2])]


def conservation(plan, edges=None, transfers=None) -> tuple[list, list, list]:
    """Bit conservation by summing every edge into its endpoints: the
    unbalanced node ids (a destination named by other than one sink among
    them), relay (layer, node) pairs and phases.  ``edges``
    and ``transfers`` are rows as ``edge_rows`` and ``transfer_rows`` give them."""
    edges = edge_rows(plan) if edges is None else edges
    transfers = transfer_rows(plan) if transfers is None else transfers
    hops, plan_records = len(plan.sizes) - 1, records(plan)
    inbound, outbound = {}, {}
    for head, tail, bits in edges:
        outbound[head] = outbound.get(head, 0) + bits
        inbound[tail] = inbound.get(tail, 0) + bits
    bad_nodes = [msg_id(m.dst, m.src) for m in plan_records.sources if outbound.get(msg_id(m.dst, m.src), 0) != m.bits]
    bad_nodes += [pad_id(p.src) for p in plan_records.paddings if outbound.get(pad_id(p.src), 0) != p.bits]
    relays, phases = {}, {}
    for k, tx, rx, bits in transfers:
        node = phase_id(k, tx, rx)
        bad_nodes += [node] * ((inbound.get(node, 0) != bits) + (outbound.get(node, 0) != bits))
        if k >= 1:
            relays.setdefault((k, tx), [0, 0])[1] += bits
        if k <= hops - 2:
            relays.setdefault((k + 1, rx), [0, 0])[0] += bits
        phases[k] = phases.get(k, 0) + bits
    bad_nodes += [sink_id(s.dst) for s in plan_records.sinks if inbound.get(sink_id(s.dst), 0) != sink_bits(s)]
    # each destination is one sink, and no other index is one
    named, last = Counter(s.dst for s in plan_records.sinks), plan.sizes[-1]
    bad_nodes += [sink_id(j) for j in sorted({*named, *range(last)}) if named[j] != (0 <= j < last)]
    bad_relays = [key for key, (got, sent) in relays.items() if got != sent]
    return bad_nodes, bad_relays, [k for k, total in phases.items() if total != plan.total_bits]


def _sizes(s) -> list:
    return [p.tx_count for p in s.phases] + [s.phases[-1].rx_count]


def phase_recurrence(s) -> CheckResult:
    """Check (1) of ``verify_schedule``: each relay forwards what it decoded,
    and each phase's own fields."""
    sizes, bad_hops, bad_fields = _sizes(s), [], []
    for k, p in enumerate(s.phases):
        pairs = sizes[k] + sizes[k + 1] - 1
        if k and decoded != Fraction(p.block_length * sizes[k + 1], pairs):
            bad_hops.append(k)
        decoded = Fraction(p.block_length * sizes[k], pairs)
        fields = (p.hop, p.rx_count, p.per_pair_dof, p.per_pair_bits)
        if fields != (k, sizes[k + 1], Fraction(1, pairs), Fraction(p.block_length, pairs)):
            bad_fields.append(k)
    parts = [f"forwarding mismatch at hop(s) {bad_hops}"] if bad_hops else []
    parts += [f"phase fields off at hop(s) {bad_fields}"] if bad_fields else []
    return CheckResult("phase-recurrence", not parts, "; ".join(parts))


def sum_dof_check(s) -> CheckResult:
    """Check (3) of ``verify_schedule``: the rate is the achievable sum DoF
    and the schedule's bits over its delay."""
    alpha = 1 / reciprocal_sums(_sizes(s))[0]
    ok = s.sum_dof == alpha and s.sum_dof * s.total_delay == s.total_bits
    ok = ok and s.total_delay == sum(p.block_length for p in s.phases)
    return CheckResult("sum-dof", ok, "" if ok else f"sum_dof {s.sum_dof} vs achievable {alpha}")


def demand_shares(s) -> CheckResult:
    """Check (4) of ``verify_schedule``: sources and destination bins match the demand."""
    sizes, plan = _sizes(s), s.split_plan
    per_dof, entries, plan_records = plan.bits_per_dof, plan.demand.entries, records(plan)
    wanted = {key: v * per_dof for key, v in entries.items()}
    expected, cols = {}, {}
    for (j, i), v in entries.items():
        cols[j] = cols.get(j, 0) + v
        if 0 <= i < sizes[0]:
            expected.setdefault(j, {})[i] = wanted[j, i]
    problems = []
    for sink in plan_records.sinks:
        if dict(sink.received) != expected.get(sink.dst, {}):
            problems.append(f"dst {sink.dst + 1} reassembly")
        if sink.padding_bits != Fraction(plan.total_bits, sizes[-1]) - cols.get(sink.dst, 0) * per_dof:
            problems.append(f"dst {sink.dst + 1} padding")
    problems += [
        f"message {msg_id(m.dst, m.src)}" for m in plan_records.sources if m.bits != wanted.get((m.dst, m.src), 0)
    ]
    if plan.padding_bits != plan.total_bits - sum(cols.values(), Fraction(0)) * per_dof:
        problems.append("total padding")
    return CheckResult("demand-shares", not problems, "; ".join(problems[:4]))


# -- writers -----------------------------------------------------------------------


def text(value) -> str:
    return "inf" if value is INF else str(value)


def _cell(value, decimal: bool) -> str:
    if value is None:
        return "-"
    if decimal:
        return "inf" if value is INF else f"{float(value):.6g}"
    return text(value)


def _table(rows) -> str:
    rows = list(rows)
    width = max(len(name) for name, _ in rows)
    return "".join(f"{name.ljust(width)}  {value}\n" for name, value in rows)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _layer_obj(layer) -> dict:
    if layer.antennas:
        return {"antennas": list(layer.antennas)}
    return {"nodes": "inf" if layer.nodes is INF else layer.nodes}


def topology_obj(t: NetworkTopology) -> dict:
    return {"layers": [_layer_obj(layer) for layer in t.layers]}


def plan_obj(plan) -> dict:
    plan_records = records(plan)
    nodes = [{"id": msg_id(m.dst, m.src), "kind": "source", "bits": str(m.bits)} for m in plan_records.sources]
    nodes += [{"id": pad_id(p.src), "kind": "padding", "bits": str(p.bits)} for p in plan_records.paddings]
    nodes += [{"id": phase_id(k, tx, rx), "kind": "transfer", "phase": k, "bits": str(b)}
              for k, tx, rx, b in transfer_rows(plan)]
    for sink in plan_records.sinks:
        received = [{"src": i + 1, "bits": str(b)} for i, b in sink.received]
        nodes.append({"id": sink_id(sink.dst), "kind": "destination", "bits": str(sink_bits(sink)),
                      "received": received, "padding_bits": str(sink.padding_bits)})
    demands = [{"dst": j + 1, "src": i + 1, "dof": str(v)} for (j, i), v in sorted(plan.demand.entries.items())]
    return {
        "demand": {"demands": demands},
        "total_bits": plan.total_bits,
        "padding_bits": str(plan.padding_bits),
        "bits_per_dof": str(plan.bits_per_dof),
        "padding_policy": "uniform-fill",
        "nodes": nodes,
        "edges": [{"from": h, "to": t, "bits": str(b)} for h, t, b in edge_rows(plan)],
    }


def plan_dot(plan) -> str:
    def node(name, bits, style=""):
        return f'  "{name}" [{style}label="{name}\\n{bits} bits"];'

    lines, plan_records = ["digraph split_plan {", "  rankdir=LR;"], records(plan)
    lines += [node(msg_id(m.dst, m.src), m.bits, "shape=box, ") for m in plan_records.sources]
    lines += [node(pad_id(p.src), p.bits, "shape=box, style=dashed, ") for p in plan_records.paddings]
    lines += [node(phase_id(k, tx, rx), bits) for k, tx, rx, bits in transfer_rows(plan)]
    lines += [node(sink_id(s.dst), sink_bits(s), "shape=doublecircle, ") for s in plan_records.sinks]
    lines += [f'  "{h}" -> "{t}" [label="{b}"];' for h, t, b in edge_rows(plan)]
    return "\n".join(lines + ["}"])


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.read())


LABELS = (
    "achievable sum DoF", "achievable per hop", "cut-set bound", "cut-set per hop", "inverse gap", "absolute gap",
    "fractional gap bound", "bounding hops", "optimal", "ultimate capacity", "relay loss factor",
)


def _written(value, cell):
    """A report field as the writers take it: a value as ``cell`` writes it, a
    sequence as a list of those, hop indices sorted, a boolean as it is."""
    if isinstance(value, tuple):
        return [cell(x) for x in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value if isinstance(value, bool) else cell(value)


def _analyze(path, format="table", decimal=False):
    t = reference_topology(_read(path))
    sizes = effective_sizes(t)
    fields = report(sizes)
    if format == "json":
        exact = {name: _written(value, text) for name, value in fields.items() if value is not None}
        return 0, _json({"topology": topology_obj(t), **exact})
    values = [_written(value, lambda x: _cell(x, decimal)) for value in fields.values()]
    if format == "csv":
        row = [" ".join(map(text, sizes))] + [" ".join(map(str, v)) if isinstance(v, list) else v for v in values]
        out = io.StringIO()
        csv.writer(out).writerows([["sizes", *fields], row])
        return 0, out.getvalue()
    for k, value in enumerate(values):
        if isinstance(value, bool):
            values[k] = "yes" if value else "no"
        elif isinstance(value, list):
            values[k] = ", ".join(map(str, value)) or "-"
    return 0, _table(zip(LABELS, values))


def _check(topology_path, demand_path, format="json", decimal=False):
    t = reference_topology(_read(topology_path))
    v = verdict(t, reference_demand(_read(demand_path)))
    if format == "table":
        rows = [("feasible", "yes" if v.feasible else "no")]
        rows += [(f"violated {x.constraint}", f"{_cell(x.lhs, decimal)} > {_cell(x.rhs, decimal)}")
                 for x in v.violations]
        out = _table(rows + [("binding", ", ".join(v.binding) or "-")])
    else:
        violations = [{"constraint": x.constraint, "lhs": str(x.lhs), "rhs": str(x.rhs)} for x in v.violations]
        out = _json({"feasible": v.feasible, "violations": violations, "binding": list(v.binding)})
    return int(not v.feasible), out


def _schedule(path, demand=None, format="json"):
    t = reference_topology(_read(path))
    s = schedule(t, None if demand is None else reference_demand(_read(demand)))
    if format == "dot":
        return 0, plan_dot(s.split_plan) + "\n"
    phases = [
        {"hop": p.hop, "tx_count": p.tx_count, "rx_count": p.rx_count, "block_length": p.block_length,
         "per_pair_dof": str(p.per_pair_dof), "per_pair_bits": str(p.per_pair_bits)}
        for p in s.phases
    ]
    plan = plan_obj(s.split_plan)
    for name, layer in (("source_node_map", t.layers[0]), ("destination_node_map", t.layers[-1])):
        plan[name] = [node + 1 for node in _node_map(layer)]
    checks = ["phase-recurrence", "bit-conservation", "sum-dof", "demand-shares"]
    return 0, _json({"topology": topology_obj(t), "phases": phases, "total_delay": s.total_delay,
                     "total_bits": s.total_bits, "sum_dof": str(s.sum_dof), "split_plan": plan, "verified": checks})


def _classify(path, out=None):
    name, slope, samples = classify(reference_family_document(_read(path)))
    if out is not None:
        with open(out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "alpha_num", "alpha_den", "log_n", "log_alpha"])
            for n, alpha in samples:
                logs = f"{math.log(n):.12g}", f"{math.log(float(alpha)):.12g}"
                writer.writerow([n, alpha.numerator, alpha.denominator, *logs])
    return int(name is None), f"{name or 'Unclassified'} (slope≈{slope:.1f})\n"


COMMANDS = {"analyze": _analyze, "check": _check, "schedule": _schedule, "classify": _classify, "sweep": _classify}


def main(argv) -> tuple[int, str]:
    """(exit code, stdout) of ``relaydof <argv>`` for a well-formed argv:
    exit 2 with no output for any document or value that the model refuses
    or cannot print."""
    command, *tokens = argv
    paths, options, tokens = [], {}, iter(tokens)
    for token in tokens:
        if token == "--decimal":
            options["decimal"] = True
        elif token.startswith("--"):
            options[token[2:]] = next(tokens)
        else:
            paths.append(token)
    try:
        return COMMANDS[command](*paths, **options)
    except (ValueError, ArithmeticError):
        return 2, ""
