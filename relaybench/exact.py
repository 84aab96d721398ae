"""Independent exact routes that relaydof's outputs are checked against.

Nothing here imports relaydof.  The closed forms are computed in one pass
over the distinct hops of a chain, a different route from the package's
per-hop ``ExtRational`` accumulation, and the schedule checks re-parse the
text that was actually written (JSON or DOT) instead of trusting the
in-memory plan.  Every function returns an error string, or ``None`` when
the output is right.

Sizes are effective (antenna-summed) layer sizes: positive ints, or the
string ``"inf"`` for an unbounded layer.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from fractions import Fraction

INF = "inf"

# what a check raises on output it cannot read; the operation then fails
UNREADABLE = (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError)

CLASS_OF_KIND = {
    "ProportionalFixedK": "Linear",
    "PinnedLayerFixedK": "Constant",
    "FixedSizesGrowingK": "Inverse",
}


# -- closed forms ----------------------------------------------------------------


def _hop_inverses(m, n) -> tuple[Fraction, Fraction]:
    """(1/alpha_k, 1/beta_k) for one hop; an unbounded hop value has inverse 0."""
    if m == INF and n == INF:
        return Fraction(0), Fraction(0)
    if m == INF or n == INF:
        finite = n if m == INF else m
        return Fraction(1, finite), Fraction(1, finite)
    return Fraction(m + n - 1, m * n), Fraction(1, min(m, n))


def chain_inverses(sizes) -> tuple[Fraction, Fraction]:
    """(sum of 1/alpha_k, sum of 1/beta_k) over the chain's hops."""
    inv_a = inv_b = Fraction(0)
    for (m, n), count in Counter(zip(sizes[:-1], sizes[1:])).items():
        a, b = _hop_inverses(m, n)
        inv_a += count * a
        inv_b += count * b
    return inv_a, inv_b


def ext_str(inverse: Fraction) -> str:
    """How relaydof prints the value whose reciprocal is ``inverse``."""
    return INF if inverse == 0 else str(1 / inverse)


def alpha(sizes) -> Fraction:
    """Achievable sum DoF of a chain with at least one bounded hop."""
    return 1 / chain_inverses(sizes)[0]


def decimal_str(value: str) -> str:
    """The ``--decimal`` rendering of an exact ``p/q`` or ``inf`` string."""
    f = float(Fraction(value)) if value != INF else math.inf
    return INF if f == math.inf else f"{f:.6g}"


# -- the demand region ---------------------------------------------------------


def region(sizes, src_antennas, dst_antennas, entries: dict) -> list:
    """(name, lhs, rhs) for every region constraint.

    ``entries`` maps 0-based physical (dst, src) pairs to Fractions.
    """
    a = alpha(sizes)
    src_total, dst_total = sum(src_antennas), sum(dst_antennas)
    rows = Counter()
    cols = Counter()
    for (j, i), v in entries.items():
        rows[i] += v
        cols[j] += v
    out = [("total", sum(entries.values(), Fraction(0)), a)]
    out += [(f"src:{i + 1}", rows[i], a * Fraction(x, src_total)) for i, x in enumerate(src_antennas)]
    out += [(f"dst:{j + 1}", cols[j], a * Fraction(x, dst_total)) for j, x in enumerate(dst_antennas)]
    return out


def verdict(constraints) -> tuple[bool, list, list]:
    """(feasible, violated names, binding names), boundary feasible."""
    violated = [name for name, lhs, rhs in constraints if lhs > rhs]
    binding = [name for name, lhs, rhs in constraints if lhs == rhs]
    return not violated, violated, binding


def t_star(constraints) -> Fraction:
    """Largest t with t * pattern inside the region."""
    return min(rhs / lhs for _, lhs, rhs in constraints if lhs)


def scaled(entries: dict, factor: Fraction) -> dict:
    return {key: v * factor for key, v in entries.items()}


def check_scale(sizes, src_antennas, dst_antennas, entries, t_reported: str) -> str | None:
    """t* must match, t* * pattern be feasible and binding, and above t* infeasible."""
    t = Fraction(t_reported)
    if t != t_star(region(sizes, src_antennas, dst_antennas, entries)):
        return f"t* {t_reported} differs from the independent route"
    ok, _, binding = verdict(region(sizes, src_antennas, dst_antennas, scaled(entries, t)))
    if not ok or not binding:
        return f"pattern at t*={t} is not a binding feasible point"
    above = scaled(entries, t * Fraction(1001, 1000))
    if verdict(region(sizes, src_antennas, dst_antennas, above))[0]:
        return f"pattern slightly above t*={t} is still feasible"
    return None


def check_verdict(constraints, feasible: bool, violated, binding) -> str | None:
    want = verdict(constraints)
    got = (feasible, sorted(violated), sorted(binding))
    if got != (want[0], sorted(want[1]), sorted(want[2])):
        return f"region verdict {got} differs from the independent route {want}"
    return None


# -- analyze -------------------------------------------------------------------


def check_report(sizes, achievable: str, cutset: str, inverse_gap: str, optimal: bool) -> str | None:
    """Closed forms, the gap identity 1/alpha - 1/beta == inverse_gap, and
    optimal <=> alpha == beta."""
    inv_a, inv_b = chain_inverses(sizes)
    if achievable != ext_str(inv_a) or cutset != ext_str(inv_b):
        return f"bounds {achievable}, {cutset} differ from the closed forms"
    if Fraction(inverse_gap) != inv_a - inv_b:
        return f"gap identity fails: 1/alpha - 1/beta != {inverse_gap}"
    if optimal != (inv_a == inv_b):
        return f"optimal={optimal} but alpha {'==' if inv_a == inv_b else '!='} beta"
    return None


def check_analyze_output(sizes, fmt: str, decimal: bool, text: str) -> str | None:
    inv_a, inv_b = chain_inverses(sizes)
    want = {
        "achievable": ext_str(inv_a),
        "cutset": ext_str(inv_b),
        "inverse_gap": str(inv_a - inv_b),
    }
    optimal = inv_a == inv_b
    if fmt == "json":
        obj = json.loads(text)
        if len(obj["topology"]["layers"]) != len(sizes):
            return "echoed topology has the wrong number of layers"
        return check_report(sizes, obj["achievable"], obj["cutset"], obj["inverse_gap"], obj["optimal"])
    if decimal:
        want = {k: decimal_str(v) for k, v in want.items()}
    if fmt == "csv":
        header, row = list(csv.reader(io.StringIO(text)))
        got = dict(zip(header, row))
        got_optimal = got["optimal"] == "True"
    else:
        rows = dict(re.split(r"\s{2,}", line.strip(), maxsplit=1) for line in text.splitlines())
        got = {
            "achievable": rows["achievable sum DoF"],
            "cutset": rows["cut-set bound"],
            "inverse_gap": rows["inverse gap"],
        }
        got_optimal = rows["optimal"] == "yes"
    for key, value in want.items():
        if got[key] != value:
            return f"{fmt} {key} {got[key]} != {value}"
    if got_optimal != optimal:
        return f"{fmt} optimal={got_optimal} but alpha {'==' if optimal else '!='} beta"
    return None


# -- schedules -----------------------------------------------------------------


def _conservation(nodes: dict, edges) -> str | None:
    """Per-node bit conservation of a split plan given as text-parsed values.

    ``nodes`` maps id -> bits; ``edges`` is an iterable of (from, to, bits).
    Sources and padding send their bits, every phase message receives and
    forwards its bits, every destination receives its bits, and each phase
    carries the plan's total.
    """
    inbound = Counter()
    outbound = Counter()
    for head, tail, bits in edges:
        if head not in nodes or tail not in nodes:
            return f"edge {head} -> {tail} names an unknown node"
        outbound[head] += bits
        inbound[tail] += bits
    total = 0
    phases = Counter()
    for node, bits in nodes.items():
        if node.startswith(("msg[", "pad[")):
            total += bits
            ok = outbound[node] == bits and not inbound[node]
        elif node.startswith("dst["):
            ok = inbound[node] == bits and not outbound[node]
        else:
            phases[node[2:node.index("[")]] += bits
            ok = inbound[node] == bits == outbound[node]
        if not ok:
            return f"node {node}: in {inbound[node]} out {outbound[node]} expected {bits}"
    uneven = [k for k, v in phases.items() if v != total]
    if uneven or not phases:
        return f"phase totals differ from the plan total {total} at phases {uneven}"
    if sum(b for n, b in nodes.items() if n.startswith("dst[")) != total:
        return "destinations do not receive the plan total"
    return None


def check_rate(sizes, sum_dof, total_bits, total_delay) -> str | None:
    """sum_dof == total_bits / total_delay == the closed-form alpha."""
    want = alpha(sizes)
    if not Fraction(sum_dof) == Fraction(total_bits, total_delay) == want:
        return f"sum_dof {sum_dof}, {total_bits}/{total_delay}, alpha {want} disagree"
    return None


def check_schedule_json(sizes, src_nodes: int, dst_nodes: int, text: str) -> str | None:
    """Re-parse the ``relaydof schedule`` JSON and re-check it."""
    obj = json.loads(text)
    plan = obj["split_plan"]
    frac = _FractionCache()
    if [p["tx_count"] for p in obj["phases"]] + [obj["phases"][-1]["rx_count"]] != list(sizes):
        return "phase sizes differ from the topology's effective sizes"
    if obj["total_delay"] != sum(p["block_length"] for p in obj["phases"]):
        return "total_delay is not the sum of the block lengths"
    error = check_rate(sizes, obj["sum_dof"], obj["total_bits"], obj["total_delay"])
    if error:
        return error
    if len(plan["source_node_map"]) != sizes[0] or len(plan["destination_node_map"]) != sizes[-1]:
        return "node maps do not cover the virtual endpoints"
    if max(plan["source_node_map"]) != src_nodes or max(plan["destination_node_map"]) != dst_nodes:
        return "node maps do not reach every physical endpoint"
    nodes = {n["id"]: frac(n["bits"]) for n in plan["nodes"]}
    if sum(b for n, b in nodes.items() if n.startswith(("msg[", "pad["))) != plan["total_bits"]:
        return "source and padding bits do not add up to total_bits"
    return _conservation(nodes, ((e["from"], e["to"], frac(e["bits"])) for e in plan["edges"]))


_DOT_NODE = re.compile(r'^  "([^"]+)" \[.*\\n(\S+) bits"\];$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[label="(\S+)"\];$')


def check_schedule_dot(text: str, total_bits: int | None = None) -> str | None:
    """Re-parse ``relaydof schedule --format dot`` output and re-check it.

    DOT does not carry the plan total; pass it when it is known.
    """
    lines = text.rstrip("\n").split("\n")
    if lines[:2] != ["digraph split_plan {", "  rankdir=LR;"] or lines[-1] != "}":
        return "DOT framing is wrong"
    frac = _FractionCache()
    nodes = {}
    edges = []
    for line in lines[2:-1]:
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((m[1], m[2], frac(m[3])))
            continue
        m = _DOT_NODE.match(line)
        if not m:
            return f"unparsable DOT line {line[:60]!r}"
        nodes[m[1]] = frac(m[2])
    if total_bits is not None and sum(b for n, b in nodes.items() if n.startswith(("msg[", "pad["))) != total_bits:
        return "DOT source and padding bits do not add up to total_bits"
    return _conservation(nodes, edges)


class _FractionCache(dict):
    """Fraction(text), memoised: most edges of a plan share a few values."""

    def __call__(self, text: str) -> Fraction:
        value = self.get(text)
        if value is None:
            value = self[text] = Fraction(text)
        return value


# -- scaling ---------------------------------------------------------------------

SAMPLE_GRID = tuple(16 * 2**i for i in range(9))
SLOPE_TOLERANCE = 0.15
CLASSES = (("Linear", 1.0), ("Constant", 0.0), ("Inverse", -1.0))


def _round_half_up(q: Fraction) -> int:
    return math.floor(q + Fraction(1, 2))


def family_sizes(family: dict, n: int) -> list[int]:
    """Layer sizes of a family document at parameter n, from the documented
    rules: proportional growth with pinned layers held, or a fixed size
    repeated over about n/size layers."""
    if family["kind"] == "FixedSizesGrowingK":
        size = family["base"][0]
        return [size] * _round_half_up(Fraction(n, size))
    base = [Fraction(b) for b in family["base"]]
    pinned = {int(k): v for k, v in family.get("pinned", {}).items()}
    budget = max(0, n - sum(pinned.values()))
    growth = sum(b for k, b in enumerate(base) if k not in pinned)
    return [pinned[k] if k in pinned else max(1, _round_half_up(b * budget / growth)) for k, b in enumerate(base)]


def expected_class(family: dict) -> str | None:
    """Class of the closed-form least-squares log-log slope over the grid;
    None when no class is within tolerance."""
    xs = [math.log(n) for n in SAMPLE_GRID]
    ys = [math.log(alpha(family_sizes(family, n))) for n in SAMPLE_GRID]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return next((name for name, target in CLASSES if abs(slope - target) <= SLOPE_TOLERANCE), None)


def check_class(family: dict, classification: str | None) -> str | None:
    """The class must be the independent route's, and one the kind allows."""
    want = expected_class(family)
    if classification != want or want not in (None, CLASS_OF_KIND[family["kind"]]):
        return f"{family} classified as {classification}, expected {want}"
    return None


def check_sweep_csv(text: str) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["n", "alpha_num", "alpha_den", "log_n", "log_alpha"]:
        return "sweep CSV header is wrong"
    if [int(r[0]) for r in rows[1:]] != list(SAMPLE_GRID):
        return "sweep CSV does not cover the sample grid"
    for n, num, den, log_n, log_alpha in rows[1:]:
        if not math.isclose(float(log_alpha), math.log(int(num) / int(den)), rel_tol=1e-9, abs_tol=1e-9):
            return f"sweep row n={n}: log_alpha disagrees with alpha"
    return None
