"""Seeded documents for the three workloads, with what each should produce.

Every document a run uses is drawn from ``random.Random`` seeded with the
workload name and the ``--seed`` value, so one seed always gives the same
documents, traced or not.  relaydof receives only the JSON text.  The
expected outcome of each document (exit code, feasibility, scaling class,
sizes for the closed forms) is derived here from the generator's own
choices and from ``exact``, never from relaydof.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

import exact

LADDER = (4, 8, 12, 16, 24, 32)  # n**4: four layers of n nodes
COPRIME = (5, 7, 11, 13, 17, 19, 23)
SMALL_CHAINS = 129  # seeded small chains per plan-ladder pass
EXACT_MAX_LAYERS = 4000
EXACT_CHAINS = 40  # chain documents per exact-core pass
FAMILY_EVERY = 11  # every 11th exact-core operation is a family document


def rng_for(workload: str, seed: int, stream: str = "timed") -> random.Random:
    return random.Random(f"relaybench:{workload}:{stream}:{seed}")


def plan_edges(sizes) -> int:
    """Edge count of a chain's uniform split plan (one message per virtual
    endpoint pair), the largest plan its sizes allow."""
    relays = sum(sizes[k - 1] * sizes[k] * sizes[k + 1] for k in range(1, len(sizes) - 1))
    return sizes[0] * sizes[-1] * sizes[1] + relays + sizes[-2] * sizes[-1]


# The schedule layer has no size budget, so no generated schedule may exceed
# the ladder's largest rung.
MAX_EDGES = plan_edges((LADDER[-1],) * 4)


def _check_bounded(sizes) -> None:
    if plan_edges(sizes) > MAX_EDGES:
        raise ValueError(f"chain {sizes} exceeds the {MAX_EDGES}-edge top of the ladder")


def timed_ops(batches, start: float, seconds: float, whole_passes: bool):
    """The operations of a run: every operation of the first pass, then more
    until ``seconds`` have passed since ``start``.

    With ``whole_passes`` the run stops at the pass boundary nearest to
    ``seconds``, so it holds the same operation mix whatever the machine's
    speed; without, it stops at the first operation that would start late
    (for a pass that is replayed, where the mix is set by the first pass).
    """
    for k, batch in enumerate(batches):
        elapsed = time.perf_counter() - start
        if k and whole_passes and elapsed + elapsed / k / 2 >= seconds:
            return  # another pass would end further past seconds than this is short of it
        for op in batch:
            if k and not whole_passes and time.perf_counter() - start >= seconds:
                return
            yield op


# -- building blocks -----------------------------------------------------------


def _log_int(rng: random.Random, low: int, high: int) -> int:
    """Log-uniform integer in [low, high]."""
    return min(high, int(math.exp(rng.uniform(math.log(low), math.log(high + 1)))))


def _composition(rng: random.Random, n: int, max_part: int) -> list[int]:
    parts = []
    while n:
        part = rng.randint(1, min(max_part, n))
        parts.append(part)
        n -= part
    return parts


def _layer(rng: random.Random, size, antenna_share: float, max_part: int) -> dict:
    if size == exact.INF:
        return {"nodes": "inf"}
    if size > 1 and rng.random() < antenna_share:
        return {"antennas": _composition(rng, size, max_part)}
    return {"nodes": size}


def _profile(layer: dict):
    """Physical antenna profile of a finite layer, None for an unbounded one."""
    if "antennas" in layer:
        return layer["antennas"]
    return None if layer["nodes"] == "inf" else [1] * layer["nodes"]


class Topology:
    """A topology document plus the facts the checks need about it."""

    def __init__(self, layers: list[dict]):
        self.layers = layers
        self.text = json.dumps({"layers": layers})
        self.sizes = [sum(_profile(x)) if _profile(x) else exact.INF for x in layers]
        self.src = _profile(layers[0])
        self.dst = _profile(layers[-1])

    @property
    def hops(self) -> int:
        return len(self.layers) - 1

    @property
    def finite_endpoints(self) -> bool:
        return self.src is not None and self.dst is not None


def _topology(rng, sizes, antenna_share: float, max_part: int) -> Topology:
    return Topology([_layer(rng, s, antenna_share, max_part) for s in sizes])


def _pattern(rng: random.Random, topo: Topology, max_entries: int) -> dict:
    """Sparse positive demand pattern over the physical endpoint nodes."""
    n_src, n_dst = len(topo.src), len(topo.dst)
    cells = rng.sample(range(n_src * n_dst), rng.randint(1, min(max_entries, n_src * n_dst)))
    return {(c // n_src, c % n_src): Fraction(rng.randint(1, 9), rng.randint(1, 9)) for c in cells}


def demand_text(entries: dict) -> str:
    return json.dumps(
        {"demands": [{"dst": j + 1, "src": i + 1, "dof": str(v)} for (j, i), v in sorted(entries.items())]}
    )


def _constraints(topo: Topology, entries: dict):
    return exact.region(topo.sizes, topo.src, topo.dst, entries)


def _feasible_demand(rng, topo: Topology, max_entries: int) -> dict:
    """A pattern scaled onto (factor 1) or inside the region boundary."""
    pattern = _pattern(rng, topo, max_entries)
    factor = exact.t_star(_constraints(topo, pattern)) * rng.choice((1, Fraction(1, 2), Fraction(3, 4)))
    return exact.scaled(pattern, factor)


def family(rng: random.Random, kind: str | None = None) -> dict:
    """One of the three canonical families (a quarter of the time) or a
    seeded variant of the same kind; the kind is seeded unless given."""
    kind = kind or rng.choice(sorted(exact.CLASS_OF_KIND))
    canonical = rng.random() < 0.25
    if kind == "ProportionalFixedK":
        base = ["1", "2", "1"] if canonical else [
            str(Fraction(rng.randint(1, 4), rng.randint(1, 4))) for _ in range(rng.randint(2, 5))
        ]
        return {"kind": kind, "base": base}
    if kind == "PinnedLayerFixedK":
        if canonical:
            return {"kind": kind, "base": [1, 1, 1], "pinned": {"1": 2}}
        length = rng.randint(3, 5)
        pinned = rng.sample(range(length), rng.randint(1, length - 1))
        return {
            "kind": kind,
            "base": [rng.randint(1, 3) for _ in range(length)],
            "pinned": {str(k): rng.randint(1, 4) for k in sorted(pinned)},
        }
    return {"kind": kind, "base": [2 if canonical else rng.randint(1, 4)]}


# -- exact-core ----------------------------------------------------------------


def _exact_chain(rng: random.Random, length: int) -> dict:
    sizes = [exact.INF if rng.random() < 0.03 else _log_int(rng, 1, 64) for _ in range(length)]
    if all(s == exact.INF for s in sizes):  # an all-unbounded chain has no finite bound
        sizes[0] = _log_int(rng, 1, 64)
    topo = _topology(rng, sizes, 0.1, 8)
    op = {"use": "analyze", "topology": topo, "hops": topo.hops}
    if topo.finite_endpoints:
        op["pattern"] = _pattern(rng, topo, 8)
        op["demand_text"] = demand_text(op["pattern"])
    return op


def exact_passes(rng: random.Random):
    """exact-core passes of fresh documents, one list per pass.

    Chain lengths are log-uniform on 2..4000 layers, drawn one per stratum
    of EXACT_CHAINS equal log-width strata so every pass has the same length
    profile.  Within a stratum, pass k puts its chain at a seeded start
    plus k times the golden ratio (mod 1), so a run's passes together cover
    each stratum evenly and the run's length profile, and with it the tail
    latency, differs little between seeds.  The family documents take the
    three kinds in turn, in a seeded order, because one kind classifies
    far slower than the others: a seeded mix of kinds would move the
    median latency from seed to seed.  Sizes are log-uniform on 1..64,
    with about 3% unbounded layers and 10% antenna layers.  Chains with
    finite endpoints carry a sparse seeded demand pattern.  Every
    FAMILY_EVERY-th operation is a family.
    """
    width = math.log(EXACT_MAX_LAYERS / 2) / EXACT_CHAINS
    starts = [rng.random() for _ in range(EXACT_CHAINS)]
    golden = (math.sqrt(5) - 1) / 2
    kinds = itertools.cycle(rng.sample(sorted(exact.CLASS_OF_KIND), len(exact.CLASS_OF_KIND)))
    for k in itertools.count():
        spots = [(i + (start + k * golden) % 1) * width for i, start in enumerate(starts)]
        ops = [_exact_chain(rng, round(2 * math.exp(spot))) for spot in spots]
        rng.shuffle(ops)
        for j in range(FAMILY_EVERY - 1, len(ops) + len(ops) // (FAMILY_EVERY - 1), FAMILY_EVERY):
            fam = family(rng, next(kinds))
            ops.insert(j, {"use": "classify", "family": fam, "text": json.dumps(fam), "hops": 0})
        yield ops


# -- plan-ladder -----------------------------------------------------------------


def _small_chain(rng: random.Random, i: int) -> tuple[int, ...]:
    """Small chain i of a pass: 3 + i % 4 layers of sizes 1-6, each within
    half a step of a typical size that is stratified over the pass, so every
    pass has the same spread of plan sizes and the median document differs
    little between seeds."""
    center = 1 + 5 * (i + rng.random()) / SMALL_CHAINS
    return tuple(min(6, max(1, round(center + rng.uniform(-0.5, 0.5)))) for _ in range(3 + i % 4))


def plan_pass(rng: random.Random) -> list[dict]:
    """The plan-ladder pass: every ladder rung, the coprime chain and
    SMALL_CHAINS seeded small chains, each in the uniform use (no demand,
    JSON) and the demand use (multi-antenna twin with a sparse demand, DOT),
    in seeded order.  ``slot`` numbers the documents of the pass."""
    chains = [(n,) * 4 for n in LADDER] + [COPRIME]
    chains += [_small_chain(rng, i) for i in range(SMALL_CHAINS)]
    ops = []
    for sizes in chains:
        uniform = Topology([{"nodes": s} for s in sizes])
        twin = _topology(rng, sizes, 0.8, 4)
        entries = _feasible_demand(rng, twin, 12)
        _check_bounded(sizes)
        ops.append({"use": "uniform", "topology": uniform, "hops": uniform.hops})
        ops.append({"use": "demand", "topology": twin, "demand_text": demand_text(entries), "hops": twin.hops})
    rng.shuffle(ops)
    for slot, op in enumerate(ops):
        op["slot"] = slot
    return ops


# -- cli-cold ------------------------------------------------------------------

# (file name, document text, subcommand) for inputs that must exit with 2.
MALFORMED = (
    ("t.json", '{"layers": [{"nodes": 0}, {"nodes": 2}]}', "analyze"),
    ("t.json", '{"layers": [{"nodes": 3}]}', "analyze"),
    ("t.json", '{"layers": [{"nodes": 2}, {"nodes": 1.5}]}', "analyze"),
    ("t.json", '{"layers": [{"nodes": "inf"}, {"nodes": "inf"}]}', "analyze"),
    ("t.json", '{"layers": [{"antennas": [2, "inf"]}, {"nodes": 2}]}', "analyze"),
    ("t.json", '{"layers": [{"nodes": 2, "antennas": [1]}, {"nodes": 2}]}', "analyze"),
    ("t.json", '{"layers": [{"nodes": 2}, {"nodes": 2}', "analyze"),
    ("t.json", '{"layers": [{"nodes": 2}, {"nodes": "inf"}, {"nodes": 2}]}', "schedule"),
    ("t.json", '{"layers": [{"nodes": 2}, {"nodes": 2}]}', "schedule"),
    ("d.json", '{"demands": [{"dst": 3, "src": 1, "dof": "1/5"}]}', "check"),
    ("d.json", '{"demands": [{"dst": 1, "src": 1, "dof": "-1/5"}]}', "check"),
    ("d.json", '{"demands": [{"dst": 1, "src": 1, "dof": "1/5"}, {"dst": 1, "src": 1, "dof": "1/7"}]}', "check"),
    ("d.json", '{"demands": [{"dst": 1, "src": 1}]}', "check"),
    ("d.json", '{"demands": [{"dst": 1, "src": 1, "dof": "100"}]}', "schedule"),
    ("f.json", '{"kind": "Quadratic", "base": [1, 2]}', "classify"),
    ("f.json", '{"kind": "PinnedLayerFixedK", "base": [1, 1], "pinned": {"0": 1, "1": 1}}', "classify"),
    ("f.json", '{"kind": "FixedSizesGrowingK", "base": [2, 3]}', "sweep"),
)
_GOOD_TOPOLOGY = '{"layers": [{"nodes": 2}, {"nodes": 3}, {"nodes": 2}]}'  # beside a bad demand

# cli-cold pass: how many operations of each kind, in seeded order.
CLI_MIX = (
    ("analyze", 6),
    ("check", 4),
    ("schedule", 4),
    ("classify", 1),
    ("sweep", 1),
    ("malformed", 4),
)


# (layers, format, --decimal) of the six analyze operations of a pass
CLI_ANALYZE = (
    (2, "table", False),
    (4, "table", True),
    (8, "json", False),
    (16, "json", True),
    (24, "csv", False),
    (40, "csv", True),
)


def _small_topology(rng: random.Random, length: int) -> Topology:
    """Sizes 1-16, 10% unbounded, 20% antenna layers."""
    sizes = [exact.INF if rng.random() < 0.1 else _log_int(rng, 1, 16) for _ in range(length)]
    sizes[rng.randrange(length)] = _log_int(rng, 1, 16)  # keep one finite layer
    return _topology(rng, sizes, 0.2, 4)


def _endpoint_topology(rng: random.Random, relays: int, top: int, unbounded: float) -> Topology:
    sizes = [rng.randint(1, top)]
    sizes += [exact.INF if rng.random() < unbounded else rng.randint(1, top) for _ in range(relays)]
    sizes.append(rng.randint(1, top))
    return _topology(rng, sizes, 0.5, 4)


def cli_op(rng: random.Random, kind: str, k: int) -> dict:
    """One ``python -m relaydof.cli`` invocation: argv (relative to the
    scratch directory), input files, expected exit code and check data.
    ``k`` counts operations of this kind within a pass; it picks the format
    variant and the chain length, so every pass has the same shape."""
    if kind == "analyze":
        layers, fmt, decimal = CLI_ANALYZE[k]
        topo = _small_topology(rng, layers)
        argv = ["analyze", "t.json", "--format", fmt] + (["--decimal"] if decimal else [])
        return {"kind": kind, "argv": argv, "files": {"t.json": topo.text}, "expect": 0,
                "topology": topo, "format": fmt, "decimal": decimal, "hops": topo.hops}
    if kind == "check":
        topo = _endpoint_topology(rng, k, 8, 0.2)
        feasible = k % 2 == 0
        pattern = _pattern(rng, topo, 6)
        t = exact.t_star(_constraints(topo, pattern))
        entries = exact.scaled(pattern, t * (rng.choice((1, Fraction(2, 3))) if feasible else Fraction(11, 10)))
        fmt = "json" if k < 2 else "table"
        return {"kind": kind, "argv": ["check", "t.json", "d.json", "--format", fmt],
                "files": {"t.json": topo.text, "d.json": demand_text(entries)}, "expect": 0 if feasible else 1,
                "topology": topo, "entries": entries, "format": fmt, "hops": topo.hops}
    if kind == "schedule":
        # at most 5 layers of effective size 8: no more than 2,112 plan edges
        topo = _endpoint_topology(rng, 1 + k % 3, 8, 0.0)
        _check_bounded(topo.sizes)
        fmt = "json" if k < 2 else "dot"
        op = {"kind": kind, "argv": ["schedule", "t.json", "--format", fmt], "files": {"t.json": topo.text},
              "expect": 0, "topology": topo, "format": fmt, "hops": topo.hops}
        if k % 2:
            op["argv"] += ["--demand", "d.json"]
            op["files"]["d.json"] = demand_text(_feasible_demand(rng, topo, 8))
        return op
    if kind in ("classify", "sweep"):
        fam = family(rng)
        argv = ["classify", "f.json"] if kind == "classify" else ["sweep", "f.json", "--out", "sweep.csv"]
        return {"kind": kind, "argv": argv, "files": {"f.json": json.dumps(fam)},
                "expect": 0 if exact.expected_class(fam) else 1, "family": fam, "hops": 0}
    name, text, command = rng.choice(MALFORMED)
    files = {name: text}
    if name == "d.json":
        files["t.json"] = _GOOD_TOPOLOGY
        argv = ["check", "t.json", "d.json"] if command == "check" else ["schedule", "t.json", "--demand", "d.json"]
    elif name == "f.json":
        argv = [command, "f.json"] + (["--out", "sweep.csv"] if command == "sweep" else [])
    else:
        argv = [command, "t.json"]
    return {"kind": kind, "argv": argv, "files": files, "expect": 2, "hops": 0}


def stage_files(op: dict, directory) -> None:
    """Write the operation's input documents and drop earlier outputs."""
    (directory / "sweep.csv").unlink(missing_ok=True)
    for name, text in op["files"].items():
        (directory / name).write_text(text, encoding="utf-8")


def cli_pass(rng: random.Random) -> list[dict]:
    ops = [cli_op(rng, kind, k) for kind, count in CLI_MIX for k in range(count)]
    rng.shuffle(ops)
    return ops


def check_cli(op: dict, code: int, out: str, err: str, read) -> str | None:
    """Judge one cli-cold operation; ``read(name)`` reads a scratch file."""
    if "Traceback" in err:
        return "traceback on stderr"
    if code != op["expect"]:
        return f"exit code {code}, expected {op['expect']}: {err.strip()[:120]}"
    kind = op["kind"]
    if kind == "malformed":
        return None if err.startswith("error: ") else "no error message on stderr"
    if kind == "analyze":
        return exact.check_analyze_output(op["topology"].sizes, op["format"], op["decimal"], out)
    topo = op.get("topology")
    if kind == "check":
        constraints = _constraints(topo, op["entries"])
        if op["format"] == "json":
            obj = json.loads(out)
            return exact.check_verdict(
                constraints, obj["feasible"], [v["constraint"] for v in obj["violations"]], obj["binding"]
            )
        feasible = out.splitlines()[0].split()[-1] == "yes"
        return None if feasible == exact.verdict(constraints)[0] else "table feasibility is wrong"
    if kind == "schedule":
        if op["format"] == "json":
            return exact.check_schedule_json(topo.sizes, len(topo.src), len(topo.dst), out)
        return exact.check_schedule_dot(out)
    line = out.strip()
    error = exact.check_class(op["family"], None if line.startswith("Unclassified") else line.split()[0])
    if error or kind == "classify":
        return error
    return exact.check_sweep_csv(read("sweep.csv"))
