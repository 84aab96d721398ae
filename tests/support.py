"""Helpers the test modules share, and the grammar of valid documents that the
exit-contract test and the reference differential test both draw from."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from relaydof import cli
from relaydof.model import INFINITY, LayerSpec, NetworkTopology, TopologyError
from relaydof.scaling import FAMILY_KINDS


def chain(sizes) -> NetworkTopology:
    """A topology of node-count layers; a ``LayerSpec`` entry is kept as it is."""
    return NetworkTopology(tuple(s if isinstance(s, LayerSpec) else LayerSpec(nodes=s) for s in sizes))


def replace(record, **changes):
    """A copy of the record with some fields changed, through its constructor."""
    return type(record)(**{name: changes.pop(name, getattr(record, name)) for name in record._fields}, **changes)


def with_plan(s, **changes):
    """The schedule with some fields of its split plan changed."""
    return replace(s, split_plan=replace(s.split_plan, **changes))


def put(values: tuple, k: int, value) -> tuple:
    """The tuple with item ``k`` replaced by ``value``."""
    return (*values[:k], value, *values[k + 1 :])


def primes_from(low: int, count: int) -> list[int]:
    sieve = bytearray([1]) * (low + 20 * count)
    for p in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    return [n for n in range(low, len(sieve)) if sieve[n]][:count]


@pytest.fixture
def write(tmp_path):
    """``write(name, document)`` puts an object's JSON, or a text, in a file
    under ``tmp_path`` and returns its path."""

    def write(name, obj):
        path = tmp_path / name
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


def run_cli(*argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def outcome(fn, *args, errors=Exception):
    """("ok", the result) or (the error's type name, its text)."""
    try:
        return "ok", fn(*args)
    except errors as exc:
        return type(exc).__name__, str(exc)


def layer_values(t: NetworkTopology) -> list:
    """Each layer's node-count type and value, antennas and effective size."""
    return [(type(layer.nodes), layer.nodes, layer.antennas, layer.effective_size) for layer in t.layers]


def parsed(parse, obj):
    """``outcome`` of parsing a topology object, its layers as ``layer_values``."""
    return outcome(lambda obj: layer_values(parse(obj)), obj, errors=TopologyError)


# a 4,000-layer chain of sizes 1..64 and inf
CHAIN = {"layers": [{"nodes": "inf" if k % 97 == 0 else 1 + (k * 37) % 64} for k in range(1, 4001)]}


def calls(monkeypatch, owner, name) -> list:
    """The arguments of every call of ``owner.name`` from here on; a class's
    ``__new__`` and ``__init__`` count the values it builds."""
    made = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        made.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(counting) if name == "__new__" else counting)
    return made


def fractions_built(monkeypatch) -> list:
    """The Fractions built from here on: through the constructor, and
    through the arithmetic's shortcut where it has one."""
    built = calls(monkeypatch, Fraction, "__new__")
    if "_from_coprime_ints" in vars(Fraction):
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(klass, numerator, denominator, /):
            built.append((numerator, denominator))
            return coprime(klass, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return built


@st.composite
def layers(draw):
    """About 5% infinite layers and 10% antenna layers; sizes 1-64."""
    roll = draw(st.integers(0, 99))
    if roll < 5:
        return LayerSpec(nodes=INFINITY)
    if roll < 15:
        return LayerSpec(antennas=tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))))
    return LayerSpec(nodes=draw(st.integers(1, 64)))


# -- the grammar of valid documents ---------------------------------------------------

HUGE = [10**299 + 7, 2**1000 + 1, 10**600 + 3]  # literals of hundreds of digits


def topologies(layers, size):
    """Topology objects: ``layers`` (min, max) of node counts drawn from
    ``size`` or antenna lists."""
    layer = st.one_of(
        size.map(lambda n: {"nodes": n}),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda a: {"antennas": a}),
    )
    return st.lists(layer, min_size=layers[0], max_size=layers[1]).map(lambda ls: {"layers": ls})


# 2-64 layers of sizes 1..10^6, a few huge or infinite
TOPOLOGIES = topologies((2, 64), st.one_of(st.integers(1, 10**6), st.sampled_from([*HUGE, "inf"])))
# within the plan ladder: a few layers of small sizes
SCHEDULE_TOPOLOGIES = topologies((3, 6), st.integers(1, 12))
# 13 or more distinct 7-digit primes, whose product (12 of them make 240
# bits) is over 240 bits, then the same primes back, so that every hop
# product comes twice
PRIMES = primes_from(10**6, 200)
PRIME_TOPOLOGIES = st.lists(st.sampled_from(PRIMES), min_size=13, max_size=24, unique=True).map(
    lambda ps: {"layers": [{"nodes": p} for p in ps + ps[::-1]]}
)


def _endpoint(layer) -> int:
    """How many node indices a demand may name on this layer, at most 8."""
    size = len(layer["antennas"]) if "antennas" in layer else layer["nodes"]
    return 8 if size == "inf" else min(size, 8)


DOFS = st.one_of(
    st.sampled_from(["1/7", "0", "1", "2/3", "1e-3", "0.125", 1, 0, "1e6", 10**7]),
    st.fractions(0, 2, max_denominator=50).map(str),
)
# mostly inside the region of a schedule topology
SMALL_DOFS = st.fractions(0, Fraction(1, 100), max_denominator=1000).map(str)


def demands(topology, dof=DOFS):
    """Demand objects on the topology's endpoints: with ``DOFS``, some inside
    the region and some outside it."""
    sources, sinks = _endpoint(topology["layers"][0]), _endpoint(topology["layers"][-1])
    entry = st.fixed_dictionaries({"dst": st.integers(1, sinks), "src": st.integers(1, sources), "dof": dof})
    return st.lists(entry, max_size=6, unique_by=lambda e: (e["dst"], e["src"])).map(lambda es: {"demands": es})


def families(kind):
    """Family objects of one kind."""
    if kind == "AntennaScaled":
        return topologies((2, 8), st.integers(1, 8)).map(lambda t: {"kind": kind, "topology": t})
    if kind == "FixedSizesGrowingK":
        return st.integers(1, 100).map(lambda size: {"kind": kind, "base": [size]})
    entry = st.one_of(st.integers(1, 100), st.sampled_from(["1/2", "3/4", "1.5", "1e2", "7", "1" + "0" * 300]))
    family = st.lists(entry, min_size=2, max_size=6).map(lambda base: {"kind": kind, "base": base})
    if kind == "PinnedLayerFixedK":
        family = family.flatmap(_pin_some_layers)
    return family


def _pin_some_layers(family):
    """The family with a proper subset of its layers pinned."""
    layers = len(family["base"])
    pinned = st.dictionaries(st.integers(0, layers - 1).map(str), st.integers(1, 100), min_size=1, max_size=layers - 1)
    return pinned.map(lambda pinned: {**family, "pinned": pinned})


FAMILIES = st.sampled_from(FAMILY_KINDS).flatmap(families)


@st.composite
def invocations(draw, command, document, topologies=TOPOLOGIES, schedule_dofs=DOFS, options=None):
    """(file texts by name, argv) of one well-formed run of ``command``, its
    files named in argv as they are in the dict, with ``options`` or drawn
    ones.  ``document(valid, kind)`` is the strategy of a file's text, from
    the strategy of its valid objects and its kind ("topology", "demand" or
    "family")."""
    if command in ("classify", "sweep"):
        argv = [command, "f.json", *["--out", "out.csv"] * (command == "sweep")]
        return {"f.json": draw(document(FAMILIES, "family"))}, argv
    topology = draw(SCHEDULE_TOPOLOGIES if command == "schedule" else topologies)
    dofs = schedule_dofs if command == "schedule" else DOFS
    files = {
        "t.json": draw(document(st.just(topology), "topology")),
        "d.json": draw(document(demands(topology, dofs), "demand")),
    }
    argv = [command, "t.json", *["d.json"] * (command == "check")]
    if options is not None:
        return files, argv + options
    formats = {"analyze": ("table", "json", "csv"), "check": ("json", "table"), "schedule": ("json", "dot")}[command]
    argv += draw(st.sampled_from([[], *(["--format", name] for name in formats)]))
    if command != "schedule":
        return files, argv + draw(st.sampled_from([[], ["--decimal"]]))
    return files, argv + draw(st.sampled_from([[], ["--demand", "d.json"]]))
