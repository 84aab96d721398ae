"""Topology and demand model with exact extended-rational arithmetic.

A layered relay network is described purely by its size profile: an ordered
chain of layers where layer 0 holds the sources, the last layer holds the
destinations, and every layer in between holds relays.  A layer is either a
node count (possibly the symbolic value ``inf``) or an explicit list of
per-node antenna counts.  Everything downstream works on exact numbers:
finite values are ``fractions.Fraction`` and the single infinite value is
symbolic, so identities can be asserted with ``==`` instead of tolerances.
``Infinity.__le__`` is its ``__eq__``, since inf is at most itself and
nothing else; ``ExtRational`` writes ``__lt__`` beside its ``__eq__``; and
``functools.total_ordering`` derives the rest of each.
Ints, Fractions and both extended types compare with each other; anything
else, a float say, is ``NotImplemented``.

All types are immutable after construction and all operations are pure
functions, safe to share across threads.  The one slot filled after
construction is a topology's pair of reciprocal sums, stored on first use
by ``relaydof.analysis``: a value derived from the layers alone, so two
threads that fill it at once store equal values and either one may stay.
Parsing shares each node count's ``LayerSpec`` across documents through one
bounded cache, ``_node_spec``, and runs no Python code per node-count layer.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import compress, count, repeat
from operator import attrgetter, not_
from types import MappingProxyType

__all__ = [
    "Infinity",
    "INFINITY",
    "ExtCount",
    "ExtRational",
    "DocumentError",
    "TopologyError",
    "DemandError",
    "InvariantError",
    "LayerSpec",
    "NetworkTopology",
    "DemandMatrix",
    "parse_topology",
    "serialize_topology",
    "topology_to_obj",
    "parse_demand",
    "serialize_demand",
    "demand_to_obj",
    "validate_demand",
    "virtual_node_map",
    "antenna_split",
    "scale_antennas",
]


class DocumentError(ValueError):
    """Bad input document or value that fails structural validation."""


class TopologyError(DocumentError):
    """Invalid topology document or topology-level precondition failure."""


class DemandError(DocumentError):
    """Invalid demand document, or a demand that an operation cannot accept."""


class InvariantError(RuntimeError):
    """A construction invariant does not hold: a bug, never a bad input."""


@total_ordering
class Infinity:
    """Symbolic positive infinity for node counts and DoF values.

    Orders strictly above every int and Fraction, so ``min``/``max`` work on
    mixed sequences.  Use the module singleton ``INFINITY``.
    """

    __slots__ = ()

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        if isinstance(other, Infinity):
            return True
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash(float("inf"))

    # inf is at most itself and nothing else, so ``<=`` is ``==``; as the
    # root of the derived orderings it keeps ``size <= 1`` one call
    __le__ = __eq__


INFINITY = Infinity()

# A layer size: a positive integer or the symbolic infinity.
ExtCount = int | Infinity

# the characters of a finite rational literal: p/q, a sign, a decimal point
# and an exponent
_LITERAL_CHARS = frozenset("0123456789+-/.eE")


def _read_rational(text: str) -> Fraction | None:
    """The value of a rational literal, None for "inf"; every document reads its rationals here."""
    if text == "inf":
        return None
    try:
        # Fraction would also take spaces, '_' and non-ASCII digits
        if not _LITERAL_CHARS.issuperset(text):
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational literal {text!r}") from exc


@total_ordering
class ExtRational:
    """An exact rational extended with symbolic positive infinity.

    Finite values are stored as ``Fraction`` (always in lowest terms), the
    infinite value as a marker.  Arithmetic follows the extended rules used
    throughout the analysis: ``x + inf == inf``, ``1/inf == 0``, and the
    reciprocal of 0 is ``inf``.  Indeterminate combinations (``inf - inf``,
    ``inf * 0``, ``inf / inf``) raise ``ArithmeticError`` rather than
    guessing.
    """

    __slots__ = ("_value", "_text")

    def __init__(self, numerator=0, denominator=None):
        if type(numerator) is Fraction and denominator is None:
            value = numerator  # already in lowest terms
        elif not isinstance(numerator, (Infinity, ExtRational, str)):
            value = Fraction(numerator, 1 if denominator is None else denominator)
        elif denominator is not None:
            raise TypeError(f"{type(numerator).__name__} construction takes no denominator")
        elif isinstance(numerator, ExtRational):
            value = numerator._value
        else:
            value = None if isinstance(numerator, Infinity) else _read_rational(numerator)
        object.__setattr__(self, "_value", value)

    # -- predicates and accessors ------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    def as_fraction(self) -> Fraction:
        if self._value is None:
            raise ArithmeticError("infinite value has no Fraction form")
        return self._value

    @property
    def numerator(self) -> int:
        return self.as_fraction().numerator

    @property
    def denominator(self) -> int:
        return self.as_fraction().denominator

    def reciprocal(self) -> "ExtRational":
        return ExtRational(1) / self

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExtRational):
            return other._value
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        if isinstance(other, Infinity):
            return None
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self._value is None or v is None:
            return ExtRational(INFINITY)
        return ExtRational(self._value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self._value is None and v is None:
            raise ArithmeticError("inf - inf is undefined")
        if self._value is None:
            return ExtRational(INFINITY)
        if v is None:
            raise ArithmeticError("finite minus infinite leaves the domain")
        return ExtRational(self._value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ExtRational(v if v is not None else INFINITY) - self

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self._value is None or v is None:
            finite = v if self._value is None else self._value
            if finite is not None and finite == 0:
                raise ArithmeticError("inf * 0 is undefined")
            if finite is not None and finite < 0:
                raise ArithmeticError("inf times a negative leaves the domain")
            return ExtRational(INFINITY)
        return ExtRational(self._value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v is None:
            if self._value is None:
                raise ArithmeticError("inf / inf is undefined")
            return ExtRational(0)
        if v == 0:
            if self._value is not None and self._value == 0:
                raise ArithmeticError("0 / 0 is undefined")
            return ExtRational(INFINITY)
        if self._value is None:
            if v < 0:
                raise ArithmeticError("inf over a negative leaves the domain")
            return ExtRational(INFINITY)
        return ExtRational(self._value / v)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ExtRational(v if v is not None else INFINITY) / self

    # -- ordering -----------------------------------------------------------

    def __eq__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self._value == v

    def __hash__(self):
        return hash(self._value) if self._value is not None else hash(float("inf"))

    def __lt__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self._value is None:
            return False
        if v is None:
            return True
        return self._value < v

    def __bool__(self):
        return self._value is None or self._value != 0

    def __float__(self):
        return float("inf") if self._value is None else float(self._value)

    def __str__(self):
        # formatted once per object: cached hop values are rendered once
        # however many hops and reports share them
        try:
            return self._text
        except AttributeError:
            text = "inf" if self._value is None else str(self._value)
            object.__setattr__(self, "_text", text)
            return text

    def __repr__(self):
        return f"ExtRational({str(self)!r})"


class Record:
    """Base of the immutable value types: a slotted record.

    A subclass lists its constructor fields in ``_fields`` and names them,
    then any values it derives from them, in ``__slots__``.  Plain
    assignment and deletion raise ``AttributeError``.  A subclass that
    defines no ``__init__`` gets one that stores its fields in order, with
    the defaults in ``_defaults``; one that validates writes its own and
    fills its slots through ``_put``: the C-level setter of each slot, in
    ``__slots__`` order, which costs less than ``object.__setattr__``.
    Equality, hashing and the repr cover ``_fields`` only and read as a
    frozen dataclass's would: equal only to the same class, the hash of the
    field tuple, ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: Mapping[str, object] = MappingProxyType({})

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields
        # a subclass without slots of its own keeps its base's setters
        if slots := cls.__dict__.get("__slots__"):
            cls._put = tuple(cls.__dict__[name].__set__ for name in slots)
        if cls.__init__ is object.__init__:
            cls.__init__ = _storing_init(cls)

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through the constructor, which derives every other slot
        return self.__class__, self._astuple()


def _storing_init(cls: type[Record]):
    """``__init__(self, <fields>)`` that stores each field through its
    slot's setter.  Compiled once per class, as ``dataclasses`` does it, so
    a call costs what a hand-written one does."""
    names, defaults = cls._fields, cls._defaults
    env = {"__name__": cls.__module__}
    env.update((f"_set_{name}", getattr(cls, name).__set__) for name in names)
    env.update((f"_default_{name}", value) for name, value in defaults.items())
    params = "".join(f", {name}=_default_{name}" if name in defaults else f", {name}" for name in names)
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self{params}):{body}", env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class LayerSpec(Record):
    """One layer of the chain: a node count or a per-node antenna profile.

    Exactly one of ``nodes`` / ``antennas`` is set.  An antenna profile
    implies a finite layer with as many nodes as list entries; infinite
    layers are single-antenna by definition.  ``effective_size`` (antenna
    total for antenna layers, node count otherwise) is computed once, at
    construction.
    """

    __slots__ = ("nodes", "antennas", "effective_size")
    _fields = ("nodes", "antennas")

    def __init__(self, nodes: ExtCount | None = None, antennas: tuple[int, ...] | None = None):
        if (nodes is None) == (antennas is None):
            raise TopologyError("layer needs exactly one of 'nodes' or 'antennas'")
        if antennas is not None:
            antennas = tuple(antennas)
            if len(antennas) == 0:
                raise TopologyError("antenna list must be nonempty")
            for a in antennas:
                # one type() test per int entry; other ints but bool also pass
                if type(a) is not int and (not isinstance(a, int) or isinstance(a, bool)) or a < 1:
                    raise TopologyError(f"antenna count must be a positive integer, got {a!r}")
            size = sum(antennas)
        else:
            if not isinstance(nodes, Infinity):
                if not isinstance(nodes, int) or isinstance(nodes, bool):
                    raise TopologyError(f"node count must be a positive integer or 'inf', got {nodes!r}")
                if nodes == 0:
                    raise TopologyError("zero nodes")
                if nodes < 0:
                    raise TopologyError(f"node count must be positive, got {nodes}")
            size = nodes
        put_nodes, put_antennas, put_size = self._put
        put_nodes(self, nodes)
        put_antennas(self, antennas)
        put_size(self, size)

    @property
    def is_infinite(self) -> bool:
        return isinstance(self.nodes, Infinity)

    @property
    def node_count(self) -> ExtCount:
        return len(self.antennas) if self.antennas is not None else self.nodes

    def antenna_profile(self) -> tuple[int, ...]:
        """Per-node antenna counts; finite layers only."""
        if self.antennas is not None:
            return self.antennas
        if self.is_infinite:
            raise TopologyError("infinite layer has no antenna profile")
        return (1,) * self.nodes


_EFFECTIVE_SIZE = attrgetter("effective_size")


class NetworkTopology(Record):
    """Ordered layer chain: sources, relay layers, destinations.

    Layers may be shared: parsed topologies hold one ``LayerSpec`` per
    distinct ``{"nodes": ...}`` value.  ``_sums`` stays empty until the
    chain's (sum of 1/alpha_k, sum of 1/beta_k) is first needed; see
    ``analysis._topology_sums``.
    """

    __slots__ = ("layers", "_effective_sizes", "_sums")
    _fields = ("layers",)

    def __init__(self, layers: tuple[LayerSpec, ...]):
        put_layers, put_sizes, _ = self._put
        layers = tuple(layers)
        if len(layers) < 2:
            raise TopologyError("topology needs at least a source and a destination layer")
        put_layers(self, layers)
        put_sizes(self, tuple(map(_EFFECTIVE_SIZE, layers)))

    @property
    def relay_count(self) -> int:
        """Number of relay layers (hop count minus one)."""
        return len(self.layers) - 2

    @property
    def is_finite(self) -> bool:
        return not any(layer.is_infinite for layer in self.layers)

    def effective_sizes(self) -> tuple[ExtCount, ...]:
        """Per-layer effective size: antennas summed, infinite kept symbolic."""
        return self._effective_sizes

    @property
    def source_layer(self) -> LayerSpec:
        return self.layers[0]

    @property
    def destination_layer(self) -> LayerSpec:
        return self.layers[-1]


class DemandMatrix(Record):
    """Per-message DoF values keyed by (destination, source), 0-based.

    Absent entries mean zero; explicit zeros are dropped at construction.
    Values are finite Fractions; sign and index bounds are checked against a
    topology by :func:`validate_demand`, not here.  A matrix is not
    hashable: its entries are a read-only view of a dict.
    """

    __slots__ = ("entries",)
    _fields = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, int], Fraction]):
        cleaned = {}
        for key, value in entries.items():
            if not (isinstance(key, tuple) and len(key) == 2 and type(key[0]) is type(key[1]) is int):
                raise DemandError(f"demand key {key!r} must be a (destination, source) pair of ints")
            j, i = key
            if isinstance(value, ExtRational):
                if not value.is_finite:
                    raise DemandError(f"demand entry (dst {j + 1}, src {i + 1}) must be finite")
                value = value.as_fraction()
            elif isinstance(value, Infinity):
                raise DemandError(f"demand entry (dst {j + 1}, src {i + 1}) must be finite")
            elif type(value) is not Fraction:
                value = Fraction(value)
            if value != 0:
                cleaned[key] = value
        put_entries, = self._put
        put_entries(self, MappingProxyType(cleaned))

    @property
    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def row_sum(self, source: int) -> Fraction:
        """Total DoF leaving one source (sum over destinations)."""
        return sum((v for (j, i), v in self.entries.items() if i == source), Fraction(0))

    def col_sum(self, destination: int) -> Fraction:
        """Total DoF entering one destination (sum over sources)."""
        return sum((v for (j, i), v in self.entries.items() if j == destination), Fraction(0))

    def unit_sums(self) -> tuple[int, dict[int, int], dict[int, int]]:
        """Every row and column sum in one pass, as integers in one unit, the
        LCM of the entries' denominators: (unit, rows, cols), keyed by source
        and by destination index; rows and columns without entries are absent.
        """
        unit = math.lcm(*(v.denominator for v in self.entries.values()))
        rows: dict[int, int] = {}
        cols: dict[int, int] = {}
        for (j, i), v in self.entries.items():
            units = v.numerator * (unit // v.denominator)
            rows[i] = rows.get(i, 0) + units
            cols[j] = cols.get(j, 0) + units
        return unit, rows, cols

    def scale(self, factor) -> "DemandMatrix":
        if isinstance(factor, ExtRational):
            factor = factor.as_fraction()
        elif type(factor) is not Fraction:
            factor = Fraction(factor)
        return DemandMatrix({k: v * factor for k, v in self.entries.items()})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, DemandMatrix):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    # hashes the field tuple, which raises TypeError for the entries view
    __hash__ = Record.__hash__


# ---------------------------------------------------------------------------
# Document parsing and serialization
#
# Topology: {"layers":[{"nodes": <int|"inf">} | {"antennas":[<int>,...]}, ...]}
# Demand:   {"demands":[{"dst": j, "src": i, "dof": "p/q"}, ...]}, 1-based.
# ---------------------------------------------------------------------------


def _load_json(text: str, error: type[DocumentError], kind: str):
    """``json.loads(text)``, raising ``error`` for a ``kind`` document that cannot be read."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{kind} document is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a literal past the int-string limit, or deep nesting
        raise error(f"{kind} document cannot be read: {exc}") from exc


def _layer_from_obj(obj, index: int) -> LayerSpec:
    """Check the layer's JSON shape here; LayerSpec checks the values."""
    if not isinstance(obj, dict):
        raise TopologyError(f"layer {index}: expected an object, got {type(obj).__name__}")
    try:
        if len(obj) == 1 and "antennas" in obj:
            raw = obj["antennas"]
            if not isinstance(raw, list):
                raise TopologyError("'antennas' must be a nonempty list")
            if "inf" in raw:
                raise TopologyError("infinite layer cannot carry an antenna list")
            return LayerSpec(None, tuple(raw))  # positional: keywords cost a dict per call
        if len(obj) == 1 and "nodes" in obj:
            raw = obj["nodes"]
            return LayerSpec(nodes=INFINITY if raw == "inf" else raw)
    except TopologyError as exc:
        raise TopologyError(f"layer {index}: {exc}") from None
    raise TopologyError(f"layer {index}: expected exactly one of 'nodes' or 'antennas'")


_DICT, _ONE, _COUNT_TYPES = frozenset({dict}), frozenset({1}), frozenset({int, str, type(None)})


@lru_cache(maxsize=1024)
def _node_spec(raw: int | str | None) -> LayerSpec | None:
    """The spec every ``{"nodes": raw}`` layer shares, None for a bad count.
    Only an int, a str or None may come here: no two of those are equal
    unless their types are, so the key is typed without storing the type."""
    try:
        return LayerSpec(nodes=INFINITY if raw == "inf" else raw)
    except TopologyError:
        return None


def topology_from_obj(obj) -> NetworkTopology:
    """Validate a topology object in C-level passes over its layers: each
    ``{"nodes": v}`` layer gets the spec ``_node_spec`` keeps for ``v``, and
    only antenna layers and bad layers are read one at a time."""
    if not isinstance(obj, dict) or "layers" not in obj:
        raise TopologyError("topology document must be an object with a 'layers' list")
    layers = obj["layers"]
    if not isinstance(layers, list):
        raise TopologyError("'layers' must be a list")
    if len(layers) < 2:
        raise TopologyError("topology needs at least 2 layers")
    # each one-key layer's "nodes" value, None for other layers; a bool or
    # float equals some int, so with one every layer is read alone (and fails)
    counts = [None] * len(layers)
    if _DICT.issuperset(map(type, layers)) and _ONE.issuperset(map(len, layers)):
        values = list(map(dict.get, layers, repeat("nodes")))
        if _COUNT_TYPES.issuperset(map(type, values)):
            counts = values
    specs = list(map(_node_spec, counts))
    if not all(specs):  # antenna layers or bad layers, read in order
        for k in compress(count(), map(not_, specs)):
            specs[k] = _layer_from_obj(layers[k], k)
    return NetworkTopology(tuple(specs))


def parse_topology(text: str) -> NetworkTopology:
    """Parse a topology document (UTF-8 JSON) into a validated topology."""
    return topology_from_obj(_load_json(text, TopologyError, "topology"))


def topology_to_obj(t: NetworkTopology) -> dict:
    layers = []
    for layer in t.layers:
        if layer.antennas is not None:
            layers.append({"antennas": list(layer.antennas)})
        else:
            layers.append({"nodes": "inf" if layer.is_infinite else layer.nodes})
    return {"layers": layers}


def serialize_topology(t: NetworkTopology) -> str:
    return json.dumps(topology_to_obj(t))


def demand_from_obj(obj) -> DemandMatrix:
    if not isinstance(obj, dict) or "demands" not in obj:
        raise DemandError("demand document must be an object with a 'demands' list")
    raw = obj["demands"]
    if not isinstance(raw, list):
        raise DemandError("'demands' must be a list")
    entries: dict[tuple[int, int], Fraction] = {}
    for pos, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"dst", "src", "dof"}:
            raise DemandError(f"demand entry {pos}: expected keys dst, src, dof")
        j, i, dof = item["dst"], item["src"], item["dof"]
        for name, idx in (("dst", j), ("src", i)):
            if isinstance(idx, bool) or not isinstance(idx, int) or idx < 1:
                raise DemandError(f"demand entry {pos}: '{name}' must be a 1-based integer index")
        if isinstance(dof, str):
            if (value := _read_rational(dof)) is None:
                raise DemandError(f"demand entry {pos}: 'dof' must be finite")
        elif isinstance(dof, int) and not isinstance(dof, bool):
            value = Fraction(dof)
        else:
            raise DemandError(f"demand entry {pos}: 'dof' must be a rational string")
        key = (j - 1, i - 1)
        if key in entries:
            raise DemandError(f"demand entry {pos}: duplicate (dst {j}, src {i})")
        entries[key] = value
    return DemandMatrix(entries)


def parse_demand(text: str) -> DemandMatrix:
    """Parse a demand document (UTF-8 JSON, 1-based indices) into a matrix."""
    return demand_from_obj(_load_json(text, DemandError, "demand"))


def demand_to_obj(d: DemandMatrix) -> dict:
    demands = [
        {"dst": j + 1, "src": i + 1, "dof": str(v)}
        for (j, i), v in sorted(d.entries.items())
    ]
    return {"demands": demands}


def serialize_demand(d: DemandMatrix) -> str:
    return json.dumps(demand_to_obj(d))


def validate_demand(t: NetworkTopology, d: DemandMatrix) -> list[str]:
    """Index-bound and sign checks against a topology; [] means ok.

    Region membership is a separate question (see ``relaydof.region``).
    """
    errors = []
    if t.source_layer.is_infinite:
        errors.append("source layer is infinite; demands need finite endpoints")
    if t.destination_layer.is_infinite:
        errors.append("destination layer is infinite; demands need finite endpoints")
    if errors:
        return errors
    n_src = t.source_layer.node_count
    n_dst = t.destination_layer.node_count
    for (j, i), value in sorted(d.entries.items()):
        if not 0 <= j < n_dst:
            errors.append(f"demand (dst {j + 1}, src {i + 1}): destination index out of range 1..{n_dst}")
        if not 0 <= i < n_src:
            errors.append(f"demand (dst {j + 1}, src {i + 1}): source index out of range 1..{n_src}")
        if value < 0:
            errors.append(f"demand (dst {j + 1}, src {i + 1}): negative value {value}")
    return errors


def virtual_node_map(layer: LayerSpec) -> tuple[int, ...]:
    """Map each virtual (antenna-split) node index to its physical node."""
    return tuple(
        node for node, count in enumerate(layer.antenna_profile()) for _ in range(count)
    )


def antenna_split(t: NetworkTopology) -> NetworkTopology:
    """Reduce multi-antenna layers to virtual single-antenna node counts.

    Each antenna becomes one virtual node, so every analysis and schedule of
    a multi-antenna network is the single-antenna analysis of this network.
    """
    return NetworkTopology(
        tuple(LayerSpec(nodes=layer.effective_size) for layer in t.layers)
    )


def _check_antenna_scale(t: NetworkTopology, s: int) -> None:
    """Raise unless every antenna count of ``t`` can be multiplied by ``s``:
    a positive integer factor first, then a finite layer at every index."""
    if not isinstance(s, int) or s < 1:
        raise TopologyError(f"antenna scale factor must be a positive integer, got {s!r}")
    for k, layer in enumerate(t.layers):
        if layer.is_infinite:
            raise TopologyError(f"layer {k}: cannot antenna-scale an infinite layer")


def scale_antennas(t: NetworkTopology, s: int) -> NetworkTopology:
    """Multiply every node's antenna count by ``s`` (finite topologies only)."""
    _check_antenna_scale(t, s)
    return NetworkTopology(
        tuple(LayerSpec(antennas=tuple(a * s for a in layer.antenna_profile())) for layer in t.layers)
    )
