"""Topology and demand model with exact extended-rational arithmetic.

A layered relay network is described purely by its size profile: an ordered
chain of layers where layer 0 holds the sources, the last layer holds the
destinations, and every layer in between holds relays.  A layer is either a
node count (possibly the symbolic value ``inf``) or an explicit list of
per-node antenna counts.  Everything downstream works on exact numbers:
finite values are ``fractions.Fraction`` or, in a reported ``ExtRational``,
a reduced int pair, and the single infinite value is symbolic, so
identities can be asserted with ``==`` instead of tolerances.
``Infinity.__le__`` is its ``__eq__``, since inf is at most itself and
nothing else; ``ExtRational`` writes ``__lt__`` beside its ``__eq__``; and
``functools.total_ordering`` derives the rest of each.
Ints, Fractions and both extended types mix in every ``ExtRational``
operator, which reads its operand through the one rule ``_operand``;
anything else, a float say, is ``NotImplemented``.  Every outside value
that becomes a Fraction is read by the one rule ``_exact``, which also reads
rational literals as the documents do, and rejects a float or a bool.

All types are immutable after construction and all operations are pure
functions, safe to share across threads.  Four slots are filled after
construction, each on first use: a topology's pair of reciprocal sums, by
``relaydof.analysis``, an ``ExtRational``'s Fraction and text, and the
Fraction view of a demand matrix's int counts of one unit.
Each is derived from its object alone, so two threads that fill one at
once store equal values and either one may stay.
Parsing shares each node count's ``LayerSpec`` across documents through one
bounded cache, ``_node_spec``, so it builds one spec per distinct count.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, total_ordering, wraps
from operator import attrgetter
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


def _exact(value) -> Fraction | None:
    """The value of an int, Fraction, extended value or rational literal, None
    for inf; every outside value that becomes a Fraction is read here."""
    if type(value) is Fraction:
        return value
    if isinstance(value, ExtRational):
        return value._value
    if isinstance(value, Infinity):
        return None
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"expected an exact number, got {value!r}")
    if value == "inf":
        return None
    try:
        # Fraction would also take spaces, '_' and non-ASCII digits
        if not _LITERAL_CHARS.issuperset(value):
            raise ValueError(value)
        # Fraction builds 10**|exponent|, so the exponent is held to the
        # int-string limit that already caps the digits of a literal
        exponent = value.lower().partition("e")[2]
        if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent)):
            raise ValueError(value)
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational literal {value!r}") from exc


def _operand(method):
    """Every ``ExtRational`` operator's operand rule: a Fraction, None for inf, else NotImplemented."""

    @wraps(method)
    def operator_(self, other):
        if isinstance(other, ExtRational):
            return method(self, other._value)
        if isinstance(other, (int, Fraction)):
            return method(self, Fraction(other))
        if isinstance(other, Infinity):
            return method(self, None)
        return NotImplemented

    return operator_


@total_ordering
class ExtRational:
    """An exact rational extended with symbolic positive infinity.

    A finite value is stored as a reduced ``(numerator, denominator)`` int
    pair with a positive denominator, the infinite value as the marker pair
    (1, 0).  Its ``Fraction`` is built only when an operator, ``hash`` or
    ``as_fraction()`` first needs it, and its text, written from the two ints
    as ``str(Fraction)`` writes it, when ``str`` first needs it; a Fraction
    given to the constructor is kept as is.  Arithmetic follows the extended
    rules used throughout the analysis: ``x + inf == inf``, ``1/inf == 0``,
    and the reciprocal of 0 is ``inf``.  Indeterminate combinations
    (``inf - inf``, ``inf * 0``, ``inf / inf``) raise ``ArithmeticError``
    rather than guessing.
    """

    __slots__ = ("_numerator", "_denominator", "_fraction", "_text")

    def __init__(self, numerator=0, denominator=None):
        if denominator is None:
            if type(numerator) is int:
                self._numerator, self._denominator, self._fraction = numerator, 1, None
                return
            value = _exact(numerator)
        elif type(numerator) is int and type(denominator) is int:
            if not denominator:
                raise ZeroDivisionError(f"Fraction({numerator}, 0)")
            # one gcd reduces the pair; its sign follows the denominator's
            g = math.gcd(numerator, denominator)
            if denominator < 0:
                g = -g
            self._numerator, self._denominator, self._fraction = numerator // g, denominator // g, None
            return
        else:
            value = Fraction(numerator, denominator)  # a Fraction operand, or the TypeError
        self._fraction = value
        if value is None:
            self._numerator, self._denominator = 1, 0
        else:
            self._numerator, self._denominator = value.numerator, value.denominator

    @property
    def _value(self) -> Fraction | None:
        """The value as a Fraction, None for inf, built on first use and kept."""
        value = self._fraction
        if value is None and self._denominator:
            value = self._fraction = Fraction(self._numerator, self._denominator)
        return value

    def __reduce__(self):
        # the pair rebuilds the value; "inf" the marker
        return ExtRational, (self._numerator, self._denominator) if self._denominator else ("inf",)

    # -- predicates and accessors ------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._denominator != 0

    def as_fraction(self) -> Fraction:
        if not self._denominator:
            raise ArithmeticError("infinite value has no Fraction form")
        return self._value

    @property
    def numerator(self) -> int:
        if not self._denominator:
            raise ArithmeticError("infinite value has no Fraction form")
        return self._numerator

    @property
    def denominator(self) -> int:
        if not self._denominator:
            raise ArithmeticError("infinite value has no Fraction form")
        return self._denominator

    def reciprocal(self) -> "ExtRational":
        return ExtRational(1) / self

    # -- arithmetic ---------------------------------------------------------

    @_operand
    def __add__(self, v):
        if self._value is None or v is None:
            return ExtRational(INFINITY)
        return ExtRational(self._value + v)

    __radd__ = __add__

    @_operand
    def __sub__(self, v):
        if self._value is None and v is None:
            raise ArithmeticError("inf - inf is undefined")
        if self._value is None:
            return ExtRational(INFINITY)
        if v is None:
            raise ArithmeticError("finite minus infinite leaves the domain")
        return ExtRational(self._value - v)

    @_operand
    def __rsub__(self, v):
        return ExtRational(v if v is not None else INFINITY) - self

    @_operand
    def __mul__(self, v):
        if self._value is None or v is None:
            finite = v if self._value is None else self._value
            if finite is not None and finite == 0:
                raise ArithmeticError("inf * 0 is undefined")
            if finite is not None and finite < 0:
                raise ArithmeticError("inf times a negative leaves the domain")
            return ExtRational(INFINITY)
        return ExtRational(self._value * v)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, v):
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

    @_operand
    def __rtruediv__(self, v):
        return ExtRational(v if v is not None else INFINITY) / self

    # -- ordering -----------------------------------------------------------

    @_operand
    def __eq__(self, v):
        return self._value == v

    def __hash__(self):
        return hash(self._value) if self._denominator else hash(float("inf"))

    @_operand
    def __lt__(self, v):
        if self._value is None:
            return False
        if v is None:
            return True
        return self._value < v

    def __bool__(self):
        return self._numerator != 0

    def __float__(self):
        # int true division rounds correctly, as Fraction's float does
        return self._numerator / self._denominator if self._denominator else float("inf")

    def __str__(self):
        # formatted once per object: cached hop values are rendered once
        # however many hops and reports share them
        try:
            return self._text
        except AttributeError:
            self._text = text = self._render()
            return text

    def _render(self) -> str:
        """The text, made from the pair as ``str(Fraction)`` makes it, or "inf"."""
        n, d = self._numerator, self._denominator
        if d == 1:
            return str(n)
        return f"{n}/{d}" if d else "inf"

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
    A record is not a dataclass because ``import dataclasses`` costs about
    7 ms (CPython 3.11, mostly ``inspect``), which every command would pay.
    Equality, hashing and the repr cover ``_fields`` only and read as a
    frozen dataclass's would: equal only to the same class, the hash of the
    field tuple, ``Name(field=value, ...)``.  Two records are equal when
    their field tuples are, and a tuple compares its items by identity
    before ``==``: a record holding a NaN equals itself and one holding the
    same NaN object, as a frozen dataclass did before Python 3.13.
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
    chain's (sum of 1/alpha_k, sum of 1/beta_k) is first needed, then holds
    them as two reduced (numerator, denominator) int pairs; see
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
    A value is an int, a Fraction, a finite ``ExtRational`` or a rational
    literal; sign and index bounds are checked against a topology by
    :func:`validate_demand`, not here.  A matrix stores read-only int
    ``counts`` of one ``unit``, the LCM of the values' denominators, and
    builds ``entries``, their read-only view as Fractions, on first read.
    """

    __slots__ = ("unit", "counts", "_entries")
    _fields = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, int], Fraction]):
        values = {}
        for key, value in entries.items():
            if not (isinstance(key, tuple) and len(key) == 2 and type(key[0]) is type(key[1]) is int):
                raise DemandError(f"demand key {key!r} must be a (destination, source) pair of ints")
            j, i = key
            if (value := _exact(value)) is None:
                raise DemandError(f"demand entry (dst {j + 1}, src {i + 1}) must be finite")
            values[key] = value
        unit = math.lcm(*[v.denominator for v in values.values()])
        _on_unit(unit, {key: v.numerator * (unit // v.denominator) for key, v in values.items()}, self)

    @property
    def entries(self) -> Mapping[tuple[int, int], Fraction]:
        if not hasattr(self, "_entries"):
            DemandMatrix._put[2](self, MappingProxyType({k: Fraction(c, self.unit) for k, c in self.counts.items()}))
        return self._entries

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.counts.values()), self.unit)

    def row_sum(self, source: int) -> Fraction:
        """Total DoF leaving one source (sum over destinations)."""
        return Fraction(sum(c for (j, i), c in self.counts.items() if i == source), self.unit)

    def col_sum(self, destination: int) -> Fraction:
        """Total DoF entering one destination (sum over sources)."""
        return Fraction(sum(c for (j, i), c in self.counts.items() if j == destination), self.unit)

    def unit_sums(self) -> tuple[int, dict[int, int], dict[int, int]]:
        """(unit, rows, cols): every row and column sum in counts of the unit, keyed
        by source and by destination index; rows and columns without entries are absent."""
        rows: dict[int, int] = {}
        cols: dict[int, int] = {}
        for (j, i), c in self.counts.items():
            rows[i] = rows.get(i, 0) + c
            cols[j] = cols.get(j, 0) + c
        return self.unit, rows, cols

    def scale(self, factor) -> "DemandMatrix":
        # read by _exact's rules, into an int pair; inf has no denominator
        factor = factor if isinstance(factor, ExtRational) else ExtRational(factor)
        return _on_unit(self.unit * factor.denominator, {k: c * factor.numerator for k, c in self.counts.items()})

    @property
    def is_zero(self) -> bool:
        return not self.counts

    def __eq__(self, other):
        if not isinstance(other, DemandMatrix):
            return NotImplemented
        return self.unit == other.unit and self.counts == other.counts

    # hashes the field tuple, which raises TypeError for the entries view
    __hash__ = Record.__hash__

    def __reduce__(self):
        return _on_unit, (self.unit, dict(self.counts))


def _on_unit(unit: int, counts: dict, matrix: DemandMatrix | None = None) -> DemandMatrix:
    """``matrix`` or a new one, holding int ``counts`` of 1/``unit`` without zeros, in lowest terms."""
    if (g := math.gcd(unit, *counts.values())) != 1 or 0 in counts.values():
        counts = {key: c // g for key, c in counts.items() if c}
    put_unit, put_counts, _ = DemandMatrix._put
    put_unit(matrix := object.__new__(DemandMatrix) if matrix is None else matrix, unit // g)
    put_counts(matrix, MappingProxyType(counts))
    return matrix


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
            if raw is None:  # LayerSpec reads a None count as no count
                raise TopologyError("node count must be a positive integer or 'inf', got None")
            return LayerSpec(nodes=INFINITY if raw == "inf" else raw)
    except TopologyError as exc:
        raise TopologyError(f"layer {index}: {exc}") from None
    raise TopologyError(f"layer {index}: expected exactly one of 'nodes' or 'antennas'")


@lru_cache(maxsize=1024)
def _node_spec(raw: int | str) -> LayerSpec | None:
    """The spec every ``{"nodes": raw}`` layer shares, None for a bad count.
    Only an int or a str may come here: no two of those are equal unless
    their types are, so the key is typed without storing the type."""
    try:
        return LayerSpec(nodes=INFINITY if raw == "inf" else raw)
    except TopologyError:
        return None


def topology_from_obj(obj) -> NetworkTopology:
    """Validate a topology object: each ``{"nodes": v}`` layer with an int or
    str ``v`` gets the spec ``_node_spec`` keeps for ``v``, and every other
    layer is read by ``_layer_from_obj``."""
    if not isinstance(obj, dict) or "layers" not in obj:
        raise TopologyError("topology document must be an object with a 'layers' list")
    layers = obj["layers"]
    if not isinstance(layers, list):
        raise TopologyError("'layers' must be a list")
    if len(layers) < 2:
        raise TopologyError("topology needs at least 2 layers")
    specs = []
    for k, layer in enumerate(layers):
        raw = layer.get("nodes") if isinstance(layer, dict) and len(layer) == 1 else None
        # a bool or float equals some int, so only an int or str is looked up
        spec = _node_spec(raw) if type(raw) in (int, str) else None
        specs.append(spec or _layer_from_obj(layer, k))
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


def _ratio(dof: str) -> tuple[int, int] | None:
    """(p, q) of a ``p`` or ``p/q`` literal of ASCII digits, q > 0 and within the
    int-string limit, as Fraction's reader reads it; None for any other literal."""
    p, slash, q = dof.partition("/")
    if dof.isascii() and p.isdigit() and (q.isdigit() or not slash) and len(dof) <= sys.get_int_max_str_digits():
        q = int(q or 1)
        return (int(p), q) if q else None
    return None


def demand_from_obj(obj) -> DemandMatrix:
    if not isinstance(obj, dict) or "demands" not in obj:
        raise DemandError("demand document must be an object with a 'demands' list")
    raw = obj["demands"]
    if not isinstance(raw, list):
        raise DemandError("'demands' must be a list")
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for pos, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"dst", "src", "dof"}:
            raise DemandError(f"demand entry {pos}: expected keys dst, src, dof")
        j, i, dof = item["dst"], item["src"], item["dof"]
        for name, idx in (("dst", j), ("src", i)):
            if isinstance(idx, bool) or not isinstance(idx, int) or idx < 1:
                raise DemandError(f"demand entry {pos}: '{name}' must be a 1-based integer index")
        if not isinstance(dof, (str, int)) or isinstance(dof, bool):
            raise DemandError(f"demand entry {pos}: 'dof' must be a rational string")
        if (pair := (dof, 1) if isinstance(dof, int) else _ratio(dof)) is None:
            if (value := _exact(dof)) is None:
                raise DemandError(f"demand entry {pos}: 'dof' must be finite")
            pair = value.numerator, value.denominator
        key = (j - 1, i - 1)
        if key in pairs:
            raise DemandError(f"demand entry {pos}: duplicate (dst {j}, src {i})")
        pairs[key] = pair
    unit = math.lcm(*[q for _, q in pairs.values()])
    return _on_unit(unit, {key: p * (unit // q) for key, (p, q) in pairs.items()})


def parse_demand(text: str) -> DemandMatrix:
    """Parse a demand document (UTF-8 JSON, 1-based indices) into a matrix."""
    return demand_from_obj(_load_json(text, DemandError, "demand"))


def _text(numerator: int, denominator: int) -> str:
    """``str(Fraction(numerator, denominator))`` for a positive denominator."""
    g = math.gcd(numerator, denominator)
    return f"{numerator // g}" if g == denominator else f"{numerator // g}/{denominator // g}"


def demand_to_obj(d: DemandMatrix) -> dict:
    counts = sorted(d.counts.items())
    return {"demands": [{"dst": j + 1, "src": i + 1, "dof": _text(c, d.unit)} for (j, i), c in counts]}


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
    for (j, i), count in sorted(d.counts.items()):
        if not 0 <= j < n_dst:
            errors.append(f"demand (dst {j + 1}, src {i + 1}): destination index out of range 1..{n_dst}")
        if not 0 <= i < n_src:
            errors.append(f"demand (dst {j + 1}, src {i + 1}): source index out of range 1..{n_src}")
        if count < 0:
            errors.append(f"demand (dst {j + 1}, src {i + 1}): negative value {_text(count, d.unit)}")
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
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
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
