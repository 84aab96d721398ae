"""Topology families and their sum-DoF scaling-law classification.

A family maps a size parameter n to a concrete finite topology.  Growing
every layer proportionally with a fixed hop count scales the sum DoF
linearly; pinning any layer caps it at a constant; keeping all layer sizes
fixed while the chain gets longer drives it down like 1/n.  The classifier
samples n over a doubling grid, fits log(alpha) against log(n) by least
squares, and snaps the slope to {1, 0, -1} within a fixed tolerance.
Each sample is computed from the family's layer sizes at n alone; no
topology is built for it.

This is the only place floating point appears; the sampled alpha values
themselves stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .analysis import _harmonic, _topology_sums, achievable_sum_dof
from .model import (
    DocumentError,
    ExtRational,
    NetworkTopology,
    LayerSpec,
    Record,
    _check_antenna_scale,
    _exact,
    _load_json,
    scale_antennas,
    topology_from_obj,
)

__all__ = [
    "FamilyError",
    "FamilySpec",
    "ScalingVerdict",
    "FAMILY_KINDS",
    "SAMPLE_GRID",
    "SLOPE_TOLERANCE",
    "parse_family",
    "evaluate_family",
    "classify",
    "antenna_scale_check",
    "sweep_rows",
]

# the document fields each kind takes besides 'kind'
_FIELDS = ("base", "pinned", "topology")
_KIND_FIELDS = {
    "ProportionalFixedK": ("base",),
    "PinnedLayerFixedK": ("base", "pinned"),
    "FixedSizesGrowingK": ("base",),
    "AntennaScaled": ("topology",),
}
FAMILY_KINDS = tuple(_KIND_FIELDS)

# Doubling grid 16..4096; the three canonical families are well separated
# by the top of this range.
SAMPLE_GRID = tuple(16 * 2**i for i in range(9))
SLOPE_TOLERANCE = 0.15

_TARGETS = (("Linear", 1.0), ("Constant", 0.0), ("Inverse", -1.0))


class FamilyError(DocumentError):
    """Invalid family document or degenerate instantiation."""


def _checked_profile(kind: str, base, pinned) -> tuple[tuple[Fraction, ...], tuple[tuple[int, int], ...] | None]:
    """The base profile as Fractions and the pinned layers in order, once
    they are checked against the kind (any kind but AntennaScaled)."""
    if base is None or len(base) == 0:
        raise FamilyError(f"{kind} needs a base profile")
    base = tuple(map(_exact, base))
    if None in base:
        raise FamilyError("base profile entries must be finite")
    if any(b <= 0 for b in base):
        raise FamilyError("base profile entries must be positive")
    if kind == "FixedSizesGrowingK":
        if len(base) != 1 or base[0].denominator != 1:
            raise FamilyError("FixedSizesGrowingK takes a single integer layer size")
    elif len(base) < 2:
        raise FamilyError(f"{kind} base profile needs at least 2 layers")
    if kind == "PinnedLayerFixedK":
        if not pinned:
            raise FamilyError("PinnedLayerFixedK needs at least one pinned layer")
        pinned = tuple(sorted(pinned))
        for idx, size in pinned:
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise FamilyError(f"'pinned' key {idx!r} is not a layer index")
            if not 0 <= idx < len(base):
                raise FamilyError(f"pinned layer {idx} outside base profile")
            if not isinstance(size, int) or isinstance(size, bool):
                raise FamilyError(f"pinned size of layer {idx} must be an integer, got {size!r}")
            if size < 1:
                raise FamilyError(f"pinned layer {idx}: size must be >= 1")
        if len(pinned) >= len(base):
            raise FamilyError("pinning every layer leaves nothing to grow")
    return base, pinned


class FamilySpec(Record):
    """Parameterized topology family; its constructor is the one check of
    a family's values.

    ``base`` is the per-layer growth profile (proportional and pinned
    kinds) or the single fixed layer size (growing-depth kind), as exact
    numbers or rational literals; ``pinned`` maps 0-based layer indices to
    constant sizes; ``topology`` is the fixed base network of the
    antenna-scaled kind.  A field the kind does not take is rejected.
    """

    __slots__ = _fields = ("kind", "base", "pinned", "topology")

    def __init__(
        self,
        kind: str,
        base: tuple[int | str | Fraction, ...] | None = None,
        pinned: tuple[tuple[int, int], ...] | None = None,
        topology: NetworkTopology | None = None,
    ):
        if kind not in FAMILY_KINDS:
            raise FamilyError(f"unknown family kind {kind!r}")
        for name, value in zip(_FIELDS, (base, pinned, topology)):
            if value is not None and name not in _KIND_FIELDS[kind]:
                raise FamilyError(f"{kind} takes no '{name}'")
        if kind == "AntennaScaled":
            if topology is None:
                raise FamilyError("AntennaScaled needs a base topology")
            if not topology.is_finite:
                raise FamilyError("AntennaScaled base topology must be finite")
        else:
            base, pinned = _checked_profile(kind, base, pinned)
        put_kind, put_base, put_pinned, put_topology = self._put
        put_kind(self, kind)
        put_base(self, base)
        put_pinned(self, pinned)
        put_topology(self, topology)


class ScalingVerdict(Record):
    """Fitted slope and its class; ``classification`` is None when ambiguous."""

    __slots__ = _fields = ("classification", "slope_estimate", "samples")

    classification: str | None
    slope_estimate: float
    samples: tuple[tuple[int, ExtRational], ...]


def parse_family(text: str) -> FamilySpec:
    """Parse a family document (UTF-8 JSON); this checks its JSON shape and
    :class:`FamilySpec` the values, which it gets as read."""
    obj = _load_json(text, FamilyError, "family")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FamilyError("family document must be an object with a 'kind'")
    unknown = sorted(obj.keys() - {"kind", *_FIELDS})
    if unknown:
        raise FamilyError(f"unknown family field {unknown[0]!r}")
    base = None
    if "base" in obj:
        if not isinstance(obj["base"], list):
            raise FamilyError("'base' must be a list of positive rationals")
        base = tuple(obj["base"])
        for entry in base:
            if not isinstance(entry, (str, int)) or isinstance(entry, bool):
                raise FamilyError(f"bad base profile entry {entry!r}")
    pinned = None
    if "pinned" in obj:
        if not isinstance(obj["pinned"], dict):
            raise FamilyError("'pinned' must map layer indices to sizes")
        layers: dict[int, int] = {}
        for key, size in obj["pinned"].items():
            try:
                if not (key.isascii() and key.isdigit()):
                    raise ValueError(key)
                layer = int(key)  # a ValueError past the int-string limit
            except ValueError as exc:
                raise FamilyError(f"'pinned' key {key!r} is not a layer index") from exc
            if layer in layers:
                raise FamilyError(f"'pinned' names layer {layer} more than once")
            layers[layer] = size
        pinned = tuple(layers.items())
    topology = None
    if "topology" in obj:
        topology = topology_from_obj(obj["topology"])
    return FamilySpec(kind=obj["kind"], base=base, pinned=pinned, topology=topology)


def _round_half_up(numerator: int, denominator: int) -> int:
    """numerator/denominator rounded to the nearest integer, halves up."""
    return (2 * numerator + denominator) // (2 * denominator)


def _family_sizes(f: FamilySpec, n: int) -> list[int]:
    """Per-layer effective sizes of the family instantiated at parameter n."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise FamilyError(f"family parameter must be an integer, got {n!r}")
    if n < 1:
        raise FamilyError(f"family parameter must be positive, got {n}")
    if f.kind == "AntennaScaled":
        return [n * e for e in f.topology.effective_sizes()]
    if f.kind == "FixedSizesGrowingK":
        size = int(f.base[0])
        layer_count = _round_half_up(n, size)
        if layer_count < 2:
            raise FamilyError(f"degenerate instantiation at n={n}: fewer than 2 layers")
        return [size] * layer_count
    pinned = dict(f.pinned or ())
    budget = max(0, n - sum(pinned.values()))
    # the profile in integer weights b*unit, so b*budget/sum(b) is w*budget/total
    unit = math.lcm(*(b.denominator for b in f.base))
    weights = [b.numerator * (unit // b.denominator) for b in f.base]
    total = sum(w for k, w in enumerate(weights) if k not in pinned)
    return [
        pinned[k] if k in pinned else max(1, _round_half_up(w * budget, total))
        for k, w in enumerate(weights)
    ]


def evaluate_family(f: FamilySpec, n: int) -> tuple[NetworkTopology, ExtRational]:
    """Instantiate the family at parameter n and compute its sum DoF."""
    sizes = _family_sizes(f, n)
    if f.kind == "AntennaScaled":
        # the scaled network keeps its per-node antenna lists
        topology = scale_antennas(f.topology, n)
    else:
        specs = {s: LayerSpec(nodes=s) for s in set(sizes)}
        topology = NetworkTopology(tuple(map(specs.__getitem__, sizes)))
    return topology, achievable_sum_dof(sizes)


def _least_squares_slope(xs: list[float], ys: list[float]) -> float:
    """Slope of the least-squares line through the points (xs[i], ys[i])."""
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def classify(f: FamilySpec) -> ScalingVerdict:
    """Fit the log-log slope over ``SAMPLE_GRID`` and snap it to a class."""
    samples = [(n, achievable_sum_dof(_family_sizes(f, n))) for n in SAMPLE_GRID]
    slope = _least_squares_slope(
        [math.log(n) for n, _ in samples],
        [math.log(float(alpha)) for _, alpha in samples],
    )
    classification = None
    for name, target in _TARGETS:
        if abs(slope - target) <= SLOPE_TOLERANCE:
            classification = name
            break
    return ScalingVerdict(classification=classification, slope_estimate=slope, samples=tuple(samples))


def antenna_scale_check(
    t: NetworkTopology, s: int
) -> tuple[ExtRational, ExtRational, ExtRational]:
    """Sum DoF before and after multiplying every antenna count by s.

    Returns (base value, scaled value, ratio).  The ratio approaches s from
    below as the network grows; it is reported, never asserted to equal s.
    """
    _check_antenna_scale(t, s)
    # scaling every antenna count by s scales every layer's size by s
    alpha_base = _harmonic(_topology_sums(t)[0])
    alpha_scaled = achievable_sum_dof([s * e for e in t.effective_sizes()])
    return alpha_base, alpha_scaled, alpha_scaled / alpha_base


def sweep_rows(verdict: ScalingVerdict) -> list[tuple[int, int, int, float, float]]:
    """CSV rows (n, alpha_num, alpha_den, log_n, log_alpha) for a verdict."""
    return [
        (n, alpha.numerator, alpha.denominator, math.log(n), math.log(float(alpha)))
        for n, alpha in verdict.samples
    ]
