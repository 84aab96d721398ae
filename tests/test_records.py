"""The value records against frozen-dataclass twins.

The nine value types outside ``schedule`` are slotted records, not
dataclasses.  Each gets a twin here: a frozen dataclass with the same
constructor fields and defaults, as the types were declared before.  On
drawn values a record and its twin must agree on the constructor signature,
``repr``, ``==``/``!=`` (also against other types) and ``hash`` (the
same ``TypeError`` for a demand matrix), and both must refuse to assign or
delete a field.
"""

import copy
import dataclasses
import inspect
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relaydof.analysis import AnalysisReport
from relaydof.model import INFINITY, DemandMatrix, ExtRational, LayerSpec, NetworkTopology
from relaydof.region import RegionVerdict, ScaleResult, Violation
from relaydof.scaling import FAMILY_KINDS, FamilySpec, ScalingVerdict


def _demand_eq(self, other):
    # DemandMatrix's own equality, kept by its dataclass declaration
    if not isinstance(other, type(self)):
        return NotImplemented
    return dict(self.entries) == dict(other.entries)


# type -> its fields as (name, default or MISSING), and any methods of its own
DECLARED = {
    LayerSpec: ([("nodes", None), ("antennas", None)], {}),
    NetworkTopology: ([("layers", dataclasses.MISSING)], {}),
    DemandMatrix: ([("entries", dataclasses.MISSING)], {"__eq__": _demand_eq}),
    AnalysisReport: (
        [
            (name, dataclasses.MISSING)
            for name in (
                "achievable",
                "achievable_per_hop",
                "cutset",
                "cutset_per_hop",
                "inverse_gap",
                "absolute_gap",
                "fractional_gap_bound",
                "bounding_set",
                "optimal",
                "ultimate_capacity",
                "relay_loss_factor",
            )
        ],
        {},
    ),
    Violation: ([("constraint", dataclasses.MISSING), ("lhs", dataclasses.MISSING), ("rhs", dataclasses.MISSING)], {}),
    RegionVerdict: (
        [("feasible", dataclasses.MISSING), ("violations", dataclasses.MISSING), ("binding", dataclasses.MISSING)],
        {},
    ),
    ScaleResult: ([("t_star", dataclasses.MISSING), ("scaled", dataclasses.MISSING), ("verdict", dataclasses.MISSING)], {}),
    FamilySpec: ([("kind", dataclasses.MISSING), ("base", None), ("pinned", None), ("topology", None)], {}),
    ScalingVerdict: (
        [("classification", dataclasses.MISSING), ("slope_estimate", dataclasses.MISSING), ("samples", dataclasses.MISSING)],
        {},
    ),
}

TWINS = {
    cls: dataclasses.make_dataclass(
        cls.__name__,
        [(name, object) if default is dataclasses.MISSING else (name, object, default) for name, default in fields],
        namespace=namespace,
        frozen=True,
    )
    for cls, (fields, namespace) in DECLARED.items()
}


def twin_of(record):
    """The twin holding the record's field values, nested records included."""
    return TWINS[type(record)](*(getattr(record, f.name) for f in dataclasses.fields(TWINS[type(record)])))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)


# -- drawn records -------------------------------------------------------------

ext = st.one_of(
    st.builds(ExtRational, st.integers(-50, 50), st.integers(1, 9)),
    st.just(ExtRational(INFINITY)),
)
ext_tuples = st.lists(ext, max_size=3).map(tuple)
names = st.text(max_size=6)
layer_args = st.one_of(
    st.tuples(st.one_of(st.integers(1, 9), st.just(INFINITY)), st.none()),
    st.tuples(st.none(), st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)),
)
layers = layer_args.map(lambda a: LayerSpec(*a))
finite_layers = st.integers(1, 9).map(LayerSpec)
demands = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.fractions(max_denominator=5), max_size=4
).map(DemandMatrix)
violations = st.builds(Violation, names, ext, ext)
verdicts = st.builds(
    RegionVerdict, st.booleans(), st.lists(violations, max_size=2).map(tuple), st.lists(names, max_size=2).map(tuple)
)
profile = st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4), min_size=2, max_size=4).map(tuple)


@st.composite
def family_args(draw):
    kind = draw(st.sampled_from(FAMILY_KINDS))
    if kind == "AntennaScaled":
        topology = NetworkTopology(tuple(draw(st.lists(finite_layers, min_size=2, max_size=3))))
        return (kind, None, None, topology)
    if kind == "FixedSizesGrowingK":
        return (kind, (Fraction(draw(st.integers(1, 9))),), None, None)
    base = draw(profile)
    if kind == "ProportionalFixedK":
        return (kind, base, None, None)
    pinned = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=len(base) - 1, unique=True))
    return (kind, base, tuple((k, draw(st.integers(1, 9))) for k in pinned), None)


ARGS = {
    LayerSpec: layer_args,
    NetworkTopology: st.lists(layers, min_size=2, max_size=4).map(lambda ls: (tuple(ls),)),
    DemandMatrix: demands.map(lambda d: (dict(d.entries),)),
    AnalysisReport: st.tuples(
        ext,
        ext_tuples,
        ext,
        ext_tuples,
        ext,
        ext,
        ext,
        st.frozensets(st.integers(0, 5), max_size=3),
        st.booleans(),
        st.none() | ext,
        st.none() | ext,
    ),
    Violation: st.tuples(names, ext, ext),
    RegionVerdict: st.tuples(st.booleans(), st.lists(violations, max_size=2).map(tuple), st.lists(names, max_size=2).map(tuple)),
    ScaleResult: st.tuples(ext, demands, verdicts),
    FamilySpec: family_args(),
    ScalingVerdict: st.tuples(
        st.none() | st.sampled_from(("Linear", "Constant", "Inverse")),
        st.floats(allow_infinity=True, allow_nan=True),
        st.lists(st.tuples(st.integers(1, 64), ext), max_size=3).map(tuple),
    ),
}
TYPES = list(DECLARED)
_ids = [cls.__name__ for cls in TYPES]


# -- the checks ----------------------------------------------------------------------


@pytest.mark.parametrize("cls", TYPES, ids=_ids)
def test_signature_and_fields_match_the_twin(cls):
    def parameters(callable_):
        return [(p.name, p.kind, p.default) for p in inspect.signature(callable_).parameters.values()]

    twin = TWINS[cls]
    assert parameters(cls) == parameters(twin)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert cls.__match_args__ == twin.__match_args__
    assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", TYPES, ids=_ids)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_agrees_with_its_twin(cls, data):
    args = data.draw(ARGS[cls])
    record = cls(*args)
    assert not hasattr(record, "__dict__")
    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert repr(by_keyword) == repr(record)
    assert by_keyword == record and not by_keyword != record
    twin = twin_of(record)
    assert repr(record) == repr(twin)
    assert outcome(hash, record) == outcome(hash, twin)
    if outcome(hash, record)[0] == "ok":
        assert hash(by_keyword) == hash(record)

    # a second value: the same fields half of the time, a fresh draw otherwise
    other = cls(*args) if data.draw(st.booleans()) else cls(*data.draw(ARGS[cls]))
    other_twin = twin_of(other)
    assert (record == other) == (twin == other_twin)
    assert (record != other) == (twin != other_twin)

    # other types: another record, the twin itself, plain values
    stranger = Violation("x", ExtRational(1), ExtRational(2)) if cls is not Violation else ScalingVerdict(None, 0.0, ())
    for value in (stranger, 1, "x", None, args):
        assert (record == value) is (twin == value) is False
        assert (record != value) is (twin != value) is True
    assert (record == twin) is (twin == record) is False
    assert (record != twin) is (twin != record) is True

    # a subclass instance with the same fields
    sub = type(cls.__name__, (cls,), {})(*args)
    twin_sub = type(cls.__name__, (type(twin),), {})(*(getattr(record, name) for name in cls._fields))
    assert repr(sub) == repr(twin_sub)
    assert (record == sub, sub == record) == (twin == twin_sub, twin_sub == twin)
    assert (record != sub, sub != record) == (twin != twin_sub, twin_sub != twin)


@pytest.mark.parametrize("cls", TYPES, ids=_ids)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fields_cannot_be_assigned_or_deleted(cls, data):
    record = cls(*data.draw(ARGS[cls]))
    twin = twin_of(record)
    before = repr(record)
    for name in (*cls._fields, "not_a_field"):
        for target in (record, twin):
            with pytest.raises(AttributeError) as assigned:
                setattr(target, name, 0)
            with pytest.raises(AttributeError) as deleted:
                delattr(target, name)
            assert str(assigned.value) == f"cannot assign to field {name!r}"
            assert str(deleted.value) == f"cannot delete field {name!r}"
    assert repr(record) == before


@pytest.mark.parametrize("cls", TYPES, ids=_ids)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_copies_are_equal_records(cls, data):
    record = cls(*data.draw(ARGS[cls]))
    assert copy.copy(record) == record
    if cls in (DemandMatrix, ScaleResult):
        # a demand matrix holds a read-only dict view, which cannot be pickled
        return
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and repr(clone) == repr(record)
        # a NaN slope compares unequal to the copy of it, as in the twin
        assert clone == record or math.isnan(record.slope_estimate)


def test_defaults_and_derived_slots():
    assert LayerSpec(3) == LayerSpec(nodes=3) == LayerSpec(3, None)
    assert LayerSpec(antennas=[2, 1]).antennas == (2, 1)
    assert LayerSpec(antennas=(2, 1)).effective_size == 3
    assert NetworkTopology([LayerSpec(2), LayerSpec(antennas=(1, 1))]).effective_sizes() == (2, 2)
    assert FamilySpec("ProportionalFixedK", (1, 2)) == FamilySpec(kind="ProportionalFixedK", base=(1, 2), pinned=None)
    # derived slots take no part in equality, hashing or the repr
    assert "effective_size" not in repr(LayerSpec(antennas=(1, 2)))
    assert "_effective_sizes" not in repr(NetworkTopology((LayerSpec(1), LayerSpec(2))))
