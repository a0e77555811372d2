"""The records keep the contract of a frozen dataclass.

Every record derives from one base, ``errors._Record``, which registers
it with :mod:`dataclasses` but generates no code for it. Each record is
checked here against a twin that :func:`dataclasses.make_dataclass`
builds, frozen, from the record's own fields: on drawn field values the
two give the same repr, equality, hash, ``asdict``, ``astuple``,
``replace``, field names, signature, frozen errors, pickle and copy
state, and reject the same wrong calls with :class:`TypeError`.

Drawn floats are never NaN: from CPython 3.13 a generated ``__eq__``
compares field by field, where up to 3.12 it compares the tuples, and
the two differ on a NaN field only. The base keeps the tuple rule, and
a record, as under both, equals itself.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoyqkd
from decoyqkd import (
    BoundsResult,
    ChannelParams,
    ExperimentConfig,
    FluctuationPolicy,
    GainErrorPoint,
    HspsParams,
    HspsSource,
    IdealSpsSource,
    IntensityCounts,
    IntensityStatistics,
    KeyRateComponents,
    KeyRateResult,
    LossCurve,
    MeasuredRates,
    MuOptimum,
    ObservableBounds,
    PhotonNumberDistribution,
    PipelineResult,
    ProtocolParams,
    Scheme,
    SchemeKind,
    SimulatedCounts,
    ThreeIntensityObservation,
    WcsSource,
)
from decoyqkd.errors import _Record

# every exported dataclass, which must be a record
RECORDS = [
    obj
    for obj in (getattr(decoyqkd, name) for name in decoyqkd.__all__)
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
]

UNIT = st.floats(min_value=0.0, max_value=1.0)
ANY = st.floats(allow_nan=False)
COUNT = st.integers(min_value=1, max_value=2**63 - 1)
FLAGS = st.lists(st.sampled_from(("q_decoy_low", "y0_low", "e1-unbounded"))).map(
    tuple
)


def fields_of(required: dict, optional: dict | None = None):
    """Field values: every required field, and any subset of the optional
    ones, so that calls leave some fields to their defaults."""
    return st.fixed_dictionaries(required, optional=optional or {})


def record(cls):
    return VALUES[cls].map(lambda values: cls(**values))


@st.composite
def counts_values(draw):
    gates = draw(st.integers(min_value=0, max_value=2**63 - 1))
    detections = draw(st.integers(min_value=0, max_value=gates))
    errors = draw(st.integers(min_value=0, max_value=detections))
    return {"gates": gates, "detections": detections, "errors": errors}


@st.composite
def distribution_values(draw):
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12))
    total = sum(weights)
    if total == 0.0:
        weights, total = [1.0, *weights[1:]], 1.0
    values = {"probs": tuple(w / total for w in weights)}
    values.update(
        draw(fields_of({}, {"tail_folded": st.booleans(), "p_ge1": st.none() | UNIT}))
    )
    return values


@st.composite
def rates_values(draw):
    r0 = draw(st.floats(min_value=1.0, max_value=1e9))
    rs = draw(st.floats(min_value=0.0, max_value=r0, exclude_max=True))
    return {
        "r0_hz": r0,
        "rs_hz": rs,
        "rc_hz": draw(st.floats(min_value=0.0, max_value=r0)),
        "ds_hz": draw(st.floats(min_value=0.0, max_value=rs)),
        "eta_s": draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        "gate_time_s": draw(st.floats(min_value=1e-12, max_value=1e-6)),
    }


@st.composite
def scheme_values(draw):
    kind = draw(st.sampled_from(list(SchemeKind)))
    if kind is SchemeKind.HSPS_DECOY:
        return {"kind": kind, "p_cor": draw(UNIT)}
    if kind is SchemeKind.WCS_NO_DECOY:
        mu = st.floats(min_value=1e-9, max_value=10.0)
        return draw(fields_of({"kind": st.just(kind)}, {"wcs_mu": mu}))
    return {"kind": kind}


VALUES = {
    ChannelParams: fields_of(
        {
            "eta": st.floats(0.0, 1.0, exclude_min=True),
            "y0": st.floats(0.0, 1.0, exclude_max=True),
            "e_det": st.floats(0.0, 0.5),
        },
        {"e0": st.just(0.5)},
    ),
    GainErrorPoint: fields_of({"q_gain": ANY, "qber": ANY}),
    FluctuationPolicy: fields_of({}, {"n_sigma": st.floats(0.0, 1e6)}),
    ThreeIntensityObservation: fields_of(
        {
            "q_signal": UNIT,
            "q_decoy": UNIT,
            "e_signal": UNIT,
            "y0_obs": UNIT,
            "n_signal": COUNT,
            "n_decoy": COUNT,
            "n_vacuum": COUNT,
        },
        {"e_decoy": st.none() | UNIT},
    ),
    ObservableBounds: fields_of(
        {
            "q_decoy_low": UNIT,
            "q_signal_high": UNIT,
            "eq_signal_high": UNIT,
            "y0_low": UNIT,
            "y0_high": UNIT,
        },
        {"clamped": FLAGS},
    ),
    BoundsResult: fields_of(
        {"y1_lower": UNIT, "e1_upper": UNIT, "g0": UNIT, "g1_lower": UNIT},
        {"flags": FLAGS},
    ),
    ProtocolParams: fields_of(
        {},
        {
            "q_sift": st.floats(0.0, 1.0, exclude_min=True),
            "f_ec": st.floats(1.0, 10.0),
        },
    ),
    KeyRateComponents: fields_of(
        {"ec_cost": ANY, "g0": ANY, "g1_term": ANY, "raw_rate": ANY}
    ),
    IntensityStatistics: fields_of(
        dict.fromkeys(
            ("q_signal", "e_signal", "q_decoy", "e_decoy", "q_vacuum", "e_vacuum"), ANY
        )
    ),
    IntensityCounts: counts_values(),
    LossCurve: fields_of(
        {
            "scheme_label": st.text(max_size=12),
            "loss_db": st.lists(ANY, max_size=4).map(tuple),
            "rate": st.lists(ANY, max_size=4).map(tuple),
        }
    ),
    MuOptimum: fields_of({"mu": ANY, "rate": ANY}),
    Scheme: scheme_values(),
    PhotonNumberDistribution: distribution_values(),
    HspsParams: fields_of(
        {"p_cor": UNIT, "mu_acc": st.floats(0.0, 10.0)},
        {"d_i": st.floats(0.0, 1.0, exclude_max=True)},
    ),
    MeasuredRates: rates_values(),
    WcsSource: fields_of({"mu": st.floats(0.0, 100.0)}),
    IdealSpsSource: fields_of({}),
}
VALUES[HspsSource] = fields_of({"params": record(HspsParams)})
VALUES[KeyRateResult] = fields_of(
    {
        "rate_per_pulse": ANY,
        "secure_bits": st.integers(min_value=0),
        "negative": st.booleans(),
        "components": record(KeyRateComponents),
    }
)
VALUES[SimulatedCounts] = fields_of(
    {name: record(IntensityCounts) for name in ("signal", "decoy", "vacuum")}
)
VALUES[PipelineResult] = fields_of(
    {
        "observation": record(ThreeIntensityObservation),
        "expected": record(IntensityStatistics),
        "counts": st.none() | record(SimulatedCounts),
        "condition_ok": st.booleans(),
        "observable_bounds": record(ObservableBounds),
        "bounds": record(BoundsResult),
        "key": record(KeyRateResult),
        "y1_true": ANY,
        "e1_true": ANY,
    }
)
SOURCES = record(WcsSource) | record(HspsSource) | record(IdealSpsSource)
VALUES[ExperimentConfig] = fields_of(
    {
        "source_signal": SOURCES,
        "source_decoy": SOURCES,
        "vacuum_mu": st.floats(0.0, 1.0),
        "channel": record(ChannelParams),
        "protocol": record(ProtocolParams),
        "total_pulses": st.integers(min_value=1, max_value=2**40),
    },
    {
        "intensity_ratio": st.tuples(*[st.floats(1e-3, 100.0)] * 3),
        "fluctuation": record(FluctuationPolicy),
        "rng_seed": st.integers(min_value=0, max_value=2**70),
        "n_max": st.integers(min_value=2, max_value=256),
    },
)


def twin_of(cls):
    """A frozen dataclass with the fields of ``cls``, under its name."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, dataclasses.field(default=f.default, kw_only=f.kw_only))
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
    )


TWINS = {cls: twin_of(cls) for cls in RECORDS}


def call_error(fn, *args, **kwargs):
    """The type of the exception ``fn(*args, **kwargs)`` raises, if any."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:
        return type(exc)
    return None


def assign(obj, name):
    setattr(obj, name, 1)


def frozen_error(action, obj, name) -> str:
    with pytest.raises(dataclasses.FrozenInstanceError) as info:
        action(obj, name)
    return str(info.value)


def names_by_position(cls) -> list[str]:
    params = inspect.signature(cls).parameters.values()
    return [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]


def test_every_record_has_values_and_derives_from_the_base():
    assert set(VALUES) == set(RECORDS)
    assert set(RECORDS) == set(_Record.__subclasses__())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_record_agrees_with_its_frozen_dataclass_twin(cls, data):
    twin = TWINS[cls]
    values = data.draw(VALUES[cls], label="values")
    other = data.draw(VALUES[cls], label="other")
    rec, ref = cls(**values), twin(**values)
    names = [f.name for f in dataclasses.fields(twin)]
    fields = {name: getattr(ref, name) for name in names}
    other_fields = {name: getattr(twin(**other), name) for name in names}

    assert repr(rec) == repr(ref)
    assert rec == rec and ref == ref
    assert rec == cls(**values) and ref == twin(**values)
    assert (rec == cls(**other)) == (ref == twin(**other))
    assert (rec != cls(**other)) == (ref != twin(**other))
    assert hash(rec) == hash(ref)
    assert rec != ref and ref != rec

    assert dataclasses.asdict(rec) == dataclasses.asdict(ref)
    assert dataclasses.astuple(rec) == dataclasses.astuple(ref)
    assert dataclasses.replace(rec) == rec
    # every field of the other draw: one field alone may not fit the rest
    assert repr(dataclasses.replace(rec, **other_fields)) == repr(
        dataclasses.replace(ref, **other_fields)
    )
    assert [f.name for f in dataclasses.fields(rec)] == names
    assert inspect.signature(cls) == inspect.signature(twin)

    for name in (*fields, "not_a_field"):
        assert frozen_error(assign, rec, name) == frozen_error(assign, ref, name)
        assert frozen_error(delattr, rec, name) == frozen_error(delattr, ref, name)

    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec)):
        assert clone == rec and repr(clone) == repr(rec)
        assert frozen_error(assign, clone, "not_a_field")
    assert copy.copy(ref) == ref
    # what pickle and copy carry: the same state, in whatever order
    assert rec.__reduce_ex__(2)[2] == ref.__reduce_ex__(2)[2]

    # every field by position, keyword-only ones by keyword; then the last
    # positional one by keyword
    by_position = names_by_position(twin)
    args = [fields[name] for name in by_position]
    kwonly = {name: v for name, v in fields.items() if name not in by_position}
    assert repr(cls(*args, **kwonly)) == repr(ref)
    if args:
        last = {by_position[-1]: args[-1]}
        assert repr(cls(*args[:-1], **kwonly, **last)) == repr(ref)

    # wrong calls: an unknown, an extra positional, a missing, a missing
    # swapped for an unknown, and a repeated argument
    wrong_calls = [((), {**fields, "not_a_field": 1}), ((*args, 1), kwonly)]
    params = inspect.signature(twin).parameters.values()
    required = [p.name for p in params if p.default is p.empty]
    if required:
        missing = {k: v for k, v in fields.items() if k != required[0]}
        wrong_calls += [((), missing), ((), {**missing, "not_a_field": 1})]
    if args:
        wrong_calls.append(((args[0],), fields))
    for call_args, call_kwargs in wrong_calls:
        assert call_error(cls, *call_args, **call_kwargs) is TypeError
        assert call_error(twin, *call_args, **call_kwargs) is TypeError


def test_nan_field_equality_follows_the_field_tuples():
    nan = float("nan")
    rec = MuOptimum(mu=nan, rate=0.0)
    assert rec == rec
    # the tuples hold the same NaN object, which tuple equality takes as equal
    assert rec == MuOptimum(mu=nan, rate=0.0)
    assert rec != MuOptimum(mu=float("nan"), rate=0.0)


# the methods that a dataclass generates per class, by exec of source text
GENERATED = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__")


def test_no_record_brings_back_generated_methods():
    package = Path(decoyqkd.__file__).parent
    decorator = re.compile(r"^\s*@(dataclasses\.)?dataclass\b", re.M)
    for path in sorted(package.glob("*.py")):
        assert not decorator.search(path.read_text(encoding="utf-8")), path.name
    for cls in RECORDS:
        for name in GENERATED:
            code = getattr(inspect.unwrap(getattr(cls, name)), "__code__", None)
            assert code is None or code.co_filename != "<string>", (cls, name)
        # a dataclass gives a class without a docstring one from its signature
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "("), cls
