"""The records keep the contract of a frozen dataclass.

Every record derives from one base, ``errors._Record``, which reads the
record's fields itself when the class is defined and generates no code
for it. The record is registered with :mod:`dataclasses` on first use
of that API, and only then: no command of the package imports
:mod:`dataclasses` or :mod:`inspect`. Each record is checked here
against a twin that :func:`dataclasses.make_dataclass` builds, frozen,
from the record's own fields: on drawn field values the two give the
same repr, equality, hash, ``asdict``, ``astuple``, ``replace``, field
names, signature, frozen errors, pickle and copy state, and reject the
same wrong calls with :class:`TypeError`; the base's ``_asdict`` and
``_replace``, which the package calls in place of ``asdict`` and
``replace``, give what those give, in the same key order. Throwaway
classes check the definition-time errors, inheritance, the registration
check and a registration that eight threads start together; a fresh
interpreter checks each first use of the :mod:`dataclasses` API.

Drawn floats are never NaN: from CPython 3.13 a generated ``__eq__``
compares field by field, where up to 3.12 it compares the tuples, and
the two differ on a NaN field only. The base keeps the tuple rule, and
a record, as under both, equals itself.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import inspect
import pickle
import re
import sys
import textwrap
import threading
from pathlib import Path
from typing import ClassVar

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

from helpers import run_fresh

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
        return {"kind": kind, "arg": draw(UNIT)}
    if kind is SchemeKind.WCS_NO_DECOY:
        mu = st.floats(min_value=1e-9, max_value=10.0)
        return draw(fields_of({"kind": st.just(kind)}, {"arg": mu}))
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
            "e_decoy": st.none() | UNIT,
            "y0_obs": UNIT,
            "n_signal": COUNT,
            "n_decoy": COUNT,
            "n_vacuum": COUNT,
        },
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
            (f.name, f.type, dataclasses.field(default=f.default))
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
    assert cls.__match_args__ == twin.__match_args__

    # the helpers the package calls: the values and key order of asdict,
    # nested dicts included, and of replace, whose changed fields come
    # first; the same TypeError for an unknown field
    assert rec._asdict() == dataclasses.asdict(ref)
    assert repr(rec._asdict()) == repr(dataclasses.asdict(rec))
    changes = dict(reversed(other_fields.items()))
    for got, want in [
        (rec._replace(), dataclasses.replace(rec)),
        (rec._replace(**changes), dataclasses.replace(rec, **changes)),
    ]:
        assert type(got) is cls and list(vars(got).items()) == list(vars(want).items())
    with pytest.raises(TypeError) as mine:
        rec._replace(not_a_field=1)
    with pytest.raises(TypeError) as theirs:
        dataclasses.replace(rec, not_a_field=1)
    assert str(mine.value) == str(theirs.value)

    for name in (*fields, "not_a_field"):
        assert frozen_error(assign, rec, name) == frozen_error(assign, ref, name)
        assert frozen_error(delattr, rec, name) == frozen_error(delattr, ref, name)

    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec)):
        assert clone == rec and repr(clone) == repr(rec)
        assert frozen_error(assign, clone, "not_a_field")
    assert copy.copy(ref) == ref
    # what pickle and copy carry: the same state, in whatever order
    assert rec.__reduce_ex__(2)[2] == ref.__reduce_ex__(2)[2]

    # every field by position; then the last one by keyword
    args = list(fields.values())
    assert repr(cls(*args)) == repr(ref)
    if args:
        assert repr(cls(*args[:-1], **{names[-1]: args[-1]})) == repr(ref)

    # wrong calls: an unknown, an extra positional, a missing, a missing
    # swapped for an unknown, and a repeated argument
    wrong_calls = [((), {**fields, "not_a_field": 1}), ((*args, 1), {})]
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


def test_asdict_rebuilds_containers_as_dataclasses_does():
    # a namedtuple from its items by position, a list and a dict from
    # theirs, and a record within any of them as a dict
    R = collections.namedtuple("R", "a b c")
    inner = ChannelParams(eta=0.5, y0=1e-5, e_det=0.01)
    values = {
        "scheme_label": {"k": R(inner, [1.0], {"x": (2,)}), (3, 4): "v"},
        "loss_db": R(1.0, 2.0, 3.0),
        "rate": [0.1, R([inner], (), {})],
    }
    rec, ref = LossCurve(**values), TWINS[LossCurve](**values)
    assert repr(rec._asdict()) == repr(dataclasses.asdict(ref))
    assert repr(dataclasses.asdict(rec)) == repr(dataclasses.asdict(ref))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_takes_its_fields_in_field_order(cls):
    # one field kind: by position or keyword, in field order
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(cls._names)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert cls.__match_args__ == cls._names
    assert not any(f.kw_only for f in dataclasses.fields(cls))


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
    # a module-level import, which every command would pay for
    module_import = re.compile(
        r"^(from\s+(dataclasses|inspect)\s+import|import\s.*\b(dataclasses|inspect)\b)",
        re.M,
    )
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not decorator.search(text), path.name
        assert not module_import.search(text), path.name
    for cls in RECORDS:
        for name in GENERATED:
            code = getattr(inspect.unwrap(getattr(cls, name)), "__code__", None)
            assert code is None or code.co_filename != "<string>", (cls, name)
        # a dataclass gives a class without a docstring one from its signature
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "("), cls


def registered(cls) -> bool:
    """Whether ``cls`` is registered with dataclasses: until then its
    ``__dataclass_fields__`` is the placeholder that registers it."""
    return isinstance(vars(cls)["__dataclass_fields__"], dict)


def test_a_definition_raises_what_a_dataclass_definition_raises():
    # a field without a default after a positional one with a default
    with pytest.raises(TypeError, match="non-default argument 'y'"):

        class Misordered(_Record):
            x: int = 1
            y: int

    with pytest.raises(TypeError, match="non-default argument 'y'"):

        @dataclasses.dataclass(frozen=True)
        class MisorderedTwin:
            x: int = 1
            y: int

    # the same across a subclass
    class Base(_Record):
        """A throwaway record."""

        x: int = 1

    with pytest.raises(TypeError, match="non-default argument 'y'"):

        class MisorderedSub(Base):
            y: int

    for twin in (False, True):
        with pytest.raises(ValueError, match="mutable default"):
            namespace = {"__annotations__": {"x": "list"}, "x": []}
            if twin:
                dataclasses.dataclass(frozen=True)(type("MutableTwin", (), namespace))
            else:
                type("Mutable", (_Record,), namespace)


def test_a_subclass_keeps_its_base_fields():
    class Base(_Record):
        """A throwaway record."""

        x: int
        y: int = 2
        z: int = 3

    class Sub(Base):
        """A throwaway subclass."""

        w: int = 4
        y: int = 5  # redefined: it keeps its place and takes the new default

    @dataclasses.dataclass(frozen=True)
    class BaseTwin:
        x: int
        y: int = 2
        z: int = 3

    @dataclasses.dataclass(frozen=True)
    class SubTwin(BaseTwin):
        w: int = 4
        y: int = 5

    # the first use of Sub registers its base too
    assert not registered(Base)
    assert inspect.signature(Sub) == inspect.signature(SubTwin)
    assert registered(Base) and registered(Sub)
    assert Sub._names == ("x", "y", "z", "w")
    assert [f.name for f in dataclasses.fields(Sub)] == list(Sub._names)
    assert Sub.__match_args__ == SubTwin.__match_args__ == Sub._names
    assert repr(Sub(x=1)) == repr(SubTwin(x=1)).replace("SubTwin", "Sub")
    assert Sub(1, 6, 8, 7) == Sub(x=1, y=6, z=8, w=7)
    assert Base.z == 3 and Sub.y == 5

    # a subclass of a package record keeps its fields and its checks
    class Tagged(ThreeIntensityObservation):
        """A throwaway subclass of a package record."""

        tag: str = ""

    values = {
        "q_signal": 0.1,
        "q_decoy": 0.05,
        "e_signal": 0.02,
        "e_decoy": None,
        "y0_obs": 1e-5,
        "n_signal": 10,
        "n_decoy": 5,
        "n_vacuum": 2,
    }
    tagged = Tagged(**values, tag="t")
    assert Tagged._names == (*ThreeIntensityObservation._names, "tag")
    untagged = ThreeIntensityObservation(**values)
    assert tagged._asdict() == {**untagged._asdict(), "tag": "t"}
    assert Tagged(*values.values(), "t") == tagged
    # e_decoy is required: a call without it misses a field
    without = {k: v for k, v in values.items() if k != "e_decoy"}
    for args, kwargs in (((), without), (tuple(without.values()), {})):
        assert call_error(ThreeIntensityObservation, *args, **kwargs) is TypeError
    with pytest.raises(decoyqkd.InvalidParameterError):
        Tagged(**{**values, "q_signal": 2.0})


def test_registration_raises_where_dataclasses_reads_other_fields():
    class WithClassVar(_Record):
        """A ClassVar, a field to the record, no field to dataclasses."""

        x: int
        y: ClassVar[int] = 0

    class WithField(_Record):
        """A dataclasses.field default, taken as it is by the record."""

        x: int = dataclasses.field(default=1)

    for cls in (WithClassVar, WithField):
        # every use raises, the second as the first
        for _ in range(2):
            with pytest.raises(TypeError, match="dataclasses reads the fields"):
                dataclasses.fields(cls)
            assert not registered(cls)


def test_the_base_is_no_dataclass():
    assert not dataclasses.is_dataclass(_Record)
    assert not hasattr(_Record, "__dataclass_fields__")
    assert not hasattr(_Record, "__dataclass_params__")
    # the signature of its own constructor
    assert str(inspect.signature(_Record)) == "(*args, **kwargs) -> None"


def test_threads_that_register_one_record_together_agree():
    class Shared(_Record):
        """A throwaway record, first used by eight threads at once."""

        a: int
        b: float = 1.0
        c: str = ""

    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads

    def first_use(i: int) -> None:
        barrier.wait(timeout=30)
        results[i] = (dataclasses.fields(Shared), inspect.signature(Shared))

    threads = [threading.Thread(target=first_use, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # a Field equals itself alone, so equal results come from one registration
    assert results[0] is not None
    assert all(result == results[0] for result in results)


# first uses of the dataclasses API on a package record, each made in a
# fresh interpreter, where no record is registered yet
FIRST_USES = {
    "is_dataclass-class": "dataclasses.is_dataclass(Cls)",
    "is_dataclass-instance": "dataclasses.is_dataclass(rec)",
    "fields-class": "fields_of(Cls)",
    "fields-instance": "fields_of(rec)",
    "asdict": "dataclasses.asdict(rec)",
    "replace": "vars(dataclasses.replace(rec, n_decoy=7, q_signal=0.5))",
    "signature": "inspect.signature(Cls)",
    "positional-call": "Cls(0.1, 0.05, 0.02, 0.03, 1e-05, 10, 5, 2)",
}
FIRST_USE_SETUP = """
import dataclasses, inspect
from decoyqkd import ThreeIntensityObservation as Cls

def fields_of(obj):
    return [
        (f.name, f.type, "MISSING" if f.default is dataclasses.MISSING else f.default,
         f.kw_only)
        for f in dataclasses.fields(obj)
    ]

rec = Cls(q_signal=0.1, q_decoy=0.05, e_signal=0.02, e_decoy=0.03, y0_obs=1e-05,
          n_signal=10, n_decoy=5, n_vacuum=2)
"""


@pytest.mark.parametrize("first", list(FIRST_USES), ids=list(FIRST_USES))
def test_first_use_registers_a_record(first):
    # the first use, then every use, as the registered record gives them;
    # the first use registers the record, and no other step does
    uses = [FIRST_USES[first], *FIRST_USES.values()]
    script = FIRST_USE_SETUP + textwrap.dedent(
        f"""
        import sys
        if isinstance(vars(Cls)["__dataclass_fields__"], dict):
            sys.exit("registered before its first use")
        print(repr([eval(use) for use in {uses!r}]))
        """
    )
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr
    scope: dict = {}
    exec(FIRST_USE_SETUP, scope)
    assert result.stdout == repr([eval(use, scope) for use in uses]) + "\n"
