"""Exception types shared across the toolkit, the range and integer
rules that raise :class:`InvalidParameterError`, and the base of the
package's frozen records."""

import _thread
import operator
import reprlib
import sys

_FLOAT_MAX = sys.float_info.max


class InvalidParameterError(ValueError):
    """A model parameter or argument violates its documented range."""


class UndefinedStatisticError(ValueError):
    """A statistic is requested where it is mathematically undefined
    (e.g. g2(0) of a vacuum-only distribution, QBER at zero gain)."""


class InconsistentDataError(ValueError):
    """Measured rates cannot be explained by the detection model
    (the inverted parameter falls outside its physical range)."""


class DegenerateDistributionError(ValueError):
    """The signal/decoy distribution pair cannot separate the
    single-photon contribution (vanishing two-photon weight or a
    non-positive estimator denominator)."""


class ConfigError(ValueError):
    """A configuration document is malformed; the message carries the
    offending field path."""


def _check_range(
    name: str, value: float, low: float, high: float | None = None, ends: str = "[]"
) -> None:
    """Raise :class:`InvalidParameterError` ``name=value ...`` unless
    ``value`` lies between ``low`` and ``high``, each end closed ('[', ']')
    or open ('(', ')') as ``ends`` writes it. NaN lies in no range.

    With no ``high`` the range runs up to the largest float, that end
    included whatever ``ends[1]``, so ±inf and an int past
    ``sys.float_info.max`` are refused: no arithmetic can take them.
    """
    top = _FLOAT_MAX if high is None else high
    # the closed range, by far the most common, takes one comparison chain
    if ends == "[]":
        if low <= value <= top:
            return
    elif (low <= value if ends[0] == "[" else low < value) and (
        value <= top if ends[1] == "]" or high is None else value < top
    ):
        return
    if high is None:
        rule = f"must be finite and {'>=' if ends[0] == '[' else '>'} {low}"
    else:
        rule = f"outside {ends[0]}{low}, {high}{ends[1]}"
    raise InvalidParameterError(f"{name}={value!r} {rule}")


def _check_integer(
    name: str, value: int, low: float | None = None, high: float | None = None
) -> None:
    """Raise :class:`InvalidParameterError` ``name=value ...`` unless
    ``value`` is an integer as :func:`operator.index` reads one: an int,
    a bool or a numpy integer pass, a float never does, 2.0 included.
    Given a ``low``, the integer must then pass :func:`_check_range`
    between ``low`` and ``high``, both ends closed."""
    try:
        operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name}={value!r} must be an integer") from None
    if low is not None:
        _check_range(name, value, low, high)


# stands for "no default" in a record's own field table
_NO_DEFAULT = object()

# guards the registration of a record with dataclasses: a registration
# reads its bases' fields, so may register them, under the same lock
_register_lock = _thread.RLock()


class _Registered:
    """A class attribute of a record that :mod:`dataclasses` or
    :mod:`inspect` reads, set on each record class until the record is
    registered: the first read registers the record with
    :mod:`dataclasses`, which replaces it with the attribute's value. Each
    class holds its own, so that no class reads its base's registration."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner: type):
        with _register_lock:
            if owner.__dict__[self.name] is self:
                _register(owner)
        return owner.__dict__[self.name]


_UNREGISTERED = [
    _Registered(name)
    for name in ("__dataclass_fields__", "__dataclass_params__", "__signature__")
]


class _Record:
    """Base of the package's frozen records.

    A subclass declares its fields as annotations, as a dataclass does,
    and checks them in ``__post_init__``. Defining the subclass reads its
    fields, after its bases' ones, and raises what ``@dataclass`` raises
    for a field without a default after one with a default or for a
    mutable default. No code is generated: the methods below serve every
    record, as a frozen dataclass's would. Every record takes its fields
    in field order, by position or keyword, and a wrong call raises
    :class:`TypeError`; equality and the hash go by the field tuple; the
    repr text is a dataclass's; assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`.

    A record is registered with :mod:`dataclasses` on first use of that
    API: the first read of ``__dataclass_fields__``,
    ``__dataclass_params__`` or ``__signature__``, on the class or an
    instance, makes the registration, so :func:`~dataclasses.fields`,
    :func:`~dataclasses.replace`, :func:`~dataclasses.asdict`,
    :func:`~dataclasses.is_dataclass` and :func:`inspect.signature` take
    every record and return what they did for a record registered at
    definition. The registration raises :class:`TypeError` if the fields
    :mod:`dataclasses` reads differ from the record's own reading, as
    they do for a ``ClassVar`` or a ``dataclasses.field`` default. No
    command of the package makes it: :meth:`_asdict` and :meth:`_replace`
    do for the package what :func:`~dataclasses.asdict` and
    :func:`~dataclasses.replace` do.

    Equality is that of CPython up to 3.12, whose dataclass compares the
    field tuples; from 3.13 it compares field by field, so two records
    that hold the same NaN object are equal here and unequal there. A
    record equals itself under both.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # name -> (annotation, default), collected as a dataclass collects
        # its fields: the bases' first, then the class's own, a redefined
        # one in its old place
        specs: dict = {}
        for base in cls.__mro__[-1:0:-1]:
            specs.update(getattr(base, "_specs", {}))
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            default = getattr(cls, name, _NO_DEFAULT)
            if default.__class__.__hash__ is None:
                raise ValueError(
                    f"mutable default {type(default)} for field {name} is not "
                    "allowed: use default_factory"
                )
            specs[name] = (annotation, default)
        seen_default = False
        for name, (_, default) in specs.items():
            if default is not _NO_DEFAULT:
                seen_default = True
            elif seen_default:
                raise TypeError(
                    f"non-default argument {name!r} follows default argument"
                )
        cls._specs = specs
        cls._names = tuple(specs)
        for attr in _UNREGISTERED:
            setattr(cls, attr.name, attr)
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls._names
        # what the constructor reads: the field names and their count, the
        # defaults, and the field checks, None where the record has none
        cls._layout = (
            frozenset(cls._names),
            len(cls._names),
            {n: s[1] for n, s in specs.items() if s[1] is not _NO_DEFAULT},
            None if cls.__post_init__ is _Record.__post_init__ else cls.__post_init__,
        )

    def __init__(self, /, *args, **kwargs) -> None:
        names, n_names, defaults, check = self._layout
        # a call by keyword, the one the package makes, adopts its own dict,
        # which no one else holds, as the instance dict; a call with
        # positional arguments, and one that misses a field or names an
        # unknown one, is bound by the signature
        if args:
            values = self._bind(args, kwargs)
        else:
            values = kwargs
            if len(values) < n_names:
                values = {**defaults, **values}
            if len(values) != n_names or not names.issuperset(kwargs):
                values = self._bind(args, kwargs)
        # one store past the frozen __setattr__, not one per field
        _set_dict(self, values)
        if check is not None:
            check(self)

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """The fields of a call that is not all by keyword, or is wrong: the
        signature raises the standard :class:`TypeError` for a wrong call
        and binds any other."""
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def __post_init__(self) -> None:
        """Check the fields; a record with no rule keeps this one."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._names])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        """The fields by name, in field order, as :func:`dataclasses.asdict`
        gives them: a record within becomes a dict, and a tuple, list or
        dict is rebuilt from its items (a namedtuple's by position), each
        converted the same way. Any other value is taken as it is, where
        ``asdict`` deep-copies it."""
        return {name: _plain(getattr(self, name)) for name in self._names}

    def _replace(self, /, **changes):
        """A copy with ``changes``, made as :func:`dataclasses.replace` makes
        one: the constructor takes the changed fields, then the others in
        field order, and raises :class:`TypeError` for an unknown one."""
        for name in self._names:
            if name not in changes:
                changes[name] = getattr(self, name)
        return self.__class__(**changes)

    # what copy.replace calls, from CPython 3.13
    __replace__ = _replace


# sets an instance's __dict__ past the frozen __setattr__
_set_dict = _Record.__dict__["__dict__"].__set__


def _plain(value):
    """A field value as :meth:`_Record._asdict` gives it."""
    if isinstance(value, _Record):
        return value._asdict()
    if isinstance(value, (list, tuple)):
        items = [_plain(item) for item in value]
        if isinstance(value, tuple) and hasattr(value, "_fields"):
            return type(value)(*items)
        return type(value)(items)
    if isinstance(value, dict):
        return type(value)({_plain(k): _plain(v) for k, v in value.items()})
    return value


def _register(cls: type) -> None:
    """Register the record ``cls`` with :mod:`dataclasses`, with no code
    generated, and set its signature: every field in field order, by
    position or keyword. Raise :class:`TypeError`, leaving the record
    unregistered, if :mod:`dataclasses` reads other fields than the
    record's own ``_specs``. Called under ``_register_lock``."""
    import dataclasses
    from inspect import Parameter, Signature

    specs = cls._specs
    # set first, as dataclass() reads it to write a missing docstring
    cls.__signature__ = Signature(
        [
            Parameter(
                name,
                Parameter.POSITIONAL_OR_KEYWORD,
                default=Parameter.empty if default is _NO_DEFAULT else default,
                annotation=annotation,
            )
            for name, (annotation, default) in specs.items()
        ],
        return_annotation=None,
    )
    missing = dataclasses.MISSING
    try:
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        # defaults by identity: both readings take the class attribute
        theirs = [
            (f.name, id(_NO_DEFAULT if f.default is missing else f.default))
            for f in dataclasses.fields(cls)
        ]
        ours = [(name, id(default)) for name, (_, default) in specs.items()]
        if theirs != ours:
            raise TypeError(
                f"dataclasses reads the fields of {cls.__qualname__} as "
                f"{[f.name for f in dataclasses.fields(cls)]}, the record as "
                f"{list(specs)}, or with other defaults"
            )
    except Exception:
        for attr in _UNREGISTERED:
            setattr(cls, attr.name, attr)
        raise
