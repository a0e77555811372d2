"""Exception types shared across the toolkit, the range and integer
rules that raise :class:`InvalidParameterError`, and the base of the
package's frozen records."""

import dataclasses
import operator
import reprlib
import sys
from inspect import Parameter, Signature

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


class _Record:
    """Base of the package's frozen records.

    A subclass declares its fields as annotations, as a dataclass does,
    and checks them in ``__post_init__``. Defining the subclass registers
    it with :mod:`dataclasses`, so :func:`~dataclasses.fields`,
    :func:`~dataclasses.replace`, :func:`~dataclasses.asdict` and
    :func:`~dataclasses.is_dataclass` take it, but the registration
    generates no code: the methods below serve every record. They behave
    as a frozen dataclass's do: the constructor takes the fields, those
    with ``kw_only`` by keyword, and a wrong call raises :class:`TypeError`;
    equality and the hash go by the tuple of the fields; the repr text is
    the same; assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`.

    Equality is that of CPython up to 3.12, whose dataclass compares the
    field tuples. From 3.13 a dataclass compares field by field, which
    differs only where a field is not equal to itself: two records that
    hold the same NaN object are equal here and unequal there. A record
    is equal to itself under both, as tuple equality takes any object to
    be equal to itself.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        fields = dataclasses.fields(cls)
        missing = dataclasses.MISSING
        kinds = (Parameter.POSITIONAL_OR_KEYWORD, Parameter.KEYWORD_ONLY)
        # keyword-only fields last, as a dataclass orders its parameters
        cls.__signature__ = Signature(
            [
                Parameter(
                    f.name,
                    kinds[f.kw_only],
                    default=Parameter.empty if f.default is missing else f.default,
                    annotation=f.type,
                )
                for f in sorted(fields, key=lambda f: f.kw_only)
            ],
            return_annotation=None,
        )
        cls._names = tuple(f.name for f in fields)
        # what the constructor reads: the field names and their count, the
        # defaults, and the field checks, None where the record has none
        cls._layout = (
            frozenset(cls._names),
            len(cls._names),
            {f.name: f.default for f in fields if f.default is not missing},
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
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


# sets an instance's __dict__ past the frozen __setattr__
_set_dict = _Record.__dict__["__dict__"].__set__
