"""Exception types shared across the toolkit, and the range and integer
rules that raise :class:`InvalidParameterError`."""

import operator
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
