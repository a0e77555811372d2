"""Secure key rate of the sifted BB84 session (GLLP-style accounting).

The rate per signal gate is

    R = q * (-Q_s f H2(E_s) + G0 + G1^L (1 - H2(e1^U)))

balancing the error-correction cost of the whole sifted string against
the privacy-amplified single-photon and background contributions.
Negative raw rates are reported as zero but preserved in the
diagnostics, since loss sweeps need the sign change to locate the
cutoff.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .decoy import BoundsResult
from .errors import InvalidParameterError

F_EC_DEFAULT = 1.22


@dataclass(frozen=True)
class ProtocolParams:
    """Sifting factor and error-correction inefficiency.

    q_sift is 1/2 for two-detector BB84 basis sifting, 1/4 for a
    one-detector scheme; other values in (0, 1] are accepted. f_ec >= 1
    measures the error-correction overhead above the Shannon limit.
    """

    q_sift: float = 0.5
    f_ec: float = F_EC_DEFAULT

    def __post_init__(self) -> None:
        if not 0.0 < self.q_sift <= 1.0:
            raise InvalidParameterError(
                f"q_sift={self.q_sift!r} outside (0, 1]"
            )
        if not self.f_ec >= 1.0:
            raise InvalidParameterError(f"f_ec={self.f_ec!r} must be >= 1")


@dataclass(frozen=True)
class KeyRateComponents:
    """Diagnostic breakdown of the rate bracket (before sifting)."""

    ec_cost: float
    g0: float
    g1_term: float
    raw_rate: float


@dataclass(frozen=True)
class KeyRateResult:
    rate_per_pulse: float
    secure_bits: int
    negative: bool
    components: KeyRateComponents


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x), with H2(0) = H2(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError(f"x={x!r} outside [0, 1]")
    return _h2(x)


def _h2(x: float) -> float:
    """Kernel of :func:`binary_entropy`, unchecked: for an ``x`` that is
    in [0, 1] by construction."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _privacy(e1: float) -> float:
    """The privacy-amplification factor 1 - H2(e1) of single-photon key,
    with a bound e1 above one capped at one."""
    return 1.0 - binary_entropy(min(e1, 1.0))


def _key_rate(
    q_gain: float, e_signal: float, e1: float, g0: float, g1: float, p: ProtocolParams
) -> tuple[float, float, float, float]:
    """Kernel of :func:`key_rate`: the floored rate, then ec_cost,
    g1_term and raw_rate of :class:`KeyRateComponents`. The raw rate is
    the GLLP bracket ``q_sift * (-Q f H2(E) + G0 + G1 (1 - H2(e1)))``."""
    g1_term = g1 * _privacy(e1)
    ec_cost = q_gain * p.f_ec * binary_entropy(e_signal)
    raw = p.q_sift * (-ec_cost + g0 + g1_term)
    return max(raw, 0.0), ec_cost, g1_term, raw


def key_rate(
    q_gain_signal: float,
    e_signal: float,
    bounds: BoundsResult,
    p: ProtocolParams,
    n_signal: int | None = None,
) -> KeyRateResult:
    """Secure key rate per signal gate.

    ``bounds`` may be degenerate (flagged); the formula is evaluated as
    given and the result floored at zero with ``negative`` set. When
    ``n_signal`` is supplied the integer secure-bit yield is included.
    """
    if not 0.0 <= q_gain_signal <= 1.0:
        raise InvalidParameterError(
            f"q_gain_signal={q_gain_signal!r} outside [0, 1]"
        )
    if not 0.0 <= e_signal <= 1.0:
        raise InvalidParameterError(f"e_signal={e_signal!r} outside [0, 1]")

    rate, ec_cost, g1_term, raw = _key_rate(
        q_gain_signal, e_signal, bounds.e1_upper, bounds.g0, bounds.g1_lower, p
    )
    bits = secure_bits(rate, n_signal) if n_signal is not None else 0
    return KeyRateResult(
        rate_per_pulse=rate,
        secure_bits=bits,
        negative=raw < 0.0,
        components=KeyRateComponents(
            ec_cost=ec_cost, g0=bounds.g0, g1_term=g1_term, raw_rate=raw
        ),
    )


def secure_bits(rate: float, n_signal: int) -> int:
    """Integer secure-bit yield, floor(rate * n_signal)."""
    if not rate >= 0.0:
        raise InvalidParameterError(f"rate={rate!r} must be >= 0")
    if n_signal < 0:
        raise InvalidParameterError(f"n_signal={n_signal!r} must be >= 0")
    # an int past the float range cannot enter the product
    bits = rate * n_signal if n_signal <= sys.float_info.max else math.inf
    if not math.isfinite(bits):
        raise InvalidParameterError(
            f"rate={rate!r} times n_signal={n_signal!r} is not finite"
        )
    return math.floor(bits)
