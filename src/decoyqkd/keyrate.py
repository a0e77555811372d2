"""Secure key rate of the sifted BB84 session (GLLP-style accounting).

The rate per signal gate is

    R = q * (-Q_s f H2(E_s) + G0 + G1^L (1 - H2(min(e1^U, 1/2))))

balancing the error-correction cost of the whole sifted string against
the privacy-amplified single-photon and background contributions.
Negative raw rates are reported as zero but preserved in the
diagnostics, since loss sweeps need the sign change to locate the
cutoff.
"""

from __future__ import annotations

import math
import sys

from .decoy import BoundsResult
from .errors import InvalidParameterError, _Record, _check_integer, _check_range

F_EC_DEFAULT = 1.22


class ProtocolParams(_Record):
    """Sifting factor and error-correction inefficiency.

    q_sift is 1/2 for two-detector BB84 basis sifting, 1/4 for a
    one-detector scheme; other values in (0, 1] are accepted. f_ec >= 1
    measures the error-correction overhead above the Shannon limit.
    """

    q_sift: float = 0.5
    f_ec: float = F_EC_DEFAULT

    def __post_init__(self) -> None:
        _check_range("q_sift", self.q_sift, 0, 1, "(]")
        _check_range("f_ec", self.f_ec, 1)


class KeyRateComponents(_Record):
    """Diagnostic breakdown of the rate bracket (before sifting)."""

    ec_cost: float
    g0: float
    g1_term: float
    raw_rate: float


class KeyRateResult(_Record):
    """Secure key rate per signal gate, floored at zero; ``negative`` is
    set where the formula gave less. ``secure_bits`` is the integer
    yield over the signal gates, 0 when their count was not given."""

    rate_per_pulse: float
    secure_bits: int
    negative: bool
    components: KeyRateComponents


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x), with H2(0) = H2(1) = 0 by continuity."""
    _check_range("x", x, 0, 1)
    return _h2(x)


def _h2(x: float) -> float:
    """Kernel of :func:`binary_entropy`, unchecked: for an ``x`` that is
    in [0, 1] by construction."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _privacy(e1: float) -> float:
    """The privacy-amplification factor 1 - H2(min(e1, 1/2)) of
    single-photon key. The factor is 0 at e1 = 1/2, where Eve may know
    everything; past 1/2, H2 falls again, and an uncapped e1 would count
    key that no bound justifies (at e1 = 1, the whole of G1).

    Unchecked: every ``e1`` lies in [0, 1] where it is made, checked by
    :class:`decoy.BoundsResult` for :func:`key_rate`, clamped by
    ``decoy._e1_upper`` in a sweep, and a ratio of a QBER numerator to a
    yield no smaller than it in ``session._wcs_rate``."""
    return 1.0 - _h2(min(e1, 0.5))


def _key_rate(
    q_gain: float, e_signal: float, e1: float, g0: float, g1: float, p: ProtocolParams
) -> tuple[float, float, float, float]:
    """Kernel of :func:`key_rate`: the floored rate, then ec_cost,
    g1_term and raw_rate of :class:`KeyRateComponents`. The raw rate is
    the GLLP bracket ``q_sift * (-Q f H2(E) + G0 + G1 (1 - H2(min(e1, 1/2))))``.

    Unchecked, as :func:`_privacy` is: :func:`key_rate` checks
    ``e_signal``, and a sweep takes it from ``channel._qber``, which
    caps a non-negative ratio at 1."""
    g1_term = g1 * _privacy(e1)
    ec_cost = q_gain * p.f_ec * _h2(e_signal)
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
    _check_range("q_gain_signal", q_gain_signal, 0, 1)
    _check_range("e_signal", e_signal, 0, 1)

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
    """Integer secure-bit yield, floor(rate * n_signal).

    ``n_signal`` is an integer, a float never. A factor that is infinite
    or an int past the float range fails the rule on the product, which
    must be finite, and the error names both."""
    _check_range("rate", rate, 0, math.inf)
    _check_integer("n_signal", n_signal, 0, math.inf)
    # an int past the float range cannot enter a float product
    bits = rate * n_signal if max(rate, n_signal) <= sys.float_info.max else math.inf
    if not bits <= sys.float_info.max:
        raise InvalidParameterError(
            f"rate={rate!r} times n_signal={n_signal!r} is not finite"
        )
    return math.floor(bits)
