"""Channel and detector model: per-photon-number yields, gains and QBERs.

The lossy link plus Bob's detector are collapsed into a single
transmittance ``eta``; dark counts and stray light enter as a background
yield ``y0`` per gate. An n-photon pulse is detected with yield

    Y_n = y0 + 1 - (1 - eta)^n        (clamped to 1)

and contributes errors through misalignment (``e_det``) on signal
detections and random outcomes (``e0``, normally 1/2) on background
detections:

    e_n = (e0 * y0 + e_det * (1 - (1 - eta)^n)) / Y_n.

Folding a source distribution through these gives the per-gate gain and
average QBER observable at a given intensity setting.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import InvalidParameterError, UndefinedStatisticError, _check_range
from .sources import PhotonNumberDistribution

E0_DEFAULT = 0.5


@dataclass(frozen=True)
class ChannelParams:
    """Aggregate channel/detector parameters.

    eta    combined transmittance times detection efficiency, in (0, 1].
    y0     background yield per gate (dark counts, stray light).
    e_det  misalignment error probability of a signal detection.
    e0     error probability of a background detection (1/2: random).
    """

    eta: float
    y0: float
    e_det: float
    e0: float = E0_DEFAULT

    def __post_init__(self) -> None:
        _check_range("eta", self.eta, 0, 1, "(]")
        _check_range("y0", self.y0, 0, 1, "[)")
        _check_range("e_det", self.e_det, 0, 0.5)
        _check_range("e0", self.e0, 0, 1)


@dataclass(frozen=True)
class GainErrorPoint:
    """Per-gate detection probability and its average error ratio."""

    q_gain: float
    qber: float


def yield_n(ch: ChannelParams, n: int) -> float:
    """Detection probability for an n-photon pulse."""
    _check_range("n", n, 0)
    # grouping keeps Y_0 == y0 exact instead of (y0 + 1) - 1
    return min(ch.y0 + (1.0 - (1.0 - ch.eta) ** n), 1.0)


def error_n(ch: ChannelParams, n: int) -> float:
    """Error probability of a detected n-photon pulse.

    e_0 evaluates to ``e0`` exactly; for large n it approaches
    ``e_det`` as signal detections dominate the background.
    """
    y = yield_n(ch, n)
    if y == 0.0:
        raise UndefinedStatisticError(
            f"error probability undefined at zero yield (y0=0, n={n})"
        )
    signal = 1.0 - (1.0 - ch.eta) ** n
    return (ch.e0 * ch.y0 + ch.e_det * signal) / y


def _channel_terms(
    eta: float, y0: float, e0: float, e_det: float, n_max: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The yields Y_n = min(y0 + s, 1) and the QBER numerators
    e0 y0 + e_det s, with s = 1 - (1 - eta)^n, for n = 0..n_max: the
    terms of :func:`yield_n` and :func:`error_n`, bit for bit."""
    signal = [1.0 - (1.0 - eta) ** n for n in range(n_max + 1)]
    # min(y0 + s, 1.0), at a quarter of the cost of the builtin call
    yields = tuple([y0 + s if y0 + s < 1.0 else 1.0 for s in signal])
    e0_y0 = e0 * y0
    return yields, tuple([e0_y0 + e_det * s for s in signal])


def _gain(probs: tuple[float, ...], yields: tuple[float, ...]) -> float:
    """Kernel of :func:`gain`, on the yields of :func:`_channel_terms`."""
    return math.fsum(map(operator.mul, probs, yields))


def _qber(q: float, probs: tuple[float, ...], numerators: tuple[float, ...]) -> float:
    """Kernel of :func:`qber`: the QBER at gain ``q``, on the error
    numerators of :func:`_channel_terms`. Raises at zero gain, and where
    rounding in a folded distribution pushed the gain above one."""
    if q <= 0.0:
        raise UndefinedStatisticError("QBER undefined at zero gain")
    if q > 1.0:
        raise InvalidParameterError(f"q_gain={q!r} outside [0, 1]")
    return min(math.fsum(map(operator.mul, probs, numerators)) / q, 1.0)


def gain(dist: PhotonNumberDistribution, ch: ChannelParams) -> float:
    """Per-gate gain of a source through the channel, sum_n Y_n P(n).

    The folded tail bin is weighted with the yield at the truncation
    order; the bias is bounded by the tail mass itself.
    """
    yields, _ = _channel_terms(ch.eta, ch.y0, ch.e0, ch.e_det, dist.n_max)
    return _gain(dist.probs, yields)


def qber(dist: PhotonNumberDistribution, ch: ChannelParams) -> GainErrorPoint:
    """Gain and average QBER, E = sum_n Y_n P(n) e_n / Q.

    The float kernels :func:`_gain` and :func:`_qber` compute and check
    the pair; this wrapper puts it in a record. Sessions and loss sweeps
    call the kernels, with one set of channel terms for all settings.
    """
    yields, numerators = _channel_terms(ch.eta, ch.y0, ch.e0, ch.e_det, dist.n_max)
    q = _gain(dist.probs, yields)
    return GainErrorPoint(q_gain=q, qber=_qber(q, dist.probs, numerators))


def loss_db_to_eta(loss_db: float) -> float:
    """Total loss in dB to linear transmittance, eta = 10^(-loss/10),
    which lies in (0, 1]: a loss whose transmittance underflows to 0
    (above about 3,236 dB) is rejected."""
    _check_range("loss_db", loss_db, 0)
    # a numpy scalar would take numpy's pow, whose last bit can differ
    eta = 10.0 ** (-float(loss_db) / 10.0)
    if eta == 0.0:
        raise InvalidParameterError(
            f"loss_db={loss_db!r} too large: its transmittance underflows to 0"
        )
    return eta


def eta_to_loss_db(eta: float) -> float:
    """Linear transmittance to total loss in dB."""
    _check_range("eta", eta, 0, 1, "(]")
    return -10.0 * math.log10(eta)
