"""Three-intensity decoy-state estimation of the single-photon channel.

From the observed gains and QBERs at a signal intensity, a weaker decoy
intensity and a (near-)vacuum intensity, the estimator bounds the yield
and error rate of single-photon pulses:

    Y1 >= [P'(2) Q_d^L - P_d(2) Q_s^U - Y0^U (P'(2) P_d(0) - P_d(2) P'(0))]
          / (P'(2) P_d(1) - P_d(2) P'(1))

    e1 <= [(Q_s E_s)^U - e0 Y0^L P'(0)] / (Y1^L P'(1))

where primes denote the signal distribution and the superscripts are
finite-statistics envelopes: each observable V measured over N gates is
widened to V (1 +/- n_sigma / sqrt(N V)). :func:`fluctuation_bounds`
computes that envelope once per session; the estimators read it and
return ``(value, flags)`` pairs. The derivation requires the
distribution pair to satisfy a sign condition on every multi-photon
coefficient, checked termwise by :func:`check_condition`.

A pessimistic no-decoy bound (same e1 formula, exact for a source with
P(1) = 1) is provided for scheme comparisons. All bounds clamp into
[0, 1]; any clamp or degeneracy is reported through ``flags`` rather
than silently. The estimators read observables, never the channel model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import E0_DEFAULT
from .errors import DegenerateDistributionError, InvalidParameterError, _check_range
from .sources import PhotonNumberDistribution


@dataclass(frozen=True)
class FluctuationPolicy:
    """Number of counting-statistics standard deviations applied to the
    observables; 0 disables fluctuations entirely."""

    n_sigma: float = 0.0

    def __post_init__(self) -> None:
        _check_range("n_sigma", self.n_sigma, 0)


@dataclass(frozen=True)
class ThreeIntensityObservation:
    """Observed per-gate statistics of one three-intensity session.

    ``y0_obs`` is the counting rate of the vacuum intensity standing in
    for the background yield (pessimistic when the vacuum setting
    leaks). ``e_decoy`` is carried for reporting only; the estimator
    does not use it.
    """

    q_signal: float
    q_decoy: float
    e_signal: float
    e_decoy: float | None = field(default=None, kw_only=True)
    y0_obs: float
    n_signal: int
    n_decoy: int
    n_vacuum: int

    def __post_init__(self) -> None:
        for name in ("q_signal", "q_decoy", "e_signal", "y0_obs"):
            _check_range(name, getattr(self, name), 0, 1)
        if self.e_decoy is not None:
            _check_range("e_decoy", self.e_decoy, 0, 1)
        for name in ("n_signal", "n_decoy", "n_vacuum"):
            v = getattr(self, name)
            if not isinstance(v, int):
                raise InvalidParameterError(f"{name}={v!r} must be a positive integer")
            _check_range(name, v, 1)


@dataclass(frozen=True)
class ObservableBounds:
    """Fluctuation envelopes on the raw observables.

    ``clamped`` lists the lower bounds whose relative half-width
    n_sigma / sqrt(N V) reached one, forcing a clamp at zero.
    """

    q_decoy_low: float
    q_signal_high: float
    eq_signal_high: float
    y0_low: float
    y0_high: float
    clamped: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundsResult:
    """Single-photon bounds plus the gain components entering the key rate.

    g0 is the background gain y0 * P'(0); g1_lower = y1_lower * P'(1).
    ``flags`` records clamps and degeneracies ('y1-negative-clamped',
    'e1-clamped-high', 'e1-unbounded', ...); an empty tuple means every
    quantity came out of its formula untouched.
    """

    y1_lower: float
    e1_upper: float
    g0: float
    g1_lower: float
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("y1_lower", "e1_upper", "g0", "g1_lower"):
            _check_range(name, getattr(self, name), 0, 1)


# the channel-independent part of the three-intensity bounds: P'(0), P'(1),
# P'(2) and P_d(2), the background coefficient c0 = P'(2) P_d(0) - P_d(2) P'(0)
# and the denominator P'(2) P_d(1) - P_d(2) P'(1)
Pair = tuple[float, float, float, float, float, float]
# the widened observables: the fields of ObservableBounds but ``clamped``
Widened = tuple[float, float, float, float, float]
# a signal distribution's P(0), P(1) and P(m >= 2)
Weights = tuple[float, float, float]
# the bounds: the fields of BoundsResult, in order
Bounds = tuple[float, float, float, float, tuple[str, ...]]


def _pair(
    dist_signal: PhotonNumberDistribution, dist_decoy: PhotonNumberDistribution
) -> Pair:
    """The :data:`Pair` terms of a distribution pair, checked by
    :func:`_check_denominator` where they are used."""
    # every distribution has bins 0..2
    p0, p1, p2s = dist_signal.probs[:3]
    d0, d1, p2d = dist_decoy.probs[:3]
    return p0, p1, p2s, p2d, p2s * d0 - p2d * p0, p2s * d1 - p2d * p1


def _check_denominator(pair: Pair) -> None:
    """Raise :class:`DegenerateDistributionError` when both two-photon
    weights vanish or the pair cannot separate the single-photon yield
    (identical distributions land here)."""
    _, _, p2s, p2d, _, den = pair
    if p2s == 0.0 and p2d == 0.0:
        raise DegenerateDistributionError(
            "both distributions have zero two-photon probability"
        )
    if den <= 0.0:
        raise DegenerateDistributionError(
            "signal/decoy pair cannot separate the single-photon yield "
            f"(estimator denominator {den!r} is not positive)"
        )


def check_condition(
    dist_signal: PhotonNumberDistribution,
    dist_decoy: PhotonNumberDistribution,
) -> bool:
    """Termwise applicability condition of the three-intensity estimator.

    Verifies c_n = P'(2) P_d(n) - P_d(2) P'(n) <= 0 for every n >= 2 up
    to the truncation, which is sufficient for the estimator to be a
    true lower bound whatever the yields are. The comparison includes
    the folded tail bins; their mass only strengthens the signal side
    in any physically sensible pairing.

    Also validates the estimator denominator, so degenerate pairs raise
    here instead of deep inside the estimate.
    """
    pair = _pair(dist_signal, dist_decoy)
    _check_denominator(pair)
    _, _, p2s, p2d, _, _ = pair
    # P(n) is zero beyond a distribution's truncation
    signal, decoy = dist_signal.probs, dist_decoy.probs
    top = max(len(signal), len(decoy))
    signal += (0.0,) * (top - len(signal))
    decoy += (0.0,) * (top - len(decoy))
    return all(p2s * d - p2d * s <= 0.0 for s, d in zip(signal[2:], decoy[2:]))


def _half_width(value: float, n_pulses: int, n_sigma: float) -> float:
    if n_sigma == 0.0:
        return 0.0
    return n_sigma / math.sqrt(n_pulses * value) if value > 0.0 else math.inf


def _high(value: float, n_pulses: int, n_sigma: float) -> float:
    if value <= 0.0:
        return 0.0
    return min(value * (1.0 + _half_width(value, n_pulses, n_sigma)), 1.0)


def _envelope(
    observed: tuple[float, float, float, float],
    gates: tuple[int, int, int],
    n_sigma: float,
) -> tuple[Widened, tuple[str, ...]]:
    """Kernel of :func:`fluctuation_bounds`: the widened observables and
    the names of the lower bounds clamped at zero, from the ``observed``
    Q_s, Q_d, E_s and Y0 over the signal, decoy and vacuum ``gates``."""
    q_signal, q_decoy, e_signal, y0_obs = observed
    n_signal, n_decoy, n_vacuum = gates
    w_decoy = _half_width(q_decoy, n_decoy, n_sigma)
    w_vacuum = _half_width(y0_obs, n_vacuum, n_sigma)
    return (
        q_decoy * (1.0 - w_decoy) if w_decoy < 1.0 else 0.0,
        _high(q_signal, n_signal, n_sigma),
        _high(q_signal * e_signal, n_signal, n_sigma),
        y0_obs * (1.0 - w_vacuum) if w_vacuum < 1.0 else 0.0,
        _high(y0_obs, n_vacuum, n_sigma),
    ), ("q_decoy_low",) * (w_decoy >= 1.0) + ("y0_low",) * (w_vacuum >= 1.0)


def fluctuation_bounds(
    obs: ThreeIntensityObservation, pol: FluctuationPolicy
) -> ObservableBounds:
    """Widen the observables by n_sigma counting standard deviations.

    Each observable V over N gates gets the relative half-width
    n_sigma / sqrt(N V); with n_sigma = 0 the central values are
    returned unchanged. Lower bounds clamp at zero (flagged) when the
    half-width reaches one.
    """
    observed = (obs.q_signal, obs.q_decoy, obs.e_signal, obs.y0_obs)
    gates = (obs.n_signal, obs.n_decoy, obs.n_vacuum)
    widened, clamped = _envelope(observed, gates, pol.n_sigma)
    return ObservableBounds(*widened, clamped=clamped)


def _widened(fb: ObservableBounds) -> Widened:
    return fb.q_decoy_low, fb.q_signal_high, fb.eq_signal_high, fb.y0_low, fb.y0_high


def _y1_lower(widened: Widened, pair: Pair) -> tuple[float, tuple[str, ...]]:
    """Kernel of :func:`estimate_y1_lower`."""
    _check_denominator(pair)
    q_decoy_low, q_signal_high, _, _, y0_high = widened
    _, _, p2s, p2d, c0, den = pair
    y1 = (p2s * q_decoy_low - p2d * q_signal_high - y0_high * c0) / den
    if y1 < 0.0:
        return 0.0, ("y1-negative-clamped",)
    if y1 > 1.0:
        return 1.0, ("y1-clamped-high",)
    return y1, ()


def estimate_y1_lower(
    fb: ObservableBounds,
    dist_signal: PhotonNumberDistribution,
    dist_decoy: PhotonNumberDistribution,
) -> tuple[float, tuple[str, ...]]:
    """Lower-bound the single-photon yield from the intensity pair.

    Returns ``(y1_lower, flags)``; a bound outside [0, 1] is clamped and
    flagged. On noiseless observables the bound is guaranteed not to
    exceed the true Y1 whenever :func:`check_condition` holds; checking
    that condition is the caller's responsibility (degenerate pairs
    still raise here).
    """
    return _y1_lower(_widened(fb), _pair(dist_signal, dist_decoy))


def _check_single_photon_weight(p1: float) -> None:
    if p1 <= 0.0:
        raise DegenerateDistributionError(
            "signal distribution has no single-photon weight"
        )


def _e1_upper(
    eq_signal: float, y0: float, p0: float, p1: float, y1: float, e0: float
) -> tuple[float, tuple[str, ...]]:
    """The e1 bound of :func:`estimate_bounds` and :func:`no_decoy_bounds`,
    given a Y1 lower bound: (E_s Q_s - e0 Y0 P'(0)) / (Y1 P'(1)), clamped
    into [0, 1]. A vanishing ``y1`` leaves the error unbounded (1,
    flagged). On noiseless observables the bound is guaranteed not to
    fall below the true e1."""
    if y1 <= 0.0:
        return 1.0, ("e1-unbounded",)
    _check_single_photon_weight(p1)
    e1 = (eq_signal - e0 * y0 * p0) / (y1 * p1)
    if e1 < 0.0:
        return 0.0, ("e1-clamped-low",)
    if e1 > 1.0:
        return 1.0, ("e1-clamped-high",)
    return e1, ()


def _estimate_bounds(widened: Widened, y0_obs: float, pair: Pair, e0: float) -> Bounds:
    """Kernel of :func:`estimate_bounds`."""
    y1, y1_flags = _y1_lower(widened, pair)
    _, _, eq_signal_high, y0_low, _ = widened
    p0, p1, _, _, _, _ = pair
    e1, e1_flags = _e1_upper(eq_signal_high, y0_low, p0, p1, y1, e0)
    return y1, e1, y0_obs * p0, y1 * p1, y1_flags + e1_flags


def estimate_bounds(
    obs: ThreeIntensityObservation,
    dist_signal: PhotonNumberDistribution,
    dist_decoy: PhotonNumberDistribution,
    fb: ObservableBounds,
    e0: float = E0_DEFAULT,
) -> BoundsResult:
    """Full three-intensity estimate from the envelope ``fb`` of ``obs``:
    Y1 lower bound, then e1 upper bound. The background gain g0 uses the
    central ``obs.y0_obs``."""
    _check_range("e0", e0, 0, 1)
    pair = _pair(dist_signal, dist_decoy)
    return BoundsResult(*_estimate_bounds(_widened(fb), obs.y0_obs, pair, e0))


def _no_decoy_bounds(
    q_signal: float, e_signal: float, y0_obs: float, weights: Weights, e0: float
) -> Bounds:
    """Kernel of :func:`no_decoy_bounds`, on the signal's ``weights``
    P(0), P(1) and P(m >= 2)."""
    p0, p1, p_multi = weights
    _check_single_photon_weight(p1)
    flags: tuple[str, ...] = ()
    g0 = y0_obs * p0
    g1 = q_signal - g0 - p_multi
    if g1 < 0.0:
        flags = ("y1-negative-clamped",)
        g1 = 0.0
    y1 = g1 / p1
    if y1 > 1.0:
        flags = ("y1-clamped-high",)
        y1 = 1.0
        g1 = y1 * p1
    e1, e1_flags = _e1_upper(e_signal * q_signal, y0_obs, p0, p1, y1, e0)
    return y1, e1, g0, g1, flags + e1_flags


def no_decoy_bounds(
    q_signal: float,
    e_signal: float,
    y0_obs: float,
    dist_signal: PhotonNumberDistribution,
    e0: float = E0_DEFAULT,
) -> BoundsResult:
    """Pessimistic single-photon bounds without decoy information.

    Every undetected pulse is attributed to single photons, so the
    single-photon gain keeps only what multi-photon emission cannot
    explain:

        G1^L = Q_s - G0 - P'(m >= 2)

    floored at zero (flagged). The error bound is the e1 formula with
    these values and the central observables.
    """
    for name, v in (("q_signal", q_signal), ("e_signal", e_signal), ("y0_obs", y0_obs)):
        _check_range(name, v, 0, 1)
    _check_range("e0", e0, 0, 1)
    weights = (dist_signal.p(0), dist_signal.p(1), dist_signal.p_at_least(2))
    return BoundsResult(*_no_decoy_bounds(q_signal, e_signal, y0_obs, weights, e0))
