"""Photon-number statistics of the light sources feeding the QKD link.

Three source families are modelled:

* a weak coherent state (WCS), Poisson distributed with mean ``mu``;
* a heralded single-photon source (HSPS) driven by CW-pumped parametric
  down-conversion, where a herald announces its partner photon with
  correlation probability ``p_cor`` while uncorrelated (accidental)
  photons fall into the gate as a Poisson background with mean
  ``mu_acc``, and a fraction ``d_i`` of heralds are dark counts of the
  heralding detector;
* an ideal single-photon source.

All constructors return a :class:`PhotonNumberDistribution`, a truncated
probability vector whose tail mass is folded into the last bin so the
vector sums to one within ``NORMALIZATION_ATOL``: the common currency
of the channel, decoy-estimation and key-rate modules.

The module also inverts raw counting rates of the heralding setup into
the HSPS model parameters (accidental flux and correlation probability).
"""

from __future__ import annotations

import math

from .errors import (
    InconsistentDataError,
    InvalidParameterError,
    UndefinedStatisticError,
    _Record,
    _check_integer,
    _check_range,
)

N_MAX_DEFAULT = 16
# largest accepted truncation: P(n) underflows long before it, and the
# heralded-source build stops its Poisson terms where their sum rounds to 1
N_MAX_LIMIT = 256
DI_DEFAULT = 1e-3

# absolute tolerance on sum(probs) == 1 and on per-bin range checks
NORMALIZATION_ATOL = 1e-12
# an inferred correlation this close outside [0, 1] is rounding noise
CORRELATION_ATOL = 1e-6


class PhotonNumberDistribution(_Record):
    """Truncated photon-number distribution P(0..n_max).

    ``probs[n]`` is the probability of exactly ``n`` photons in a gate;
    when ``tail_folded`` is set, ``probs[-1]`` additionally absorbs all
    mass above the truncation so the vector sums to one within
    ``NORMALIZATION_ATOL``. One pass each of min, max and fsum checks it;
    it is stored as a tuple, rebuilt only to clamp a bin into [0, 1].

    ``p_ge1`` optionally records the source-statistics value of
    P(m >= 1) when it differs from ``1 - probs[0]``. A heralded source
    counts the herald-dark-count vacuum separately from its emission
    statistics, so its auto-correlation uses the emission tail rather
    than the complement of the corrected vacuum term.
    """

    probs: tuple[float, ...]
    tail_folded: bool = True
    p_ge1: float | None = None

    def __post_init__(self) -> None:
        if len(self.probs) < 3:
            raise InvalidParameterError(
                "distribution needs at least bins 0..2, got "
                f"{len(self.probs)} bins"
            )
        # min and max keep inf and huge ints from fsum; a NaN slips past them
        # but not total == total, and the loop then names the first bad bin
        lo, hi = min(self.probs), max(self.probs)
        in_range = -NORMALIZATION_ATOL <= lo and hi <= 1.0 + NORMALIZATION_ATOL
        total = math.fsum(self.probs) if in_range else math.nan
        if total != total:
            for n, p in enumerate(self.probs):
                if not (-NORMALIZATION_ATOL <= p <= 1.0 + NORMALIZATION_ATOL):
                    raise InvalidParameterError(f"probs[{n}]={p!r} outside [0, 1]")
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise InvalidParameterError(
                f"probabilities sum to {total!r}, expected 1 within "
                f"{NORMALIZATION_ATOL}"
            )
        if self.p_ge1 is not None:
            _check_range("p_ge1", self.p_ge1, 0, 1)
        # clamp float dust so downstream sums never see negative mass; the
        # same bits as min(max(p, 0.0), 1.0), -0.0 included
        if lo < 0.0 or hi > 1.0 or type(self.probs) is not tuple:
            clamped = [0.0 if p < 0.0 else 1.0 if p > 1.0 else p for p in self.probs]
            object.__setattr__(self, "probs", tuple(clamped))

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1

    def p(self, n: int) -> float:
        """P(n), zero beyond the truncated support."""
        _check_integer("n", n, 0)
        return self.probs[n] if n <= self.n_max else 0.0

    def p_at_least(self, k: int) -> float:
        """Cumulative tail P(m >= k).

        Uses the source-statistics override for k == 1 when present.
        Beyond the truncation the folded representation carries no
        information, so the tail is reported as zero.
        """
        _check_integer("k", k)
        if k <= 0:
            return 1.0
        if k == 1 and self.p_ge1 is not None:
            return self.p_ge1
        if k > self.n_max:
            return 0.0
        return max(1.0 - math.fsum(self.probs[:k]), 0.0)


class HspsParams(_Record):
    """Heralded-source model parameters.

    p_cor   probability that a herald is accompanied by its partner
            photon in the signal arm.
    mu_acc  mean accidental photon number per gate (signal-arm flux
            times gate duration).
    d_i     probability that a herald is a dark count of the heralding
            detector.
    """

    p_cor: float
    mu_acc: float
    d_i: float = DI_DEFAULT

    def __post_init__(self) -> None:
        _check_range("p_cor", self.p_cor, 0, 1)
        _check_range("mu_acc", self.mu_acc, 0)
        _check_range("d_i", self.d_i, 0, 1, "[)")


class MeasuredRates(_Record):
    """Raw counting rates of the heralding setup.

    r0_hz        heralding (gating) rate.
    rs_hz        signal-detector count rate under random gating.
    rc_hz        herald-gated coincidence rate.
    ds_hz        signal-detector dark count rate.
    eta_s        signal-detector efficiency.
    gate_time_s  detector gate duration in seconds.
    """

    r0_hz: float
    rs_hz: float
    rc_hz: float
    ds_hz: float
    eta_s: float
    gate_time_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ds_hz <= self.rs_hz:
            raise InvalidParameterError(
                f"need 0 <= ds_hz <= rs_hz, got ds_hz={self.ds_hz!r}, "
                f"rs_hz={self.rs_hz!r}"
            )
        if not self.rs_hz < self.r0_hz:
            raise InvalidParameterError(
                f"need rs_hz < r0_hz, got rs_hz={self.rs_hz!r}, "
                f"r0_hz={self.r0_hz!r}"
            )
        # every other rate is bounded by r0_hz
        _check_range("r0_hz", self.r0_hz, 0, None, "()")
        if not 0.0 <= self.rc_hz <= self.r0_hz:
            raise InvalidParameterError(
                f"rc_hz={self.rc_hz!r} outside [0, r0_hz]"
            )
        _check_range("eta_s", self.eta_s, 0, 1, "(]")
        _check_range("gate_time_s", self.gate_time_s, 0, None, "()")


def _support(*dists: PhotonNumberDistribution) -> int:
    """The highest photon number with a nonzero P(n) in any of ``dists``.

    A bin above it holds ``±0.0``, whose product with a finite channel
    term is ``±0.0``, which ``math.fsum`` skips, so folding the
    distributions only up to it gives every sum bit for bit. A heralded
    source's P(n) is 0 from where its accidentals' Poisson prefix sum
    rounds to 1."""
    support = 0
    for dist in dists:
        probs = dist.probs
        n = len(probs) - 1
        while n > support and probs[n] == 0.0:
            n -= 1
        support = max(support, n)
    return support


def _check_n_max(n_max: int) -> None:
    _check_integer("n_max", n_max, 2, N_MAX_LIMIT)


def _poisson_pmf(mu: float, n_max: int) -> list[float]:
    # e^-mu * mu^n / n!, built iteratively to avoid factorial overflow
    pmf = [math.exp(-mu)]
    for n in range(1, n_max + 1):
        pmf.append(pmf[-1] * mu / n)
    return pmf


def wcs_distribution(
    mu: float, n_max: int = N_MAX_DEFAULT
) -> PhotonNumberDistribution:
    """Poisson photon-number distribution of a weak coherent state.

    The tail P(m >= n_max) is folded into the last bin, clamped at 0,
    which keeps the vector normalized to within ``NORMALIZATION_ATOL``,
    not exactly: at a large mu the Poisson bins alone round past 1 and
    the tail is 0 (``wcs_distribution(55.0, 132)`` sums to 1 + 6.7e-16).
    """
    _check_range("mu", mu, 0)
    _check_n_max(n_max)
    pmf = _poisson_pmf(mu, n_max - 1)
    tail = max(1.0 - math.fsum(pmf), 0.0)
    return PhotonNumberDistribution(probs=tuple(pmf) + (tail,))


def hsps_distribution(
    params: HspsParams, n_max: int = N_MAX_DEFAULT
) -> PhotonNumberDistribution:
    """Photon-number distribution of the heralded single-photon source.

    Per gate the source emits the heralded partner photon with
    probability ``p_cor`` on top of a Poisson accidental background, so
    the emission tail is

        P(m >= k) = p_cor * A(k - 1) + (1 - p_cor) * A(k),

    with A(k) the Poisson tail of mean ``mu_acc``, its terms built only
    until their prefix sum rounds to 1. The vacuum bin is corrected for
    heralds that were detector dark counts,

        P(0) = p_cor * d_i + (1 - p_cor) * exp(-mu_acc),

    and P(1) takes the complement, which keeps the vector normalized to
    within ``NORMALIZATION_ATOL``: every bin rounds. The emission-statistics
    tail P(m >= 1) is kept alongside the vector for the auto-correlation,
    where the dark-count correction does not enter.
    """
    _check_n_max(n_max)
    p_cor, mu, d_i = params.p_cor, params.mu_acc, params.d_i

    pmf = [math.exp(-mu)]
    # A(k) = Poisson tail P_acc(m >= k) = 1 - fsum(pmf[:k]), A(0) = 1. fsum
    # rounds correctly and the terms are non-negative, so once a prefix sum
    # reaches 1 every later one does, and A is 0 from there on.
    acc_tail = [1.0] + [0.0] * n_max
    for k in range(1, n_max + 1):
        head = math.fsum(pmf)
        if head >= 1.0:
            break
        acc_tail[k] = 1.0 - head
        pmf.append(pmf[-1] * mu / k)
    q_cor = 1.0 - p_cor
    # p_ge[k] = P(m >= k + 1) for k < n_max
    p_ge = [p_cor * a + q_cor * b for a, b in zip(acc_tail, acc_tail[1:])]

    p0 = p_cor * d_i + q_cor * pmf[0]
    p1 = 1.0 - p0 - p_ge[1]
    if p1 < -NORMALIZATION_ATOL:
        raise InvalidParameterError(
            "inconsistent heralded-source parameters: single-photon "
            f"probability would be {p1!r} (is d_i too large for "
            f"mu_acc={mu!r}?)"
        )
    probs = (p0, p1, *[a - b for a, b in zip(p_ge[1:], p_ge[2:])], p_ge[-1])
    return PhotonNumberDistribution(probs=probs, p_ge1=p_ge[0])


def ideal_sps_distribution(n_max: int = 2) -> PhotonNumberDistribution:
    """Deterministic single-photon emitter: P(1) = 1."""
    _check_n_max(n_max)
    probs = [0.0] * (n_max + 1)
    probs[1] = 1.0
    return PhotonNumberDistribution(probs=tuple(probs), tail_folded=False)


def g2_zero(dist: PhotonNumberDistribution) -> float:
    """Second-order auto-correlation at zero delay, 2*P(m>=2)/P(m>=1)^2.

    Classifies the source: < 1 sub-Poissonian, 1 Poissonian,
    > 1 super-Poissonian.
    """
    p_ge1 = dist.p_at_least(1)
    p_ge2 = dist.p_at_least(2)
    # a P(m>=1) that is zero, or squares to zero, leaves g2(0) undefined
    if p_ge1 * p_ge1 <= 0.0:
        raise UndefinedStatisticError(
            f"g2(0) is undefined for a (near-)vacuum distribution, P(m>=1)={p_ge1!r}"
        )
    return 2.0 * p_ge2 / (p_ge1 * p_ge1)


def infer_accidental_rate(m: MeasuredRates) -> float:
    """Signal-arm photon flux R_s (photons/s) from the randomly gated rate.

    Inverts  r_s/R_0 = 1 - (1 - P_acc)(1 - d_s/R_0)  with
    P_acc = 1 - exp(-eta_s * R_s * gate), giving

        R_s = ln((R_0 - d_s) / (R_0 - r_s)) / (eta_s * gate).

    The accidental mean per gate is then ``R_s * gate_time_s``.
    """
    scale = m.eta_s * m.gate_time_s
    # MeasuredRates keeps ds_hz <= rs_hz < r0_hz, so the ratio is >= 1
    ratio = (m.r0_hz - m.ds_hz) / (m.r0_hz - m.rs_hz)
    flux = math.log(ratio) / scale if scale > 0.0 else math.inf
    if not math.isfinite(flux):
        raise InvalidParameterError(
            f"eta_s * gate_time_s = {scale!r} is too small to infer a finite flux"
        )
    return flux


def infer_correlation(m: MeasuredRates, r_s: float) -> float:
    """Pair-correlation probability from the herald-gated coincidence rate.

    Inverts  r_c/R_0 = 1 - (1 - P_cor)(1 - P_acc)(1 - d_s/R_0):

        P_cor = 1 - (R_0 - r_c)/(R_0 - d_s) * exp(eta_s * R_s * gate).

    Values within ``CORRELATION_ATOL`` outside [0, 1] are clamped
    (rounding noise); anything further signals inconsistent measurements.
    """
    _check_range("r_s", r_s, 0)
    miss = (m.r0_hz - m.rc_hz) / (m.r0_hz - m.ds_hz)
    try:
        p_cor = 1.0 - miss * math.exp(m.eta_s * r_s * m.gate_time_s)
    except OverflowError:
        # an exponential past the float range leaves only the sign
        p_cor = 1.0 if miss == 0.0 else -math.inf
    if p_cor < -CORRELATION_ATOL or p_cor > 1.0 + CORRELATION_ATOL:
        raise InconsistentDataError(
            f"inferred correlation {p_cor!r} outside [0, 1]: the coincidence "
            "rate cannot be explained by accidentals plus dark counts"
        )
    return min(max(p_cor, 0.0), 1.0)


class WcsSource(_Record):
    """Weak coherent state of mean photon number ``mu``."""

    mu: float

    def __post_init__(self) -> None:
        _check_range("mu", self.mu, 0)

    def distribution(self, n_max: int = N_MAX_DEFAULT) -> PhotonNumberDistribution:
        return wcs_distribution(self.mu, n_max)


class HspsSource(_Record):
    """Heralded single-photon source parameterized by :class:`HspsParams`."""

    params: HspsParams

    def distribution(self, n_max: int = N_MAX_DEFAULT) -> PhotonNumberDistribution:
        return hsps_distribution(self.params, n_max)


class IdealSpsSource(_Record):
    """Ideal single-photon emitter."""

    def distribution(self, n_max: int = N_MAX_DEFAULT) -> PhotonNumberDistribution:
        return ideal_sps_distribution(n_max)


SourceModel = WcsSource | HspsSource | IdealSpsSource
