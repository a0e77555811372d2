"""Shared reference parameters, builders and reference formulas for the
test suite.

The benchmark session is a 36 dB heralded-source link with a 40%
heralding correlation; the reference observables are the measured
values the analysis chain is validated against.

The reference formulas evaluate the channel sums, the infinite-decoy
bounds and the infinite-decoy coherent-state rate term by term from
:func:`yield_n` and :func:`error_n`, independently of the shared
per-channel terms, the estimators and the loss-axis evaluation the
package uses; tests compare the package with them for exact equality.
"""

from __future__ import annotations

import math

from decoyqkd import (
    BoundsResult,
    ChannelParams,
    ExperimentConfig,
    FluctuationPolicy,
    GainErrorPoint,
    HspsParams,
    HspsSource,
    ProtocolParams,
    UndefinedStatisticError,
    binary_entropy,
    error_n,
    yield_n,
)

BENCH_P_COR = 0.40
BENCH_MU_SIGNAL = 5.325e-3
BENCH_MU_DECOY = 0.660e-3
BENCH_MU_VACUUM = 0.577e-5
BENCH_D_I = 1.0e-3

BENCH_LOSS_DB = 36.0
BENCH_ETA = 10.0 ** (-BENCH_LOSS_DB / 10.0)
BENCH_Y0 = 0.8e-5
BENCH_E_DET = 0.025

BENCH_TOTAL_PULSES = 1_500_000_000
BENCH_RATIO = (10.0, 4.0, 1.0)
BENCH_N_SIGNAL = 1_000_000_000

# measured reference observables of the benchmark session
REF_Q_SIGNAL = 1.01e-4
REF_Q_DECOY = 1.06e-4
REF_E_SIGNAL = 0.0633
REF_KEY_RATE = 5.065e-6
REF_SECURE_BITS = 5065

# one-detector phase-coding receiver
BENCH_Q_SIFT = 0.25
BENCH_F_EC = 1.22


def bench_channel(eta: float = BENCH_ETA) -> ChannelParams:
    return ChannelParams(eta=eta, y0=BENCH_Y0, e_det=BENCH_E_DET, e0=0.5)


def bench_signal_source(p_cor: float = BENCH_P_COR) -> HspsSource:
    return HspsSource(HspsParams(p_cor=p_cor, mu_acc=BENCH_MU_SIGNAL, d_i=BENCH_D_I))


def bench_decoy_source(p_cor: float = BENCH_P_COR) -> HspsSource:
    return HspsSource(HspsParams(p_cor=p_cor, mu_acc=BENCH_MU_DECOY, d_i=BENCH_D_I))


def bench_config(
    n_sigma: float = 10.0,
    seed: int = 0,
    q_sift: float = BENCH_Q_SIFT,
    eta: float = BENCH_ETA,
    vacuum_mu: float = BENCH_MU_VACUUM,
) -> ExperimentConfig:
    return ExperimentConfig(
        source_signal=bench_signal_source(),
        source_decoy=bench_decoy_source(),
        vacuum_mu=vacuum_mu,
        channel=bench_channel(eta),
        protocol=ProtocolParams(q_sift=q_sift, f_ec=BENCH_F_EC),
        total_pulses=BENCH_TOTAL_PULSES,
        intensity_ratio=BENCH_RATIO,
        fluctuation=FluctuationPolicy(n_sigma),
        rng_seed=seed,
    )


def ref_gain(dist, ch) -> float:
    """sum_n Y_n P(n), one :func:`yield_n` per term."""
    return math.fsum(
        p * yield_n(ch, n) for n, p in enumerate(dist.probs) if p > 0.0
    )


def ref_qber(dist, ch) -> GainErrorPoint:
    """Gain and QBER with the error numerator written out per term."""
    q = ref_gain(dist, ch)
    if q <= 0.0:
        raise UndefinedStatisticError("QBER undefined at zero gain")
    err = math.fsum(
        p * (ch.e0 * ch.y0 + ch.e_det * (1.0 - (1.0 - ch.eta) ** n))
        for n, p in enumerate(dist.probs)
        if p > 0.0
    )
    return GainErrorPoint(q_gain=q, qber=min(err / q, 1.0))


def ref_infinite_decoy_bounds(ch, dist) -> BoundsResult:
    """The infinite-decoy limit: the channel's own Y1 and e1, with the
    gain components y0 P(0) and Y1 P(1) of ``dist``."""
    y1 = yield_n(ch, 1)
    return BoundsResult(
        y1_lower=y1,
        e1_upper=error_n(ch, 1),
        g0=ch.y0 * dist.p(0),
        g1_lower=y1 * dist.p(1),
    )


def ref_wcs_infinite_decoy_rate(mu, ch, protocol) -> float:
    """The infinite-decoy coherent-state rate, every term at every call."""
    signal = 1.0 - math.exp(-ch.eta * mu)
    q = min(ch.y0 + signal, 1.0)
    e = (ch.e0 * ch.y0 + ch.e_det * signal) / q
    y1 = yield_n(ch, 1)
    e1 = error_n(ch, 1)
    p0 = math.exp(-mu)
    g0 = ch.y0 * p0
    g1 = y1 * mu * p0
    return protocol.q_sift * (
        -q * protocol.f_ec * binary_entropy(min(e, 1.0))
        + g0
        + g1 * (1.0 - binary_entropy(min(e1, 1.0)))
    )
