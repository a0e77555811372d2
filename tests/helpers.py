"""Shared reference parameters, builders and reference formulas for the
test suite.

The benchmark session is a 36 dB heralded-source link with a 40%
heralding correlation; the reference observables are the measured
values the analysis chain is validated against.

The reference heralded-source build writes out every step of
:func:`hsps_distribution`: a prefix sum for every tail, each tail
evaluated where it is used, and the validation and clamp of
:class:`PhotonNumberDistribution`. Tests compare the package with it bit
for bit. That validation is also written out on its own, for any vector
of bins, with the package's refusal messages.

The reference formulas evaluate the channel sums, the infinite-decoy
bounds, the three-intensity rate and the infinite-decoy coherent-state
rate term by term from :func:`yield_n` and :func:`error_n`, one photon
number per call, independently of the folded sums, the estimators and
the loss-axis evaluation the package uses; tests compare the package
with them for exact equality.

The weak + vacuum decoy bounds are written out from the literature
instead, calling no package code: an oracle for the three-intensity
estimator that does not come from it.

The coarse intensity search is kept as it was first written, over grid
indices and calling no package code: an oracle for the probe sequence
and the result of ``session._coarse_argmax``. Brent's ``localmin``, the
refinement that follows it, is written out from the book, and the
infinite-decoy coherent-state rate is also computed at 60 significant
digits with :mod:`decimal`, calling no package code: the measure of
which of two intensity searches finds the higher true rate.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

from decoyqkd import (
    BoundsResult,
    ChannelParams,
    DegenerateDistributionError,
    ExperimentConfig,
    FluctuationPolicy,
    GainErrorPoint,
    HspsParams,
    HspsSource,
    InvalidParameterError,
    ProtocolParams,
    UndefinedStatisticError,
    binary_entropy,
    error_n,
    hsps_distribution,
    wcs_distribution,
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


def ref_hsps_distribution(params, n_max: int) -> tuple[tuple[float, ...], float]:
    """The probabilities and the emission tail P(m >= 1) of the heralded
    source, each Poisson tail A(k) from its own prefix sum and each
    P(m >= k) evaluated where it is used; raises
    :class:`InvalidParameterError` where the package build does."""
    p_cor, mu, d_i = params.p_cor, params.mu_acc, params.d_i
    pmf = [math.exp(-mu)]
    for n in range(1, n_max + 1):
        pmf.append(pmf[-1] * mu / n)

    def acc_tail(k):
        return 1.0 if k == 0 else max(1.0 - math.fsum(pmf[:k]), 0.0)

    def p_ge(k):
        return p_cor * acc_tail(k - 1) + (1.0 - p_cor) * acc_tail(k)

    probs = [p_cor * d_i + (1.0 - p_cor) * math.exp(-mu)]
    probs.append(1.0 - probs[0] - p_ge(2))
    if probs[1] < -1e-12:
        raise InvalidParameterError("negative single-photon probability")
    probs += [p_ge(n) - p_ge(n + 1) for n in range(2, n_max)]
    probs.append(p_ge(n_max))
    for p in probs:
        if not -1e-12 <= p <= 1.0 + 1e-12:
            raise InvalidParameterError(f"probability {p!r} outside [0, 1]")
    if abs(math.fsum(probs) - 1.0) > 1e-12:
        raise InvalidParameterError("probabilities do not sum to 1")
    p_ge1 = p_ge(1)
    if not 0.0 <= p_ge1 <= 1.0:
        raise InvalidParameterError(f"p_ge1={p_ge1!r} outside [0, 1]")
    return tuple(min(max(p, 0.0), 1.0) for p in probs), p_ge1


def ref_distribution_check(probs, p_ge1=None) -> tuple:
    """The bins :class:`PhotonNumberDistribution` stores for ``probs``,
    checked and clamped bin by bin, calling no package code: at least
    three bins, each within 1e-12 of [0, 1] (the first one outside is
    named), fsum within 1e-12 of 1, ``p_ge1`` None or in [0, 1], then
    every bin clamped into [0, 1] with its sign of zero kept. Raises
    :class:`InvalidParameterError` with the package's message where the
    package refuses."""
    if len(probs) < 3:
        raise InvalidParameterError(
            f"distribution needs at least bins 0..2, got {len(probs)} bins"
        )
    for n, p in enumerate(probs):
        if not -1e-12 <= p <= 1.0 + 1e-12:
            raise InvalidParameterError(f"probs[{n}]={p!r} outside [0, 1]")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        raise InvalidParameterError(
            f"probabilities sum to {total!r}, expected 1 within 1e-12"
        )
    if p_ge1 is not None and not 0 <= p_ge1 <= 1:
        raise InvalidParameterError(f"p_ge1={p_ge1!r} outside [0, 1]")
    return tuple(min(max(p, 0.0), 1.0) for p in probs)


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
    if q > 1.0:
        raise InvalidParameterError(f"gain {q!r} rounded above one")
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
        # the privacy term is capped at e1 = 1/2
        + g1 * (1.0 - binary_entropy(min(e1, 0.5)))
    )


def ref_three_intensity_rate(cfg, ch, p_cor) -> float:
    """The three-intensity rate of the heralded template ``cfg`` at
    correlation ``p_cor`` and channel ``ch``, on noiseless observables
    (n_sigma 0): the Y1 and e1 bounds of the :mod:`decoyqkd.decoy`
    docstring on the :func:`ref_qber` sums, each clamped into [0, 1],
    then the GLLP bracket floored at zero."""
    ds, dd = (
        hsps_distribution(replace(source.params, p_cor=p_cor), cfg.n_max)
        for source in (cfg.source_signal, cfg.source_decoy)
    )
    signal = ref_qber(ds, ch)
    q_decoy = ref_qber(dd, ch).q_gain
    vacuum = wcs_distribution(cfg.vacuum_mu, cfg.n_max)
    try:
        y0 = ref_qber(vacuum, ch).q_gain
    except UndefinedStatisticError:
        y0 = 0.0  # a vacuum setting that never clicks
    q, e = signal.q_gain, signal.qber

    if ds.p(2) == 0.0 and dd.p(2) == 0.0:
        raise DegenerateDistributionError("no two-photon weight")
    den = ds.p(2) * dd.p(1) - dd.p(2) * ds.p(1)
    if den <= 0.0:
        raise DegenerateDistributionError("pair cannot separate Y1")
    c0 = ds.p(2) * dd.p(0) - dd.p(2) * ds.p(0)
    y1 = (ds.p(2) * q_decoy - dd.p(2) * q - y0 * c0) / den
    y1 = min(max(y1, 0.0), 1.0)
    if y1 <= 0.0:
        e1 = 1.0
    elif ds.p(1) <= 0.0:
        raise DegenerateDistributionError("no single-photon weight")
    else:
        e1 = (q * e - ch.e0 * y0 * ds.p(0)) / (y1 * ds.p(1))
        e1 = min(max(e1, 0.0), 1.0)

    protocol = cfg.protocol
    raw = protocol.q_sift * (
        -q * protocol.f_ec * binary_entropy(e)
        + y0 * ds.p(0)
        # the privacy term is capped at e1 = 1/2
        + y1 * ds.p(1) * (1.0 - binary_entropy(min(e1, 0.5)))
    )
    return max(raw, 0.0)


def ref_weak_vacuum_bounds(mu, nu, q_mu, eq_mu, q_nu, y0) -> tuple[float, float]:
    """The weak + vacuum decoy bounds of Ma, Qi, Zhao and Lo, PRA 72,
    012326 (2005), on a Poisson signal of mean ``mu`` and a Poisson decoy
    of mean ``nu`` < ``mu``, from the gains ``q_mu`` and ``q_nu``, the
    signal's error gain ``eq_mu`` = E_mu Q_mu and the vacuum yield ``y0``:

        Y1^L = mu / (mu nu - nu^2) * (Q_nu e^nu - Q_mu e^mu nu^2 / mu^2
                                      - (mu^2 - nu^2) / mu^2 * Y0),
        e1^U = (E_mu Q_mu e^mu - E0 Y0) / (Y1^L mu),  E0 = 1/2.

    Unclamped, and with no package code."""
    y1 = (mu / (mu * nu - nu * nu)) * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * (nu * nu) / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0
    )
    e1 = (eq_mu * math.exp(mu) - 0.5 * y0) / (y1 * mu)
    return y1, e1


def ref_coarse_argmax(rate_at, points: int) -> tuple[int, float]:
    """The coarse intensity search over grid indices 0..points-1 as
    ``session._coarse_argmax`` first wrote it, calling no package code:
    ``rate_at(k)`` is the rate at index ``k``. The first Fibonacci pair
    comes from a loop at each call, every rate goes through a closure over
    a dict, where an index past the grid reads -inf, and the last
    candidates are compared with ``max(..., key=...)``, then with
    index 0, which wins ties."""
    grid: dict[int, float] = {}

    def at(k: int) -> float:
        r = grid.get(k)
        if r is None:
            r = grid[k] = rate_at(k) if k < points else -math.inf
        return r

    lo, hi = 1, 2
    while lo + hi <= points:
        lo, hi = hi, lo + hi
    a = -1
    r_lo, r_hi = at(a + lo), at(a + hi)
    while lo + hi > 5:
        if r_lo < r_hi:
            a += lo
            lo, hi = hi - lo, lo
            r_lo, r_hi = r_hi, at(a + hi)
        else:
            lo, hi = hi - lo, lo
            r_lo, r_hi = at(a + lo), r_lo
    best = max(range(a + 1, a + lo + hi), key=at)
    if at(0) >= grid[best]:
        best = 0
    return best, grid[best]


def ref_localmin(a, b, x, fx, f, eps, t) -> tuple[float, float]:
    """Brent's ``localmin`` (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 5), step for step as the book writes
    it, calling no package code: a point of [a, b] where ``f`` is
    minimal to within ``eps |x| + t``, and ``f`` there. The book starts at
    x = a + c (b - a); here the caller gives the start ``x``, in [a, b],
    and its value ``fx``, which costs no evaluation."""
    c = 0.5 * (3.0 - math.sqrt(5.0))
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = eps * abs(x) + t
        t2 = 2.0 * tol
        # check stopping criterion
        if abs(x - m) <= t2 - 0.5 * (b - a):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol:
            # fit parabola
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r = e
            e = d
        if abs(p) < abs(0.5 * q * r) and p > q * (a - x) and p < q * (b - x):
            # parabolic interpolation step
            d = p / q
            u = x + d
            # f must not be evaluated too close to a or b
            if u - a < t2 or b - u < t2:
                d = tol if x < m else -tol
        else:
            # golden section step
            e = (b if x < m else a) - x
            d = c * e
        # f must not be evaluated too close to x
        if abs(d) >= tol:
            u = x + d
        elif d > 0.0:
            u = x + tol
        else:
            u = x - tol
        fu = f(u)
        # update a, b, v, w and x
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v = w
            fv = fw
            w = x
            fw = fx
            x = u
            fx = fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v = w
                fv = fw
                w = u
                fw = fu
            elif fu <= fv or v == x or v == w:
                v = u
                fv = fu


def ref_wcs_rate_60(mu, ch, protocol) -> Decimal:
    """The rate of :func:`ref_wcs_infinite_decoy_rate` at 60 significant
    digits, with :mod:`decimal` and calling no package code. The float
    inputs (``mu``, the channel's ``eta``, ``y0``, ``e_det`` and ``e0``,
    the protocol's ``q_sift`` and ``f_ec``) are taken as exact, so the
    distance of a float rate to it is that rate's own rounding. The
    single-photon terms are those of the channel model, Y1 = min(y0 +
    eta, 1) and e1 = (e0 y0 + e_det eta) / Y1."""
    with localcontext() as ctx:
        ctx.prec = 60
        one = Decimal(1)
        ln2 = Decimal(2).ln()

        def h2(x):
            if x == 0 or x == one:
                return Decimal(0)
            return -(x * x.ln() + (one - x) * (one - x).ln()) / ln2

        mu, eta, y0, e_det, e0, q_sift, f_ec = map(
            Decimal,
            (mu, ch.eta, ch.y0, ch.e_det, ch.e0, protocol.q_sift, protocol.f_ec),
        )
        signal = one - (-eta * mu).exp()
        q = min(y0 + signal, one)
        e = min((e0 * y0 + e_det * signal) / q, one)
        y1 = min(y0 + eta, one)
        # the privacy term is capped at e1 = 1/2
        e1 = min((e0 * y0 + e_det * eta) / y1, Decimal("0.5"))
        p0 = (-mu).exp()
        return q_sift * (
            -q * f_ec * h2(e) + y0 * p0 + y1 * mu * p0 * (one - h2(e1))
        )


def run_fresh(script, *args):
    """Run ``script`` with the arguments ``args`` in a fresh interpreter
    that imports the package and the test modules from this checkout."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, paths))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def reference_parser():
    """The tool's command-line parser as it was written with argparse,
    calling no package code: each command's name is stored as
    ``command`` where the tool stored its handler as ``func``. The
    parser in :mod:`decoyqkd.cli` is tested against it on command lines
    of the grammar it documents, where the two agree."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description=(
            "Decoy-state QKD analysis with heralded and coherent-state "
            "sources: photon statistics, session security bounds and "
            "loss-sweep scheme comparisons."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output file (default: stdout)")

    common(sub.add_parser("distribution", help="photon-number statistics of a source"))
    common(
        sub.add_parser("infer", help="source parameters from measured counting rates")
    )

    p_sess = sub.add_parser("session", help="full session analysis report")
    common(p_sess)
    p_sess.add_argument("--seed", type=int, help="override run.rng_seed")
    p_sess.add_argument(
        "--sigma", type=float, help="override run.n_sigma (fluctuation width)"
    )

    p_curve = sub.add_parser("curve", help="key rate vs total loss (CSV)")
    common(p_curve)
    p_curve.add_argument(
        "--schemes",
        required=True,
        help=(
            "comma-separated scheme list: wcs-no-decoy[:mu], hsps-no-decoy, "
            "wcs-decoy-opt, hsps-decoy:<p_cor>, ideal-sps"
        ),
    )
    p_curve.add_argument("--loss-from", type=float, required=True, help="dB")
    p_curve.add_argument("--loss-to", type=float, required=True, help="dB")
    p_curve.add_argument("--loss-step", type=float, required=True, help="dB")
    return parser


def reference_parse(parser, argv):
    """``parser.parse_args(argv)``, refusing an option whose last value
    was ``--option=--`` (which argparse reads as an empty list) with exit
    2, as the tool did."""
    args = parser.parse_args(argv)
    if [] in vars(args).values():
        parser.error("an option was given '--' as its value")
    return args
