"""End-to-end session simulation, loss sweeps and intensity optimization.

Ties the source, channel, estimator and key-rate pieces together:

* analytic per-intensity expectations for a configured session;
* stochastic count sampling (binomial detections/errors, seeded and
  reproducible independently of evaluation order);
* the full analysis pipeline from observation to secure bits, with all
  intermediate quantities echoed for audit;
* loss sweeps comparing source/estimator schemes on a common channel,
  each scheme evaluated over the whole loss axis with its channel-
  independent setup done once per sweep;
* optimization of the coherent-state signal intensity in the
  infinite-decoy limit: a search over a coarse grid, then golden-section
  refinement. The grid intensities and their vacuum probabilities
  exp(-mu) are tables built at import, and the rate is one closure of
  (mu, exp(-mu)) that writes out the GLLP bracket itself.

Each step of the chain is a private float kernel behind a public
wrapper, which validates the inputs and puts the kernel's numbers and
flags in a record. A session's expected statistics come from one kernel,
:func:`_expected_statistics`, which the pipeline and every sweep point
share. A session builds its distributions and runs that kernel once,
when its config's private ``_model`` is first read; the config keeps
the result, so :func:`sample_counts` and :func:`run_pipeline` on one
config share it, and a new config starts without one. Past that the
pipeline goes through the wrappers. A loss sweep checks its grid once
and runs the kernels at each point, on floats and without records; the
kernels keep the checks that can fire there.

The count sampling draws with the package's own seeded sampler,
:mod:`decoyqkd._binomial`, which gives the counts that
``numpy.random.default_rng([seed, index])`` draws, without numpy; it is
imported on the first draw.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from functools import cached_property

from .channel import ChannelParams, error_n, loss_db_to_eta, yield_n
from .decoy import (
    BoundsResult,
    FluctuationPolicy,
    ObservableBounds,
    ThreeIntensityObservation,
    check_condition,
    estimate_bounds,
    fluctuation_bounds,
)
from .errors import InvalidParameterError, UndefinedStatisticError, _check_range
from .keyrate import KeyRateResult, ProtocolParams, key_rate
from .sources import (
    HspsSource,
    N_MAX_DEFAULT,
    PhotonNumberDistribution,
    SourceModel,
    _check_n_max,
    hsps_distribution,
    ideal_sps_distribution,
    wcs_distribution,
)

# the float kernels of the chain, which loss sweeps run at each point
from .channel import _channel_terms, _gain, _qber
from .decoy import _envelope, _estimate_bounds, _no_decoy_bounds, _pair
from .keyrate import _h2, _key_rate, _privacy

# conventional signal intensity for a coherent-state link run without
# decoy states (attenuation to ~0.1 photons/pulse keeps the multiphoton
# fraction tolerable)
WCS_NO_DECOY_MU_DEFAULT = 0.1

# the sampler draws the binomial gate counts as numpy's int64 stream does,
# and that stream is pinned for counts up to this
_INT64_MAX = 2**63 - 1

# signal, decoy and vacuum photon-number distributions of one session
SessionDistributions = tuple[
    PhotonNumberDistribution, PhotonNumberDistribution, PhotonNumberDistribution
]
# the fields of IntensityStatistics, in order
Statistics = tuple[float, float, float, float, float, float]


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one three-intensity session.

    ``intensity_ratio`` gives the relative share of gates spent at the
    signal, decoy and vacuum settings; ``vacuum_mu`` is the residual
    mean photon number of the vacuum setting (a leaky optical switch
    never produces true vacuum). ``rng_seed`` fixes the stochastic
    sampling completely.
    """

    source_signal: SourceModel
    source_decoy: SourceModel
    vacuum_mu: float
    channel: ChannelParams
    protocol: ProtocolParams
    total_pulses: int
    intensity_ratio: tuple[float, float, float] = (10.0, 4.0, 1.0)
    fluctuation: FluctuationPolicy = FluctuationPolicy(0.0)
    rng_seed: int = 0
    n_max: int = N_MAX_DEFAULT

    def __post_init__(self) -> None:
        _check_range("vacuum_mu", self.vacuum_mu, 0)
        _check_range("total_pulses", self.total_pulses, 1, _INT64_MAX)
        # pulse_split scales total_pulses by each weight
        ratio = self.intensity_ratio
        if (
            len(ratio) != 3
            or any(not w > 0.0 for w in ratio)
            or not math.isfinite(self.total_pulses * sum(ratio))
        ):
            raise InvalidParameterError(
                f"intensity_ratio={ratio!r} needs three positive weights whose "
                "sum times total_pulses is finite"
            )
        if self.rng_seed < 0:
            raise InvalidParameterError(
                f"rng_seed={self.rng_seed!r} must be >= 0"
            )
        _check_n_max(self.n_max)

    @cached_property
    def _model(self) -> tuple[SessionDistributions, Statistics]:
        """The signal, decoy and vacuum distributions and their expected
        statistics at the channel, built on first use. The cache lives in
        the instance ``__dict__``, outside the fields, so it never enters
        ``==``, ``hash``, ``repr`` or :func:`dataclasses.replace`."""
        dists = (
            self.source_signal.distribution(self.n_max),
            self.source_decoy.distribution(self.n_max),
            wcs_distribution(self.vacuum_mu, self.n_max),
        )
        return dists, _expected_statistics(self, dists, self.channel.eta)

    def pulse_split(self) -> tuple[int, int, int]:
        """Gate counts per intensity; the signal share absorbs rounding."""
        total_weight = math.fsum(self.intensity_ratio)
        n_decoy = int(round(self.total_pulses * self.intensity_ratio[1] / total_weight))
        n_vacuum = int(round(self.total_pulses * self.intensity_ratio[2] / total_weight))
        n_signal = self.total_pulses - n_decoy - n_vacuum
        if min(n_signal, n_decoy, n_vacuum) < 1:
            raise InvalidParameterError(
                "total_pulses too small for the intensity ratio: "
                f"split came out as {(n_signal, n_decoy, n_vacuum)}"
            )
        return n_signal, n_decoy, n_vacuum


@dataclass(frozen=True)
class IntensityStatistics:
    """Analytic per-gate gain and QBER at the three intensity settings."""

    q_signal: float
    e_signal: float
    q_decoy: float
    e_decoy: float
    q_vacuum: float
    e_vacuum: float


@dataclass(frozen=True)
class IntensityCounts:
    """Raw counts accumulated at one intensity setting."""

    gates: int
    detections: int
    errors: int

    def __post_init__(self) -> None:
        if not 0 <= self.errors <= self.detections <= self.gates:
            raise InvalidParameterError(
                f"need errors <= detections <= gates, got {self!r}"
            )

    @property
    def q(self) -> float:
        return self.detections / self.gates if self.gates else 0.0

    @property
    def e(self) -> float:
        return self.errors / self.detections if self.detections else 0.0


@dataclass(frozen=True)
class SimulatedCounts:
    signal: IntensityCounts
    decoy: IntensityCounts
    vacuum: IntensityCounts


@dataclass(frozen=True)
class PipelineResult:
    """Everything the analysis produced, for reporting and audit."""

    observation: ThreeIntensityObservation
    expected: IntensityStatistics
    counts: SimulatedCounts | None
    condition_ok: bool
    observable_bounds: ObservableBounds
    bounds: BoundsResult
    key: KeyRateResult
    y1_true: float
    e1_true: float

    @property
    def mode(self) -> str:
        """'sampled' when the observation came from ``counts``, else
        'analytic'."""
        return "analytic" if self.counts is None else "sampled"


def expected_statistics(cfg: ExperimentConfig) -> IntensityStatistics:
    """Analytic (Q, E) at the signal, decoy and vacuum settings.

    The vacuum setting is modelled as a weak coherent state of mean
    ``vacuum_mu`` through the same channel; at zero gain its error
    ratio defaults to the background value.
    """
    return IntensityStatistics(*cfg._model[1])


def _expected_statistics(
    cfg: ExperimentConfig, dists: SessionDistributions, eta: float
) -> Statistics:
    """Kernel of :func:`expected_statistics` for the distributions
    ``dists`` of ``cfg``, at transmittance ``eta`` and the rest of its
    channel: the fields of :class:`IntensityStatistics`, in order, with
    one set of channel terms for the three settings, checked in the
    order of the settings."""
    ch = cfg.channel
    dist_signal, dist_decoy, dist_vacuum = dists
    yields, numerators = _channel_terms(eta, ch.y0, ch.e0, ch.e_det, cfg.n_max)
    q_signal = _gain(dist_signal.probs, yields)
    e_signal = _qber(q_signal, dist_signal.probs, numerators)
    q_decoy = _gain(dist_decoy.probs, yields)
    e_decoy = _qber(q_decoy, dist_decoy.probs, numerators)
    q_vacuum = _gain(dist_vacuum.probs, yields)
    try:
        e_vacuum = _qber(q_vacuum, dist_vacuum.probs, numerators)
    except UndefinedStatisticError:
        q_vacuum, e_vacuum = 0.0, ch.e0
    return q_signal, e_signal, q_decoy, e_decoy, q_vacuum, e_vacuum


def sample_counts(cfg: ExperimentConfig) -> SimulatedCounts:
    """Draw one stochastic realization of the session counts.

    Gates are split by ``intensity_ratio``; detections are binomial in
    the analytic gain and errors binomial in the analytic QBER. Each
    intensity uses a generator derived from (seed, intensity index), so
    results are reproducible and independent of evaluation order.
    """
    # imported here, so that commands which never sample do not load it
    from ._binomial import binomial_pairs

    stats = cfg._model[1]
    split = cfg.pulse_split()
    # (Q, E) at the signal, decoy and vacuum settings
    per_intensity = (stats[0:2], stats[2:4], stats[4:6])
    pairs = binomial_pairs(
        cfg.rng_seed, [(gates, q, e) for gates, (q, e) in zip(split, per_intensity)]
    )
    drawn = [
        IntensityCounts(gates=gates, detections=detections, errors=errors)
        for gates, (detections, errors) in zip(split, pairs)
    ]
    return SimulatedCounts(signal=drawn[0], decoy=drawn[1], vacuum=drawn[2])


def run_pipeline(
    cfg: ExperimentConfig, counts: SimulatedCounts | None = None
) -> PipelineResult:
    """Run the full three-intensity analysis on one session.

    With ``counts`` the observation comes from the sampled statistics
    (mode 'sampled'); otherwise the analytic expectations are analyzed
    directly (mode 'analytic'). Estimator flags propagate into the
    result rather than aborting: a degenerate bound simply yields zero
    key.
    """
    (dist_signal, dist_decoy, _), stats = cfg._model
    if counts is None:
        # the noiseless observation of the expected statistics
        q_signal, e_signal, q_decoy, e_decoy, y0_obs, _ = stats
        gates = cfg.pulse_split()
    else:
        signal, decoy, vacuum = counts.signal, counts.decoy, counts.vacuum
        q_signal, e_signal, q_decoy, e_decoy = signal.q, signal.e, decoy.q, decoy.e
        y0_obs, gates = vacuum.q, (signal.gates, decoy.gates, vacuum.gates)
    obs = ThreeIntensityObservation(
        q_signal=q_signal,
        q_decoy=q_decoy,
        e_signal=e_signal,
        e_decoy=e_decoy,
        y0_obs=y0_obs,
        n_signal=gates[0],
        n_decoy=gates[1],
        n_vacuum=gates[2],
    )
    condition_ok = check_condition(dist_signal, dist_decoy)
    fb = fluctuation_bounds(obs, cfg.fluctuation)
    bounds = estimate_bounds(obs, dist_signal, dist_decoy, fb, e0=cfg.channel.e0)
    key = key_rate(
        obs.q_signal, obs.e_signal, bounds, cfg.protocol, n_signal=obs.n_signal
    )
    return PipelineResult(
        observation=obs,
        expected=IntensityStatistics(*stats),
        counts=counts,
        condition_ok=condition_ok,
        observable_bounds=fb,
        bounds=bounds,
        key=key,
        y1_true=yield_n(cfg.channel, 1),
        e1_true=error_n(cfg.channel, 1),
    )


class SchemeKind(enum.Enum):
    WCS_NO_DECOY = "wcs-no-decoy"
    HSPS_NO_DECOY = "hsps-no-decoy"
    WCS_DECOY_INF_OPT = "wcs-decoy-opt"
    HSPS_DECOY = "hsps-decoy"
    IDEAL_SPS = "ideal-sps"


# the Scheme field that a token's ':' argument sets, by kind
_SCHEME_ARGUMENT = {SchemeKind.HSPS_DECOY: "p_cor", SchemeKind.WCS_NO_DECOY: "wcs_mu"}


@dataclass(frozen=True)
class Scheme:
    """A source/estimator combination for the loss-sweep comparison.

    HSPS_DECOY carries the heralding correlation it should assume at
    both intensities; WCS_NO_DECOY optionally overrides its fixed
    signal intensity.
    """

    kind: SchemeKind
    p_cor: float | None = None
    wcs_mu: float | None = None

    def __post_init__(self) -> None:
        if self.kind is SchemeKind.HSPS_DECOY:
            if self.p_cor is None:
                raise InvalidParameterError(
                    "hsps-decoy needs a correlation p_cor in [0, 1], e.g. "
                    "hsps-decoy:0.40; got None"
                )
            _check_range("p_cor", self.p_cor, 0, 1)
        elif self.p_cor is not None:
            raise InvalidParameterError(
                f"p_cor only applies to hsps-decoy, not {self.kind.value}"
            )
        if self.wcs_mu is not None:
            if self.kind is not SchemeKind.WCS_NO_DECOY:
                raise InvalidParameterError(
                    f"wcs_mu only applies to wcs-no-decoy, not {self.kind.value}"
                )
            _check_range("wcs_mu", self.wcs_mu, 0, None, "()")

    @property
    def label(self) -> str:
        if self.kind is SchemeKind.HSPS_DECOY:
            return f"hsps-decoy-{self.p_cor:.2f}"
        return self.kind.value

    @staticmethod
    def parse(token: str) -> "Scheme":
        """Parse a scheme token such as 'ideal-sps' or 'hsps-decoy:0.40'.

        The token only names the fields; :class:`Scheme` checks them."""
        name, _, arg = token.strip().partition(":")
        try:
            kind = SchemeKind(name)
        except ValueError:
            valid = ", ".join(k.value for k in SchemeKind)
            raise InvalidParameterError(
                f"unknown scheme {name!r} (valid: {valid})"
            ) from None
        if not arg:
            return Scheme(kind=kind)
        field = _SCHEME_ARGUMENT.get(kind)
        if field is None:
            raise InvalidParameterError(
                f"scheme {name!r} takes no argument, got {arg!r}"
            )
        try:
            value = float(arg)
        except ValueError:
            raise InvalidParameterError(
                f"scheme argument {arg!r} is not a number"
            ) from None
        return Scheme(kind=kind, **{field: value})


@dataclass(frozen=True)
class LossCurve:
    scheme_label: str
    loss_db: tuple[float, ...]
    rate: tuple[float, ...]

    @property
    def cutoff_db(self) -> float | None:
        """Largest grid loss still delivering positive key, if any."""
        positive = [l for l, r in zip(self.loss_db, self.rate) if r > 0.0]
        return max(positive) if positive else None


def _check_heralded_template(cfg: ExperimentConfig) -> None:
    if not isinstance(cfg.source_signal, HspsSource) or not isinstance(
        cfg.source_decoy, HspsSource
    ):
        raise InvalidParameterError(
            "this scheme needs heralded sources in the session template"
        )


def _scheme_rates(
    scheme: Scheme, cfg: ExperimentConfig, etas: list[float]
) -> list[float]:
    """Key rate of ``scheme`` at each transmittance ``etas`` of the
    channel of ``cfg``, by one of three estimators: the infinite-decoy
    coherent-state rate at its best intensity, the three-intensity
    bounds, or the no-decoy bound on one distribution (exact for the
    ideal source: G0 = 0 and G1 = Q).

    The distributions, their weights and the gate split are set up once
    per scan. Each point runs the float kernels of the chain, whose
    checks fire in the order of the public functions.
    """
    protocol, ch = cfg.protocol, cfg.channel
    y0, e0, e_det = ch.y0, ch.e0, ch.e_det
    if scheme.kind is SchemeKind.WCS_DECOY_INF_OPT:
        return [_optimize_mu(eta, y0, e0, e_det, protocol)[1] for eta in etas]

    rates = []
    if scheme.kind is SchemeKind.HSPS_DECOY:
        # three-intensity estimation at the template intensities. Each
        # point is the analytic run_pipeline at its channel, less the
        # applicability condition, whose verdict never reaches the rate
        # (a degenerate pair still raises, in _estimate_bounds).
        _check_heralded_template(cfg)
        dist_signal, dist_decoy = (
            hsps_distribution(replace(source.params, p_cor=scheme.p_cor), cfg.n_max)
            for source in (cfg.source_signal, cfg.source_decoy)
        )
        dists = (dist_signal, dist_decoy, wcs_distribution(cfg.vacuum_mu, cfg.n_max))
        gates = cfg.pulse_split()
        pair = _pair(dist_signal, dist_decoy)
        for eta in etas:
            q_signal, e_signal, q_decoy, _, y0_obs, _ = _expected_statistics(
                cfg, dists, eta
            )
            observed = (q_signal, q_decoy, e_signal, y0_obs)
            widened, _ = _envelope(observed, gates, 0.0)
            _, e1, g0, g1, _ = _estimate_bounds(widened, y0_obs, pair, e0)
            rates.append(_key_rate(q_signal, e_signal, e1, g0, g1, protocol)[0])
        return rates

    if scheme.kind is SchemeKind.IDEAL_SPS:
        dist = ideal_sps_distribution()
    elif scheme.kind is SchemeKind.WCS_NO_DECOY:
        mu = scheme.wcs_mu if scheme.wcs_mu is not None else WCS_NO_DECOY_MU_DEFAULT
        dist = wcs_distribution(mu, cfg.n_max)
    else:
        _check_heralded_template(cfg)
        dist = cfg.source_signal.distribution(cfg.n_max)
    weights = (dist.p(0), dist.p(1), dist.p_at_least(2))
    for eta in etas:
        yields, numerators = _channel_terms(eta, y0, e0, e_det, dist.n_max)
        q = _gain(dist.probs, yields)
        e = _qber(q, dist.probs, numerators)
        _, e1, g0, g1, _ = _no_decoy_bounds(q, e, y0, weights, e0)
        rates.append(_key_rate(q, e, e1, g0, g1, protocol)[0])
    return rates


def scan_loss(
    cfg_template: ExperimentConfig,
    scheme: Scheme,
    loss_grid_db: Iterable[float],
) -> LossCurve:
    """Key rate of one scheme across an ascending total-loss grid.

    Fluctuations are disabled for every scheme (the comparison assumes
    unlimited session length); rates are floored at zero. The heralded
    three-intensity schemes honor the template's ``vacuum_mu`` (their
    background estimate comes from the leaky vacuum setting, as in a
    real session); set it to zero for a pure-theory comparison. The
    other schemes use the channel background directly: ``wcs-decoy-opt``
    in the infinite-decoy rate, the rest in the no-decoy bound, which is
    exact for ``ideal-sps``.

    The grid is checked once, here. Each scheme is then evaluated over
    the whole loss axis: its channel-independent setup is done once per
    scan, and each point runs on its transmittance alone the float
    kernels behind :func:`qber`, :func:`estimate_bounds`,
    :func:`no_decoy_bounds` and :func:`key_rate`, which build no records
    and compute the channel terms once for all distributions.
    ``wcs-decoy-opt`` runs the kernel of :func:`optimize_mu` at each
    point, with no channel record, and computes the constants of its rate
    once per point. Every rate is that of a point-by-point evaluation,
    bit for bit.

    The errors come in this order: the whole grid is converted to
    transmittances, and ``hsps-decoy`` takes the template's gate split,
    before any point is evaluated; then the points run in grid order, and
    a zero gain or a degenerate distribution pair raises at the first
    point where a point-by-point evaluation does. So a grid holding a
    loss whose transmittance underflows raises
    :class:`InvalidParameterError` even where an earlier point would
    raise :class:`UndefinedStatisticError`: with y0 = 0, the grid
    ``[180]`` raises the latter, but ``[180, 4000]`` the former.
    """
    grid = list(loss_grid_db)
    if not grid:
        raise InvalidParameterError("loss grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError("loss grid must be strictly ascending")
    etas = [loss_db_to_eta(loss) for loss in grid]
    rates = tuple(_scheme_rates(scheme, cfg_template, etas))
    return LossCurve(
        scheme_label=scheme.label, loss_db=tuple(map(float, grid)), rate=rates
    )


@dataclass(frozen=True)
class MuOptimum:
    """Result of the signal-intensity search; infeasible when no
    intensity in the range delivers positive key."""

    mu: float
    rate: float

    @property
    def feasible(self) -> bool:
        return self.rate > 0.0


def wcs_infinite_decoy_rate(
    mu: float, ch: ChannelParams, protocol: ProtocolParams
) -> float:
    """Signed key rate of a coherent-state source with exact
    single-photon knowledge (infinite-decoy limit).

    Uses the closed-form Poisson gain Q = y0 + 1 - exp(-eta mu); the
    single-photon yield and error are the channel truth.
    """
    _check_range("mu", mu, 0, None, "()")
    _check_wcs_gain(ch.eta, ch.y0, mu)
    return _wcs_rate(ch.eta, ch.y0, ch.e0, ch.e_det, protocol)(mu, math.exp(-mu))


def _check_wcs_gain(eta: float, y0: float, mu: float) -> None:
    """Raise where the coherent-state rate is undefined, which happens
    only without background: where the gain y0 + 1 - exp(-eta mu) rounds
    to zero (no QBER), or where 1 - eta rounds to 1 (no Y1, so no e1)."""
    if y0 != 0.0:
        return
    if math.exp(-eta * mu) == 1.0:
        raise UndefinedStatisticError(
            f"QBER undefined: zero gain at mu={mu!r} (eta={eta!r}, y0=0)"
        )
    if 1.0 - eta == 1.0:
        raise UndefinedStatisticError(
            f"e1 undefined: zero single-photon yield (eta={eta!r}, y0=0)"
        )


def _wcs_rate(
    eta: float, y0: float, e0: float, e_det: float, protocol: ProtocolParams
) -> Callable[[float, float], float]:
    """The rate of :func:`wcs_infinite_decoy_rate` as a function of the
    intensity ``mu`` and its vacuum probability ``p0 = exp(-mu)``, on a
    channel that :func:`_check_wcs_gain` passed. Its constants (Y1 and e1
    from the channel terms of n = 1, the privacy factor of e1, e0 y0 and
    the protocol's f_ec and q_sift) are computed once, here. The closure
    writes out the GLLP bracket of :func:`keyrate._key_rate` itself, with
    the unchecked H2 of :func:`keyrate._h2`: its QBER lies in [0, 1] by
    construction."""
    yields, numerators = _channel_terms(eta, y0, e0, e_det, 1)
    y1 = yields[1]
    privacy = _privacy(numerators[1] / y1)
    e0_y0 = e0 * y0
    f_ec, q_sift = protocol.f_ec, protocol.q_sift
    exp = math.exp

    def rate(mu: float, p0: float) -> float:
        signal = 1.0 - exp(-eta * mu)
        # min(x, 1.0), at a quarter of the cost of the builtin call
        q = y0 + signal
        q = 1.0 if 1.0 < q else q
        e = (e0_y0 + e_det * signal) / q
        ec_cost = q * f_ec * _h2(1.0 if 1.0 < e else e)
        return q_sift * (-ec_cost + y0 * p0 + y1 * mu * p0 * privacy)

    return rate


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# optimize_mu's search: a coarse grid of MU_COARSE_POINTS intensities
# spanning MU_SEARCH_RANGE, then golden-section refinement to MU_TOL
MU_SEARCH_RANGE = (1e-4, 1.0)
MU_COARSE_POINTS = 512
MU_TOL = 1e-7

# the coarse grid, np.linspace(*MU_SEARCH_RANGE, MU_COARSE_POINTS) bit
# for bit, and exp(-mu) at each of its intensities
_COARSE_MU = tuple(
    k * ((MU_SEARCH_RANGE[1] - MU_SEARCH_RANGE[0]) / (MU_COARSE_POINTS - 1))
    + MU_SEARCH_RANGE[0]
    for k in range(MU_COARSE_POINTS - 1)
) + (MU_SEARCH_RANGE[1],)
_COARSE_P0 = tuple(math.exp(-mu) for mu in _COARSE_MU)


def _coarse_argmax(rate: Callable[[float, float], float]) -> tuple[int, float]:
    """First index of the largest rate over the coarse grid, and that
    rate, for a rate that rises to one peak and then falls, or only falls.

    A Fibonacci search narrows an open bracket of grid indices around the
    peak, reading each probe twice from one cache of the rates at the
    grid points; the last four candidates are compared one by one, and
    then with index 0, since the grid rates can fall over the first few
    points before they rise to an interior peak. Ties go to the first
    index, as in ``np.argmax``.
    """
    grid: dict[int, float] = {}

    def at(k: int) -> float:
        r = grid.get(k)
        if r is None:
            r = grid[k] = (
                rate(_COARSE_MU[k], _COARSE_P0[k])
                if k < MU_COARSE_POINTS
                else -math.inf
            )
        return r

    # the peak lies in (a, a + lo + hi), probed at a + lo and a + hi, for
    # consecutive Fibonacci numbers lo < hi
    lo, hi = 1, 2
    while lo + hi <= MU_COARSE_POINTS:
        lo, hi = hi, lo + hi
    a = -1
    while lo + hi > 5:
        if at(a + lo) < at(a + hi):
            a += lo
        lo, hi = hi - lo, lo
    best = max(range(a + 1, a + lo + hi), key=at)
    if at(0) >= grid[best]:
        best = 0
    return best, grid[best]


def optimize_mu(
    channel: ChannelParams, protocol: ProtocolParams = ProtocolParams()
) -> MuOptimum:
    """Maximize the infinite-decoy coherent-state rate over the signal
    intensity.

    A search over a coarse grid of ``MU_COARSE_POINTS`` intensities
    finds its best point (see :func:`_coarse_argmax`); golden-section
    refinement between that point's neighbours then narrows it to
    ``MU_TOL``, and the better of the grid point and the refined one is
    returned. Every value is the scalar rate of
    :func:`wcs_infinite_decoy_rate`, with its constants at the channel
    (Y1, 1 - H2(e1), e0 y0) computed once per call. When the rate is
    non-positive everywhere the result is flagged infeasible (rate 0 at
    the least-bad intensity).

    The search is the float kernel :func:`_optimize_mu` on the fields of
    ``channel``; a loss sweep runs it at each point, with no channel
    record, so the constants are computed once per point.
    """
    return MuOptimum(
        *_optimize_mu(channel.eta, channel.y0, channel.e0, channel.e_det, protocol)
    )


def _optimize_mu(
    eta: float, y0: float, e0: float, e_det: float, protocol: ProtocolParams
) -> tuple[float, float]:
    """Kernel of :func:`optimize_mu`: the best intensity and its rate."""
    # the gain is smallest at the low end of the range
    _check_wcs_gain(eta, y0, MU_SEARCH_RANGE[0])
    rate = _wcs_rate(eta, y0, e0, e_det, protocol)
    exp = math.exp
    best, r_best = _coarse_argmax(rate)
    a = _COARSE_MU[max(best - 1, 0)]
    b = _COARSE_MU[min(best + 1, MU_COARSE_POINTS - 1)]
    # golden-section interior points, keeping the better half each step
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = rate(c, exp(-c)), rate(d, exp(-d))
    while b - a > MU_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = rate(c, exp(-c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = rate(d, exp(-d))
    mu_opt = (a + b) / 2.0
    r_opt = rate(mu_opt, exp(-mu_opt))
    if r_opt < r_best:
        mu_opt, r_opt = _COARSE_MU[best], r_best
    return mu_opt, (0.0 if r_opt <= 0.0 else r_opt)
