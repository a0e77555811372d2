"""End-to-end session simulation, loss sweeps and intensity optimization.

Ties the source, channel, estimator and key-rate pieces together:

* analytic per-intensity expectations for a configured session;
* stochastic count sampling (binomial detections/errors, seeded and
  reproducible independently of evaluation order);
* the full analysis pipeline from observation to secure bits, with all
  intermediate quantities echoed for audit;
* loss sweeps comparing source/estimator schemes on a common channel,
  each scheme evaluated over the whole loss axis with its channel-
  independent setup done once per scan, and each loss's transmittance
  and channel terms shared by the schemes scanned on one config;
* optimization of the coherent-state signal intensity in the
  infinite-decoy limit: a Fibonacci search over a coarse grid, grid and
  first bracket built at import, then Brent's parabolic refinement. The
  rate is one closure of mu that writes out the GLLP bracket itself. A
  sweep point after a zero rate first tries a closed-form bound
  (:func:`_past_cutoff`), and skips the search where it shows the rate
  is at most 0 over the whole range.

Each step of the chain is a private float kernel behind a public
wrapper, which validates the inputs and puts the kernel's numbers and
flags in a record. A session's expected statistics come from one kernel,
:func:`_expected_statistics`, which the pipeline and every sweep point
share. A session builds its distributions and runs that kernel once,
with channel terms up to ``n_max``, when its config's private ``_model``
is first read; the config keeps the result, so :func:`sample_counts`
and :func:`run_pipeline` on one config share it, and a new config
starts without one. Past that the pipeline goes through the wrappers.
A loss sweep checks its grid once, finds each scheme's support (the
highest photon number its distributions carry) once, and runs the
kernels at each point, on floats and without records, with the
distributions cut at that support: the bins above it are zero and add
nothing to a sum. The kernels keep the checks that can fire there. The
config keeps, like ``_model``, the points of the last scan that reached
the end of its grid, for the schemes scanned after it (the rule is
:func:`_loss_points`').

The count sampling draws with the package's own seeded sampler,
:mod:`decoyqkd._binomial`, which gives the counts that
``numpy.random.default_rng([seed, index])`` draws, without numpy; it is
imported on the first draw.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property

from .channel import E0, ChannelParams, error_n, loss_db_to_eta, yield_n
from .decoy import (
    BoundsResult,
    FluctuationPolicy,
    ObservableBounds,
    ThreeIntensityObservation,
    check_condition,
    estimate_bounds,
    fluctuation_bounds,
)
from .errors import (
    InvalidParameterError,
    UndefinedStatisticError,
    _Record,
    _check_integer,
    _check_range,
)
from .keyrate import KeyRateResult, ProtocolParams, key_rate
from .sources import (
    HspsSource,
    N_MAX_DEFAULT,
    PhotonNumberDistribution,
    SourceModel,
    _check_n_max,
    _support,
    hsps_distribution,
    ideal_sps_distribution,
    wcs_distribution,
)

# the float kernels of the chain, which loss sweeps run at each point
from .channel import _channel_terms, _gain, _qber
from .decoy import _estimate_bounds, _no_decoy_bounds, _pair
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


class ExperimentConfig(_Record):
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
    fluctuation: FluctuationPolicy = FluctuationPolicy()
    rng_seed: int = 0
    n_max: int = N_MAX_DEFAULT

    def __post_init__(self) -> None:
        _check_range("vacuum_mu", self.vacuum_mu, 0)
        _check_integer("total_pulses", self.total_pulses, 1, _INT64_MAX)
        # pulse_split scales total_pulses by each weight
        ratio = self.intensity_ratio
        for i, w in enumerate(ratio):
            _check_range(f"intensity_ratio[{i}]", w, 0, None, "()")
        if len(ratio) != 3 or not math.isfinite(self.total_pulses * sum(ratio)):
            raise InvalidParameterError(
                f"intensity_ratio={ratio!r} needs three positive weights whose "
                "sum times total_pulses is finite"
            )
        _check_integer("rng_seed", self.rng_seed, 0, math.inf)
        _check_n_max(self.n_max)

    @cached_property
    def _model(self) -> tuple[SessionDistributions, Statistics]:
        """The signal, decoy and vacuum distributions and their expected
        statistics at the channel, built on first use, with channel terms
        up to ``n_max``. The cache lives in the instance ``__dict__``,
        outside the fields, so it never enters ``==``, ``hash``, ``repr``
        or :func:`dataclasses.replace`."""
        dists = (
            self.source_signal.distribution(self.n_max),
            self.source_decoy.distribution(self.n_max),
            wcs_distribution(self.vacuum_mu, self.n_max),
        )
        ch = self.channel
        terms = _channel_terms(ch.eta, ch.y0, ch.e_det, self.n_max)
        return dists, _expected_statistics([d.probs for d in dists], *terms)

    def pulse_split(self) -> tuple[int, int, int]:
        """Gate counts per intensity; the signal share absorbs rounding."""
        total = operator.index(self.total_pulses)
        total_weight = math.fsum(self.intensity_ratio)
        n_decoy = int(round(total * self.intensity_ratio[1] / total_weight))
        n_vacuum = int(round(total * self.intensity_ratio[2] / total_weight))
        n_signal = total - n_decoy - n_vacuum
        if min(n_signal, n_decoy, n_vacuum) < 1:
            raise InvalidParameterError(
                "total_pulses too small for the intensity ratio: "
                f"split came out as {(n_signal, n_decoy, n_vacuum)}"
            )
        return n_signal, n_decoy, n_vacuum


class IntensityStatistics(_Record):
    """Analytic per-gate gain and QBER at the three intensity settings."""

    q_signal: float
    e_signal: float
    q_decoy: float
    e_decoy: float
    q_vacuum: float
    e_vacuum: float


class IntensityCounts(_Record):
    """Raw counts accumulated at one intensity setting."""

    gates: int
    detections: int
    errors: int

    def __post_init__(self) -> None:
        for name in ("gates", "detections", "errors"):
            _check_integer(name, getattr(self, name), 0)
        if not self.errors <= self.detections <= self.gates:
            raise InvalidParameterError(
                f"need errors <= detections <= gates, got {self!r}"
            )

    @property
    def q(self) -> float:
        return self.detections / self.gates if self.gates else 0.0

    @property
    def e(self) -> float:
        return self.errors / self.detections if self.detections else 0.0


class SimulatedCounts(_Record):
    """Raw counts of one sampled session at the signal, decoy and vacuum
    settings."""

    signal: IntensityCounts
    decoy: IntensityCounts
    vacuum: IntensityCounts


class PipelineResult(_Record):
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
    q_s, e_s, q_d, e_d, q_v, e_v = cfg._model[1]
    return IntensityStatistics(
        q_signal=q_s, e_signal=e_s, q_decoy=q_d, e_decoy=e_d, q_vacuum=q_v, e_vacuum=e_v
    )


def _expected_statistics(
    probs: Iterable[tuple[float, ...]],
    yields: tuple[float, ...],
    numerators: tuple[float, ...],
) -> Statistics:
    """Kernel of :func:`expected_statistics`: the fields of
    :class:`IntensityStatistics`, in order, for the signal, decoy and
    vacuum ``probs`` of a session, folded through one set of channel
    terms of :func:`channel._channel_terms`, checked in the order of the
    settings. Each sum runs as far as the shorter of the probabilities
    and the terms: a session passes its distributions whole, with terms
    up to ``n_max``; a loss sweep passes them cut at the highest photon
    number they carry (:func:`sources._support`), with the terms of its
    point, which may run further. Both give the bits of the full sums."""
    probs_signal, probs_decoy, probs_vacuum = probs
    q_signal = _gain(probs_signal, yields)
    e_signal = _qber(q_signal, probs_signal, numerators)
    q_decoy = _gain(probs_decoy, yields)
    e_decoy = _qber(q_decoy, probs_decoy, numerators)
    q_vacuum = _gain(probs_vacuum, yields)
    try:
        e_vacuum = _qber(q_vacuum, probs_vacuum, numerators)
    except UndefinedStatisticError:
        q_vacuum, e_vacuum = 0.0, E0
    return q_signal, e_signal, q_decoy, e_decoy, q_vacuum, e_vacuum


def sample_counts(cfg: ExperimentConfig) -> SimulatedCounts:
    """Draw one stochastic realization of the session counts.

    Gates are split by ``intensity_ratio``; detections are binomial in
    the analytic gain and errors binomial in the analytic QBER. Each
    intensity uses a generator derived from (seed, intensity index), so
    results are reproducible and independent of evaluation order.
    """
    stats = cfg._model[1]
    split = cfg.pulse_split()
    # (Q, E) at the signal, decoy and vacuum settings
    per_intensity = (stats[0:2], stats[2:4], stats[4:6])
    # imported here, so that commands which never sample do not load it
    from ._binomial import binomial_pairs

    pairs = binomial_pairs(
        operator.index(cfg.rng_seed),
        [(gates, q, e) for gates, (q, e) in zip(split, per_intensity)],
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
    bounds = estimate_bounds(obs, dist_signal, dist_decoy, fb)
    key = key_rate(
        obs.q_signal, obs.e_signal, bounds, cfg.protocol, n_signal=obs.n_signal
    )
    return PipelineResult(
        observation=obs,
        expected=expected_statistics(cfg),
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


class Scheme(_Record):
    """A source/estimator combination for the loss-sweep comparison.

    ``arg`` is the token's ``:`` argument: the heralding correlation
    p_cor that HSPS_DECOY needs and assumes at both intensities, or the
    signal intensity that WCS_NO_DECOY may take in place of its default.
    No other kind takes one.
    """

    kind: SchemeKind
    arg: float | None = None

    def __post_init__(self) -> None:
        kind, arg = self.kind, self.arg
        if not isinstance(kind, SchemeKind):
            raise InvalidParameterError(
                f"scheme kind {kind!r} is not a SchemeKind; Scheme.parse reads "
                "a token such as 'hsps-decoy:0.40'"
            )
        if kind is SchemeKind.HSPS_DECOY:
            if arg is None:
                raise InvalidParameterError(
                    "hsps-decoy needs a correlation p_cor in [0, 1], e.g. "
                    "hsps-decoy:0.40; got None"
                )
            _check_range("p_cor", arg, 0, 1)
        elif arg is not None:
            if kind is not SchemeKind.WCS_NO_DECOY:
                raise InvalidParameterError(
                    f"scheme {kind.value!r} takes no argument, got {arg!r}"
                )
            _check_range("wcs_mu", arg, 0, None, "()")

    @property
    def label(self) -> str:
        """The token, with its ``:`` argument written as ``-`` and two
        decimals where those give the argument back, else in its shortest
        repr, so that two different arguments never share a label."""
        arg = self.arg
        if arg is None:
            return self.kind.value
        # adding 0.0 turns -0 into 0, which prints without a sign
        text = f"{arg + 0.0:.2f}"
        if float(text) != arg:
            text = repr(float(arg))
        return f"{self.kind.value}-{text}"

    @staticmethod
    def parse(token: str) -> "Scheme":
        """Parse a scheme token such as 'ideal-sps' or 'hsps-decoy:0.40'.

        The token only names the kind and argument; :class:`Scheme` checks them."""
        name, sep, text = token.strip().partition(":")
        try:
            kind = SchemeKind(name)
        except ValueError:
            valid = ", ".join(k.value for k in SchemeKind)
            raise InvalidParameterError(
                f"unknown scheme {name!r} (valid: {valid})"
            ) from None
        if not sep:
            return Scheme(kind=kind)
        try:
            arg = float(text)
        except ValueError:
            raise InvalidParameterError(
                f"scheme argument {text!r} is not a number"
            ) from None
        return Scheme(kind=kind, arg=arg)


class LossCurve(_Record):
    """Key rate per pulse of one scheme, floored at zero, at each loss (dB)
    of a sweep grid; the scheme is named by its label."""

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


def _loss_points(
    cfg: ExperimentConfig, grid: list, support: int
) -> Iterator[tuple[float, tuple[float, ...], tuple[float, ...]]]:
    """The transmittance of each loss of ``grid``, in grid order, with
    the channel terms of ``cfg`` there (:func:`channel._channel_terms`)
    up to ``support`` at least, or none for a negative ``support``.

    The kept-points rule, which the rest of the package cites: ``cfg``
    keeps one snapshot ``(grid, support, points)`` in its instance
    ``__dict__``, beside ``_model`` and, like it, outside ``==``,
    ``hash``, ``repr`` and :func:`dataclasses.replace`. A scan reads the
    snapshot when its grid has the same values of the same types and
    its support is no larger than the kept one: the terms of a smaller
    support are a prefix of those of a larger one, and a kernel's sum
    stops at the end of the probabilities it is given, so every scheme
    gets the bits of its own terms. Any other scan drops the snapshot
    and computes each point when it reaches it, so a loss that raises
    raises at its own point, as in a fresh scan; only a scan that
    reaches the end of its grid stores its points, as a new snapshot.
    The snapshot is stored and dropped whole, by one ``__dict__``
    operation each, so threads scanning one config need no lock: a
    snapshot lost to another thread costs only its recomputation.
    """
    kept = vars(cfg).get("_loss_points")
    # an equal loss of another type may be checked or converted otherwise
    if (
        kept is not None
        and support <= kept[1]
        and kept[0] == grid
        and all(map(operator.is_, map(type, kept[0]), map(type, grid)))
    ):
        yield from kept[2]
        return
    # no reference to the old points may outlive the drop
    del kept
    vars(cfg).pop("_loss_points", None)
    ch = cfg.channel
    y0, e_det = ch.y0, ch.e_det
    points = []
    for loss in grid:
        eta = loss_db_to_eta(loss)
        point = (eta, *_channel_terms(eta, y0, e_det, support))
        points.append(point)
        yield point
    vars(cfg)["_loss_points"] = (grid, support, tuple(points))


def _scheme_rates(scheme: Scheme, cfg: ExperimentConfig, grid: list) -> list[float]:
    """Key rate of ``scheme`` at each loss of ``grid`` on the channel of
    ``cfg``, by one of three estimators: the infinite-decoy
    coherent-state rate at its best intensity, the three-intensity
    bounds, or the no-decoy bound on one distribution (exact for the
    ideal source: G0 = 0 and G1 = Q).

    The distributions, their weights and their support (the highest
    photon number with a nonzero P(n)) are set up once per scan, and the
    probabilities cut at that support. Each point reads its
    transmittance and channel terms from :func:`_loss_points`, which
    keeps them for the schemes scanned after on ``cfg``, and runs the
    float kernels of the chain, whose checks fire in the order of the
    public functions. ``wcs-decoy-opt`` reads the transmittance alone;
    at a point after a zero rate its rate is 0.0 with no search where
    :func:`_past_cutoff` certifies it, which it does only where the
    search would return 0.0 too.
    """
    protocol, ch = cfg.protocol, cfg.channel
    if scheme.kind is SchemeKind.WCS_DECOY_INF_OPT:
        y0, e_det, low = ch.y0, ch.e_det, MU_SEARCH_RANGE[0]
        rates, r = [], None
        for eta, _, _ in _loss_points(cfg, grid, -1):
            # _optimize_mu, less the search where the bound certifies
            rate = _wcs_rate(eta, y0, e_det, protocol, low, r == 0.0)
            r = 0.0 if rate is None else _search_mu(rate)[1]
            rates.append(r)
        return rates

    rates = []
    if scheme.kind is SchemeKind.HSPS_DECOY:
        # three-intensity estimation at the template intensities. Each
        # point is the analytic run_pipeline at its channel, less the
        # applicability condition, whose verdict never reaches the rate
        # (a degenerate pair still raises, in _estimate_bounds). With no
        # fluctuations the envelope is the observables themselves, so
        # the point needs no gate split.
        _check_heralded_template(cfg)
        dist_signal, dist_decoy = (
            hsps_distribution(source.params._replace(p_cor=scheme.arg), cfg.n_max)
            for source in (cfg.source_signal, cfg.source_decoy)
        )
        dists = (dist_signal, dist_decoy, wcs_distribution(cfg.vacuum_mu, cfg.n_max))
        pair = _pair(dist_signal, dist_decoy)
        support = _support(*dists)
        probs = [dist.probs[: support + 1] for dist in dists]
        for _, yields, numerators in _loss_points(cfg, grid, support):
            q_signal, e_signal, q_decoy, _, y0_obs, _ = _expected_statistics(
                probs, yields, numerators
            )
            widened = (q_decoy, q_signal, q_signal * e_signal, y0_obs, y0_obs)
            _, e1, g0, g1, _ = _estimate_bounds(widened, y0_obs, pair)
            rates.append(_key_rate(q_signal, e_signal, e1, g0, g1, protocol)[0])
        return rates

    if scheme.kind is SchemeKind.IDEAL_SPS:
        dist = ideal_sps_distribution()
    elif scheme.kind is SchemeKind.WCS_NO_DECOY:
        mu = scheme.arg if scheme.arg is not None else WCS_NO_DECOY_MU_DEFAULT
        dist = wcs_distribution(mu, cfg.n_max)
    else:
        _check_heralded_template(cfg)
        dist = cfg.source_signal.distribution(cfg.n_max)
    weights = (dist.p(0), dist.p(1), dist.p_at_least(2))
    support = _support(dist)
    probs = dist.probs[: support + 1]
    y0 = ch.y0
    for _, yields, numerators in _loss_points(cfg, grid, support):
        q = _gain(probs, yields)
        e = _qber(q, probs, numerators)
        _, e1, g0, g1, _ = _no_decoy_bounds(q, e, y0, weights)
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
    once per point; past a zero rate, a point that a closed-form bound
    shows to be past the cutoff gets 0.0 with no search. Every rate, and
    every error, is that of a point-by-point evaluation in grid order.

    The template keeps, outside its fields, the transmittances and
    channel terms of its last finished scan (about 1.2 kB per loss at
    support 15) for the scans after it, by the rule of
    :func:`_loss_points`; a replaced template starts afresh.
    """
    grid = list(loss_grid_db)
    if not grid:
        raise InvalidParameterError("loss grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError("loss grid must be strictly ascending")
    rates = tuple(_scheme_rates(scheme, cfg_template, grid))
    return LossCurve(
        scheme_label=scheme.label, loss_db=tuple(map(float, grid)), rate=rates
    )


class MuOptimum(_Record):
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
    return _wcs_rate(ch.eta, ch.y0, ch.e_det, protocol, mu)(mu)


def _wcs_rate(
    eta: float,
    y0: float,
    e_det: float,
    protocol: ProtocolParams,
    mu_low: float,
    try_bound: bool = False,
) -> Callable[[float], float] | None:
    """The rate of :func:`wcs_infinite_decoy_rate` as a function of the
    intensity ``mu``, for intensities of at least ``mu_low``. Raises
    where that rate is undefined, which happens only without background:
    where the gain y0 + 1 - exp(-eta mu_low) rounds to zero (no QBER), or
    where Y1 does (no e1). Its constants (Y1 and e1 from the channel
    terms of n = 1, the privacy factor of e1, E0 y0 and the protocol's
    f_ec and q_sift) are computed once, here. The closure writes out the
    GLLP bracket of :func:`keyrate._key_rate` itself, with the unchecked
    H2 of :func:`keyrate._h2`: its QBER lies in [0, 1] by construction.
    With ``try_bound``, it is None instead where :func:`_past_cutoff`
    shows that it is at most 0 all over ``MU_SEARCH_RANGE``."""
    if y0 == 0.0 and math.exp(-eta * mu_low) == 1.0:
        raise UndefinedStatisticError(
            f"QBER undefined: zero gain at mu={mu_low!r} (eta={eta!r}, y0=0)"
        )
    (y1,), (numerator_1,) = _channel_terms(eta, y0, e_det, 1, 1)
    if y1 == 0.0:
        raise UndefinedStatisticError(
            f"e1 undefined: zero single-photon yield (eta={eta!r}, y0=0)"
        )
    privacy = _privacy(numerator_1 / y1)
    f_ec, q_sift = protocol.f_ec, protocol.q_sift
    if try_bound and _past_cutoff(eta, y0, e_det, f_ec, y1 * privacy):
        return None
    e0_y0 = E0 * y0
    exp = math.exp

    def rate(mu: float) -> float:
        signal = 1.0 - exp(-eta * mu)
        p0 = exp(-mu)
        # min(x, 1.0), at a quarter of the cost of the builtin call
        q = y0 + signal
        q = 1.0 if 1.0 < q else q
        e = (e0_y0 + e_det * signal) / q
        ec_cost = q * f_ec * _h2(1.0 if 1.0 < e else e)
        return q_sift * (-ec_cost + y0 * p0 + y1 * mu * p0 * privacy)

    return rate


def _past_cutoff(eta: float, y0: float, e_det: float, f_ec: float, c: float) -> bool:
    """Whether the float rate of :func:`_wcs_rate`, where c = Y1 (1 -
    H2(min(e1, 1/2))), is at most 0 all over ``MU_SEARCH_RANGE``: whether
    the largest gain part e^-mu (y0 + c mu), at mu = 1 - y0 / c clamped
    into the range, is below the smallest cost f_ec Q H2(E), less a
    margin. With Q = y0 + s and Q E = E0 y0 + e_det s affine in s = 1 -
    exp(-eta mu), which rises with mu, Q H2(E) is a perspective of H2,
    concave in s: least at an end. No bound where Q passes 1 (the rate
    caps it). The margin, 2^-30 of f_ec Q at the top, dwarfs the float
    error of every term of the rate, each at most f_ec Q there."""
    lo, hi = MU_SEARCH_RANGE
    mu = min(max(1.0 - y0 / c, lo), hi) if c > 0.0 else lo
    gain = math.exp(-mu) * (y0 + c * mu)
    s_lo, s_hi = 1.0 - math.exp(-eta * lo), 1.0 - math.exp(-eta * hi)
    q_hi = y0 + s_hi
    if q_hi > 1.0:
        return False
    cost = min((y0 + s) * _h2((E0 * y0 + e_det * s) / (y0 + s)) for s in (s_lo, s_hi))
    return gain < f_ec * (cost - 2.0**-30 * q_hi)


# optimize_mu's search: a coarse grid of MU_COARSE_POINTS intensities
# spanning MU_SEARCH_RANGE, then Brent's parabolic refinement to within
# MU_TOL / 3 plus sqrt(eps) of the intensity
MU_SEARCH_RANGE = (1e-4, 1.0)
MU_COARSE_POINTS = 512
MU_TOL = 1e-7

# the coarse grid, np.linspace(*MU_SEARCH_RANGE, MU_COARSE_POINTS) bit for bit
_COARSE_MU = tuple(
    k * ((MU_SEARCH_RANGE[1] - MU_SEARCH_RANGE[0]) / (MU_COARSE_POINTS - 1))
    + MU_SEARCH_RANGE[0]
    for k in range(MU_COARSE_POINTS - 1)
) + (MU_SEARCH_RANGE[1],)

# _coarse_argmax's first bracket: the first Fibonacci pair lo < hi from
# (1, 2) on with lo + hi > MU_COARSE_POINTS, (233, 377) for 512 points
_FIB_START = (1, 2)
while sum(_FIB_START) <= MU_COARSE_POINTS:
    _FIB_START = _FIB_START[1], sum(_FIB_START)

# the refinement's golden-section fraction of a step, 2 - phi, and the
# relative part of its tolerance, sqrt(eps) = 2**-26
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(math.ulp(1.0))


def _coarse_argmax(rate: Callable[[float], float]) -> tuple[int, float]:
    """First index of the largest rate over the coarse grid, and that
    rate, for a rate of mu that rises to one peak and then falls, or only falls.

    A Fibonacci search narrows an open bracket of grid indices around the
    peak, from the pair ``_FIB_START`` found at import. Each step keeps
    one probe, whose rate it carries, and evaluates one new one, so no
    grid point is evaluated twice; a probe past the grid reads -inf. The
    last four candidates are compared in order, and then index 0, as the
    grid rates can fall over the first few points before they rise to an
    interior peak. Ties go to the first index, as in ``np.argmax``.
    """
    mus = _COARSE_MU
    n = MU_COARSE_POINTS
    # the peak lies in (a, a + lo + hi), probed at a + lo and a + hi, for
    # consecutive Fibonacci numbers lo < hi; the next bracket keeps one
    # probe, the old a + hi as its a + lo if it moved up (only on a rate
    # above -inf, so a + lo stays on the grid), else the old a + lo as a + hi
    lo, hi = _FIB_START
    a = -1
    r_lo = rate(mus[a + lo])
    r_hi = rate(mus[a + hi])
    while lo + hi > 5:
        lo, hi = hi - lo, lo
        if r_lo < r_hi:
            a += hi
            r_lo = r_hi
            r_hi = rate(mus[a + hi]) if a + hi < n else -math.inf
        else:
            r_hi = r_lo
            r_lo = rate(mus[a + lo])
    # (lo, hi) is now (2, 3), probed at a + 2 and a + 3; no probe was ever
    # at a + 1, a + 4 or 0, so index 0 is new unless it is a + 1
    best = a + 1
    r_best = r_first = rate(mus[best])
    if r_lo > r_best:
        best, r_best = a + 2, r_lo
    if r_hi > r_best:
        best, r_best = a + 3, r_hi
    r = rate(mus[a + 4]) if a + 4 < n else -math.inf
    if r > r_best:
        best, r_best = a + 4, r
    r_0 = r_first if a < 0 else rate(mus[0])
    if r_0 >= r_best:
        return 0, r_0
    return best, r_best


def optimize_mu(
    channel: ChannelParams, protocol: ProtocolParams = ProtocolParams()
) -> MuOptimum:
    """Maximize the infinite-decoy coherent-state rate over the signal
    intensity.

    A search over a coarse grid of ``MU_COARSE_POINTS`` intensities
    finds its best point (see :func:`_coarse_argmax`). Brent's minimizer
    (parabolic steps through the best three points seen, golden-section
    steps where a parabola is unsafe) then searches between that point's
    neighbours, starting at the point, to within sqrt(eps) mu +
    ``MU_TOL`` / 3, and the best intensity it sees is returned, never
    worse than the grid point. Every value is the scalar rate of
    :func:`wcs_infinite_decoy_rate`, one closure of ``mu`` with its
    constants at the channel (Y1, 1 - H2(e1), E0 y0) computed once per
    call, which raises where the rate is undefined at the low end of
    ``MU_SEARCH_RANGE``. When the rate is non-positive everywhere the
    result is flagged infeasible (rate 0 at the least-bad intensity).

    The search is the float kernel :func:`_optimize_mu` on the fields of
    ``channel``; a loss sweep runs it at each point, with no channel
    record, so the constants are computed once per point.
    """
    mu, rate = _optimize_mu(channel.eta, channel.y0, channel.e_det, protocol)
    return MuOptimum(mu=mu, rate=rate)


def _optimize_mu(
    eta: float, y0: float, e_det: float, protocol: ProtocolParams
) -> tuple[float, float]:
    """Kernel of :func:`optimize_mu`: the best intensity and its rate."""
    # the gain is smallest at the low end of the range
    return _search_mu(_wcs_rate(eta, y0, e_det, protocol, MU_SEARCH_RANGE[0]))


def _search_mu(rate: Callable[[float], float]) -> tuple[float, float]:
    """The search of :func:`optimize_mu` on a rate of :func:`_wcs_rate`:
    the best intensity and its rate."""
    best, r_best = _coarse_argmax(rate)
    a = _COARSE_MU[max(best - 1, 0)]
    b = _COARSE_MU[min(best + 1, MU_COARSE_POINTS - 1)]
    # Brent's localmin (Algorithms for Minimization without Derivatives,
    # 1973, ch. 5) on f = -rate over [a, b], started at the grid point,
    # whose f is known: x is the best point seen, w the second best and v
    # the one before; each step fits a parabola through them or, where
    # that is unsafe, takes a golden-section step into the larger part
    golden, sqrt_eps, t = _GOLDEN, _SQRT_EPS, MU_TOL / 3.0
    x = w = v = _COARSE_MU[best]
    fx = fw = fv = -r_best
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = sqrt_eps * abs(x) + t
        t2 = 2.0 * tol
        if abs(x - m) <= t2 - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(e) > tol:
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
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            # the parabola's vertex, but no nearer to a or b than 2 tol
            d = p / q
            u = x + d
            if u - a < t2 or b - u < t2:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = golden * e
        # and no nearer to x than tol
        u = x + (d if abs(d) >= tol else (tol if d > 0.0 else -tol))
        fu = -rate(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, (0.0 if fx >= 0.0 else -fx)
