"""The library contract: every callable the package exports either returns
a value in its documented range or raises one of the five package errors.

A Hypothesis property calls each exported callable on its documented
argument types: numbers in and out of range, NaN, ±inf, ±0.0,
subnormals, 1e308 and ints up to 10**400 where a float is documented, and
ints up to 10**400 where an int is. A record argument is a valid one, or
that record with one numeric field swapped for such a number; a
distribution argument has a valid truncation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import decoyqkd
from decoyqkd import (
    BoundsResult,
    ChannelParams,
    ConfigError,
    DegenerateDistributionError,
    ExperimentConfig,
    FluctuationPolicy,
    GainErrorPoint,
    HspsParams,
    HspsSource,
    IdealSpsSource,
    InconsistentDataError,
    IntensityCounts,
    IntensityStatistics,
    InvalidParameterError,
    KeyRateComponents,
    KeyRateResult,
    LossCurve,
    MeasuredRates,
    MuOptimum,
    ObservableBounds,
    PhotonNumberDistribution,
    ProtocolParams,
    Scheme,
    SchemeKind,
    SimulatedCounts,
    ThreeIntensityObservation,
    UndefinedStatisticError,
    WcsSource,
    binary_entropy,
    check_condition,
    error_n,
    estimate_bounds,
    estimate_y1_lower,
    eta_to_loss_db,
    expected_statistics,
    fluctuation_bounds,
    g2_zero,
    gain,
    hsps_distribution,
    ideal_sps_distribution,
    infer_accidental_rate,
    infer_correlation,
    key_rate,
    loss_db_to_eta,
    no_decoy_bounds,
    optimize_mu,
    qber,
    run_pipeline,
    sample_counts,
    scan_loss,
    secure_bits,
    wcs_distribution,
    wcs_infinite_decoy_rate,
    yield_n,
)
from decoyqkd.session import MU_SEARCH_RANGE

from helpers import (
    BENCH_F_EC,
    BENCH_Q_SIFT,
    BENCH_RATIO,
    REF_E_SIGNAL,
    REF_Q_DECOY,
    REF_Q_SIGNAL,
    bench_channel,
    bench_config,
    bench_signal_source,
)

PACKAGE_ERRORS = (
    ConfigError,
    DegenerateDistributionError,
    InconsistentDataError,
    InvalidParameterError,
    UndefinedStatisticError,
)

HUGE_INT = 10**400
# where a float is documented
EXTREME_FLOATS = (
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    1e308,
    -1e308,
    sys.float_info.max,
    int(sys.float_info.max),
    2**1024,
    HUGE_INT,
    -HUGE_INT,
)
NUMBERS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(EXTREME_FLOATS),
    st.floats(),
    st.integers(min_value=-HUGE_INT, max_value=HUGE_INT),
)
# where an int is documented
COUNTS = st.one_of(
    st.integers(min_value=-2, max_value=40),
    st.sampled_from((2**63 - 1, 2**63, HUGE_INT)),
    st.integers(min_value=-HUGE_INT, max_value=HUGE_INT),
)
N_MAX = st.one_of(st.integers(min_value=2, max_value=24), COUNTS)

PROTOCOL = ProtocolParams(q_sift=BENCH_Q_SIFT, f_ec=BENCH_F_EC)
RATES = MeasuredRates(
    r0_hz=1e6, rs_hz=8e3, rc_hz=4.05e5, ds_hz=1e3, eta_s=0.1, gate_time_s=2.5e-9
)
OBSERVATION = ThreeIntensityObservation(
    q_signal=REF_Q_SIGNAL,
    q_decoy=REF_Q_DECOY,
    e_signal=REF_E_SIGNAL,
    e_decoy=None,
    y0_obs=1e-5,
    n_signal=10**9,
    n_decoy=4 * 10**8,
    n_vacuum=10**8,
)
BOUNDS = BoundsResult(y1_lower=0.02, e1_upper=0.05, g0=1e-5, g1_lower=8e-3)


def unit(x) -> bool:
    return 0.0 <= x <= 1.0


def finite_non_negative(x) -> bool:
    return 0.0 <= x <= sys.float_info.max


def swap_one(draw, base, floats=(), ints=()):
    """``base``, or ``base`` with one of its float fields ``floats`` or
    int fields ``ints`` replaced by a drawn number."""
    if draw(st.booleans()):
        return base
    name = draw(st.sampled_from((*floats, *ints)))
    return replace(base, **{name: draw(NUMBERS if name in floats else COUNTS)})


def channel(draw):
    return swap_one(draw, bench_channel(), ("eta", "y0", "e_det", "e0"))


def protocol(draw):
    return swap_one(draw, PROTOCOL, ("q_sift", "f_ec"))


def policy(draw):
    return swap_one(draw, FluctuationPolicy(10.0), ("n_sigma",))


def observation(draw):
    floats = ("q_signal", "q_decoy", "e_signal", "y0_obs")
    return swap_one(draw, OBSERVATION, floats, ("n_signal", "n_decoy", "n_vacuum"))


def hsps_params(draw):
    return swap_one(draw, bench_signal_source().params, ("p_cor", "mu_acc", "d_i"))


def rates(draw):
    floats = ("r0_hz", "rs_hz", "rc_hz", "ds_hz", "eta_s", "gate_time_s")
    return swap_one(draw, RATES, floats)


def config(draw):
    ratio = list(BENCH_RATIO)
    if draw(st.booleans()):
        ratio[draw(st.integers(0, 2))] = draw(NUMBERS)
    cfg = replace(
        bench_config(),
        channel=channel(draw),
        protocol=protocol(draw),
        fluctuation=policy(draw),
        intensity_ratio=tuple(ratio),
    )
    cfg = swap_one(draw, cfg, ("vacuum_mu",), ("total_pulses", "rng_seed", "n_max"))
    # the int fields that the integer rule guards draw any number too
    return swap_one(draw, cfg, ("total_pulses", "rng_seed"))


def distribution(draw):
    """A distribution argument: a valid truncation, and a coherent mean
    that is mostly in [0, 1]; the constructors' own cases take the rest."""
    kind = draw(st.sampled_from(("wcs", "hsps", "ideal")))
    n_max = draw(st.integers(min_value=2, max_value=24))
    if kind == "wcs":
        return wcs_distribution(draw(st.floats(0.0, 1.0) | NUMBERS), n_max)
    if kind == "hsps":
        return hsps_distribution(hsps_params(draw), n_max)
    return ideal_sps_distribution(n_max)


def scheme(draw):
    kind = draw(st.sampled_from(list(SchemeKind)))
    if kind is SchemeKind.HSPS_DECOY or (
        kind is SchemeKind.WCS_NO_DECOY and draw(st.booleans())
    ):
        return Scheme(kind, arg=draw(NUMBERS))
    return Scheme(kind)


def counts(draw):
    """Counts that are mostly ordered as errors <= detections <= gates,
    at times with one of them any number."""
    gates = draw(COUNTS)
    detections = draw(st.integers(0, max(gates, 0)) | COUNTS)
    errors = draw(st.integers(0, max(detections, 0)) | COUNTS)
    drawn = [gates, detections, errors]
    if draw(st.booleans()):
        drawn[draw(st.integers(0, 2))] = draw(NUMBERS)
    return IntensityCounts(*drawn)


def check_bounds(b):
    assert unit(b.y1_lower) and unit(b.e1_upper) and unit(b.g0) and unit(b.g1_lower)


def check_envelope(fb):
    high = (fb.q_signal_high, fb.eq_signal_high, fb.y0_high)
    assert all(unit(v) for v in (fb.q_decoy_low, fb.y0_low, *high))


def check_key(key):
    assert finite_non_negative(key.rate_per_pulse)
    assert isinstance(key.secure_bits, int) and key.secure_bits >= 0


# each exported callable: a call on drawn arguments, with its result checked
# against the documented range
def case_channel_params(draw):
    assert isinstance(ChannelParams(*(draw(NUMBERS) for _ in range(4))), ChannelParams)


def case_gain_error_point(draw):
    assert isinstance(GainErrorPoint(draw(NUMBERS), draw(NUMBERS)), GainErrorPoint)


def case_error_n(draw):
    assert unit(error_n(channel(draw), draw(COUNTS)))


def case_yield_n(draw):
    assert unit(yield_n(channel(draw), draw(COUNTS)))


def case_eta_to_loss_db(draw):
    assert finite_non_negative(eta_to_loss_db(draw(NUMBERS)))


def case_loss_db_to_eta(draw):
    assert 0.0 < loss_db_to_eta(draw(NUMBERS)) <= 1.0


def case_gain(draw):
    assert unit(gain(distribution(draw), channel(draw)))


def case_qber(draw):
    point = qber(distribution(draw), channel(draw))
    assert unit(point.q_gain) and unit(point.qber)


def case_bounds_result(draw):
    check_bounds(BoundsResult(*(draw(NUMBERS) for _ in range(4))))


def case_fluctuation_policy(draw):
    assert finite_non_negative(FluctuationPolicy(draw(NUMBERS)).n_sigma)


def envelope(draw, obs):
    """The envelope of ``obs`` from :func:`fluctuation_bounds`, or one
    built by hand."""
    if draw(st.booleans()):
        return fluctuation_bounds(obs, policy(draw))
    return ObservableBounds(*(draw(NUMBERS) for _ in range(5)))


def case_observable_bounds(draw):
    check_envelope(ObservableBounds(*(draw(NUMBERS) for _ in range(5))))


def case_three_intensity_observation(draw):
    obs = ThreeIntensityObservation(
        q_signal=draw(NUMBERS),
        q_decoy=draw(NUMBERS),
        e_signal=draw(NUMBERS),
        e_decoy=draw(st.one_of(st.none(), NUMBERS)),
        y0_obs=draw(NUMBERS),
        n_signal=draw(COUNTS),
        n_decoy=draw(COUNTS),
        n_vacuum=draw(COUNTS),
    )
    assert isinstance(obs, ThreeIntensityObservation)


def case_check_condition(draw):
    assert check_condition(distribution(draw), distribution(draw)) in (True, False)


def case_estimate_bounds(draw):
    obs = observation(draw)
    fb = envelope(draw, obs)
    check_bounds(estimate_bounds(obs, distribution(draw), distribution(draw), fb))


def case_estimate_y1_lower(draw):
    fb = envelope(draw, observation(draw))
    y1, flags = estimate_y1_lower(fb, distribution(draw), distribution(draw))
    assert unit(y1) and all(isinstance(flag, str) for flag in flags)


def case_fluctuation_bounds(draw):
    check_envelope(fluctuation_bounds(observation(draw), policy(draw)))


def case_no_decoy_bounds(draw):
    q, e, y0 = (draw(NUMBERS) for _ in range(3))
    check_bounds(no_decoy_bounds(q, e, y0, distribution(draw)))


def case_key_rate_components(draw):
    parts = KeyRateComponents(*(draw(NUMBERS) for _ in range(4)))
    assert isinstance(parts, KeyRateComponents)


def case_key_rate_result(draw):
    parts = KeyRateComponents(*(draw(NUMBERS) for _ in range(4)))
    result = KeyRateResult(draw(NUMBERS), draw(COUNTS), draw(st.booleans()), parts)
    assert isinstance(result, KeyRateResult)


def case_protocol_params(draw):
    p = ProtocolParams(draw(NUMBERS), draw(NUMBERS))
    assert 0.0 < p.q_sift <= 1.0 and 1.0 <= p.f_ec <= sys.float_info.max


def case_binary_entropy(draw):
    assert unit(binary_entropy(draw(NUMBERS)))


def case_key_rate(draw):
    q, e = draw(NUMBERS), draw(NUMBERS)
    bounds = swap_one(draw, BOUNDS, ("y1_lower", "e1_upper", "g0", "g1_lower"))
    n_signal = draw(st.one_of(st.none(), COUNTS))
    check_key(key_rate(q, e, bounds, protocol(draw), n_signal))


def case_secure_bits(draw):
    bits = secure_bits(draw(NUMBERS), draw(COUNTS))
    assert isinstance(bits, int) and bits >= 0


def case_experiment_config(draw):
    assert isinstance(config(draw), ExperimentConfig)


def case_intensity_counts(draw):
    c = counts(draw)
    assert all(isinstance(n, int) for n in (c.gates, c.detections, c.errors))
    assert unit(c.q) and unit(c.e)


def case_intensity_statistics(draw):
    stats = IntensityStatistics(*(draw(NUMBERS) for _ in range(6)))
    assert isinstance(stats, IntensityStatistics)


def case_loss_curve(draw):
    losses = draw(st.lists(NUMBERS, max_size=3))
    rates_ = [draw(NUMBERS) for _ in losses]
    cutoff = LossCurve("scheme", tuple(losses), tuple(rates_)).cutoff_db
    assert cutoff is None or cutoff in losses


def case_mu_optimum(draw):
    assert MuOptimum(draw(NUMBERS), draw(NUMBERS)).feasible in (True, False)


def case_pipeline_result(draw):
    result = run_pipeline(bench_config())
    if draw(st.booleans()):
        sampled = SimulatedCounts(counts(draw), counts(draw), counts(draw))
        result = replace(result, counts=sampled)
    assert result.mode in ("analytic", "sampled")


def case_scheme(draw):
    assert isinstance(scheme(draw).label, str)


def case_scheme_kind(draw):
    token = draw(st.sampled_from([kind.value for kind in SchemeKind]))
    assert SchemeKind(token).value == token


def case_simulated_counts(draw):
    drawn = SimulatedCounts(counts(draw), counts(draw), counts(draw))
    assert isinstance(drawn, SimulatedCounts)


def case_expected_statistics(draw):
    stats = expected_statistics(config(draw))
    assert all(unit(getattr(stats, name)) for name in stats.__dataclass_fields__)


def case_optimize_mu(draw):
    best = optimize_mu(channel(draw), protocol(draw))
    assert MU_SEARCH_RANGE[0] <= best.mu <= MU_SEARCH_RANGE[1]
    assert finite_non_negative(best.rate)


def case_run_pipeline(draw):
    cfg = config(draw)
    kind = draw(st.sampled_from(("analytic", "sampled", "drawn")))
    if kind == "analytic":
        drawn = None
    elif kind == "sampled":
        drawn = sample_counts(cfg)
    else:
        drawn = SimulatedCounts(counts(draw), counts(draw), counts(draw))
    result = run_pipeline(cfg, drawn)
    check_bounds(result.bounds)
    check_key(result.key)


def case_sample_counts(draw):
    cfg = config(draw)
    drawn = sample_counts(cfg)
    parts = (drawn.signal, drawn.decoy, drawn.vacuum)
    assert sum(part.gates for part in parts) == cfg.total_pulses


def case_scan_loss(draw):
    grid = draw(
        st.one_of(
            st.lists(NUMBERS, max_size=3),
            st.lists(st.floats(0.0, 80.0), min_size=1, max_size=3, unique=True).map(
                sorted
            ),
        )
    )
    curve = scan_loss(config(draw), scheme(draw), grid)
    assert len(curve.rate) == len(grid)
    assert all(finite_non_negative(r) for r in curve.rate)


def case_wcs_infinite_decoy_rate(draw):
    rate = wcs_infinite_decoy_rate(draw(NUMBERS), channel(draw), protocol(draw))
    assert math.isfinite(rate)


def case_hsps_params(draw):
    params = HspsParams(draw(NUMBERS), draw(NUMBERS), draw(NUMBERS))
    assert isinstance(params, HspsParams)


def case_hsps_source(draw):
    dist = HspsSource(hsps_params(draw)).distribution(draw(N_MAX))
    assert isinstance(dist, PhotonNumberDistribution)


def case_ideal_sps_source(draw):
    dist = IdealSpsSource().distribution(draw(N_MAX))
    assert dist.p(1) == 1.0


def case_measured_rates(draw):
    assert isinstance(MeasuredRates(*(draw(NUMBERS) for _ in range(6))), MeasuredRates)


def case_photon_number_distribution(draw):
    probs = list(distribution(draw).probs)
    index = draw(st.integers(min_value=0, max_value=len(probs) - 1))
    probs[index] = draw(st.sampled_from((probs[index], draw(NUMBERS))))
    p_ge1 = draw(st.one_of(st.none(), NUMBERS))
    dist = PhotonNumberDistribution(tuple(probs), draw(st.booleans()), p_ge1)
    assert all(unit(p) for p in dist.probs)
    assert unit(dist.p(draw(COUNTS)))


def case_wcs_source(draw):
    dist = WcsSource(draw(NUMBERS)).distribution(draw(N_MAX))
    assert isinstance(dist, PhotonNumberDistribution)


def case_g2_zero(draw):
    assert finite_non_negative(g2_zero(distribution(draw)))


def case_hsps_distribution(draw):
    dist = hsps_distribution(hsps_params(draw), draw(N_MAX))
    assert all(unit(p) for p in dist.probs)


def case_ideal_sps_distribution(draw):
    assert ideal_sps_distribution(draw(N_MAX)).probs[1] == 1.0


def case_infer_accidental_rate(draw):
    assert finite_non_negative(infer_accidental_rate(rates(draw)))


def case_infer_correlation(draw):
    assert unit(infer_correlation(rates(draw), draw(NUMBERS)))


def case_wcs_distribution(draw):
    dist = wcs_distribution(draw(NUMBERS), draw(N_MAX))
    assert all(unit(p) for p in dist.probs)


# exported name -> case
CASES = {
    "ChannelParams": case_channel_params,
    "GainErrorPoint": case_gain_error_point,
    "error_n": case_error_n,
    "eta_to_loss_db": case_eta_to_loss_db,
    "gain": case_gain,
    "loss_db_to_eta": case_loss_db_to_eta,
    "qber": case_qber,
    "yield_n": case_yield_n,
    "BoundsResult": case_bounds_result,
    "FluctuationPolicy": case_fluctuation_policy,
    "ObservableBounds": case_observable_bounds,
    "ThreeIntensityObservation": case_three_intensity_observation,
    "check_condition": case_check_condition,
    "estimate_bounds": case_estimate_bounds,
    "estimate_y1_lower": case_estimate_y1_lower,
    "fluctuation_bounds": case_fluctuation_bounds,
    "no_decoy_bounds": case_no_decoy_bounds,
    "KeyRateComponents": case_key_rate_components,
    "KeyRateResult": case_key_rate_result,
    "ProtocolParams": case_protocol_params,
    "binary_entropy": case_binary_entropy,
    "key_rate": case_key_rate,
    "secure_bits": case_secure_bits,
    "ExperimentConfig": case_experiment_config,
    "IntensityCounts": case_intensity_counts,
    "IntensityStatistics": case_intensity_statistics,
    "LossCurve": case_loss_curve,
    "MuOptimum": case_mu_optimum,
    "PipelineResult": case_pipeline_result,
    "Scheme": case_scheme,
    "SchemeKind": case_scheme_kind,
    "SimulatedCounts": case_simulated_counts,
    "expected_statistics": case_expected_statistics,
    "optimize_mu": case_optimize_mu,
    "run_pipeline": case_run_pipeline,
    "sample_counts": case_sample_counts,
    "scan_loss": case_scan_loss,
    "wcs_infinite_decoy_rate": case_wcs_infinite_decoy_rate,
    "HspsParams": case_hsps_params,
    "HspsSource": case_hsps_source,
    "IdealSpsSource": case_ideal_sps_source,
    "MeasuredRates": case_measured_rates,
    "PhotonNumberDistribution": case_photon_number_distribution,
    "WcsSource": case_wcs_source,
    "g2_zero": case_g2_zero,
    "hsps_distribution": case_hsps_distribution,
    "ideal_sps_distribution": case_ideal_sps_distribution,
    "infer_accidental_rate": case_infer_accidental_rate,
    "infer_correlation": case_infer_correlation,
    "wcs_distribution": case_wcs_distribution,
}


# every callable the package exports but the error types, which are the
# contract itself. The package loads its names on first use, so they come
# from __all__: vars(decoyqkd) holds only the names touched so far
EXPORTED = sorted(
    name
    for name, value in {n: getattr(decoyqkd, n) for n in decoyqkd.__all__}.items()
    if callable(value) and value not in PACKAGE_ERRORS
)


def test_every_exported_callable_has_a_case():
    assert set(EXPORTED) == set(CASES)


def test_all_names_the_public_surface():
    # the callables with a case, the five errors and the SourceModel union
    public = set(CASES) | {error.__name__ for error in PACKAGE_ERRORS} | {"SourceModel"}
    assert sorted(decoyqkd.__all__) == sorted(public)


@settings(max_examples=1000, deadline=None)
@given(name=st.sampled_from(EXPORTED), data=st.data())
def test_exported_callables_keep_the_contract(name, data):
    try:
        CASES[name](data.draw)
    except PACKAGE_ERRORS:
        pass
