import gc
import math
import random
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import decoyqkd.channel as channel_mod
import decoyqkd.decoy as decoy_mod
import decoyqkd.errors as errors_mod
import decoyqkd.keyrate as keyrate_mod
import decoyqkd.session as session_mod
import decoyqkd.sources as sources_mod
from decoyqkd import (
    ChannelParams,
    ExperimentConfig,
    FluctuationPolicy,
    HspsParams,
    HspsSource,
    IdealSpsSource,
    IntensityCounts,
    InvalidParameterError,
    MeasuredRates,
    MuOptimum,
    ProtocolParams,
    Scheme,
    SchemeKind,
    UndefinedStatisticError,
    WcsSource,
    binary_entropy,
    error_n,
    expected_statistics,
    ideal_sps_distribution,
    infer_accidental_rate,
    infer_correlation,
    key_rate,
    loss_db_to_eta,
    no_decoy_bounds,
    optimize_mu,
    run_pipeline,
    sample_counts,
    scan_loss,
    secure_bits,
    wcs_distribution,
    wcs_infinite_decoy_rate,
    yield_n,
)
from decoyqkd.config import dump_json, experiment_to_dict
from dataclasses import asdict, fields, replace
from decimal import Decimal, localcontext

from helpers import (
    BENCH_E_DET,
    BENCH_ETA,
    BENCH_F_EC,
    BENCH_MU_VACUUM,
    BENCH_TOTAL_PULSES,
    BENCH_Y0,
    bench_channel,
    bench_config,
    bench_decoy_source,
    bench_signal_source,
    ref_coarse_argmax,
    ref_infinite_decoy_bounds,
    ref_localmin,
    ref_qber,
    ref_three_intensity_rate,
    ref_wcs_infinite_decoy_rate,
    ref_wcs_rate_60,
)


# every scheme kind, with and without its optional argument
SCHEME_TOKENS = (
    "wcs-no-decoy",
    "wcs-no-decoy:0.3",
    "hsps-no-decoy",
    "wcs-decoy-opt",
    "hsps-decoy:0.40",
    "hsps-decoy:0.70",
    "ideal-sps",
)


def ideal_config(eta=1.0, y0=0.0):
    return ExperimentConfig(
        source_signal=IdealSpsSource(),
        source_decoy=WcsSource(0.01),
        vacuum_mu=0.0,
        channel=ChannelParams(eta=eta, y0=y0, e_det=0.025),
        protocol=ProtocolParams(),
        total_pulses=3_000,
    )


class TestExpectedStatistics:
    def test_lossless_ideal_source_always_clicks(self):
        stats = expected_statistics(ideal_config())
        assert stats.q_signal == 1.0

    def test_benchmark_signal_gain(self):
        stats = expected_statistics(bench_config())
        assert 1.0e-4 <= stats.q_signal <= 1.1e-4

    def test_leaky_vacuum_barely_inflates_background(self):
        stats = expected_statistics(bench_config())
        expected = BENCH_Y0 + BENCH_ETA * BENCH_MU_VACUUM
        assert stats.q_vacuum == pytest.approx(expected, rel=1e-3)
        assert stats.q_vacuum - BENCH_Y0 < 2e-9

    def test_zero_gain_vacuum_reports_background_error(self):
        stats = expected_statistics(ideal_config(y0=0.0))
        assert stats.q_vacuum == 0.0
        assert stats.e_vacuum == 0.5

    def test_one_gain_sum_per_setting(self, monkeypatch):
        sums = count_calls(monkeypatch, (channel_mod, session_mod), ("_gain",))
        expected_statistics(bench_config())
        assert sums[0] == 3


class TestPulseSplit:
    def test_benchmark_split(self):
        assert bench_config().pulse_split() == (
            1_000_000_000,
            400_000_000,
            100_000_000,
        )

    def test_rejects_tiny_sessions(self):
        cfg = replace(bench_config(), total_pulses=5)
        with pytest.raises(InvalidParameterError):
            cfg.pulse_split()


class TestSampleCounts:
    def test_zero_gain_draws_zero_detections(self):
        counts = sample_counts(ideal_config(y0=0.0))
        assert counts.vacuum.detections == 0
        assert counts.vacuum.errors == 0

    def test_deterministic_given_seed(self):
        cfg = bench_config(seed=123)
        assert sample_counts(cfg) == sample_counts(cfg)

    def test_different_seeds_differ(self):
        a = sample_counts(bench_config(seed=1))
        b = sample_counts(bench_config(seed=2))
        assert a != b

    def test_numpy_integers_count_as_their_ints(self):
        cfg = bench_config(seed=3)
        numpy_cfg = replace(
            cfg, rng_seed=np.int64(3), total_pulses=np.int64(cfg.total_pulses)
        )
        counts = sample_counts(numpy_cfg)
        assert counts == sample_counts(cfg)
        assert run_pipeline(numpy_cfg, counts) == run_pipeline(cfg, counts)
        # the report echoes them as ints, not as quoted strings
        report, numpy_report = (
            dump_json(experiment_to_dict(c, "sampled")) for c in (cfg, numpy_cfg)
        )
        assert numpy_report == report

    def test_binomial_concentration(self):
        cfg = bench_config()
        stats = expected_statistics(cfg)
        n_signal = cfg.pulse_split()[0]
        mean = n_signal * stats.q_signal
        window = 5.0 * math.sqrt(n_signal * stats.q_signal * (1 - stats.q_signal))
        inside = sum(
            abs(sample_counts(bench_config(seed=s)).signal.detections - mean)
            <= window
            for s in range(1000)
        )
        assert inside >= 999


class TestRunPipeline:
    def test_noiseless_estimate_is_sound(self):
        result = run_pipeline(bench_config(n_sigma=0.0))
        assert result.mode == "analytic"
        assert result.condition_ok
        assert result.bounds.y1_lower <= result.y1_true
        assert result.bounds.e1_upper >= result.e1_true

    def test_fluctuations_shrink_the_key(self):
        r0 = run_pipeline(bench_config(n_sigma=0.0))
        r10 = run_pipeline(bench_config(n_sigma=10.0))
        assert r10.key.rate_per_pulse < r0.key.rate_per_pulse
        assert r10.key.rate_per_pulse > 0.0

    def test_sampled_mode_echoes_counts(self):
        cfg = bench_config(seed=5)
        counts = sample_counts(cfg)
        result = run_pipeline(cfg, counts)
        assert result.mode == "sampled"
        assert result.counts == counts
        assert result.observation.q_signal == counts.signal.q

    def test_monte_carlo_coverage(self):
        covered = 0
        for seed in range(100):
            cfg = bench_config(n_sigma=10.0, seed=seed)
            result = run_pipeline(cfg, sample_counts(cfg))
            covered += result.bounds.y1_lower <= result.y1_true
        assert covered >= 99


SOURCE_BUILDERS = ("wcs_distribution", "hsps_distribution", "ideal_sps_distribution")


def model_bits(dists, stats) -> list[list[str]]:
    """The bits of a session's distributions and expected statistics."""
    return [
        *([p.hex() for p in d.probs] + [repr(d.p_ge1)] for d in dists),
        [x.hex() for x in stats],
    ]


class TestSessionModel:
    """A sampled session builds its distributions and expected statistics
    once, cached on its config outside the fields; a replaced config
    starts without them."""

    def test_sampled_session_builds_each_distribution_once(self, monkeypatch):
        builds = count_calls(monkeypatch, (sources_mod, session_mod), SOURCE_BUILDERS)
        cfg = bench_config(seed=7)
        run_pipeline(cfg, sample_counts(cfg))
        assert builds[0] == 3

    @pytest.mark.parametrize(
        "change",
        [
            dict(source_decoy=HspsSource(HspsParams(0.40, 1.0e-3, 1.0e-3))),
            # equal to the first config under ==, since 0.0 == -0.0
            dict(vacuum_mu=-0.0),
            dict(channel=bench_channel(2.0 * BENCH_ETA)),
        ],
        ids=["source", "vacuum-sign", "channel"],
    )
    def test_next_config_gets_its_own_model(self, change):
        cfg_a = bench_config(seed=11, vacuum_mu=0.0)
        cfg_b = replace(cfg_a, **change)
        counts = sample_counts(cfg_a)
        result = run_pipeline(cfg_b, counts)
        model = cfg_b._model

        fresh = replace(cfg_a, **change)
        dists = (
            fresh.source_signal.distribution(fresh.n_max),
            fresh.source_decoy.distribution(fresh.n_max),
            wcs_distribution(fresh.vacuum_mu, fresh.n_max),
        )
        # terms up to n_max, past the distributions' support: the same bits
        ch = fresh.channel
        stats = session_mod._expected_statistics(
            [d.probs for d in dists],
            *channel_mod._channel_terms(ch.eta, ch.y0, ch.e_det, fresh.n_max),
        )
        assert model_bits(*model) == model_bits(dists, stats)
        assert repr(result) == repr(run_pipeline(fresh, counts))

    def test_memo_holds_one_session(self):
        base = bench_config()
        run_pipeline(base, sample_counts(base))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for seed in range(2000):
                cfg = replace(base, rng_seed=seed, vacuum_mu=seed * 1e-9)
                run_pipeline(cfg, sample_counts(cfg))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a session's model takes about 3 kB, so 2000 of them 5.5 MB; the
        # freed tuples that CPython keeps for reuse count as held too, up
        # to about 0.35 MB for those of 17 bins
        assert after - before < 2**20

    def test_memo_lets_the_previous_config_go(self):
        cfg = bench_config(seed=1)
        run_pipeline(cfg, sample_counts(cfg))
        previous = weakref.ref(cfg)
        cfg = bench_config(seed=2)
        run_pipeline(cfg, sample_counts(cfg))
        gc.collect()
        assert previous() is None

    def test_model_stays_outside_the_fields(self):
        cfg = bench_config(seed=3, vacuum_mu=-0.0)
        twin = replace(cfg)
        before = (fields(cfg), asdict(cfg), repr(cfg), hash(cfg))
        cfg._model
        assert "_model" in vars(cfg)
        assert (fields(cfg), asdict(cfg), repr(cfg), hash(cfg)) == before
        assert cfg == twin and twin == cfg
        assert "_model" not in vars(twin)
        assert "_model" not in vars(replace(cfg))
        assert "_model" not in vars(replace(cfg, rng_seed=4))

    def test_rerun_builds_nothing(self, monkeypatch):
        cfg = bench_config(seed=7)
        run_pipeline(cfg, sample_counts(cfg))
        other = bench_config(seed=8)
        run_pipeline(other, sample_counts(other))
        builds = count_calls(monkeypatch, (sources_mod, session_mod), SOURCE_BUILDERS)
        run_pipeline(cfg)
        run_pipeline(cfg, sample_counts(cfg))
        assert builds[0] == 0

    def test_threads_on_one_config(self):
        # more threads than cores, switching often, all on one config
        cfg = bench_config(seed=9)
        workers = 4
        start = threading.Barrier(workers, timeout=30)
        reprs = [None] * workers

        def session(slot):
            start.wait()
            reprs[slot] = repr(run_pipeline(cfg, sample_counts(cfg)))

        threads = [threading.Thread(target=session, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        fresh = replace(cfg)
        assert set(reprs) == {repr(run_pipeline(fresh, sample_counts(fresh)))}


def binomial_upper(n: int, p: float, alpha: float) -> int:
    """The smallest c with P(Binomial(n, p) > c) <= alpha."""
    cdf = 0.0
    for c in range(n + 1):
        cdf += math.comb(n, c) * p**c * (1.0 - p) ** (n - c)
        if 1.0 - cdf <= alpha:
            return c
    return n


class TestEnvelopeCoverage:
    """Each observable is widened by n_sigma counting standard deviations,
    in the direction that loosens the bound, so over sampled sessions
    ``y1_lower > Y1`` and ``e1_upper < e1`` happen at most about as often
    as a one-sided Gaussian tail beyond n_sigma (the counting-statistics
    envelope of Ma et al., PRA 72, 012326 (2005))."""

    SEEDS = 300
    N_SIGMAS = (0.0, 1.0, 3.0)
    # coherent-state, heralded and mixed signal/decoy pairs that pass
    # check_condition
    PAIRS = {
        "wcs": (WcsSource(0.5), WcsSource(0.1)),
        "hsps": (bench_signal_source(), bench_decoy_source()),
        "wcs-hsps": (WcsSource(0.3), bench_decoy_source()),
    }

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_violations_within_gaussian_tail(self, pair):
        signal, decoy = self.PAIRS[pair]
        base = replace(bench_config(), source_signal=signal, source_decoy=decoy)
        violations = {k: [0, 0] for k in self.N_SIGMAS}
        for seed in range(self.SEEDS):
            cfg = replace(base, rng_seed=seed)
            counts = sample_counts(cfg)
            for k, seen in violations.items():
                result = run_pipeline(
                    replace(cfg, fluctuation=FluctuationPolicy(k)), counts
                )
                assert result.condition_ok
                seen[0] += result.bounds.y1_lower > result.y1_true
                seen[1] += result.bounds.e1_upper < result.e1_true
        for k, seen in violations.items():
            tail = 0.5 * math.erfc(k / math.sqrt(2.0))
            assert max(seen) <= binomial_upper(self.SEEDS, tail, 1e-6), (k, seen)
        # the sessions are noisy enough for the unwidened bound to fail
        assert violations[0.0][0] > 0


class TestScanLoss:
    def test_ideal_scheme_strictly_decreasing(self):
        curve = scan_loss(bench_config(), Scheme(SchemeKind.IDEAL_SPS), [0.0, 10.0, 20.0])
        assert len(curve.rate) == 3
        assert curve.rate[0] > curve.rate[1] > curve.rate[2] > 0.0

    def test_lossless_ideal_rate_matches_scalar_formula(self):
        cfg = bench_config(q_sift=0.5)
        curve = scan_loss(cfg, Scheme(SchemeKind.IDEAL_SPS), [0.0])
        h2 = binary_entropy(0.025)
        expected = 0.5 * (1.0 - (1.0 + 1.22) * h2)
        assert curve.rate[0] == pytest.approx(expected, abs=1e-3)

    def test_all_schemes_monotone_non_increasing(self):
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        grid = [float(l) for l in range(0, 51, 2)]
        for scheme in (
            Scheme(SchemeKind.WCS_NO_DECOY),
            Scheme(SchemeKind.HSPS_NO_DECOY),
            Scheme(SchemeKind.WCS_DECOY_INF_OPT),
            Scheme(SchemeKind.HSPS_DECOY, arg=0.40),
            Scheme(SchemeKind.IDEAL_SPS),
        ):
            curve = scan_loss(cfg, scheme, grid)
            assert all(
                b <= a + 1e-15 for a, b in zip(curve.rate, curve.rate[1:])
            ), scheme.label

    def test_cutoff_reported(self):
        curve = scan_loss(
            bench_config(), Scheme(SchemeKind.WCS_NO_DECOY), [0.0, 5.0, 50.0]
        )
        assert curve.cutoff_db == 5.0
        dead = scan_loss(
            bench_config(), Scheme(SchemeKind.WCS_NO_DECOY), [50.0, 55.0]
        )
        assert dead.cutoff_db is None

    def test_underflowing_loss_is_named(self):
        ideal_sps = Scheme(SchemeKind.IDEAL_SPS)
        for grid in ([4000.0], [0.0, 4000.0]):
            with pytest.raises(InvalidParameterError, match=r"^loss_db=4000.0 "):
                scan_loss(ideal_config(y0=1e-6), ideal_sps, grid)
        # each loss is converted when its point runs, so without background
        # the 180 dB point raises first, as it does on its own
        with pytest.raises(UndefinedStatisticError):
            scan_loss(ideal_config(y0=0.0), ideal_sps, [180.0, 4000.0])

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            scan_loss(bench_config(), Scheme(SchemeKind.IDEAL_SPS), [])
        with pytest.raises(InvalidParameterError):
            scan_loss(bench_config(), Scheme(SchemeKind.IDEAL_SPS), [5.0, 5.0])
        with pytest.raises(InvalidParameterError):
            scan_loss(bench_config(), Scheme(SchemeKind.IDEAL_SPS), [5.0, 1.0])

    def test_curve_refinement_shrinks_jumps(self):
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        scheme = Scheme(SchemeKind.HSPS_DECOY, arg=0.40)
        coarse = scan_loss(cfg, scheme, [20.0 + k * 1.0 for k in range(11)])
        fine = scan_loss(cfg, scheme, [20.0 + k * 0.5 for k in range(21)])

        def max_jump(curve):
            return max(abs(b - a) for a, b in zip(curve.rate, curve.rate[1:]))

        assert max_jump(fine) < max_jump(coarse)

    def test_hsps_schemes_need_heralded_template(self):
        cfg = ideal_config()
        with pytest.raises(InvalidParameterError):
            scan_loss(cfg, Scheme(SchemeKind.HSPS_DECOY, arg=0.4), [1.0, 2.0])

    @pytest.mark.parametrize("token", SCHEME_TOKENS)
    @pytest.mark.parametrize("vacuum_mu", [0.0, BENCH_MU_VACUUM])
    def test_matches_per_point_evaluation(self, token, vacuum_mu):
        cfg = bench_config(vacuum_mu=vacuum_mu)
        scheme = Scheme.parse(token)
        grid = [0.5 * k for k in range(0, 121, 3)]
        curve = scan_loss(cfg, scheme, grid)
        expected = tuple(
            per_point_rate(
                scheme, cfg, replace(cfg.channel, eta=loss_db_to_eta(loss))
            )
            for loss in grid
        )
        assert curve.rate == expected

    def test_hsps_decoy_builds_distributions_once_per_scan(self, monkeypatch):
        builds = count_calls(
            monkeypatch,
            (sources_mod, session_mod),
            ("wcs_distribution", "hsps_distribution", "ideal_sps_distribution"),
        )
        grid = [0.5 * k for k in range(121)]
        scan_loss(bench_config(), Scheme(SchemeKind.HSPS_DECOY, arg=0.4), grid)
        assert 0 < builds[0] <= 3


# every exception type the package defines
PACKAGE_ERRORS = tuple(
    v
    for v in vars(errors_mod).values()
    if isinstance(v, type) and issubclass(v, Exception)
)


def rates_or_error(fn):
    """The bits of each rate ``fn`` returns (signed zeros included), or
    the type of the package error it raised."""
    try:
        return [float.hex(r) for r in fn()]
    except PACKAGE_ERRORS as exc:
        return type(exc)


# the benchmark channel, protocol and session length without background
EDGE_EXAMPLE = dict(
    y0=0.0,
    e_det=0.025,
    vacuum_mu=0.0,
    n_max=16,
    q_sift=0.5,
    f_ec=1.22,
    total_pulses=BENCH_TOTAL_PULSES,
)
# about two losses in three below 60 dB, where key is possible; the rest
# up to 200 dB, or past 3,237 dB, where the transmittance underflows
KEY_LOSSES_DB = st.floats(min_value=0.0, max_value=60.0)
LOSSES_DB = st.sampled_from(
    (
        KEY_LOSSES_DB,
        KEY_LOSSES_DB,
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=3237.0, max_value=5000.0),
    )
).flatmap(lambda losses: losses)


# heralded templates unlike the canonical one, with and without
# background; the fields of template_config
TEMPLATES = dict(
    y0=st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-3)),
    # half the draws at e_det <= 0.1, where key is common
    e_det=st.one_of(
        st.floats(min_value=0.0, max_value=0.1),
        st.floats(min_value=0.0, max_value=0.5),
    ),
    vacuum_mu=st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-3)),
    n_max=st.integers(min_value=2, max_value=40),
    q_sift=st.floats(min_value=0.01, max_value=1.0),
    f_ec=st.floats(min_value=1.0, max_value=3.0),
    # (p_cor, signal mu_acc, decoy mu_acc, d_i), with the decoy a
    # fraction of the signal as in tests/test_decoy.py::source_pairs;
    # the examples of TestScanLossAgainstReference cover the degenerate pairs
    template=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-4.0, max_value=0.3).map(lambda x: 10.0**x),
        st.floats(min_value=0.02, max_value=0.5),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.999)),
    ).map(lambda t: (t[0], t[1], t[1] * t[2], t[3])),
    # the benchmark's, or a short session, often too small for the
    # gate split, which a sweep does not take
    total_pulses=st.one_of(
        st.just(BENCH_TOTAL_PULSES), st.integers(min_value=1, max_value=39)
    ),
)


def template_config(
    y0, e_det, vacuum_mu, n_max, q_sift, f_ec, template, total_pulses
):
    p_cor, mu_signal, mu_decoy, d_i = template
    base = bench_config(vacuum_mu=vacuum_mu)
    return replace(
        base,
        source_signal=HspsSource(HspsParams(p_cor, mu_signal, d_i)),
        source_decoy=HspsSource(HspsParams(p_cor, mu_decoy, d_i)),
        channel=ChannelParams(eta=BENCH_ETA, y0=y0, e_det=e_det),
        protocol=ProtocolParams(q_sift=q_sift, f_ec=f_ec),
        total_pulses=total_pulses,
        n_max=n_max,
    )


class TestScanLossAgainstReference:
    """``scan_loss`` evaluates each scheme over the whole loss axis; its
    rates must be those of a point-by-point evaluation on the reference
    formulas, bit for bit, and where that evaluation raises (undefined
    statistics, a degenerate distribution pair, a gain rounded above
    one, a loss whose transmittance underflows), the scan must raise the
    same error."""

    @given(
        **TEMPLATES,
        losses=st.lists(LOSSES_DB, min_size=1, max_size=5, unique=True),
        token=st.one_of(
            st.sampled_from(SCHEME_TOKENS),
            st.floats(min_value=1e-4, max_value=50.0).map(
                lambda mu: f"wcs-no-decoy:{mu!r}"
            ),
            st.floats(min_value=0.0, max_value=1.0).map(
                lambda p_cor: f"hsps-decoy:{p_cor!r}"
            ),
        ),
    )
    # without background: a degenerate pair (decoy brighter than signal)
    # at zero gain, then at a point with gain before one without; a decoy
    # that is pure vacuum next to a signal with gain; a point at zero gain
    # before a loss whose transmittance underflows; and a session too
    # short for its gate split
    @example(
        **EDGE_EXAMPLE,
        template=(0.4, 1e-3, 5e-3, 1e-3),
        losses=[170.0, 180.0],
        token="hsps-decoy:0.4",
    )
    @example(
        **EDGE_EXAMPLE,
        template=(0.4, 1e-3, 5e-3, 1e-3),
        losses=[10.0, 180.0],
        token="hsps-decoy:0.4",
    )
    @example(
        **EDGE_EXAMPLE,
        template=(0.4, 1e-3, 0.0, 1e-3),
        losses=[10.0],
        token="hsps-decoy:0.0",
    )
    @example(
        **EDGE_EXAMPLE,
        template=(0.4, 1e-3, 1e-4, 1e-3),
        losses=[180.0, 4000.0],
        token="hsps-decoy:0.4",
    )
    @example(
        **{**EDGE_EXAMPLE, "total_pulses": 5},
        template=(0.4, 1e-3, 1e-4, 1e-3),
        losses=[10.0],
        token="hsps-decoy:0.4",
    )
    # positive rates at a heralded template unlike the canonical one, which
    # the random draws above seldom reach for hsps-decoy
    @example(
        y0=3e-6,
        e_det=0.04,
        vacuum_mu=2e-4,
        n_max=12,
        q_sift=0.45,
        f_ec=1.16,
        template=(0.55, 0.05, 0.008, 2e-5),
        total_pulses=BENCH_TOTAL_PULSES,
        losses=[0.0, 12.5, 27.0, 41.0, 55.0],
        token="hsps-decoy:0.7",
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_point_reference(
        self,
        y0,
        e_det,
        vacuum_mu,
        n_max,
        q_sift,
        f_ec,
        template,
        total_pulses,
        losses,
        token,
    ):
        cfg = template_config(
            y0, e_det, vacuum_mu, n_max, q_sift, f_ec, template, total_pulses
        )
        scheme = Scheme.parse(token)
        grid = sorted(losses)

        def per_point():
            return tuple(
                per_point_rate(
                    scheme, cfg, replace(cfg.channel, eta=loss_db_to_eta(loss))
                )
                for loss in grid
            )

        expected = rates_or_error(per_point)
        assert rates_or_error(lambda: scan_loss(cfg, scheme, grid).rate) == expected

    # bits from the chain as it was before the kernels were split out, at
    # a heralded template unlike the canonical one
    PINNED_TEMPLATE = dict(
        source_signal=HspsSource(HspsParams(0.55, 0.05, 2e-5)),
        source_decoy=HspsSource(HspsParams(0.55, 0.008, 2e-5)),
        channel=ChannelParams(eta=0.5, y0=3e-6, e_det=0.04, e0=0.5),
        protocol=ProtocolParams(q_sift=0.45, f_ec=1.16),
        n_max=12,
    )
    PINNED_RATES = {
        "hsps-decoy:0.7": [
            "0x1.1c07c1ee7c57ep-3",
            "0x1.e4ff4af7e2501p-8",
            "0x1.0dda63dd484c4p-12",
            "0x1.a186e3df1e869p-18",
            "0x0.0p+0",
        ],
        "hsps-decoy:1.0": [
            "0x1.8cdb9b9c76d11p-3",
            "0x1.52a67656385f5p-7",
            "0x1.79c1eda24715cp-12",
            "0x1.3cc658b78d51ep-17",
            "0x0.0p+0",
        ],
    }

    @pytest.mark.parametrize("token", sorted(PINNED_RATES))
    def test_hsps_decoy_matches_pinned_values(self, token):
        cfg = replace(bench_config(vacuum_mu=2e-4), **self.PINNED_TEMPLATE)
        grid = [0.0, 12.5, 27.0, 41.0, 55.0]
        rates = scan_loss(cfg, Scheme.parse(token), grid).rate
        assert [float.hex(r) for r in rates] == self.PINNED_RATES[token]

    # bits of the coherent-state intensity search with Brent's refinement:
    # without background, and with a background that clamps Y1 at 0 dB and
    # no feasible intensity from 27 dB on; the 60-digit rate at each mu is
    # that at the golden section's former pin, or above it, to 1.5e-15
    PINNED_WCS_GRID = [0.0, 12.5, 27.0, 41.0, 60.0]
    PINNED_WCS_PROTOCOL = ProtocolParams(q_sift=0.45, f_ec=1.16)
    PINNED_WCS = {
        "y0-0": (
            ChannelParams(eta=0.5, y0=0.0, e_det=0.03, e0=0.5),
            [
                ("0x1.70b029b89d361p-1", "0x1.3313d270d2534p-4"),
                ("0x1.125c7f3096d9cp-1", "0x1.bb109155f9a1bp-9"),
                ("0x1.0d9be2f3701bcp-1", "0x1.f0a015c9633afp-14"),
                ("0x1.0d715ddb5fd6cp-1", "0x1.3c31507b77ab3p-18"),
                ("0x1.0d6fa1e0ad2a8p-1", "0x1.fd82d771dbdc1p-25"),
            ],
        ),
        "y0-1e-3": (
            ChannelParams(eta=0.5, y0=1e-3, e_det=0.02, e0=0.5),
            [
                ("0x1.9d38436abb575p-1", "0x1.8b46fa6bc3362p-4"),
                ("0x1.39ded7edd5e6dp-1", "0x1.b409c42c37dc9p-9"),
                ("0x1.a36e2eb1c432dp-14", "0x0.0p+0"),
                ("0x1.a36e2eb1c432dp-14", "0x0.0p+0"),
                ("0x1.a36e2eb1c432dp-14", "0x0.0p+0"),
            ],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_WCS))
    def test_wcs_decoy_opt_matches_pinned_values(self, name):
        ch, pinned = self.PINNED_WCS[name]
        protocol, grid = self.PINNED_WCS_PROTOCOL, self.PINNED_WCS_GRID
        optima = [
            optimize_mu(replace(ch, eta=loss_db_to_eta(loss)), protocol)
            for loss in grid
        ]
        assert [(float.hex(o.mu), float.hex(o.rate)) for o in optima] == pinned
        cfg = replace(bench_config(), channel=ch, protocol=protocol)
        rates = scan_loss(cfg, Scheme(SchemeKind.WCS_DECOY_INF_OPT), grid).rate
        assert [float.hex(r) for r in rates] == [rate for _, rate in pinned]

    def test_pipeline_matches_pinned_values(self):
        cfg = replace(bench_config(vacuum_mu=2e-4, n_sigma=3.0), **self.PINNED_TEMPLATE)
        cfg = replace(cfg, channel=replace(cfg.channel, eta=loss_db_to_eta(27.0)))
        result = run_pipeline(cfg)
        assert [
            float.hex(v)
            for v in (
                result.bounds.y1_lower,
                result.bounds.e1_upper,
                result.key.rate_per_pulse,
            )
        ] == ["0x1.04128a0daf3e1p-9", "0x1.76d0cd7fa16c5p-5", "0x1.a68950e9c0f5ep-13"]

    @pytest.mark.parametrize("token", SCHEME_TOKENS)
    def test_zero_gain_without_background_raises(self, token):
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        cfg = replace(cfg, channel=replace(cfg.channel, y0=0.0))
        # the gain rounds to zero between 120 dB (coherent state at the
        # lowest searched intensity) and 170 dB (one photon)
        grid = [20.0, 60.0, 180.0, 190.0]
        with pytest.raises(UndefinedStatisticError):
            scan_loss(cfg, Scheme.parse(token), grid)


class TestMonotoneInLoss:
    """The key rate of every scheme is non-increasing in loss when
    background detections are random (e0 = 1/2), to within the 1e-15
    of criterion 3: the rates carry rounding noise of a few ulps of one
    from the cancellations 1 - (1 - eta)^n and 1 - exp(-eta mu)."""

    @given(
        y0=st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-3)),
        e_det=st.floats(min_value=0.0, max_value=0.5),
        vacuum_mu=st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-3)),
        n_max=st.integers(min_value=2, max_value=40),
        q_sift=st.floats(min_value=0.01, max_value=1.0),
        losses=st.lists(
            st.floats(min_value=0.0, max_value=200.0),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        token=st.sampled_from(SCHEME_TOKENS),
    )
    @settings(max_examples=150, deadline=None)
    def test_rate_non_increasing(
        self, y0, e_det, vacuum_mu, n_max, q_sift, losses, token
    ):
        grid = sorted(losses)
        # no yield clamps at 1 (see test_clamped_yield_at_zero_loss)
        assume(y0 + (1.0 - (1.0 - loss_db_to_eta(grid[0])) ** n_max) <= 1.0)
        base = bench_config(q_sift=q_sift, vacuum_mu=vacuum_mu)
        cfg = replace(
            base,
            channel=ChannelParams(eta=BENCH_ETA, y0=y0, e_det=e_det, e0=0.5),
            n_max=n_max,
        )
        try:
            rate = scan_loss(cfg, Scheme.parse(token), grid).rate
        except UndefinedStatisticError:
            return  # the gain rounds to zero somewhere on the grid
        assert all(b <= a + 1e-15 for a, b in zip(rate, rate[1:])), rate

    # A yield Y_n = y0 + 1 - (1 - eta)^n that clamps at 1 keeps its
    # background term e0 y0 in the error numerator, so near 0 dB the
    # QBER can fall, and the rate rise, with loss.
    @pytest.mark.xfail(reason="clamped yields near 0 dB")
    @pytest.mark.parametrize("token", SCHEME_TOKENS)
    def test_clamped_yield_at_zero_loss(self, token):
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        cfg = replace(cfg, channel=ChannelParams(eta=1.0, y0=1e-3, e_det=0.05))
        rate = scan_loss(cfg, Scheme.parse(token), [0.0, 0.001]).rate
        assert rate[1] <= rate[0] + 1e-15


class TestScanLossWork:
    @pytest.mark.parametrize(
        "token", [t for t in SCHEME_TOKENS if t != "wcs-decoy-opt"]
    )
    def test_no_records_per_point(self, monkeypatch, token):
        # the scan checks its grid once and runs the float kernels at each
        # point, on transmittances that loss_db_to_eta keeps in (0, 1]
        cfg = bench_config()
        counts = {}
        for cls in (
            channel_mod.ChannelParams,
            channel_mod.GainErrorPoint,
            decoy_mod.BoundsResult,
            keyrate_mod.KeyRateResult,
        ):
            counts[cls.__name__] = 0

            def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
                counts[_name] += 1
                _init(self, *args, **kw)

            monkeypatch.setattr(cls, "__init__", counted)
        grid = [0.5 * k for k in range(121)]
        scan_loss(cfg, Scheme.parse(token), grid)
        assert counts == {
            "ChannelParams": 0,
            "GainErrorPoint": 0,
            "BoundsResult": 0,
            "KeyRateResult": 0,
        }

    def test_wcs_decoy_opt_channel_calls_per_point(self, monkeypatch):
        calls = count_calls(
            monkeypatch,
            (channel_mod, decoy_mod, session_mod),
            ("yield_n", "error_n", "_channel_terms"),
        )
        grid = [0.5 * k for k in range(121)]
        scan_loss(bench_config(), Scheme(SchemeKind.WCS_DECOY_INF_OPT), grid)
        assert 0 < calls[0] <= 3 * len(grid)

    def test_wcs_decoy_opt_memory_is_bounded_on_long_axes(self):
        grid = [0.03 * k for k in range(2000)]
        scheme = Scheme(SchemeKind.WCS_DECOY_INF_OPT)
        tracemalloc.start()
        try:
            scan_loss(bench_config(), scheme, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (2000 x 512) float64 temporary alone would take 8 MB
        assert peak < 4 * 2**20


# the six schemes of acceptance criterion 3 and the bench sweep, in order
GOLDEN_SCHEMES = (
    "wcs-no-decoy",
    "hsps-no-decoy",
    "wcs-decoy-opt",
    "hsps-decoy:0.40",
    "hsps-decoy:0.70",
    "ideal-sps",
)
GOLDEN_GRID = [round(0.5 * k, 6) for k in range(121)]  # 0..60 dB


def curve_or_error(cfg, token, grid):
    """The label, losses and rate bits of a scan, or the type and message
    of the package error it raised."""
    try:
        curve = scan_loss(cfg, Scheme.parse(token), grid)
    except PACKAGE_ERRORS as exc:
        return type(exc), str(exc)
    return (
        curve.scheme_label,
        [float.hex(loss) for loss in curve.loss_db],
        [float.hex(r) for r in curve.rate],
    )


class TestLossPointMemo:
    """A config keeps the transmittance and channel terms of each loss of
    the last grid scanned on it, for every scheme scanned after: each
    scan must give what it gives on a fresh config, bit for bit, error
    for error."""

    @given(
        **TEMPLATES,
        grids=st.lists(
            st.lists(LOSSES_DB, min_size=1, max_size=5, unique=True).map(sorted),
            min_size=2,
            max_size=2,
        ),
        # (token, grid index), in any order, with repeats
        scans=st.lists(
            st.tuples(st.sampled_from(SCHEME_TOKENS), st.integers(0, 1)),
            min_size=1,
            max_size=12,
        ),
    )
    # without background, every scheme raises at 180 dB before the loss
    # whose transmittance underflows, on a grid whose points are kept
    @example(
        **EDGE_EXAMPLE,
        template=(0.4, 1e-3, 1e-4, 1e-3),
        grids=[[180.0, 4000.0], [10.0, 4000.0]],
        scans=[(token, k) for k in (0, 1, 0) for token in SCHEME_TOKENS],
    )
    # terms asked for at a support larger than the kept ones, then smaller
    @example(
        **{**EDGE_EXAMPLE, "y0": 1e-6},
        template=(0.4, 1e-3, 1e-4, 1e-3),
        grids=[[0.0, 12.5, 27.0], [12.5, 27.0, 41.0]],
        scans=[(token, 0) for token in reversed(SCHEME_TOKENS)]
        + [(token, 1) for token in SCHEME_TOKENS],
    )
    @settings(max_examples=100, deadline=None)
    def test_scans_on_one_config_equal_fresh_scans(
        self,
        y0,
        e_det,
        vacuum_mu,
        n_max,
        q_sift,
        f_ec,
        template,
        total_pulses,
        grids,
        scans,
    ):
        cfg = template_config(
            y0, e_det, vacuum_mu, n_max, q_sift, f_ec, template, total_pulses
        )
        for token, k in scans:
            fresh = curve_or_error(replace(cfg), token, grids[k])
            assert curve_or_error(cfg, token, grids[k]) == fresh, (token, k)

    def test_golden_sweep_converts_each_loss_once(self, monkeypatch):
        conversions = count_calls(
            monkeypatch, (channel_mod, session_mod), ("loss_db_to_eta",)
        )
        terms = count_calls(
            monkeypatch, (channel_mod, session_mod), ("_channel_terms",)
        )
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        for token in GOLDEN_SCHEMES:
            scan_loss(cfg, Scheme.parse(token), GOLDEN_GRID)
        # 726 and 726 with a conversion and a set of terms per scheme; the
        # terms are those at n 15 of wcs-no-decoy, read by the four
        # schemes after it, and the n 1 terms of each wcs-decoy-opt rate
        assert conversions[0] == len(GOLDEN_GRID)
        assert terms[0] == 2 * len(GOLDEN_GRID)

    def test_memo_holds_one_grid(self):
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        # wcs-no-decoy asks for the largest support of the golden sweep
        scheme = Scheme(SchemeKind.WCS_NO_DECOY)
        grids = [[0.5 * k + shift for k in range(121)] for shift in (0.0, 0.25)]
        tracemalloc.start()
        try:
            scan_loss(cfg, scheme, grids[0])
            one, _ = tracemalloc.get_traced_memory()
            for k in range(1, 10):
                scan_loss(cfg, scheme, grids[k % 2])
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 121 points at support 15 take about 1.2 kB each, 146 kB in all,
        # less the floats CPython took from its free list, which are not
        # traced
        assert one < 192 * 2**10
        # each new grid replaces the old one
        assert vars(cfg)["_loss_points"][0] == grids[1]
        assert after - one < 16 * 2**10

    def test_an_equal_grid_of_other_types_is_another_grid(self):
        cfg = bench_config()
        ideal_sps = Scheme(SchemeKind.IDEAL_SPS)
        scan_loss(cfg, ideal_sps, [10.0])
        # 10 + 0j == 10.0, but a complex loss is refused at its point
        with pytest.raises(TypeError, match=r"^'<=' not supported between"):
            scan_loss(cfg, ideal_sps, [10 + 0j])

    def test_a_scan_that_raises_keeps_nothing(self):
        cfg = ideal_config(y0=0.0)
        ideal_sps = Scheme(SchemeKind.IDEAL_SPS)
        scan_loss(cfg, ideal_sps, [10.0])
        assert "_loss_points" in vars(cfg)
        # without background the gain is zero at 180 dB, after a point
        # that a finished scan would keep
        with pytest.raises(UndefinedStatisticError, match="zero gain"):
            scan_loss(cfg, ideal_sps, [10.0, 180.0])
        assert "_loss_points" not in vars(cfg)

    def test_a_larger_support_replaces_the_snapshot(self, monkeypatch):
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        grid = GOLDEN_GRID[:9]
        scan_loss(cfg, Scheme(SchemeKind.IDEAL_SPS), grid)
        small = vars(cfg)["_loss_points"]
        wcs_no_decoy = Scheme(SchemeKind.WCS_NO_DECOY)
        assert scan_loss(cfg, wcs_no_decoy, grid) == scan_loss(
            replace(cfg), wcs_no_decoy, grid
        )
        large = vars(cfg)["_loss_points"]
        assert large is not small
        assert large[1] > small[1]
        conversions = count_calls(
            monkeypatch, (channel_mod, session_mod), ("loss_db_to_eta",)
        )
        for token in ("ideal-sps", "hsps-no-decoy", "wcs-decoy-opt"):
            assert curve_or_error(cfg, token, grid) == curve_or_error(
                replace(cfg), token, grid
            )
        # the fresh scans convert their losses; the three on cfg read them
        assert conversions[0] == 3 * len(grid)
        assert vars(cfg)["_loss_points"] is large

    def test_threads_on_one_config(self):
        # more threads than cores, switching often, each scanning the six
        # schemes in its own order on one of two grids, so that threads
        # read, extend and replace the kept points of one config at once
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        grids = (GOLDEN_GRID, [loss + 0.25 for loss in GOLDEN_GRID])
        workers = 8
        start = threading.Barrier(workers, timeout=60)
        results = [None] * workers

        def sweep(slot):
            start.wait()
            tokens = GOLDEN_SCHEMES[slot:] + GOLDEN_SCHEMES[:slot]
            grid = grids[slot % 2]
            results[slot] = {t: curve_or_error(cfg, t, grid) for t in tokens}

        threads = [threading.Thread(target=sweep, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [
            {t: curve_or_error(replace(cfg), t, grid) for t in GOLDEN_SCHEMES}
            for grid in grids
        ]
        for slot, result in enumerate(results):
            assert result == expected[slot % 2], slot


def count_calls(monkeypatch, modules, names) -> list[int]:
    """Wrap ``names`` in every module of ``modules`` that binds them;
    the returned one-element list holds the running call count."""
    count = [0]
    for mod in modules:
        for name in names:
            if hasattr(mod, name):
                fn = getattr(mod, name)

                def counted(*args, _fn=fn, **kwargs):
                    count[0] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
    return count


def count_rate_evaluations(monkeypatch, rate=None) -> list[int]:
    """Count the evaluations of the coherent-state rate, the closure of
    mu that ``session._wcs_rate`` builds once per search; with ``rate``
    given, each search maximizes that function of mu instead. The
    returned one-element list holds the running count."""
    count = [0]
    make_rate = session_mod._wcs_rate

    def counting_rate(*args):
        rate_of_mu = make_rate(*args) if rate is None else rate
        if rate_of_mu is None:
            return None  # a point past the cutoff by the bound: no search

        def counted(mu):
            count[0] += 1
            return rate_of_mu(mu)

        return counted

    monkeypatch.setattr(session_mod, "_wcs_rate", counting_rate)
    return count


def no_decoy_rate(dist, ch, protocol):
    point = ref_qber(dist, ch)
    bounds = no_decoy_bounds(point.q_gain, point.qber, ch.y0, dist)
    return key_rate(point.q_gain, point.qber, bounds, protocol).rate_per_pulse


def per_point_rate(scheme, cfg, ch):
    """One scheme's rate at one channel, every distribution built anew,
    the channel sums, the three-intensity rate and the coherent-state
    rate taken from the reference formulas and the intensity optimized by
    the scalar reference search."""
    protocol = cfg.protocol
    if scheme.kind is SchemeKind.IDEAL_SPS:
        dist = ideal_sps_distribution()
        point = ref_qber(dist, ch)
        bounds = ref_infinite_decoy_bounds(ch, dist)
        return key_rate(point.q_gain, point.qber, bounds, protocol).rate_per_pulse
    if scheme.kind is SchemeKind.WCS_DECOY_INF_OPT:
        return scalar_optimize_mu(ch, protocol).rate
    if scheme.kind is SchemeKind.WCS_NO_DECOY:
        mu = scheme.arg if scheme.arg is not None else 0.1
        return no_decoy_rate(wcs_distribution(mu, cfg.n_max), ch, protocol)
    if scheme.kind is SchemeKind.HSPS_NO_DECOY:
        return no_decoy_rate(cfg.source_signal.distribution(cfg.n_max), ch, protocol)
    return ref_three_intensity_rate(cfg, ch, scheme.arg)


def full_grid_argmax(channel, protocol):
    """The reference rate of ``channel`` as a function of mu, the coarse
    grid as floats, the rate at each grid point and the first index of
    the largest."""
    def rate(mu):
        return ref_wcs_infinite_decoy_rate(mu, channel, protocol)

    points = session_mod.MU_COARSE_POINTS
    grid = np.linspace(*session_mod.MU_SEARCH_RANGE, points).tolist()
    values = [rate(mu) for mu in grid]
    return rate, grid, values, int(np.argmax(values))


def scalar_optimize_mu(channel, protocol=ProtocolParams()):
    """Reference: the zero-gain check of :func:`optimize_mu`, the first
    argmax of the whole coarse grid, evaluated one scalar rate at a time,
    then Brent's ``localmin`` on -rate between that point's neighbours,
    started at it, with the tolerance sqrt(eps) |x| + MU_TOL / 3."""
    lo = session_mod.MU_SEARCH_RANGE[0]
    if channel.y0 == 0.0 and math.exp(-channel.eta * lo) == 1.0:
        raise UndefinedStatisticError("QBER undefined at zero gain")
    rate, grid, values, best = full_grid_argmax(channel, protocol)
    mu_opt, f_opt = ref_localmin(
        grid[max(best - 1, 0)],
        grid[min(best + 1, len(grid) - 1)],
        grid[best],
        -values[best],
        lambda mu: -rate(mu),
        eps=math.sqrt(sys.float_info.epsilon),
        t=session_mod.MU_TOL / 3.0,
    )
    return MuOptimum(mu=mu_opt, rate=0.0 if f_opt >= 0.0 else -f_opt)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_optimize_mu(channel, protocol=ProtocolParams()):
    """The intensity search that :func:`optimize_mu` made before Brent's
    refinement, kept only to compare the two searches on the 60-digit
    rate: the first argmax of the whole coarse grid, golden-section
    refinement between its neighbours until they are ``MU_TOL`` apart,
    and the grid point where the midpoint of the last bracket is worse."""
    rate, grid, values, best = full_grid_argmax(channel, protocol)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = rate(c), rate(d)
    while b - a > session_mod.MU_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = rate(d)
    mu_opt = (a + b) / 2.0
    r_opt = rate(mu_opt)
    if r_opt < values[best]:
        mu_opt, r_opt = grid[best], values[best]
    return MuOptimum(mu=mu_opt, rate=0.0 if r_opt <= 0.0 else r_opt)


class TestOptimizeMu:
    def test_interior_optimum_with_positive_rate(self):
        ch = ChannelParams(eta=0.1, y0=1e-6, e_det=0.01)
        result = optimize_mu(ch)
        assert result.feasible
        assert 0.0 < result.mu < 1.0
        assert result.rate > 0.0

    def test_matches_dense_grid(self):
        ch = bench_channel()
        protocol = ProtocolParams()
        result = optimize_mu(ch, protocol)
        dense = max(
            wcs_infinite_decoy_rate(mu, ch, protocol)
            for mu in np.linspace(1e-4, 1.0, 10_000)
        )
        assert abs(result.rate - dense) <= 1e-9

    def test_optimum_declines_with_background(self):
        protocol = ProtocolParams()
        mu_low = optimize_mu(
            ChannelParams(eta=0.01, y0=1e-6, e_det=0.025), protocol
        ).mu
        mu_high = optimize_mu(
            ChannelParams(eta=0.01, y0=1e-4, e_det=0.025), protocol
        ).mu
        assert mu_high < mu_low

    def test_infeasible_region_flagged(self):
        ch = ChannelParams(eta=1e-6, y0=1e-4, e_det=0.025)
        result = optimize_mu(ch)
        assert not result.feasible
        assert result.rate == 0.0

    @given(
        eta=st.floats(min_value=1e-7, max_value=1.0),
        y0=st.floats(min_value=0.0, max_value=1e-3),
        e_det=st.floats(min_value=0.0, max_value=0.1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_reference(self, eta, y0, e_det):
        ch = ChannelParams(eta=eta, y0=y0, e_det=e_det)
        assert optimize_mu(ch) == scalar_optimize_mu(ch)

    # zero-background channels whose two best grid points differ by less
    # than numpy's exp and log2 rounding (on an x86-64 AVX2 build)
    @pytest.mark.parametrize(
        "eta, e_det", [(1.74e-9, 0.065), (1.17e-9, 0.03), (3.01e-10, 0.053)]
    )
    def test_equals_scalar_reference_on_near_tied_grid(self, eta, e_det):
        ch = ChannelParams(eta=eta, y0=0.0, e_det=e_det)
        assert optimize_mu(ch) == scalar_optimize_mu(ch)

    # a draw of test_matches_per_point_reference: without background, the
    # rate beyond about 110 dB is flat to rounding over the coarse grid, and
    # the search settles on another grid point than a full scan does
    @pytest.mark.xfail(reason="coarse search on a rate flat to rounding (ROADMAP item 3)")
    def test_equals_scalar_reference_where_the_rate_is_flat(self):
        ch = ChannelParams(
            eta=loss_db_to_eta(114.40902130170272), y0=0.0, e_det=0.010349889697151319
        )
        protocol = ProtocolParams(q_sift=1.0, f_ec=2.734375)
        assert optimize_mu(ch, protocol) == scalar_optimize_mu(ch, protocol)

    def test_zero_gain_is_undefined(self):
        message = r"^QBER undefined: zero gain"
        with pytest.raises(UndefinedStatisticError, match=message):
            optimize_mu(ChannelParams(eta=1e-14, y0=0.0, e_det=0.025))

    # at eta 1e-14 only the gain rounds to zero; at 1e-17 Y1 does too, and
    # the gain is checked first; at mu 10 only Y1 does
    @pytest.mark.parametrize(
        "mu, eta, message",
        [
            (1e-4, 1e-14, r"^QBER undefined: zero gain at mu=0.0001"),
            (1e-4, 1e-17, r"^QBER undefined: zero gain at mu=0.0001"),
            (10.0, 1e-17, r"^e1 undefined: zero single-photon yield"),
        ],
        ids=["1e-14", "1e-17", "mu10-1e-17"],
    )
    def test_rate_at_zero_gain_is_undefined(self, mu, eta, message):
        ch = ChannelParams(eta=eta, y0=0.0, e_det=0.02)
        with pytest.raises(UndefinedStatisticError, match=message):
            wcs_infinite_decoy_rate(mu, ch, ProtocolParams())

    @pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0, -0.0])
    def test_rate_needs_a_finite_positive_intensity(self, mu):
        with pytest.raises(InvalidParameterError, match=r"^mu="):
            wcs_infinite_decoy_rate(mu, bench_channel(), ProtocolParams())

    def test_reference_covers_infeasible_region(self):
        ch = ChannelParams(eta=1e-7, y0=1e-3, e_det=0.1)
        result = optimize_mu(ch)
        assert not result.feasible
        assert result == scalar_optimize_mu(ch)

    def test_coarse_grid_equals_linspace(self):
        mus = session_mod._COARSE_MU
        assert type(mus) is tuple
        expected = np.linspace(
            *session_mod.MU_SEARCH_RANGE, session_mod.MU_COARSE_POINTS
        ).tolist()
        assert list(mus) == expected

    def test_coarse_argmax_is_the_first_argmax_on_the_golden_losses(self):
        # the bench sweep's template at the 121 losses of the golden grid:
        # the Fibonacci search finds the brute-force first argmax over the
        # coarse grid, and evaluates no grid point twice
        protocol = ProtocolParams(q_sift=0.5, f_ec=BENCH_F_EC)
        for k in range(121):
            rate = session_mod._wcs_rate(
                loss_db_to_eta(0.5 * k),
                BENCH_Y0,
                BENCH_E_DET,
                protocol,
                session_mod.MU_SEARCH_RANGE[0],
            )
            evaluated = []

            def counted(mu):
                evaluated.append(mu)
                return rate(mu)

            best, r_best = session_mod._coarse_argmax(counted)
            values = [rate(mu) for mu in session_mod._COARSE_MU]
            first = values.index(max(values))
            assert (best, r_best) == (first, values[first])
            assert len(evaluated) == len(set(evaluated))

    def test_scalar_rate_evaluations_bounded(self, monkeypatch):
        evals = count_rate_evaluations(monkeypatch)
        optimize_mu(bench_channel())
        assert 0 < evals[0] <= 40

    # rates whose best grid point is an end of the grid: ones that only
    # fall (negative everywhere, and a line) and ones that rise to mu = 1
    # (mu e^-mu, without background or detector errors, and a line)
    @pytest.mark.parametrize(
        "channel, line, index",
        [
            (ChannelParams(eta=1e-7, y0=1e-3, e_det=0.1), None, 0),
            (bench_channel(), lambda mu: 1.0 - mu, 0),
            (ChannelParams(eta=1.0, y0=0.0, e_det=0.0), None, 511),
            (bench_channel(), lambda mu: mu, 511),
        ],
        ids=["falling", "falling-line", "rising", "rising-line"],
    )
    def test_best_grid_point_at_an_end(self, monkeypatch, channel, line, index):
        protocol = ProtocolParams()
        low, high = session_mod.MU_SEARCH_RANGE
        rate = line or session_mod._wcs_rate(
            channel.eta, channel.y0, channel.e_det, protocol, low
        )
        best, r_best = session_mod._coarse_argmax(rate)
        assert best == index
        evals = count_rate_evaluations(monkeypatch, line)
        mu, r = session_mod._optimize_mu(
            channel.eta, channel.y0, channel.e_det, protocol
        )
        assert low <= mu <= high
        assert r >= r_best
        assert 0 < evals[0] <= 40

    # the refinement starts at the best grid point, keeps the best point
    # it sees and stays between that point's neighbours
    @given(
        exponent=st.floats(-16.0, 0.0),
        y0=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e-3)),
        e_det=st.floats(0.0, 0.5),
        q_sift=st.floats(0.01, 1.0),
        f_ec=st.floats(1.0, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_refinement_never_below_the_grid(self, exponent, y0, e_det, q_sift, f_ec):
        eta, protocol = 10.0**exponent, ProtocolParams(q_sift, f_ec)
        low, high = session_mod.MU_SEARCH_RANGE
        try:
            rate = session_mod._wcs_rate(eta, y0, e_det, protocol, low)
        except UndefinedStatisticError:
            return  # zero gain without background: nothing to search
        _, r_best = session_mod._coarse_argmax(rate)
        mu, r = session_mod._optimize_mu(eta, y0, e_det, protocol)
        assert low <= mu <= high
        assert r >= r_best
        assert r == max(rate(mu), 0.0)

    @given(
        mu=st.floats(min_value=1e-6, max_value=2.0),
        eta=st.floats(min_value=1e-12, max_value=1.0),
        y0=st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-3)),
        e_det=st.floats(min_value=0.0, max_value=0.5),
        q_sift=st.floats(min_value=0.01, max_value=1.0),
        f_ec=st.floats(min_value=1.0, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_equals_written_out_formula(self, mu, eta, y0, e_det, q_sift, f_ec):
        ch = ChannelParams(eta=eta, y0=y0, e_det=e_det)
        protocol = ProtocolParams(q_sift=q_sift, f_ec=f_ec)
        if y0 == 0.0 and math.exp(-eta * mu) == 1.0:
            # zero gain: the QBER of the formula is undefined
            with pytest.raises(UndefinedStatisticError):
                wcs_infinite_decoy_rate(mu, ch, protocol)
            return
        assert wcs_infinite_decoy_rate(mu, ch, protocol) == (
            ref_wcs_infinite_decoy_rate(mu, ch, protocol)
        )

    def test_single_channel_equals_its_entry_on_the_loss_axis(self):
        # 40 channels of a loss axis that differ in y0 and e_det, not just eta
        protocol = ProtocolParams(q_sift=0.5, f_ec=1.16)
        channels = [
            ChannelParams(
                eta=loss_db_to_eta(1.5 * k),
                y0=(0.0, 1e-6, 3e-5, 1e-3)[k % 4],
                e_det=0.005 * (k % 7),
            )
            for k in range(40)
        ]
        for ch in channels:
            assert optimize_mu(ch, protocol) == scalar_optimize_mu(ch, protocol)


def both_coarse_searches(rate_at):
    """The package's coarse search and the reference search on a rate
    given by grid index: for each, the index it returns, its rate as
    ``float.hex`` and the grid indices it evaluated, in order."""
    index_of = {mu: k for k, mu in enumerate(session_mod._COARSE_MU)}
    runs = []
    for search in (
        lambda rate: session_mod._coarse_argmax(lambda mu: rate(index_of[mu])),
        lambda rate: ref_coarse_argmax(rate, session_mod.MU_COARSE_POINTS),
    ):
        evaluated = []

        def rate(k):
            evaluated.append(k)
            return rate_at(k)

        best, r_best = search(rate)
        runs.append((best, r_best.hex(), evaluated))
    return runs


# grid rates that tie, sit at the ends of the float range, or are signed
# zeros; each table of runs of them has plateaus, ties and several peaks
TABLE_RATES = (-1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0)


@st.composite
def rate_tables(draw):
    points = session_mod.MU_COARSE_POINTS
    value = st.one_of(
        st.sampled_from(TABLE_RATES), st.floats(-1.0, 1.0, allow_nan=False)
    )
    if draw(st.booleans()):
        table = []
        while len(table) < points:
            table += [draw(value)] * draw(st.integers(1, 200))
        return table[:points]
    # peaks of any width, which round to plateaus at small scales
    peaks = draw(
        st.lists(
            st.tuples(st.integers(0, points - 1), value, st.floats(0.0, 1.0)),
            min_size=1,
            max_size=4,
        )
    )
    scale = draw(st.sampled_from((1.0, 1e-300, 1e-310)))
    return [
        max(scale * (h - w * abs(k - p)) for p, h, w in peaks) for k in range(points)
    ]


class TestCoarseSearchAgainstReference:
    """``_coarse_argmax`` returns the reference search's index and rate,
    and evaluates the same grid indices in the same order."""

    @given(table=rate_tables())
    @settings(max_examples=300, deadline=None)
    def test_on_rate_tables(self, table):
        package, reference = both_coarse_searches(table.__getitem__)
        assert package == reference

    @pytest.mark.parametrize(
        "table",
        [
            [0.0] * 512,
            [float(k) for k in range(512)],
            [float(-k) for k in range(512)],
            # falls over the first points, then rises to an interior peak
            [1.0, 0.5] + [0.5 + k * (511 - k) for k in range(510)],
            # two equal peaks
            [-abs(k - 100.0) if k < 300 else -abs(k - 400.0) for k in range(512)],
            [k * 1e-300 for k in range(512)],
        ],
        ids=["flat", "rising", "falling", "dip-then-peak", "two-peaks", "tiny"],
    )
    def test_on_shaped_tables(self, table):
        package, reference = both_coarse_searches(table.__getitem__)
        assert package == reference

    def test_on_every_peak_position(self):
        # a single peak, a plateau around it, and a peak on a plateau below
        # the first point, at each index of the grid
        for p in range(512):
            for table in (
                [-abs(k - p) * 1.0 for k in range(512)],
                [max(-abs(k - p), -3) * 1.0 for k in range(512)],
                [-3.0] + [max(-abs(k - p), -9) * 1.0 for k in range(1, 512)],
            ):
                package, reference = both_coarse_searches(table.__getitem__)
                assert package == reference, p

    # real rates, without background and at transmittances of 1e-16 to
    # 1e-11 too: there the rate is flat to rounding over the grid, and the
    # search path, not the argmax, decides the index
    @given(
        exponent=st.one_of(st.floats(-16.0, -11.0), st.floats(-11.0, 0.0)),
        y0=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e-3)),
        e_det=st.floats(0.0, 0.5),
        q_sift=st.floats(0.01, 1.0),
        f_ec=st.floats(1.0, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_on_wcs_rates(self, exponent, y0, e_det, q_sift, f_ec):
        protocol = ProtocolParams(q_sift, f_ec)
        low = session_mod.MU_SEARCH_RANGE[0]
        try:
            rate = session_mod._wcs_rate(10.0**exponent, y0, e_det, protocol, low)
        except UndefinedStatisticError:
            return  # zero gain without background: nothing to search
        self.check_wcs_rate(rate)

    @pytest.mark.parametrize(
        "loss_db, e_det, protocol",
        [
            # the flat-rate draw of the strict xfail above
            (114.40902130170272, 0.010349889697151319, ProtocolParams(1.0, 2.734375)),
            (110.0, 0.025, ProtocolParams()),
            (115.0, 0.0, ProtocolParams()),
            (118.0, 0.05, ProtocolParams(0.5, 1.22)),
            (119.5, 0.1, ProtocolParams()),
        ],
    )
    def test_on_flat_wcs_rates(self, loss_db, e_det, protocol):
        eta, low = loss_db_to_eta(loss_db), session_mod.MU_SEARCH_RANGE[0]
        self.check_wcs_rate(session_mod._wcs_rate(eta, 0.0, e_det, protocol, low))

    @staticmethod
    def check_wcs_rate(rate):
        mus = session_mod._COARSE_MU
        package, reference = both_coarse_searches(lambda k: rate(mus[k]))
        assert package == reference

    def test_rate_evaluations_on_the_golden_losses(self, monkeypatch):
        # the bench sweep's template at the 121 losses of the golden grid:
        # 1,355 evaluations in the coarse search and 647 in Brent's
        # refinement, at the 91 points not certified past the cutoff by
        # session._past_cutoff (30 of the 42 zero-rate points it is tried
        # at)
        evals = count_rate_evaluations(monkeypatch)
        scan_loss(
            bench_config(q_sift=0.5, vacuum_mu=0.0),
            Scheme.parse("wcs-decoy-opt"),
            [0.5 * k for k in range(121)],
        )
        assert evals[0] == 2002


def golden_grid_channels():
    """The bench sweep's template at the 121 losses of the golden grid, at
    q_sift 0.25 and 0.5."""
    for q_sift in (0.25, 0.5):
        protocol = ProtocolParams(q_sift=q_sift, f_ec=BENCH_F_EC)
        for k in range(121):
            eta = loss_db_to_eta(0.5 * k)
            yield ChannelParams(eta=eta, y0=BENCH_Y0, e_det=BENCH_E_DET), protocol


def random_channels(seed, count, background):
    """``count`` seeded channels and protocols: eta log-uniform over
    1e-10..1 and y0 over 1e-9..1e-3 with ``background``, else y0 = 0 and
    eta over 1e-7..1, where the float rate is more than rounding noise;
    e_det in 0..0.1, q_sift in 0.2..1 and f_ec in 1..1.5."""
    rng = random.Random(seed)
    for _ in range(count):
        if background:
            eta, y0 = 10.0 ** rng.uniform(-10.0, 0.0), 10.0 ** rng.uniform(-9.0, -3.0)
        else:
            eta, y0 = 10.0 ** rng.uniform(-7.0, 0.0), 0.0
        channel = ChannelParams(eta=eta, y0=y0, e_det=rng.uniform(0.0, 0.1))
        yield channel, ProtocolParams(rng.uniform(0.2, 1.0), rng.uniform(1.0, 1.5))


def feasible_channels(channels):
    """The channels and protocols of ``channels`` whose best rate is
    positive."""
    return [case for case in channels if optimize_mu(*case).feasible]


class TestSearchOnTheTrueRate:
    """The intensity search on the 60-digit rate of :func:`ref_wcs_rate_60`.
    Each rate it finds is at least the one it is compared with, less the
    larger of 1e-10 of that rate and twice the float rate's error at the
    two intensities."""

    @pytest.mark.parametrize(
        "channels",
        [
            golden_grid_channels,
            lambda: random_channels(19, 400, background=True),
            lambda: random_channels(23, 300, background=False),
        ],
        ids=["golden-grid", "random-y0", "random-no-background"],
    )
    def test_no_lower_than_the_golden_section(self, channels):
        for channel, protocol in channels():
            mus = (
                optimize_mu(channel, protocol).mu,
                golden_section_optimize_mu(channel, protocol).mu,
            )
            with localcontext() as ctx:
                ctx.prec = 60
                new, old = (ref_wcs_rate_60(mu, channel, protocol) for mu in mus)
                error = max(
                    abs(Decimal(wcs_infinite_decoy_rate(mu, channel, protocol)) - r)
                    for mu, r in zip(mus, (new, old))
                )
                slack = max(abs(old) * Decimal("1e-10"), 2 * error)
                assert new >= old - slack, (channel, protocol)

    @pytest.mark.parametrize(
        "channels",
        [
            lambda: feasible_channels(golden_grid_channels())[::25],
            lambda: feasible_channels(random_channels(31, 20, background=True)),
        ],
        ids=["golden-grid", "random-y0"],
    )
    def test_coarse_argmax_is_the_true_grid_maximum(self, channels):
        # the coarse search's index against every point of the grid, on
        # channels with background: without it, at eta below 1e-7 the float
        # rate is flat to rounding (ROADMAP item 3)
        mus = session_mod._COARSE_MU
        low = session_mod.MU_SEARCH_RANGE[0]
        cases = channels()
        assert len(cases) >= 5
        for channel, protocol in cases:
            rate = session_mod._wcs_rate(
                channel.eta, channel.y0, channel.e_det, protocol, low
            )
            found, _ = session_mod._coarse_argmax(rate)
            with localcontext() as ctx:
                ctx.prec = 60
                true = [ref_wcs_rate_60(mu, channel, protocol) for mu in mus]
                top = max(range(len(mus)), key=true.__getitem__)
                error = max(abs(Decimal(rate(mus[k])) - true[k]) for k in (found, top))
                slack = max(abs(true[top]) * Decimal("1e-10"), 2 * error)
                assert true[found] >= true[top] - slack, (channel, protocol, found, top)


def past_cutoff(channel, protocol):
    """Whether a sweep that tries the bound of ``session._past_cutoff`` at
    ``channel`` skips its intensity search there."""
    low = session_mod.MU_SEARCH_RANGE[0]
    rate = session_mod._wcs_rate(
        channel.eta, channel.y0, channel.e_det, protocol, low, True
    )
    return rate is None


class TestPastCutoffBound:
    """The bound by which a loss sweep skips the intensity search at a
    point after a zero rate: wherever it certifies a channel, the rate is
    at most 0 all over the search range, in floats and in 60 digits, so
    the skip changes no bit of a curve."""

    @given(
        exponent=st.floats(-8.0, 0.0),
        y0=st.just(0.0) | st.floats(-9.0, -2.0).map(lambda x: 10.0**x),
        e_det=st.floats(0.0, 0.5),
        q_sift=st.floats(0.01, 1.0),
        f_ec=st.floats(1.0, 3.0) | st.floats(3.0, 1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_certified_float_rates_are_not_positive(
        self, exponent, y0, e_det, q_sift, f_ec
    ):
        channel = ChannelParams(eta=10.0**exponent, y0=y0, e_det=e_det)
        protocol = ProtocolParams(q_sift, f_ec)
        assume(past_cutoff(channel, protocol))
        eta, low = channel.eta, session_mod.MU_SEARCH_RANGE[0]
        rate = session_mod._wcs_rate(eta, y0, e_det, protocol, low)
        assert max(map(rate, session_mod._COARSE_MU)) <= 0.0
        r = session_mod._optimize_mu(eta, y0, e_det, protocol)[1]
        assert r.hex() == "0x0.0p+0"

    @pytest.mark.parametrize(
        "channels, step",
        [
            (golden_grid_channels, 10),
            (lambda: random_channels(37, 40, background=True), 4),
        ],
        ids=["golden-grid", "random-y0"],
    )
    def test_certified_true_rates_are_not_positive(self, channels, step):
        # at every grid intensity and at 64 drawn ones, on every step-th
        # certified channel
        rng = random.Random(41)
        low, high = session_mod.MU_SEARCH_RANGE
        mus = session_mod._COARSE_MU + tuple(rng.uniform(low, high) for _ in range(64))
        cases = [case for case in channels() if past_cutoff(*case)][::step]
        assert len(cases) >= 4
        for channel, protocol in cases:
            with localcontext() as ctx:
                ctx.prec = 60
                top = max(ref_wcs_rate_60(mu, channel, protocol) for mu in mus)
                assert top <= 0, (channel, protocol)

    @given(
        y0=st.floats(-9.0, -2.0).map(lambda x: 10.0**x),
        e_det=st.floats(0.0, 0.5),
        q_sift=st.floats(0.01, 1.0),
        f_ec=st.floats(1.0, 3.0),
        losses=st.lists(st.floats(0.0, 200.0), max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_sweep_equals_the_sweep_without_the_bound(
        self, y0, e_det, q_sift, f_ec, losses
    ):
        # grids from 0 to 200 dB, past the cutoff of every drawn channel
        grid = sorted({0.0, 200.0, *losses})
        cfg = replace(
            bench_config(),
            channel=ChannelParams(eta=1.0, y0=y0, e_det=e_det),
            protocol=ProtocolParams(q_sift, f_ec),
        )
        scheme = Scheme.parse("wcs-decoy-opt")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(session_mod, "_past_cutoff", lambda *args: False)
            searched = scan_loss(cfg, scheme, grid).rate
        skipped = scan_loss(cfg, scheme, grid).rate
        assert [r.hex() for r in skipped] == [r.hex() for r in searched]


# each kind that takes a ':' argument, and the range it takes it in
SCHEME_ARGUMENT_RANGES = {
    SchemeKind.HSPS_DECOY: (0.0, 1.0),
    SchemeKind.WCS_NO_DECOY: (5e-324, sys.float_info.max),
}


@st.composite
def scheme_argument_pairs(draw):
    """A kind that takes an argument and two valid arguments for it, the
    second often the first, a neighbour, or its two-decimal rounding."""
    kind = draw(st.sampled_from(list(SCHEME_ARGUMENT_RANGES)))
    low, high = SCHEME_ARGUMENT_RANGES[kind]
    values = st.floats(low, high) | st.sampled_from([low, high, 0.4, 1.0])
    first = draw(values)
    near = [
        first,
        -first,
        math.nextafter(first, -math.inf),
        math.nextafter(first, math.inf),
        round(first, 2),
        float(f"{first:.3f}"),
    ]
    near = [x for x in near if low <= x <= high]
    return kind, first, draw(st.sampled_from(near) | values)


class TestScheme:
    def test_parse_tokens(self):
        assert Scheme.parse("ideal-sps").kind is SchemeKind.IDEAL_SPS
        s = Scheme.parse("hsps-decoy:0.70")
        assert s.kind is SchemeKind.HSPS_DECOY
        assert s.arg == 0.70
        assert s.label == "hsps-decoy-0.70"
        w = Scheme.parse("wcs-no-decoy:0.2")
        assert w.arg == 0.2
        # a zero argument is written without its sign
        for token in ("hsps-decoy:-0", "hsps-decoy:0"):
            assert Scheme.parse(token).label == "hsps-decoy-0.00"

    def test_parse_errors(self):
        with pytest.raises(InvalidParameterError):
            Scheme.parse("unknown-scheme")
        with pytest.raises(InvalidParameterError):
            Scheme.parse("hsps-decoy")
        with pytest.raises(InvalidParameterError):
            Scheme.parse("ideal-sps:0.3")
        # a separator with nothing after it is an empty argument, not none
        for token in ("ideal-sps:", "wcs-decoy-opt:", "wcs-no-decoy:"):
            with pytest.raises(
                InvalidParameterError, match=r"^scheme argument '' is not a number$"
            ):
                Scheme.parse(token)

    def test_scheme_validation(self):
        with pytest.raises(InvalidParameterError):
            Scheme(SchemeKind.HSPS_DECOY)
        with pytest.raises(
            InvalidParameterError,
            match=r"^scheme 'ideal-sps' takes no argument, got 0.3$",
        ):
            Scheme(SchemeKind.IDEAL_SPS, arg=0.3)
        # the old field names are gone
        for name in ("p_cor", "wcs_mu"):
            with pytest.raises(TypeError):
                Scheme(SchemeKind.HSPS_DECOY, **{name: 0.4})

    @pytest.mark.parametrize(
        "kind, arg", [("hsps-decoy", None), ("ideal-sps", 0.3), (None, None)]
    )
    def test_kind_must_be_a_scheme_kind(self, kind, arg):
        # a token is not a kind: it is refused before a scan could start
        with pytest.raises(
            InvalidParameterError, match=rf"^scheme kind {kind!r} is not a SchemeKind"
        ):
            Scheme(kind, arg=arg)

    @settings(max_examples=500, deadline=None)
    @given(case=scheme_argument_pairs())
    @example(case=(SchemeKind.HSPS_DECOY, 0.0, -0.0))
    @example(case=(SchemeKind.HSPS_DECOY, 0.4, 0.4000000000000001))
    @example(case=(SchemeKind.WCS_NO_DECOY, 0.125, 0.13))
    @example(case=(SchemeKind.WCS_NO_DECOY, 1e16, 1e16 + 2.0))
    def test_labels_equal_exactly_when_arguments_do(self, case):
        # the label names the argument, and the token written from the
        # argument's repr parses back to the same scheme
        kind, a, b = case
        first, second = Scheme(kind=kind, arg=a), Scheme(kind=kind, arg=b)
        assert (first.label == second.label) == (a == b)
        for arg, scheme in ((a, first), (b, second)):
            assert Scheme.parse(f"{kind.value}:{arg!r}") == scheme

    @pytest.mark.parametrize("token", ["inf", "nan", "0", "-0.1"])
    def test_wcs_mu_is_finite_and_positive(self, token):
        # refused at construction, naming the field
        with pytest.raises(InvalidParameterError, match=r"^wcs_mu="):
            Scheme.parse(f"wcs-no-decoy:{token}")


class TestConfigValidation:
    def test_invalid_fields(self):
        with pytest.raises(InvalidParameterError):
            replace(bench_config(), vacuum_mu=-1.0)
        with pytest.raises(InvalidParameterError):
            replace(bench_config(), total_pulses=0)
        with pytest.raises(InvalidParameterError):
            replace(bench_config(), intensity_ratio=(1.0, 0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            replace(bench_config(), rng_seed=-1)
        # integers follow one rule, and a weight past the float range is
        # refused by its name
        for field, value in (
            ("total_pulses", 1.5e9),
            ("rng_seed", 2.5),
            ("rng_seed", 3.0),
            ("rng_seed", math.nan),
        ):
            with pytest.raises(InvalidParameterError, match=rf"^{field}=.* integer"):
                replace(bench_config(), **{field: value})
        for k in range(3):
            for weight in (10**400, 2**1024):
                ratio = tuple(weight if i == k else 1.0 for i in range(3))
                with pytest.raises(
                    InvalidParameterError, match=rf"^intensity_ratio\[{k}\]="
                ):
                    replace(bench_config(), intensity_ratio=ratio)
        for gates, detections, errors in ((2.5, 1, 0), (10, 2.0, 0), (10, 2, 0.5)):
            with pytest.raises(InvalidParameterError, match=r"must be an integer"):
                IntensityCounts(gates, detections, errors)


# an int past the float range, which cannot enter float arithmetic
HUGE_INT = 10**400


def huge_rates(**kw):
    rates = dict(
        r0_hz=1e6, rs_hz=8e3, rc_hz=4.05e5, ds_hz=1e3, eta_s=0.1, gate_time_s=2.5e-9
    )
    return MeasuredRates(**{**rates, **kw})


@pytest.mark.parametrize(
    "name, call",
    [
        ("loss_db", lambda: loss_db_to_eta(HUGE_INT)),
        (
            "mu",
            lambda: wcs_infinite_decoy_rate(HUGE_INT, bench_channel(), ProtocolParams()),
        ),
        ("r0_hz", lambda: infer_accidental_rate(huge_rates(r0_hz=HUGE_INT))),
        ("gate_time_s", lambda: infer_accidental_rate(huge_rates(gate_time_s=HUGE_INT))),
        ("r_s", lambda: infer_correlation(huge_rates(), HUGE_INT)),
        ("rate", lambda: secure_bits(HUGE_INT, 5)),
        ("f_ec", lambda: ProtocolParams(f_ec=HUGE_INT)),
        ("n_sigma", lambda: FluctuationPolicy(HUGE_INT)),
        ("n", lambda: yield_n(bench_channel(), HUGE_INT)),
        ("n", lambda: error_n(bench_channel(), HUGE_INT)),
        (
            "loss_db",
            lambda: scan_loss(bench_config(), Scheme(SchemeKind.IDEAL_SPS), [HUGE_INT]),
        ),
        # an infinite parameter is refused by the same rule
        ("r_s", lambda: infer_correlation(huge_rates(), math.inf)),
        ("f_ec", lambda: ProtocolParams(f_ec=math.inf)),
    ],
    ids=[
        "loss_db",
        "mu",
        "r0_hz",
        "gate_time_s",
        "r_s",
        "rate",
        "f_ec",
        "n_sigma",
        "yield_n",
        "error_n",
        "scan_loss",
        "r_s-inf",
        "f_ec-inf",
    ],
)
def test_int_past_the_float_range_is_refused_by_name(name, call):
    with pytest.raises(InvalidParameterError, match=rf"^{name}="):
        call()
