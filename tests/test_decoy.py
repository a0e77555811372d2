import math

import numpy as np
import pytest

from decoyqkd import (
    ChannelParams,
    DegenerateDistributionError,
    FluctuationPolicy,
    HspsParams,
    PhotonNumberDistribution,
    ThreeIntensityObservation,
    check_condition,
    error_n,
    estimate_bounds,
    estimate_e1_upper,
    estimate_y1_lower,
    fluctuation_bounds,
    gain,
    hsps_distribution,
    ideal_sps_distribution,
    infinite_decoy_exact,
    no_decoy_bounds,
    qber,
    wcs_distribution,
    yield_n,
)
from helpers import (
    BENCH_D_I,
    BENCH_MU_DECOY,
    BENCH_MU_SIGNAL,
    BENCH_N_SIGNAL,
    BENCH_P_COR,
    BENCH_Y0,
    REF_E_SIGNAL,
    REF_Q_DECOY,
    REF_Q_SIGNAL,
    bench_channel,
)

BIG = 10**9

TOY_SIGNAL = PhotonNumberDistribution(probs=(0.0, 0.5, 0.5), tail_folded=False)
TOY_DECOY = PhotonNumberDistribution(probs=(0.0, 0.9, 0.1), tail_folded=False)


def make_obs(q_signal, q_decoy, e_signal, y0_obs, n_signal=BIG, n_decoy=BIG, n_vacuum=BIG):
    return ThreeIntensityObservation(
        q_signal=q_signal,
        q_decoy=q_decoy,
        e_signal=e_signal,
        y0_obs=y0_obs,
        n_signal=n_signal,
        n_decoy=n_decoy,
        n_vacuum=n_vacuum,
    )


def noiseless_obs(dist_signal, dist_decoy, ch, y0_obs=None):
    point = qber(dist_signal, ch)
    return make_obs(
        q_signal=point.q_gain,
        q_decoy=gain(dist_decoy, ch),
        e_signal=point.qber,
        y0_obs=ch.y0 if y0_obs is None else y0_obs,
    )


def bench_distributions(p_cor=BENCH_P_COR):
    return (
        hsps_distribution(HspsParams(p_cor, BENCH_MU_SIGNAL, BENCH_D_I)),
        hsps_distribution(HspsParams(p_cor, BENCH_MU_DECOY, BENCH_D_I)),
    )


class TestCheckCondition:
    def test_poisson_pair_satisfies_termwise(self):
        ds = wcs_distribution(BENCH_MU_SIGNAL)
        dd = wcs_distribution(BENCH_MU_DECOY)
        assert check_condition(ds, dd)
        # termwise oracle: the likelihood ratio increases with n
        for n in range(2, ds.n_max + 1):
            assert ds.p(2) * dd.p(n) - dd.p(2) * ds.p(n) <= 0.0

    def test_benchmark_heralded_pair(self):
        ds, dd = bench_distributions()
        assert check_condition(ds, dd)
        for n in range(2, ds.n_max + 1):
            assert ds.p(2) * dd.p(n) - dd.p(2) * ds.p(n) <= 0.0

    def test_identical_distributions_hit_degenerate_denominator(self):
        d = wcs_distribution(0.05)
        with pytest.raises(DegenerateDistributionError):
            check_condition(d, d)

    def test_zero_two_photon_weight_rejected(self):
        d = ideal_sps_distribution()
        with pytest.raises(DegenerateDistributionError):
            check_condition(d, d)


class TestFluctuationBounds:
    def test_zero_sigma_is_identity(self):
        obs = make_obs(1e-4, 1.1e-4, 0.06, 1e-5)
        fb = fluctuation_bounds(obs, FluctuationPolicy(0.0))
        assert fb.q_decoy_low == obs.q_decoy
        assert fb.q_signal_high == obs.q_signal
        assert fb.eq_signal_high == obs.q_signal * obs.e_signal
        assert fb.y0_low == fb.y0_high == obs.y0_obs
        assert fb.clamped == ()

    def test_decoy_gain_lower_bound_value(self):
        obs = make_obs(1e-4, 1e-4, 0.06, 1e-5, n_decoy=600_000_000)
        fb = fluctuation_bounds(obs, FluctuationPolicy(10.0))
        assert fb.q_decoy_low == pytest.approx(1e-4 * 0.959175, rel=1e-4)

    def test_background_half_width(self):
        obs = make_obs(1e-4, 1e-4, 0.06, BENCH_Y0, n_vacuum=10**8)
        fb = fluctuation_bounds(obs, FluctuationPolicy(10.0))
        half = 10.0 / math.sqrt(10**8 * BENCH_Y0)
        assert half == pytest.approx(0.35355, abs=1e-4)
        assert fb.y0_low == pytest.approx(BENCH_Y0 * (1 - half), rel=1e-12)
        assert fb.y0_high == pytest.approx(BENCH_Y0 * (1 + half), rel=1e-12)

    def test_wide_half_width_clamps_to_zero(self):
        obs = make_obs(1e-4, 1e-4, 0.06, 1e-8, n_vacuum=1000)
        fb = fluctuation_bounds(obs, FluctuationPolicy(10.0))
        assert fb.y0_low == 0.0
        assert "y0_low" in fb.clamped


class TestY1Lower:
    def test_noiseless_poisson_pair_tight(self):
        ch = ChannelParams(eta=0.01, y0=1e-5, e_det=0.025)
        ds = wcs_distribution(0.1)
        dd = wcs_distribution(0.01)
        obs = noiseless_obs(ds, dd, ch)
        y1_lower, _ = estimate_y1_lower(
            fluctuation_bounds(obs, FluctuationPolicy(0.0)), ds, dd
        )
        y1_true = ch.y0 + ch.eta
        assert y1_lower <= y1_true
        assert y1_lower >= 0.85 * y1_true

    def test_two_photon_support_is_exact(self):
        obs = make_obs(q_signal=0.3, q_decoy=0.22, e_signal=0.0, y0_obs=0.0)
        y1_lower, _ = estimate_y1_lower(
            fluctuation_bounds(obs, FluctuationPolicy(0.0)), TOY_SIGNAL, TOY_DECOY
        )
        # hand arithmetic: (0.5*0.22 - 0.1*0.3) / (0.5*0.9 - 0.1*0.5) = 0.2
        assert y1_lower == pytest.approx(0.2, abs=1e-12)

    def test_fluctuations_only_weaken_the_bound(self):
        ds, dd = bench_distributions()
        obs = noiseless_obs(ds, dd, bench_channel())
        y1_central, _ = estimate_y1_lower(
            fluctuation_bounds(obs, FluctuationPolicy(0.0)), ds, dd
        )
        y1_fluct, _ = estimate_y1_lower(
            fluctuation_bounds(obs, FluctuationPolicy(10.0)), ds, dd
        )
        assert y1_fluct < y1_central

    def test_negative_numerator_clamps_with_flag(self):
        ds, dd = bench_distributions()
        obs = make_obs(q_signal=0.5, q_decoy=1e-9, e_signal=0.1, y0_obs=0.0)
        y1_lower, flags = estimate_y1_lower(
            fluctuation_bounds(obs, FluctuationPolicy(0.0)), ds, dd
        )
        assert y1_lower == 0.0
        assert "y1-negative-clamped" in flags


class TestE1Upper:
    def test_pure_background_subtracts_to_zero(self):
        ds, _ = bench_distributions()
        y0 = 1e-4
        obs = make_obs(
            q_signal=y0 * ds.p(0), q_decoy=1e-5, e_signal=0.5, y0_obs=y0
        )
        e1, flags = estimate_e1_upper(
            fluctuation_bounds(obs, FluctuationPolicy(0.0)), ds, y1_lower=1e-3
        )
        assert e1 == pytest.approx(0.0, abs=1e-15)
        assert flags == ()

    def test_reference_session_range(self):
        ds, dd = bench_distributions()
        obs = make_obs(
            REF_Q_SIGNAL,
            REF_Q_DECOY,
            REF_E_SIGNAL,
            BENCH_Y0,
            n_signal=BENCH_N_SIGNAL,
            n_decoy=400_000_000,
            n_vacuum=100_000_000,
        )
        bounds = estimate_bounds(
            obs, ds, dd, fluctuation_bounds(obs, FluctuationPolicy(10.0))
        )
        assert 0.025 < bounds.e1_upper < 0.11

    def test_monotone_in_sigma(self):
        ds, dd = bench_distributions()
        obs = noiseless_obs(ds, dd, bench_channel())
        b0 = estimate_bounds(
            obs, ds, dd, fluctuation_bounds(obs, FluctuationPolicy(0.0))
        )
        b10 = estimate_bounds(
            obs, ds, dd, fluctuation_bounds(obs, FluctuationPolicy(10.0))
        )
        assert b0.e1_upper <= b10.e1_upper

    def test_zero_yield_bound_is_unbounded(self):
        ds, _ = bench_distributions()
        obs = make_obs(1e-4, 1e-4, 0.06, 1e-5)
        e1, flags = estimate_e1_upper(
            fluctuation_bounds(obs, FluctuationPolicy()), ds, y1_lower=0.0
        )
        assert e1 == 1.0
        assert "e1-unbounded" in flags

    def test_collapsed_yield_propagates_through_composition(self):
        # decoy gain too small to explain the signal: Y1 floors at zero
        # and the error bound degenerates, all visible in the flags
        ds, dd = bench_distributions()
        obs = make_obs(q_signal=0.5, q_decoy=1e-9, e_signal=0.1, y0_obs=0.0)
        bounds = estimate_bounds(
            obs, ds, dd, fluctuation_bounds(obs, FluctuationPolicy(0.0))
        )
        assert bounds.y1_lower == 0.0
        assert bounds.g1_lower == 0.0
        assert bounds.e1_upper == 1.0
        assert "y1-negative-clamped" in bounds.flags
        assert "e1-unbounded" in bounds.flags
        assert bounds.flags


class TestSoundness:
    def test_noiseless_grid(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(60):
            eta = 10 ** rng.uniform(-4, 0)
            y0 = rng.uniform(0.0, 1e-4)
            p_cor = rng.uniform(0.0, 0.9)
            mu_s = 10 ** rng.uniform(-3.5, math.log10(0.2))
            ch = ChannelParams(eta=eta, y0=y0, e_det=0.025)
            ds = hsps_distribution(HspsParams(p_cor, mu_s, 1e-3))
            dd = hsps_distribution(HspsParams(p_cor, mu_s / 8, 1e-3))
            if not check_condition(ds, dd):
                continue
            obs = noiseless_obs(ds, dd, ch, y0_obs=y0)
            bounds = estimate_bounds(
                obs, ds, dd, fluctuation_bounds(obs, FluctuationPolicy(0.0))
            )
            y1_true, e1_true = yield_n(ch, 1), error_n(ch, 1)
            assert bounds.y1_lower <= y1_true + 1e-12
            if bounds.y1_lower > 0.0:
                assert bounds.e1_upper >= e1_true - 1e-12
            checked += 1
        assert checked >= 50


class TestNoDecoy:
    def test_ideal_source_keeps_full_single_photon_gain(self):
        ch = ChannelParams(eta=0.2, y0=0.0, e_det=0.025)
        dist = ideal_sps_distribution()
        point = qber(dist, ch)
        obs = make_obs(point.q_gain, point.q_gain, point.qber, 0.0)
        bounds = no_decoy_bounds(obs.q_signal, obs.e_signal, obs.y0_obs, dist)
        assert bounds.g1_lower == pytest.approx(yield_n(ch, 1), abs=1e-15)

    def test_wcs_closed_form(self):
        # transmission high enough that the multiphoton penalty does
        # not wipe out the bound
        ch = ChannelParams(eta=0.1, y0=1e-5, e_det=0.025)
        mu = 0.1
        dist = wcs_distribution(mu)
        obs = noiseless_obs(dist, wcs_distribution(mu / 10), ch)
        bounds = no_decoy_bounds(obs.q_signal, obs.e_signal, obs.y0_obs, dist)
        expected = (
            obs.q_signal
            - ch.y0 * math.exp(-mu)
            - (1 - math.exp(-mu) - mu * math.exp(-mu))
        )
        assert expected > 0.0
        assert bounds.g1_lower == pytest.approx(expected, rel=1e-9)

    def test_decoy_estimation_dominates_on_lossy_channels(self):
        pol = FluctuationPolicy(0.0)
        for mu_s in (0.05, 0.1, 0.2, 0.5):
            for eta in (1e-3, 1e-2, 0.1, 0.5):
                for y0 in (0.0, 1e-5, 1e-4):
                    ch = ChannelParams(eta=eta, y0=y0, e_det=0.025)
                    ds = wcs_distribution(mu_s)
                    dd = wcs_distribution(mu_s / 10)
                    obs = noiseless_obs(ds, dd, ch, y0_obs=y0)
                    with_decoy = estimate_bounds(
                        obs, ds, dd, fluctuation_bounds(obs, pol)
                    )
                    without = no_decoy_bounds(
                        obs.q_signal, obs.e_signal, obs.y0_obs, ds
                    )
                    if with_decoy.g1_lower > 0.0 and without.g1_lower > 0.0:
                        assert without.g1_lower <= with_decoy.g1_lower + 1e-15

    def test_multiphoton_heavy_source_collapses(self):
        ch = ChannelParams(eta=1e-3, y0=1e-5, e_det=0.025)
        dist = wcs_distribution(0.5)
        obs = noiseless_obs(dist, wcs_distribution(0.05), ch)
        bounds = no_decoy_bounds(obs.q_signal, obs.e_signal, obs.y0_obs, dist)
        assert bounds.g1_lower == 0.0
        assert "y1-negative-clamped" in bounds.flags
        assert bounds.e1_upper == 1.0

    def test_requires_single_photon_weight(self):
        dist = PhotonNumberDistribution(probs=(0.5, 0.0, 0.5), tail_folded=False)
        obs = make_obs(0.1, 0.1, 0.02, 0.0)
        with pytest.raises(DegenerateDistributionError):
            no_decoy_bounds(obs.q_signal, obs.e_signal, obs.y0_obs, dist)


class TestInfiniteDecoy:
    def test_lossless_channel(self):
        ch = ChannelParams(eta=1.0, y0=0.0, e_det=0.025)
        bounds = infinite_decoy_exact(ch, bench_distributions()[0])
        assert bounds.y1_lower == 1.0
        assert bounds.e1_upper == pytest.approx(0.025, abs=1e-15)

    def test_benchmark_channel(self):
        bounds = infinite_decoy_exact(bench_channel(), bench_distributions()[0])
        assert bounds.y1_lower == pytest.approx(2.59189e-4, rel=1e-5)

    def test_three_intensity_bound_never_exceeds_truth(self):
        ds, dd = bench_distributions()
        ch = bench_channel()
        obs = noiseless_obs(ds, dd, ch)
        three = estimate_bounds(
            obs, ds, dd, fluctuation_bounds(obs, FluctuationPolicy(0.0))
        )
        exact = infinite_decoy_exact(ch, bench_distributions()[0])
        assert three.y1_lower <= exact.y1_lower

    def test_gain_components_from_distribution(self):
        ch = bench_channel()
        ds, _ = bench_distributions()
        bounds = infinite_decoy_exact(ch, ds)
        assert bounds.g0 == pytest.approx(ch.y0 * ds.p(0), rel=1e-12)
        assert bounds.g1_lower == pytest.approx(
            yield_n(ch, 1) * ds.p(1), rel=1e-12
        )
