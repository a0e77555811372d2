import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import decoyqkd.decoy as decoy_mod
from decoyqkd import (
    ChannelParams,
    DegenerateDistributionError,
    FluctuationPolicy,
    HspsParams,
    HspsSource,
    InvalidParameterError,
    ObservableBounds,
    PhotonNumberDistribution,
    ProtocolParams,
    ThreeIntensityObservation,
    WcsSource,
    check_condition,
    error_n,
    estimate_bounds,
    estimate_y1_lower,
    fluctuation_bounds,
    gain,
    hsps_distribution,
    ideal_sps_distribution,
    key_rate,
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
    ref_weak_vacuum_bounds,
)

BIG = 10**9

TOY_SIGNAL = PhotonNumberDistribution(probs=(0.0, 0.5, 0.5), tail_folded=False)
TOY_DECOY = PhotonNumberDistribution(probs=(0.0, 0.9, 0.1), tail_folded=False)


def make_obs(q_signal, q_decoy, e_signal, y0_obs, n_signal=BIG, n_decoy=BIG, n_vacuum=BIG):
    return ThreeIntensityObservation(
        q_signal=q_signal,
        q_decoy=q_decoy,
        e_signal=e_signal,
        e_decoy=None,
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

    def test_gate_counts_follow_the_integer_rule(self):
        # a numpy integer is an integer, an integral float is not
        pol = FluctuationPolicy(10.0)
        fb = fluctuation_bounds(make_obs(1e-4, 1e-4, 0.06, BENCH_Y0), pol)
        numpy_obs = make_obs(1e-4, 1e-4, 0.06, BENCH_Y0, n_signal=np.int64(BIG))
        assert fluctuation_bounds(numpy_obs, pol) == fb
        with pytest.raises(InvalidParameterError, match=r"^n_decoy=.* integer"):
            make_obs(1e-4, 1e-4, 0.06, BENCH_Y0, n_decoy=float(BIG))

    @pytest.mark.parametrize("value", [math.nan, -1e-9, 1.5, math.inf, 10**400])
    @pytest.mark.parametrize("index", range(5))
    def test_envelope_fields_lie_in_unit_interval(self, index, value):
        fields = ["q_decoy_low", "q_signal_high", "eq_signal_high", "y0_low", "y0_high"]
        envelope = [0.01, 0.1, 0.01, 0.0, 1e-6]
        envelope[index] = value
        with pytest.raises(InvalidParameterError, match=rf"^{fields[index]}="):
            ObservableBounds(*envelope)


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
        # at n_sigma 0 the envelope is the observables themselves
        e1, flags = decoy_mod._e1_upper(
            obs.q_signal * obs.e_signal, y0, ds.p(0), ds.p(1), y1=1e-3
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
        e1, flags = decoy_mod._e1_upper(1e-4 * 0.06, 1e-5, ds.p(0), ds.p(1), y1=0.0)
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


def source(kind, mu, p_cor, d_i):
    """A coherent-state source of mean ``mu``, or a heralded source with
    ``mu`` accidental photons per gate."""
    if kind == "wcs":
        return WcsSource(mu)
    return HspsSource(HspsParams(p_cor, mu, d_i))


# a signal and a weaker decoy: coherent-state, heralded or one of each,
# the heralded settings sharing p_cor and d_i
source_pairs = st.builds(
    lambda kinds, mu, ratio, p_cor, d_i, n_max: tuple(
        source(kind, m, p_cor, d_i).distribution(n_max)
        for kind, m in zip(kinds, (mu, mu * ratio))
    ),
    kinds=st.tuples(*[st.sampled_from(["wcs", "hsps"])] * 2),
    mu=st.floats(min_value=-4.0, max_value=0.0).map(lambda x: 10.0**x),
    ratio=st.floats(min_value=0.02, max_value=0.5),
    p_cor=st.floats(min_value=0.0, max_value=1.0),
    d_i=st.floats(min_value=0.0, max_value=1e-2),
    n_max=st.integers(min_value=2, max_value=40),
)


def assume_condition(ds, dd):
    """Keep only pairs the three-intensity estimator applies to."""
    try:
        assume(check_condition(ds, dd))
    except DegenerateDistributionError:
        reject()


class TestSoundness:
    """On noiseless observables the three-intensity bounds never
    overstate the single-photon channel: y1_lower <= Y1, and
    e1_upper >= e1 wherever y1_lower > 0, to within 1e-12 of rounding."""

    @given(
        pair=source_pairs,
        ch=st.builds(
            ChannelParams,
            eta=st.floats(min_value=-5.0, max_value=0.0).map(lambda x: 10.0**x),
            y0=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-4)),
            e_det=st.floats(min_value=0.0, max_value=0.5),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_noiseless_bounds_are_sound(self, pair, ch):
        ds, dd = pair
        assume_condition(ds, dd)
        obs = noiseless_obs(ds, dd, ch)
        bounds = estimate_bounds(
            obs, ds, dd, fluctuation_bounds(obs, FluctuationPolicy(0.0))
        )
        assert bounds.y1_lower <= yield_n(ch, 1) + 1e-12
        if bounds.y1_lower > 0.0:
            assert bounds.e1_upper >= error_n(ch, 1) - 1e-12


class TestWeakVacuumOracle:
    """On a Poisson signal and decoy, the three-intensity bounds are the
    weak + vacuum closed form of Ma, Qi, Zhao and Lo (2005), which
    :func:`helpers.ref_weak_vacuum_bounds` writes out from the paper.

    Error budget. The estimator reads bins 0..2 of each distribution,
    which the tail fold at n_max 40 leaves alone, and both sides take the
    same observables, so neither the truncation nor the package's gain
    (within criterion 5's 1e-10 of the closed form) enters. What is left
    is rounding: each side evaluates each bound in fewer than
    ``ROUNDINGS`` roundings (the bins, the products, the differences and
    the denominators, whose cancellation is at most 3x at nu <= mu / 2),
    each at most one epsilon of a term. So the two differ by at most
    2 * ROUNDINGS * epsilon times the bound's terms taken in absolute
    value, and e1 inherits Y1's gap on top of its own."""

    ROUNDINGS = 40

    @given(
        mu=st.floats(min_value=0.3, max_value=0.8),
        ratio=st.floats(min_value=0.05, max_value=0.5),
        eta=st.floats(min_value=-5.0, max_value=math.log10(0.3)).map(
            lambda x: 10.0**x
        ),
        y0=st.floats(min_value=-7.0, max_value=-4.0).map(lambda x: 10.0**x),
        e_det=st.floats(min_value=0.0, max_value=0.05),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_equal_the_closed_form(self, mu, ratio, eta, y0, e_det):
        nu = mu * ratio
        q_mu, q_nu = (y0 + 1.0 - math.exp(-eta * m) for m in (mu, nu))
        e_mu = (0.5 * y0 + e_det * (1.0 - math.exp(-eta * mu))) / q_mu
        obs = make_obs(q_mu, q_nu, e_mu, y0)
        bounds = estimate_bounds(
            obs,
            wcs_distribution(mu, 40),
            wcs_distribution(nu, 40),
            fluctuation_bounds(obs, FluctuationPolicy(0.0)),
        )
        y1, e1 = ref_weak_vacuum_bounds(mu, nu, q_mu, q_mu * e_mu, q_nu, y0)

        # each bound's terms in absolute value, relative to the bound
        y1_terms = (mu / (mu * nu - nu * nu)) * (
            q_nu * math.exp(nu) + q_mu * math.exp(mu) * (nu / mu) ** 2 + y0
        ) / y1
        e1_terms = (q_mu * e_mu * math.exp(mu) + 0.5 * y0) / (y1 * mu) / e1
        budget = 2 * self.ROUNDINGS * sys.float_info.epsilon
        assert bounds.flags == ()
        assert abs(bounds.y1_lower - y1) <= budget * y1_terms * y1
        assert abs(bounds.e1_upper - e1) <= budget * (y1_terms + e1_terms) * e1


class TestPrivacyAboveHalf:
    # 1 - H2(e1) rises again above e1 = 1/2, so an uncapped bound that knows
    # nothing of the single-photon errors would still earn key
    @given(
        pair=source_pairs,
        observed=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
        y0_obs=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-3)),
        n_sigma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
    )
    # e1_upper 0.565 with no flag, and g1_term 1.97e-5
    @example(
        pair=(wcs_distribution(0.5), wcs_distribution(0.1)),
        observed=(2e-3, 5e-4, 0.45),
        y0_obs=1e-6,
        n_sigma=0.0,
    )
    @settings(max_examples=200, deadline=None)
    def test_no_single_photon_key_above_half(self, pair, observed, y0_obs, n_sigma):
        ds, dd = pair
        assume_condition(ds, dd)
        q_signal, q_decoy, e_signal = observed
        obs = make_obs(q_signal, q_decoy, e_signal, y0_obs)
        fb = fluctuation_bounds(obs, FluctuationPolicy(n_sigma))
        for bounds in (
            estimate_bounds(obs, ds, dd, fb),
            no_decoy_bounds(q_signal, e_signal, y0_obs, ds),
        ):
            if bounds.e1_upper >= 0.5:
                key = key_rate(q_signal, e_signal, bounds, ProtocolParams())
                assert key.components.g1_term == 0.0, bounds


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
    """The ideal source's no-decoy bound is the infinite-decoy limit:
    the channel's own Y1 and e1."""

    @staticmethod
    def ideal_bounds(ch):
        dist = ideal_sps_distribution()
        point = qber(dist, ch)
        return no_decoy_bounds(point.q_gain, point.qber, ch.y0, dist)

    def test_lossless_channel(self):
        bounds = self.ideal_bounds(ChannelParams(eta=1.0, y0=0.0, e_det=0.025))
        assert bounds.y1_lower == 1.0
        assert bounds.e1_upper == pytest.approx(0.025, abs=1e-15)

    def test_benchmark_channel(self):
        bounds = self.ideal_bounds(bench_channel())
        assert bounds.y1_lower == pytest.approx(2.59189e-4, rel=1e-5)

    def test_three_intensity_bound_never_exceeds_truth(self):
        ds, dd = bench_distributions()
        ch = bench_channel()
        obs = noiseless_obs(ds, dd, ch)
        three = estimate_bounds(
            obs, ds, dd, fluctuation_bounds(obs, FluctuationPolicy(0.0))
        )
        assert three.y1_lower <= yield_n(ch, 1)

    @given(
        ch=st.builds(
            ChannelParams,
            eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            y0=st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=0.99),
                st.floats(min_value=1e-9, max_value=1e-3),
            ),
            e_det=st.floats(min_value=0.0, max_value=0.5),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_no_decoy_bound_is_exact_for_ideal_source(self, ch):
        y1 = yield_n(ch, 1)
        assume(y1 > 0.0 and error_n(ch, 1) <= 1.0)
        bounds = self.ideal_bounds(ch)
        assert bounds.y1_lower == y1
        assert bounds.e1_upper == error_n(ch, 1)
        assert bounds.g0 == 0.0
        assert bounds.g1_lower == y1
        assert bounds.flags == ()
