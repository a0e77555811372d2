import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoyqkd import (
    HspsParams,
    InconsistentDataError,
    InvalidParameterError,
    MeasuredRates,
    PhotonNumberDistribution,
    UndefinedStatisticError,
    WcsSource,
    error_n,
    g2_zero,
    hsps_distribution,
    ideal_sps_distribution,
    infer_accidental_rate,
    infer_correlation,
    wcs_distribution,
    yield_n,
)
from decoyqkd.sources import N_MAX_LIMIT, _support
from helpers import (
    BENCH_D_I,
    BENCH_MU_SIGNAL,
    BENCH_P_COR,
    bench_channel,
    bench_config,
    bench_signal_source,
    ref_distribution_check,
    ref_hsps_distribution,
)

NORM_TOL = 1e-12


def poisson_tail(mu: float, k: int) -> float:
    # independent Poisson tail: P(m >= k) = 1 - sum_{i<k} pmf(i)
    return 1.0 - sum(math.exp(-mu) * mu**i / math.factorial(i) for i in range(k))


class TestWcsDistribution:
    def test_zero_intensity_is_vacuum(self):
        d = wcs_distribution(0.0)
        assert d.p(0) == 1.0
        assert all(d.p(n) == 0.0 for n in range(1, d.n_max + 1))

    def test_single_photon_weight(self):
        d = wcs_distribution(0.1)
        assert d.p(1) == pytest.approx(0.1 * math.exp(-0.1), abs=1e-15)

    def test_benchmark_intensity(self):
        d = wcs_distribution(BENCH_MU_SIGNAL)
        expected = BENCH_MU_SIGNAL * math.exp(-BENCH_MU_SIGNAL)
        assert d.p(1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.2967e-3, rel=1e-4)

    def test_rejects_negative_mu(self):
        with pytest.raises(InvalidParameterError):
            wcs_distribution(-0.1)

    def test_rejects_small_n_max(self):
        with pytest.raises(InvalidParameterError):
            wcs_distribution(0.1, n_max=1)

    @given(st.floats(min_value=0.0, max_value=2.0), st.integers(2, 24))
    @settings(max_examples=100)
    def test_normalized(self, mu, n_max):
        d = wcs_distribution(mu, n_max)
        assert abs(math.fsum(d.probs) - 1.0) <= NORM_TOL


class TestHspsDistribution:
    def test_reduces_to_poisson_without_heralding(self):
        # p_cor = 0, d_i = 0: pure accidental statistics
        mu = 0.02
        h = hsps_distribution(HspsParams(p_cor=0.0, mu_acc=mu, d_i=0.0))
        w = wcs_distribution(mu)
        for n in range(h.n_max):
            assert h.p(n) == pytest.approx(w.p(n), abs=1e-12)

    def test_perfect_heralding(self):
        d = hsps_distribution(HspsParams(p_cor=1.0, mu_acc=0.0, d_i=0.0))
        assert d.p(0) == 0.0
        assert d.p(1) == 1.0
        assert d.p_at_least(2) == 0.0

    def test_benchmark_source_values(self):
        d = hsps_distribution(
            HspsParams(p_cor=BENCH_P_COR, mu_acc=BENCH_MU_SIGNAL, d_i=BENCH_D_I)
        )
        assert d.p(0) == pytest.approx(0.5972, abs=1e-4)
        assert d.p(1) == pytest.approx(0.4007, abs=1e-4)
        assert d.p_at_least(2) == pytest.approx(2.133e-3, abs=1e-6)

    def test_tail_construction_matches_independent_oracle(self):
        p_cor, mu, d_i = 0.3, 0.05, 1e-3
        d = hsps_distribution(HspsParams(p_cor, mu, d_i), n_max=12)

        def herald_tail(k):
            return p_cor * poisson_tail(mu, k - 1) + (1 - p_cor) * poisson_tail(mu, k)

        assert d.p(0) == pytest.approx(p_cor * d_i + (1 - p_cor) * math.exp(-mu))
        for n in range(2, 12):
            assert d.p(n) == pytest.approx(
                herald_tail(n) - herald_tail(n + 1), abs=1e-15
            )
        assert d.p(12) == pytest.approx(herald_tail(12), abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.01),
        st.integers(2, 20),
    )
    @settings(max_examples=150)
    def test_normalized(self, p_cor, mu, d_i, n_max):
        d = hsps_distribution(HspsParams(p_cor, mu, d_i), n_max)
        assert abs(math.fsum(d.probs) - 1.0) <= NORM_TOL

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.01),
    )
    @settings(max_examples=100)
    def test_monotone_tails(self, p_cor, mu, d_i):
        d = hsps_distribution(HspsParams(p_cor, mu, d_i))
        tails = [d.p_at_least(k) for k in range(d.n_max + 1)]
        assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([0.0, -0.0])
        | st.floats(min_value=-8.0, max_value=math.log10(50.0)).map(
            lambda x: 10.0**x
        ),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(2, 256),
    )
    @settings(max_examples=300, deadline=None)
    @example(0.4, BENCH_MU_SIGNAL, BENCH_D_I, 256)
    @example(0.4, -0.0, BENCH_D_I, 16)
    @example(0.0, 50.0, 0.0, 2)
    @example(1.0, 1e-8, 0.5, 256)
    def test_matches_reference_bits(self, p_cor, mu, d_i, n_max):
        params = HspsParams(p_cor, mu, d_i)
        try:
            expected = ref_hsps_distribution(params, n_max)
        except InvalidParameterError:
            with pytest.raises(InvalidParameterError):
                hsps_distribution(params, n_max)
            return
        d = hsps_distribution(params, n_max)
        probs, p_ge1 = expected
        assert [p.hex() for p in d.probs] == [p.hex() for p in probs]
        assert d.p_ge1.hex() == p_ge1.hex()

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            HspsParams(p_cor=1.2, mu_acc=0.01)
        with pytest.raises(InvalidParameterError):
            HspsParams(p_cor=0.5, mu_acc=-1e-3)
        with pytest.raises(InvalidParameterError):
            HspsParams(p_cor=0.5, mu_acc=0.01, d_i=1.0)
        with pytest.raises(InvalidParameterError):
            hsps_distribution(HspsParams(0.4, 0.01), n_max=1)


# every holder of a mean photon number, and the name its message starts with
MEANS = {
    "wcs_distribution": ("mu", wcs_distribution),
    "WcsSource": ("mu", WcsSource),
    "HspsParams": ("mu_acc", lambda mu: HspsParams(BENCH_P_COR, mu)),
    "ExperimentConfig": ("vacuum_mu", lambda mu: replace(bench_config(), vacuum_mu=mu)),
}


class TestMeanPhotonNumber:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -5e-324, 10**400])
    @pytest.mark.parametrize("holder", sorted(MEANS))
    def test_rejects_non_finite_or_negative(self, holder, value):
        name, build = MEANS[holder]
        with pytest.raises(InvalidParameterError, match=rf"^{name}="):
            build(value)

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1e308])
    @pytest.mark.parametrize("holder", sorted(MEANS))
    def test_accepts_finite_non_negative(self, holder, value):
        MEANS[holder][1](value)


# every holder of a photon number or truncation, and the name its message
# starts with
PHOTON_NUMBERS = {
    "p": ("n", lambda n: wcs_distribution(0.1).p(n)),
    "p_at_least": ("k", lambda k: wcs_distribution(0.1).p_at_least(k)),
    "yield_n": ("n", lambda n: yield_n(bench_channel(), n)),
    "error_n": ("n", lambda n: error_n(bench_channel(), n)),
    "wcs_distribution": ("n_max", lambda n_max: wcs_distribution(0.1, n_max)),
    "hsps_distribution": (
        "n_max",
        lambda n_max: hsps_distribution(HspsParams(BENCH_P_COR, 0.01), n_max),
    ),
    "ideal_sps_distribution": ("n_max", ideal_sps_distribution),
    "ExperimentConfig": ("n_max", lambda n_max: replace(bench_config(), n_max=n_max)),
}


class TestPhotonNumber:
    @pytest.mark.parametrize("value", [2.5, 2.0])
    @pytest.mark.parametrize("holder", sorted(PHOTON_NUMBERS))
    def test_only_integers_are_accepted(self, holder, value):
        name, build = PHOTON_NUMBERS[holder]
        # operator.index reads a numpy integer as an int, and the result is
        # that of the int: at n = 6 on the benchmark channel numpy's pow
        # differs from float's in the last bit
        for n in (3, 6):
            assert build(np.int64(n)) == build(n)
        with pytest.raises(InvalidParameterError, match=rf"^{name}={value!r} "):
            build(value)


class TestIdealSps:
    def test_unit_single_photon(self):
        d = ideal_sps_distribution()
        assert d.p(1) == 1.0
        assert d.p(0) == d.p(2) == 0.0

    def test_g2_is_zero(self):
        assert g2_zero(ideal_sps_distribution()) == 0.0


class TestDistributionType:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParameterError):
            PhotonNumberDistribution(probs=(0.5, 0.4, 0.2))

    def test_rejects_short_vector(self):
        with pytest.raises(InvalidParameterError):
            PhotonNumberDistribution(probs=(0.5, 0.5))

    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidParameterError):
            PhotonNumberDistribution(probs=(1.1, -0.1, 0.0))

    def test_clamp_keeps_signed_zeros(self):
        # P(n) = P(n - 1) * mu / n alternates the sign of zero at mu = -0.0;
        # the folded tail is +0.0
        d = wcs_distribution(-0.0)
        zeros = [-0.0 if n % 2 else 0.0 for n in range(1, d.n_max)]
        expected = [1.0, *zeros, 0.0]
        assert [p.hex() for p in d.probs] == [p.hex() for p in expected]

    def test_tail_beyond_truncation_is_zero(self):
        d = wcs_distribution(0.1, n_max=4)
        assert d.p(9) == 0.0
        assert d.p_at_least(9) == 0.0


class _Bins(tuple):
    """A tuple subclass, which the record stores as a plain tuple."""


# bins at and just past every edge of the range check, signed zeros,
# subnormals, and ints a float cannot hold
EDGE_BINS = (
    math.nan,
    math.inf,
    -math.inf,
    NORM_TOL,
    -NORM_TOL,
    math.nextafter(NORM_TOL, 1.0),
    -math.nextafter(NORM_TOL, 1.0),
    1.0 + NORM_TOL,
    math.nextafter(1.0 + NORM_TOL, 2.0),
    1.0,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    0,
    1,
    2,
    -1,
    10**400,
    -(10**400),
)


@st.composite
def bin_vectors(draw):
    """3 to 20 bins, small valid ones mixed with edge bins, often closed to
    a sum of 1 through one bin, as a tuple, a list or a tuple subclass,
    with ``p_ge1`` None or drawn."""
    size = draw(st.integers(min_value=3, max_value=20))
    valid = st.floats(min_value=0.0, max_value=1.0 / size)
    bins = draw(st.lists(valid, min_size=size, max_size=size))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        bins[draw(st.integers(min_value=0, max_value=size - 1))] = draw(
            st.sampled_from(EDGE_BINS)
        )
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=size - 1))
        rest = bins[:i] + bins[i + 1 :]
        if all(-2 <= p <= 2 for p in rest):
            bins[i] = 1.0 - math.fsum(rest)
    shape = draw(st.sampled_from((tuple, list, _Bins)))
    p_ge1 = draw(
        st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(),
            st.sampled_from(EDGE_BINS),
        )
    )
    return shape(bins), p_ge1


def bin_keys(probs):
    return [(type(p), float(p).hex()) for p in probs]


class TestDistributionCheckParity:
    """The one-pass check of :class:`PhotonNumberDistribution` refuses what
    the per-bin check refused, with the same message, and stores the same
    bins as a plain tuple."""

    @settings(max_examples=600, deadline=None)
    @given(case=bin_vectors())
    @example(case=((math.nan, 0.5, 0.5), None))
    @example(case=((0.5, math.nan, 0.5), None))
    @example(case=((0.5, 0.5, math.nan), None))
    @example(case=((0.5, math.nan, math.inf, 0.5), None))
    @example(case=((math.nan, -math.inf, 1.0), None))
    @example(case=((0.5, 0.5, 10**400), None))
    @example(case=((1.0, -(10**400), 0.0), None))
    @example(case=([1.0, NORM_TOL, -NORM_TOL], None))
    @example(case=(_Bins((1.0 + NORM_TOL, -NORM_TOL, 0.0)), 0.5))
    @example(case=((1.0, 0.0, -0.0), math.nan))
    @example(case=((0.5, 0.25, 0.25), 10**400))
    def test_matches_per_bin_reference(self, case):
        probs, p_ge1 = case
        try:
            expected = ref_distribution_check(probs, p_ge1)
        except InvalidParameterError as exc:
            with pytest.raises(InvalidParameterError) as info:
                PhotonNumberDistribution(probs, True, p_ge1)
            assert str(info.value) == str(exc)
            return
        dist = PhotonNumberDistribution(probs, True, p_ge1)
        assert type(dist.probs) is tuple
        assert bin_keys(dist.probs) == bin_keys(expected)


class TestSupport:
    """``_support`` is the highest photon number with a nonzero P(n): the
    channel sums run to it, so a sweep point of the bench template
    computes 8 terms, not 17."""

    @pytest.mark.parametrize("n_max", [16, N_MAX_LIMIT])
    def test_bench_heralded_signal_ends_at_seven(self, n_max):
        # the accidentals' Poisson prefix sum rounds to 1 at seven terms,
        # so P(m >= 8) is 0 at any truncation past it
        assert _support(bench_signal_source().distribution(n_max)) == 7

    def test_ideal_source_ends_at_one(self):
        assert _support(ideal_sps_distribution()) == 1

    @pytest.mark.parametrize("mu", [0.0, -0.0])
    def test_vacuum_ends_at_zero(self, mu):
        assert _support(wcs_distribution(mu)) == 0

    def test_several_distributions_take_the_largest(self):
        dists = (wcs_distribution(0.0, 40), bench_signal_source().distribution(3))
        assert _support(*dists) == 3
        assert _support(*dists, ideal_sps_distribution()) == 3


class TestG2:
    def test_poisson_limit_is_one(self):
        d = wcs_distribution(1e-4, n_max=8)
        assert abs(g2_zero(d) - 1.0) < 1e-3

    def test_benchmark_hsps_strongly_sub_poissonian(self):
        d = hsps_distribution(
            HspsParams(BENCH_P_COR, BENCH_MU_SIGNAL, BENCH_D_I)
        )
        assert g2_zero(d) == pytest.approx(0.0263, abs=1e-4)

    def test_uses_emission_tail_not_corrected_vacuum(self):
        # the herald dark-count correction shifts 1 - P(0) but not the
        # emission statistics entering the auto-correlation
        params = HspsParams(BENCH_P_COR, BENCH_MU_SIGNAL, d_i=1e-3)
        d = hsps_distribution(params)
        p_ge1_emission = params.p_cor + (1 - params.p_cor) * (
            1 - math.exp(-params.mu_acc)
        )
        assert d.p_at_least(1) == pytest.approx(p_ge1_emission, rel=1e-12)
        assert 1.0 - d.p(0) == pytest.approx(
            p_ge1_emission - params.p_cor * params.d_i, rel=1e-9
        )

    def test_decreasing_in_correlation(self):
        for mu in (1e-3, 0.05, 0.1):
            g2s = [
                g2_zero(hsps_distribution(HspsParams(p / 10, mu, 1e-3)))
                for p in range(1, 10)
            ]
            assert all(b < a for a, b in zip(g2s, g2s[1:]))

    def test_undefined_on_vacuum(self):
        with pytest.raises(UndefinedStatisticError):
            g2_zero(wcs_distribution(0.0))


def forward_random_rate(r0, ds, eta_s, gate, r_s):
    # detection model under random gating
    p_acc = 1 - math.exp(-eta_s * r_s * gate)
    return r0 * (1 - (1 - p_acc) * (1 - ds / r0))


def forward_coincidence_rate(r0, ds, eta_s, gate, r_s, p_cor):
    p_acc = 1 - math.exp(-eta_s * r_s * gate)
    return r0 * (1 - (1 - p_cor) * (1 - p_acc) * (1 - ds / r0))


class TestRateInference:
    def make_rates(self, r0, ds, eta_s, gate, r_s, p_cor):
        rs = forward_random_rate(r0, ds, eta_s, gate, r_s)
        rc = forward_coincidence_rate(r0, ds, eta_s, gate, r_s, p_cor)
        return MeasuredRates(
            r0_hz=r0, rs_hz=rs, rc_hz=rc, ds_hz=ds, eta_s=eta_s, gate_time_s=gate
        )

    def test_dark_counts_only_gives_zero_flux(self):
        m = MeasuredRates(1e6, 1e3, 1e3, 1e3, 0.1, 2.5e-9)
        assert infer_accidental_rate(m) == 0.0

    def test_flux_scales_inversely_with_efficiency(self):
        kw = dict(r0_hz=1e6, rs_hz=5e3, rc_hz=4e5, ds_hz=1e3, gate_time_s=2.5e-9)
        r1 = infer_accidental_rate(MeasuredRates(eta_s=0.1, **kw))
        r2 = infer_accidental_rate(MeasuredRates(eta_s=0.2, **kw))
        assert r2 == pytest.approx(r1 / 2, rel=1e-12)

    def test_round_trip_grid(self):
        import numpy as np

        rng = np.random.default_rng(20240501)
        for _ in range(150):
            r0 = rng.uniform(1e4, 1e7)
            eta_s = rng.uniform(0.05, 1.0)
            gate = rng.uniform(0.5e-9, 5e-9)
            r_s = rng.uniform(1e3, 1e9)
            ds = rng.uniform(0.0, 0.01) * r0
            p_cor = rng.uniform(0.0, 1.0)
            m = self.make_rates(r0, ds, eta_s, gate, r_s, p_cor)
            r_s_hat = infer_accidental_rate(m)
            assert r_s_hat == pytest.approx(r_s, rel=1e-10)
            p_cor_hat = infer_correlation(m, r_s_hat)
            assert p_cor_hat == pytest.approx(p_cor, rel=1e-10, abs=1e-10)

    def test_correlation_boundaries(self):
        # every gate fires: perfect correlation
        m = MeasuredRates(1e6, 5e3, 1e6, 0.0, 0.1, 2.5e-9)
        r_s = infer_accidental_rate(m)
        assert infer_correlation(m, r_s) == pytest.approx(1.0, abs=1e-12)
        # coincidences fully explained by accidentals and dark counts
        m0 = self.make_rates(1e6, 1e3, 0.1, 2.5e-9, 1e7, 0.0)
        assert infer_correlation(m0, infer_accidental_rate(m0)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_inconsistent_coincidences_rejected(self):
        # fewer coincidences than accidentals alone can explain
        m = self.make_rates(1e6, 1e3, 0.5, 2.5e-9, 5e8, 0.0)
        bad = MeasuredRates(
            r0_hz=m.r0_hz,
            rs_hz=m.rs_hz,
            rc_hz=m.rc_hz * 0.5,
            ds_hz=m.ds_hz,
            eta_s=m.eta_s,
            gate_time_s=m.gate_time_s,
        )
        with pytest.raises(InconsistentDataError):
            infer_correlation(bad, infer_accidental_rate(bad))

    def test_correlation_past_the_float_range_of_the_exponential(self):
        def rates(rc_hz):
            return MeasuredRates(
                r0_hz=1e6,
                rs_hz=1e5,
                rc_hz=rc_hz,
                ds_hz=100.0,
                eta_s=1.0,
                gate_time_s=1.0,
            )

        # exp(1e300) overflows: with no gate missed the correlation is 1
        assert infer_correlation(rates(1e6), 1e300) == 1.0
        # and with any gate missed, no correlation explains the rates
        with pytest.raises(InconsistentDataError, match=r"^inferred correlation -inf"):
            infer_correlation(rates(5e5), 1e300)

    def test_invariant_violations_rejected(self):
        with pytest.raises(InvalidParameterError):
            MeasuredRates(1e6, 2e6, 1e5, 1e3, 0.1, 2.5e-9)  # rs >= r0
        with pytest.raises(InvalidParameterError):
            MeasuredRates(1e6, 1e3, 1e5, 5e3, 0.1, 2.5e-9)  # ds > rs
        with pytest.raises(InvalidParameterError):
            MeasuredRates(1e6, 1e3, 1e5, 1e2, 0.0, 2.5e-9)  # eta_s = 0
