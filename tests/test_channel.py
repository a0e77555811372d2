import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoyqkd import (
    ChannelParams,
    ExperimentConfig,
    IdealSpsSource,
    ProtocolParams,
    expected_statistics,
    WcsSource,
    HspsSource,
    InvalidParameterError,
    PhotonNumberDistribution,
    UndefinedStatisticError,
    error_n,
    eta_to_loss_db,
    gain,
    hsps_distribution,
    HspsParams,
    ideal_sps_distribution,
    loss_db_to_eta,
    qber,
    wcs_distribution,
    yield_n,
)
from decoyqkd.channel import E0, _channel_terms, _gain, _qber
from decoyqkd.sources import _support
from helpers import (
    BENCH_D_I,
    BENCH_E_DET,
    BENCH_ETA,
    BENCH_MU_SIGNAL,
    BENCH_P_COR,
    BENCH_Y0,
    bench_channel,
    ref_gain,
    ref_qber,
)

VACUUM_ONLY = PhotonNumberDistribution(probs=(1.0, 0.0, 0.0), tail_folded=False)


class TestYield:
    def test_vacuum_yield_is_background(self):
        ch = ChannelParams(eta=0.3, y0=1e-5, e_det=0.02)
        assert yield_n(ch, 0) == 1e-5

    def test_benchmark_single_photon_yield(self):
        assert yield_n(bench_channel(), 1) == pytest.approx(2.59189e-4, rel=1e-5)

    def test_unit_transmittance_saturates(self):
        ch = ChannelParams(eta=1.0, y0=1e-4, e_det=0.02)
        for n in range(1, 6):
            assert yield_n(ch, n) == 1.0

    def test_monotone_in_n_and_eta(self):
        for eta in (1e-4, 0.01, 0.5, 1.0):
            ch = ChannelParams(eta=eta, y0=1e-5, e_det=0.02)
            ys = [yield_n(ch, n) for n in range(12)]
            assert all(b >= a for a, b in zip(ys, ys[1:]))
            assert all(ch.y0 <= y <= 1.0 for y in ys)
        y_by_eta = [
            yield_n(ChannelParams(eta=e, y0=1e-5, e_det=0.02), 3)
            for e in (1e-4, 1e-2, 0.3, 1.0)
        ]
        assert all(b >= a for a, b in zip(y_by_eta, y_by_eta[1:]))


class TestErrorRate:
    def test_vacuum_error_is_background_value(self):
        ch = ChannelParams(eta=0.3, y0=1e-5, e_det=0.02, e0=0.5)
        assert error_n(ch, 0) == 0.5

    def test_lossless_single_photon_error_is_misalignment(self):
        ch = ChannelParams(eta=1.0, y0=0.0, e_det=0.025)
        assert error_n(ch, 1) == pytest.approx(0.025, abs=1e-15)

    def test_benchmark_single_photon_error(self):
        assert error_n(bench_channel(), 1) == pytest.approx(0.03966, abs=1e-5)

    def test_undefined_at_zero_yield(self):
        ch = ChannelParams(eta=0.3, y0=0.0, e_det=0.02)
        with pytest.raises(UndefinedStatisticError, match=r"n=0\)"):
            error_n(ch, 0)

    def test_zero_yield_message_names_the_photon_number(self):
        # 1 - eta rounds to 1, so the single-photon yield underflows too
        ch = ChannelParams(eta=1e-17, y0=0.0, e_det=0.02)
        with pytest.raises(UndefinedStatisticError, match=r"n=1\)"):
            error_n(ch, 1)

    def test_bounded_and_converges_to_misalignment(self):
        ch = ChannelParams(eta=0.05, y0=1e-5, e_det=0.03, e0=0.5)
        errs = [error_n(ch, n) for n in range(1, 400, 20)]
        assert all(e <= 0.5 for e in errs)
        assert errs[-1] == pytest.approx(0.03, rel=1e-2)


class TestGain:
    def test_ideal_source_gain_is_single_photon_yield(self):
        ch = bench_channel()
        assert gain(ideal_sps_distribution(), ch) == yield_n(ch, 1)

    def test_vacuum_only_gain_is_background(self):
        ch = bench_channel()
        assert gain(VACUUM_ONLY, ch) == BENCH_Y0

    def test_poisson_closed_form_identity(self):
        # sum_n P(n) (1 - (1-eta)^n) telescopes to 1 - exp(-eta mu)
        ch = ChannelParams(eta=0.01, y0=1e-5, e_det=0.025)
        q = gain(wcs_distribution(0.1), ch)
        assert q == pytest.approx(1e-5 + 1 - math.exp(-0.01 * 0.1), abs=1e-10)

    def test_closed_form_identity_grid(self):
        # valid wherever the per-photon-number yield never clamps at 1,
        # i.e. (1 - eta)^n >= y0 over the truncated support
        for mu in (1e-3, 0.01, 0.1, 0.5, 1.0):
            for eta in (1e-4, 1e-2, 0.3, 0.5):
                for y0 in (0.0, 1e-5):
                    ch = ChannelParams(eta=eta, y0=y0, e_det=0.025)
                    q = gain(wcs_distribution(mu, n_max=40), ch)
                    assert q == pytest.approx(
                        y0 + 1 - math.exp(-eta * mu), abs=1e-10
                    )
        # lossless corner is exact when there is no background
        ch = ChannelParams(eta=1.0, y0=0.0, e_det=0.025)
        q = gain(wcs_distribution(0.5, n_max=40), ch)
        assert q == pytest.approx(1 - math.exp(-0.5), abs=1e-12)

    def test_monotone_in_eta(self):
        dist = hsps_distribution(HspsParams(BENCH_P_COR, BENCH_MU_SIGNAL, BENCH_D_I))
        qs = [
            gain(dist, ChannelParams(eta=e, y0=1e-5, e_det=0.025))
            for e in (1e-5, 1e-3, 0.1, 1.0)
        ]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_gain_past_one_raises_as_qber_does(self):
        # the folded Poisson bins of a large mu sum past 1 by rounding
        dist = wcs_distribution(55.0, 132)
        ch = ChannelParams(eta=1.0, y0=0.0, e_det=0.01)
        for fn in (gain, qber):
            with pytest.raises(
                InvalidParameterError,
                match=r"^q_gain=1.0000000000000007 outside \[0, 1\]$",
            ):
                fn(dist, ch)

    @pytest.mark.xfail(
        raises=InvalidParameterError,
        reason="a large mu's folded Poisson bins sum past 1 by rounding",
    )
    def test_lossless_gain_of_a_large_mu_is_at_most_one(self):
        # a valid distribution on a valid channel; the mend changes output
        # bits, so it waits for the output-change protocol
        dist = wcs_distribution(55.0, 132)
        assert gain(dist, ChannelParams(eta=1.0, y0=0.0, e_det=0.0)).q_gain <= 1.0


class TestQber:
    def test_vacuum_only_error_is_background(self):
        point = qber(VACUUM_ONLY, bench_channel())
        assert point.qber == pytest.approx(0.5, abs=1e-15)

    def test_ideal_source_error_matches_single_photon(self):
        ch = bench_channel()
        point = qber(ideal_sps_distribution(), ch)
        assert point.qber == pytest.approx(error_n(ch, 1), abs=1e-15)

    def test_benchmark_heralded_source(self):
        dist = hsps_distribution(HspsParams(BENCH_P_COR, BENCH_MU_SIGNAL, BENCH_D_I))
        point = qber(dist, bench_channel())
        assert point.q_gain == pytest.approx(1.10e-4, rel=0.01)
        assert 0.059 <= point.qber <= 0.060

    def test_undefined_at_zero_gain(self):
        ch = ChannelParams(eta=0.3, y0=0.0, e_det=0.02)
        with pytest.raises(UndefinedStatisticError):
            qber(VACUUM_ONLY, ch)

    def test_error_numerator_consistency(self):
        # Q * E must reassemble e0*y0 + e_det * sum_n P(n)(1 - (1-eta)^n)
        for mu in (1e-3, 0.05, 0.3):
            for eta in (1e-4, 0.03, 0.9):
                for y0 in (1e-5, 1e-3):
                    ch = ChannelParams(eta=eta, y0=y0, e_det=0.025)
                    dist = wcs_distribution(mu)
                    point = qber(dist, ch)
                    numerator = math.fsum(
                        dist.p(n)
                        * (ch.e0 * y0 + ch.e_det * (1 - (1 - eta) ** n))
                        for n in range(dist.n_max + 1)
                    )
                    assert abs(point.q_gain * point.qber - numerator) <= 1e-12


channels = st.builds(
    ChannelParams,
    eta=st.floats(min_value=1e-18, max_value=1.0, exclude_min=True),
    y0=st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-3)),
    e_det=st.floats(min_value=0.0, max_value=0.5),
)

# the three source kinds, at truncations up to 40
sources = st.one_of(
    st.builds(WcsSource, st.floats(min_value=0.0, max_value=2.0)),
    st.builds(
        HspsSource,
        st.builds(
            HspsParams,
            p_cor=st.floats(min_value=0.0, max_value=1.0),
            mu_acc=st.floats(min_value=0.0, max_value=0.1),
            d_i=st.floats(min_value=0.0, max_value=1e-2),
        ),
    ),
    st.builds(IdealSpsSource),
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except UndefinedStatisticError as exc:
        return type(exc)


class TestAgainstReference:
    """``gain`` and ``qber`` share the signal terms 1 - (1 - eta)^n of a
    channel between calls; the results stay those of the term-by-term
    sums, bit for bit."""

    @given(source=sources, n_max=st.integers(min_value=2, max_value=40), ch=channels)
    @settings(max_examples=300, deadline=None)
    def test_gain_and_qber_equal_reference(self, source, n_max, ch):
        dist = source.distribution(n_max)
        assert gain(dist, ch) == ref_gain(dist, ch)
        assert outcome(qber, dist, ch) == outcome(ref_qber, dist, ch)

    @given(
        signal=sources,
        decoy=sources,
        vacuum_mu=st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e-3)),
        n_max=st.integers(min_value=2, max_value=40),
        ch=channels,
    )
    @settings(max_examples=200, deadline=None)
    def test_expected_statistics_equal_reference(
        self, signal, decoy, vacuum_mu, n_max, ch
    ):
        cfg = ExperimentConfig(
            source_signal=signal,
            source_decoy=decoy,
            vacuum_mu=vacuum_mu,
            channel=ch,
            protocol=ProtocolParams(),
            total_pulses=10**9,
            n_max=n_max,
        )
        dists = [src.distribution(n_max) for src in (signal, decoy)]
        vacuum = wcs_distribution(vacuum_mu, n_max)

        def reference():
            sig, dec = (ref_qber(d, ch) for d in dists)
            q_vac = ref_gain(vacuum, ch)
            e_vac = ref_qber(vacuum, ch).qber if q_vac > 0.0 else ch.e0
            return (sig.q_gain, sig.qber, dec.q_gain, dec.qber, q_vac, e_vac)

        def package():
            stats = expected_statistics(cfg)
            return (
                stats.q_signal,
                stats.e_signal,
                stats.q_decoy,
                stats.e_decoy,
                stats.q_vacuum,
                stats.e_vacuum,
            )

        assert outcome(package) == outcome(reference)


class TestChannelTerms:
    """``_channel_terms``, the one home of the channel model, gives the
    yields that :func:`yield_n` reads one photon number at a time and the
    written-out QBER numerators bit for bit, and each term depends on its
    own n alone."""

    @given(
        eta=st.floats(min_value=1e-18, max_value=1.0, exclude_min=True),
        y0=st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
        ),
        e_det=st.floats(min_value=0.0, max_value=0.5),
        n_max=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_terms_equal_yield_n_and_written_out_numerators(
        self, eta, y0, e_det, n_max
    ):
        ch = ChannelParams(eta=eta, y0=y0, e_det=e_det)
        yields, numerators = _channel_terms(eta, y0, e_det, n_max)
        assert len(yields) == len(numerators) == n_max + 1
        assert [y.hex() for y in yields] == [
            yield_n(ch, n).hex() for n in range(n_max + 1)
        ]
        assert [x.hex() for x in numerators] == [
            (E0 * y0 + e_det * (1 - (1 - eta) ** n)).hex() for n in range(n_max + 1)
        ]

    @given(
        eta=st.floats(min_value=1e-18, max_value=1.0, exclude_min=True),
        y0=st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
        e_det=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_integer_type_gives_the_int_bits(self, eta, y0, e_det):
        # the terms run over range(), which yields an int for a numpy
        # integer or a bool, so neither takes numpy's pow; at the top of a
        # numpy type's range n + 1 would wrap, so n is read as an int first
        ch = ChannelParams(eta=eta, y0=y0, e_det=e_det)
        for fn in (yield_n, error_n):
            for n in range(21):
                assert fn(ch, np.int64(n)).hex() == fn(ch, n).hex()
            assert fn(ch, True).hex() == fn(ch, 1).hex()
            assert fn(ch, False).hex() == fn(ch, 0).hex()
            for top in (np.int64(2**63 - 1), np.uint64(2**64 - 1)):
                assert fn(ch, top).hex() == fn(ch, int(top)).hex()

    @given(
        eta=st.floats(min_value=1e-18, max_value=1.0, exclude_min=True),
        y0=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        e_det=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_smaller_truncations_are_prefixes(self, eta, y0, e_det):
        yields, numerators = _channel_terms(eta, y0, e_det, 16)
        for n_max in (1, 2):
            assert _channel_terms(eta, y0, e_det, n_max) == (
                yields[: n_max + 1],
                numerators[: n_max + 1],
            )


# the three source kinds at truncations up to 40; distributions whose
# tail bins are zeros of either sign, which the clamp keeps; and vacuum
distributions = st.one_of(
    st.builds(
        lambda source, n_max: source.distribution(n_max),
        sources,
        st.integers(min_value=2, max_value=40),
    ),
    st.builds(
        lambda head, signs: PhotonNumberDistribution(
            probs=(*head, *(-0.0 if s else 0.0 for s in signs))
        ),
        st.sampled_from([(1.0,), (0.5, 0.5), (0.25, 0.5, 0.25)]),
        st.lists(st.booleans(), min_size=2, max_size=38),
    ),
    st.builds(wcs_distribution, st.just(0.0), st.integers(min_value=2, max_value=40)),
)


def folded(dist, ch, n):
    """``float.hex`` of the gain and QBER kernels on the channel terms
    up to n, or the QBER's error."""
    yields, numerators = _channel_terms(ch.eta, ch.y0, ch.e_det, n)
    q = _gain(dist.probs, yields)
    try:
        e = _qber(q, dist.probs, numerators).hex()
    except (UndefinedStatisticError, InvalidParameterError) as exc:
        e = (type(exc), str(exc))
    return q.hex(), e


class TestSupport:
    """The kernels fold a distribution only as far as its channel terms
    go. Terms up to the support, the highest photon number with a nonzero
    P(n), give the bits of terms up to ``n_max``: a zero bin adds a zero
    product, which ``math.fsum`` skips, and an all-zero sum is +0.0."""

    @given(dist=distributions, ch=channels)
    @example(
        dist=PhotonNumberDistribution(probs=(0.5, 0.5, -0.0, 0.0, -0.0)),
        ch=ChannelParams(eta=1e-18, y0=0.0, e_det=0.5),
    )
    @example(dist=wcs_distribution(0.0), ch=ChannelParams(eta=0.5, y0=0.0, e_det=0.1))
    @example(dist=wcs_distribution(0.0), ch=bench_channel())
    @settings(max_examples=300, deadline=None)
    def test_terms_to_the_support_give_the_same_bits(self, dist, ch):
        at_support = folded(dist, ch, _support(dist))
        assert at_support == folded(dist, ch, dist.n_max)
        assert at_support[0] == gain(dist, ch).hex()


class TestLossConversion:
    def test_zero_loss(self):
        assert loss_db_to_eta(0.0) == 1.0

    def test_ten_db(self):
        assert loss_db_to_eta(10.0) == pytest.approx(0.1, rel=1e-12)

    def test_benchmark_loss(self):
        assert loss_db_to_eta(36.0) == pytest.approx(2.51189e-4, rel=1e-5)
        assert BENCH_ETA == loss_db_to_eta(36.0)

    def test_round_trip(self):
        for loss in (0.0, 3.0, 17.5, 60.0):
            assert eta_to_loss_db(loss_db_to_eta(loss)) == pytest.approx(
                loss, abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            loss_db_to_eta(-1.0)
        with pytest.raises(InvalidParameterError):
            eta_to_loss_db(0.0)
        with pytest.raises(InvalidParameterError):
            eta_to_loss_db(1.5)

    def test_underflow_names_the_loss(self):
        # 10^(-323.6) rounds to the smallest subnormal, 10^(-323.7) to 0
        assert loss_db_to_eta(3236.0) == 5e-324
        for loss in (3237.0, 1e308, math.inf):
            with pytest.raises(InvalidParameterError, match=r"^loss_db="):
                loss_db_to_eta(loss)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ChannelParams(eta=0.0, y0=1e-5, e_det=0.02)
        with pytest.raises(InvalidParameterError):
            ChannelParams(eta=0.5, y0=-1e-5, e_det=0.02)
        with pytest.raises(InvalidParameterError):
            ChannelParams(eta=0.5, y0=1e-5, e_det=0.6)
        with pytest.raises(InvalidParameterError):
            ChannelParams(eta=0.5, y0=1e-5, e_det=0.02, e0=1.5)

    @pytest.mark.parametrize("e0", [0.3, 1.0, math.nan, 10**400])
    def test_background_error_is_one_half_only(self, e0):
        # a background click carries nothing of the bit: it errs half the time
        assert ChannelParams(eta=0.5, y0=1e-5, e_det=0.02, e0=0.5).e0 == 0.5
        with pytest.raises(InvalidParameterError, match=r"^e0=\S+ must be 0\.5"):
            ChannelParams(eta=0.5, y0=1e-5, e_det=0.02, e0=e0)
