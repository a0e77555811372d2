import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyqkd import (
    BoundsResult,
    InvalidParameterError,
    ProtocolParams,
    binary_entropy,
    key_rate,
    secure_bits,
)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_near_canonical_threshold(self):
        # H2 crosses 1/2 just above x = 0.11; independent scalar
        # evaluation gives H2(0.11) = 0.4999160
        assert binary_entropy(0.11) == pytest.approx(0.4999160, abs=1e-6)
        assert binary_entropy(0.11) < 0.5 < binary_entropy(0.1101)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            binary_entropy(-0.1)
        with pytest.raises(InvalidParameterError):
            binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_maximum_at_half(self):
        grid = [k / 200 for k in range(201)]
        values = [binary_entropy(x) for x in grid]
        assert max(values) == values[100]


def bounds(y1=0.0, e1=1.0, g0=0.0, g1=0.0, flags=()):
    return BoundsResult(y1_lower=y1, e1_upper=e1, g0=g0, g1_lower=g1, flags=flags)


class TestKeyRate:
    def test_no_single_photon_gain_floors_at_zero(self):
        result = key_rate(1e-4, 0.05, bounds(), ProtocolParams())
        assert result.rate_per_pulse == 0.0
        assert result.negative
        assert result.components.raw_rate < 0.0

    def test_perfect_channel_reaches_sifting_limit(self):
        result = key_rate(
            1.0, 0.0, bounds(y1=1.0, e1=0.0, g0=0.0, g1=1.0), ProtocolParams(q_sift=0.5)
        )
        assert result.rate_per_pulse == 0.5
        assert not result.negative

    def test_monotone_in_error_bound(self):
        rates = [
            key_rate(
                1e-4, 0.03, bounds(e1=e1, g1=5e-5), ProtocolParams()
            ).components.raw_rate
            for e1 in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
        ]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_monotone_in_single_photon_gain(self):
        rates = [
            key_rate(
                1e-4, 0.03, bounds(e1=0.05, g1=g1), ProtocolParams()
            ).components.raw_rate
            for g1 in (0.0, 2e-5, 5e-5, 9e-5)
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_shannon_limit_zero_crossing(self):
        # with f_ec = 1, e1 = E, G0 = 0 and G1 = Q the bracket reduces to
        # q Q (1 - 2 H2(E)), crossing zero where H2(E) = 1/2
        q_gain = 1e-3
        p = ProtocolParams(q_sift=0.5, f_ec=1.0)

        def reduced(e):
            b = bounds(e1=e, g1=q_gain)
            r = key_rate(q_gain, e, b, p).components.raw_rate
            expected = 0.5 * q_gain * (1.0 - 2.0 * binary_entropy(e))
            assert r == pytest.approx(expected, rel=1e-12)
            return r

        assert reduced(0.10) > 0.0
        assert reduced(0.12) < 0.0

    def test_rate_linear_in_sifting_factor(self):
        b = bounds(e1=0.05, g0=1e-6, g1=5e-5)
        r_half = key_rate(1e-4, 0.03, b, ProtocolParams(q_sift=0.5))
        r_quarter = key_rate(1e-4, 0.03, b, ProtocolParams(q_sift=0.25))
        assert r_quarter.rate_per_pulse == pytest.approx(
            r_half.rate_per_pulse / 2, rel=1e-12
        )

    def test_secure_bits_attached_when_pulses_given(self):
        result = key_rate(
            1e-4,
            0.03,
            bounds(e1=0.05, g0=1e-6, g1=5e-5),
            ProtocolParams(),
            n_signal=10**9,
        )
        assert result.secure_bits == math.floor(result.rate_per_pulse * 10**9)

    def test_pulse_count_must_be_an_integer(self):
        with pytest.raises(InvalidParameterError, match=r"^n_signal=1000000000.0 must"):
            key_rate(1e-4, 0.03, bounds(), ProtocolParams(), n_signal=1e9)

    def test_input_validation(self):
        with pytest.raises(InvalidParameterError):
            key_rate(1.5, 0.03, bounds(), ProtocolParams())
        with pytest.raises(InvalidParameterError):
            key_rate(1e-4, 1.5, bounds(), ProtocolParams())


class TestEntropyInputsAreChecked:
    """The rate kernels take H2 unchecked; every input they get is
    checked on its way in, with these exact messages."""

    @pytest.mark.parametrize("x", [math.nan, -0.1, 1.5, math.inf])
    def test_signal_qber_checked_by_key_rate(self, x):
        with pytest.raises(InvalidParameterError) as info:
            key_rate(1e-4, x, bounds(e1=0.05, g1=5e-5), ProtocolParams())
        assert str(info.value) == f"e_signal={x!r} outside [0, 1]"

    @pytest.mark.parametrize("x", [math.nan, -0.1, 1.5, math.inf])
    def test_e1_bound_checked_by_its_record(self, x):
        with pytest.raises(InvalidParameterError) as info:
            bounds(e1=x)
        assert str(info.value) == f"e1_upper={x!r} outside [0, 1]"

    @pytest.mark.parametrize("x", [math.nan, -0.1, 1.5, math.inf])
    def test_binary_entropy_keeps_its_check(self, x):
        with pytest.raises(InvalidParameterError) as info:
            binary_entropy(x)
        assert str(info.value) == f"x={x!r} outside [0, 1]"


class TestSecureBits:
    def test_zero_rate(self):
        assert secure_bits(0.0, 10**9) == 0

    def test_reference_product(self):
        assert secure_bits(5.065e-6, 10**9) == 5065

    def test_single_bit(self):
        assert secure_bits(1e-6, 10**6) == 1

    @pytest.mark.parametrize("n_signal", [2.5e9, 2**0.5], ids=["2.5e9", "sqrt2"])
    def test_count_must_be_an_integer(self, n_signal):
        message = r"^n_signal=.* must be an integer"
        with pytest.raises(InvalidParameterError, match=message):
            secure_bits(1e-6, n_signal)

    def test_numpy_integer_count_gives_the_int_result(self):
        bits = secure_bits(5.065e-6, np.int64(10**9))
        assert type(bits) is int and bits == secure_bits(5.065e-6, 10**9)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            secure_bits(-1e-6, 10**6)

    @pytest.mark.parametrize(
        "rate, n_signal",
        [(1e308, 2**63), (math.inf, 0), (math.inf, 10**6), (1.0, 10**400)],
        ids=["overflow", "inf-times-zero", "inf", "int-past-float-range"],
    )
    def test_product_must_be_finite(self, rate, n_signal):
        with pytest.raises(InvalidParameterError, match=r"rate=.*n_signal="):
            secure_bits(rate, n_signal)


class TestProtocolParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ProtocolParams(q_sift=0.0)
        with pytest.raises(InvalidParameterError):
            ProtocolParams(q_sift=1.5)
        with pytest.raises(InvalidParameterError):
            ProtocolParams(f_ec=0.9)
