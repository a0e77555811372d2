"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and enforces its stated tolerance and runtime budget. Run via

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from decoyqkd import (
    ChannelParams,
    FluctuationPolicy,
    HspsParams,
    MeasuredRates,
    PhotonNumberDistribution,
    ProtocolParams,
    Scheme,
    SchemeKind,
    ThreeIntensityObservation,
    check_condition,
    error_n,
    estimate_bounds,
    estimate_y1_lower,
    expected_statistics,
    fluctuation_bounds,
    gain,
    hsps_distribution,
    infer_accidental_rate,
    infer_correlation,
    key_rate,
    optimize_mu,
    qber,
    sample_counts,
    scan_loss,
    wcs_distribution,
    wcs_infinite_decoy_rate,
    yield_n,
)
from decoyqkd.cli import main
from helpers import (
    BENCH_D_I,
    BENCH_F_EC,
    BENCH_MU_DECOY,
    BENCH_MU_SIGNAL,
    BENCH_N_SIGNAL,
    BENCH_P_COR,
    BENCH_Q_SIFT,
    BENCH_Y0,
    REF_E_SIGNAL,
    REF_KEY_RATE,
    REF_Q_DECOY,
    REF_Q_SIGNAL,
    REF_SECURE_BITS,
    bench_channel,
    bench_config,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


class TestCriterion1ReferenceKeyRate:
    """Reference-session key rate from the measured observables."""

    def test_reference_observables_reproduce_key_rate(self):
        start = time.perf_counter()
        dist_signal = hsps_distribution(
            HspsParams(BENCH_P_COR, BENCH_MU_SIGNAL, BENCH_D_I)
        )
        dist_decoy = hsps_distribution(
            HspsParams(BENCH_P_COR, BENCH_MU_DECOY, BENCH_D_I)
        )
        obs = ThreeIntensityObservation(
            q_signal=REF_Q_SIGNAL,
            q_decoy=REF_Q_DECOY,
            e_signal=REF_E_SIGNAL,
            e_decoy=None,
            y0_obs=BENCH_Y0,
            n_signal=1_000_000_000,
            n_decoy=400_000_000,
            n_vacuum=100_000_000,
        )
        bounds = estimate_bounds(
            obs,
            dist_signal,
            dist_decoy,
            fluctuation_bounds(obs, FluctuationPolicy(10.0)),
        )
        result = key_rate(
            obs.q_signal,
            obs.e_signal,
            bounds,
            ProtocolParams(q_sift=BENCH_Q_SIFT, f_ec=BENCH_F_EC),
            n_signal=BENCH_N_SIGNAL,
        )
        elapsed = time.perf_counter() - start

        rate_delta = (result.rate_per_pulse - REF_KEY_RATE) / REF_KEY_RATE
        rate_err = abs(rate_delta)
        bits_err = abs(result.secure_bits - REF_SECURE_BITS) / REF_SECURE_BITS
        ok = rate_err <= 0.15 and bits_err <= 0.15 and elapsed < 1.0
        report(
            "criterion 1 (reference key rate)",
            ok,
            f"R={result.rate_per_pulse:.4e} vs {REF_KEY_RATE:.4e} "
            f"({rate_delta:+.1%}), bits={result.secure_bits} vs "
            f"{REF_SECURE_BITS}, {elapsed:.2f}s",
        )
        assert rate_err <= 0.15, (
            f"key rate {result.rate_per_pulse:.4e} deviates {rate_delta:+.1%} "
            f"from the reference {REF_KEY_RATE:.4e} (allowed 15%)"
        )
        assert bits_err <= 0.15, (
            f"secure bits {result.secure_bits} deviate {bits_err:.1%} "
            f"from the reference {REF_SECURE_BITS} (allowed 15%)"
        )
        assert elapsed < 1.0


class TestCriterion2ForwardModel:
    """Forward channel model reproduces the measured gain and QBER."""

    def test_expected_statistics_match_reference(self):
        start = time.perf_counter()
        stats = expected_statistics(bench_config())
        elapsed = time.perf_counter() - start

        q_delta = (stats.q_signal - REF_Q_SIGNAL) / REF_Q_SIGNAL
        e_delta = (stats.e_signal - REF_E_SIGNAL) / REF_E_SIGNAL
        q_err, e_err = abs(q_delta), abs(e_delta)
        ok = q_err <= 0.15 and e_err <= 0.15 and elapsed < 1.0
        report(
            "criterion 2 (forward model)",
            ok,
            f"Q={stats.q_signal:.3e} ({q_delta:+.1%}), "
            f"E={stats.e_signal:.4f} ({e_delta:+.1%}), {elapsed:.2f}s",
        )
        assert q_err <= 0.15
        assert e_err <= 0.15
        assert elapsed < 1.0


class TestCriterion3SchemeComparison:
    """Loss-sweep comparison: tolerable-loss ordering across schemes."""

    def test_six_scheme_sweep_ordering(self):
        start = time.perf_counter()
        cfg = bench_config(q_sift=0.5, vacuum_mu=0.0)
        grid = [round(0.5 * k, 6) for k in range(121)]  # 0..60 dB
        schemes = {
            "a": Scheme(SchemeKind.WCS_NO_DECOY),
            "b": Scheme(SchemeKind.HSPS_NO_DECOY),
            "c": Scheme(SchemeKind.WCS_DECOY_INF_OPT),
            "d": Scheme(SchemeKind.HSPS_DECOY, p_cor=0.40),
            "e": Scheme(SchemeKind.HSPS_DECOY, p_cor=0.70),
            "f": Scheme(SchemeKind.IDEAL_SPS),
        }
        curves = {k: scan_loss(cfg, s, grid) for k, s in schemes.items()}
        elapsed = time.perf_counter() - start

        cutoff = {k: c.cutoff_db for k, c in curves.items()}
        assert all(v is not None for v in cutoff.values())
        ordering_ok = (
            cutoff["a"] < cutoff["b"]
            and cutoff["a"] < cutoff["c"]
            < cutoff["d"]
            < cutoff["e"]
            < cutoff["f"]
        )

        def pointwise_below(lo, hi):
            return all(
                rl < rh
                for rl, rh in zip(curves[lo].rate, curves[hi].rate)
                if rl > 0.0 and rh > 0.0
            )

        pointwise_ok = all(
            pointwise_below(lo, hi)
            for lo, hi in (("a", "b"), ("a", "c"), ("c", "d"), ("d", "e"), ("e", "f"))
        )
        monotone_ok = all(
            all(b <= a + 1e-15 for a, b in zip(c.rate, c.rate[1:]))
            for c in curves.values()
        )
        ok = ordering_ok and pointwise_ok and monotone_ok and elapsed < 30.0
        report(
            "criterion 3 (scheme comparison)",
            ok,
            "cutoffs "
            + " ".join(f"{k}={cutoff[k]:.1f}" for k in "abcdef")
            + f", {elapsed:.2f}s",
        )
        assert ordering_ok, f"cutoff ordering violated: {cutoff}"
        assert pointwise_ok
        assert monotone_ok
        assert elapsed < 30.0


class TestCriterion4EstimatorSoundness:
    """Estimator never overstates the single-photon channel."""

    def test_soundness_on_random_grid(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20240777)
        pol = FluctuationPolicy(0.0)
        checked = 0
        for _ in range(200):
            eta = 10.0 ** rng.uniform(-5.0, 0.0)
            y0 = rng.uniform(0.0, 1e-4)
            p_cor = rng.uniform(0.0, 0.9)
            mu_s = 10.0 ** rng.uniform(math.log10(1e-4), math.log10(0.2))
            ch = ChannelParams(eta=eta, y0=y0, e_det=0.025)
            ds = hsps_distribution(HspsParams(p_cor, mu_s, 1e-3))
            dd = hsps_distribution(HspsParams(p_cor, mu_s / 8.0, 1e-3))
            if not check_condition(ds, dd):
                continue
            point = qber(ds, ch)
            obs = ThreeIntensityObservation(
                q_signal=point.q_gain,
                q_decoy=gain(dd, ch),
                e_signal=point.qber,
                e_decoy=None,
                y0_obs=y0,
                n_signal=10**9,
                n_decoy=10**9,
                n_vacuum=10**9,
            )
            bounds = estimate_bounds(obs, ds, dd, fluctuation_bounds(obs, pol))
            assert bounds.y1_lower <= yield_n(ch, 1) + 1e-12
            if bounds.y1_lower > 0.0:
                assert bounds.e1_upper >= error_n(ch, 1) - 1e-12
            checked += 1

        # exactness when only one- and two-photon pulses occur
        toy_signal = PhotonNumberDistribution(probs=(0.0, 0.5, 0.5), tail_folded=False)
        toy_decoy = PhotonNumberDistribution(probs=(0.0, 0.9, 0.1), tail_folded=False)
        toy_obs = ThreeIntensityObservation(
            q_signal=0.3,
            q_decoy=0.22,
            e_signal=0.0,
            e_decoy=None,
            y0_obs=0.0,
            n_signal=1,
            n_decoy=1,
            n_vacuum=1,
        )
        toy_y1, _ = estimate_y1_lower(
            fluctuation_bounds(toy_obs, pol), toy_signal, toy_decoy
        )
        toy_err = abs(toy_y1 - 0.2)
        elapsed = time.perf_counter() - start

        ok = checked >= 150 and toy_err <= 1e-12 and elapsed < 10.0
        report(
            "criterion 4 (estimator soundness)",
            ok,
            f"{checked}/200 grid points checked, toy error {toy_err:.1e}, "
            f"{elapsed:.2f}s",
        )
        assert checked >= 150
        assert toy_err <= 1e-12
        assert elapsed < 10.0


class TestCriterion5OracleEquivalences:
    """Closed forms, inversion round trips and the optimizer agree with
    their brute-force counterparts."""

    def test_oracles(self):
        start = time.perf_counter()

        # Poisson closed-form gain identity on a 50-point grid, drawn
        # where the per-photon-number yield never clamps at one
        rng = np.random.default_rng(11)
        for _ in range(50):
            mu = 10.0 ** rng.uniform(-3.0, 0.0)
            eta = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
            y0 = rng.uniform(0.0, 1e-4)
            ch = ChannelParams(eta=eta, y0=y0, e_det=0.025)
            q = gain(wcs_distribution(mu, n_max=40), ch)
            closed = y0 + 1.0 - math.exp(-eta * mu)
            assert abs(q - closed) <= 1e-10

        # measurement-inversion round trips on 100 random points
        for _ in range(100):
            r0 = rng.uniform(1e4, 1e7)
            eta_s = rng.uniform(0.05, 1.0)
            gate = rng.uniform(0.5e-9, 5e-9)
            r_s = rng.uniform(1e3, 1e9)
            ds = rng.uniform(0.0, 0.01) * r0
            p_cor = rng.uniform(0.0, 1.0)
            p_acc = 1.0 - math.exp(-eta_s * r_s * gate)
            rs = r0 * (1.0 - (1.0 - p_acc) * (1.0 - ds / r0))
            rc = r0 * (1.0 - (1.0 - p_cor) * (1.0 - p_acc) * (1.0 - ds / r0))
            m = MeasuredRates(
                r0_hz=r0, rs_hz=rs, rc_hz=rc, ds_hz=ds, eta_s=eta_s, gate_time_s=gate
            )
            r_s_hat = infer_accidental_rate(m)
            assert abs(r_s_hat - r_s) / r_s <= 1e-10
            p_cor_hat = infer_correlation(m, r_s_hat)
            assert abs(p_cor_hat - p_cor) <= 1e-10 * max(p_cor, 1.0)

        # optimizer vs dense grid
        ch = bench_channel()
        protocol = ProtocolParams()
        opt = optimize_mu(ch, protocol)
        dense = max(
            wcs_infinite_decoy_rate(mu, ch, protocol)
            for mu in np.linspace(1e-4, 1.0, 10_000)
        )
        opt_err = abs(opt.rate - dense)
        elapsed = time.perf_counter() - start

        ok = opt_err <= 1e-9 and elapsed < 10.0
        report(
            "criterion 5 (oracle equivalences)",
            ok,
            f"optimizer-vs-grid {opt_err:.1e}, {elapsed:.2f}s",
        )
        assert opt_err <= 1e-9
        assert elapsed < 10.0


class TestCriterion6DistributionSuite:
    """Source statistics: normalization, Poisson reduction, benchmark
    single-photon fraction and sub-Poissonian character."""

    def test_distribution_suite(self):
        start = time.perf_counter()
        from decoyqkd import g2_zero

        for mu in (0.0, 1e-4, 5.325e-3, 0.1, 0.7):
            d = wcs_distribution(mu)
            assert abs(math.fsum(d.probs) - 1.0) <= 1e-12
        for p_cor in (0.0, 0.4, 0.9):
            for mu in (1e-4, 5.325e-3, 0.1):
                d = hsps_distribution(HspsParams(p_cor, mu, 1e-3))
                assert abs(math.fsum(d.probs) - 1.0) <= 1e-12

        h = hsps_distribution(HspsParams(0.0, 0.05, 0.0))
        w = wcs_distribution(0.05)
        reduction_err = max(
            abs(h.p(n) - w.p(n)) for n in range(h.n_max)
        )
        assert reduction_err <= 1e-12

        bench = hsps_distribution(
            HspsParams(BENCH_P_COR, BENCH_MU_SIGNAL, BENCH_D_I)
        )
        p1 = bench.p(1)
        g2 = g2_zero(bench)
        elapsed = time.perf_counter() - start

        ok = 0.395 <= p1 <= 0.405 and g2 < 0.05 and elapsed < 1.0
        report(
            "criterion 6 (distribution suite)",
            ok,
            f"P(1)={p1:.4f}, g2={g2:.4f}, {elapsed:.2f}s",
        )
        assert 0.395 <= p1 <= 0.405
        assert g2 < 0.05
        assert elapsed < 1.0


class TestCriterion7Determinism:
    """Seeded CLI runs are byte-for-byte reproducible."""

    def test_session_and_curve_determinism(self, tmp_path):
        start = time.perf_counter()
        import json

        doc = {
            "source": {
                "signal": {"kind": "hsps", "p_cor": 0.40, "mu_acc": 5.325e-3},
                "decoy": {"kind": "hsps", "p_cor": 0.40, "mu_acc": 6.600e-4},
                "vacuum_mu": 0.577e-5,
            },
            "channel": {
                "loss_db": 36.0,
                "y0_per_gate": 0.8e-5,
                "e_detector": 0.025,
            },
            "protocol": {"q_sift": 0.25, "f_ec": 1.22},
            "run": {
                "total_pulses": 1_500_000_000,
                "n_sigma": 10.0,
                "rng_seed": 42,
                "mode": "sampled",
            },
        }
        cfg = tmp_path / "session.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")

        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["session", "--config", str(cfg), "--out", str(r1)]) == 0
        assert main(["session", "--config", str(cfg), "--out", str(r2)]) == 0
        session_identical = r1.read_bytes() == r2.read_bytes()

        c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        curve_args = [
            "curve",
            "--config",
            str(cfg),
            "--schemes",
            "hsps-decoy:0.40,ideal-sps",
            "--loss-from",
            "0",
            "--loss-to",
            "30",
            "--loss-step",
            "5",
        ]
        assert main(curve_args + ["--out", str(c1)]) == 0
        assert main(curve_args + ["--out", str(c2)]) == 0
        curve_identical = c1.read_bytes() == c2.read_bytes()
        elapsed = time.perf_counter() - start

        ok = session_identical and curve_identical and elapsed < 5.0
        report(
            "criterion 7 (determinism)",
            ok,
            f"session identical={session_identical}, "
            f"curve identical={curve_identical}, {elapsed:.2f}s",
        )
        assert session_identical
        assert curve_identical
        assert elapsed < 5.0
