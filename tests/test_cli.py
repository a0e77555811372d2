import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from decoyqkd.cli import main
from decoyqkd.config import (
    config_sha256,
    dump_json,
    experiment_from_dict,
    experiment_to_dict,
    format_float,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SESSION_DOC = {
    "source": {
        "signal": {"kind": "hsps", "p_cor": 0.40, "mu_acc": 5.325e-3, "d_i": 1.0e-3},
        "decoy": {"kind": "hsps", "p_cor": 0.40, "mu_acc": 6.600e-4, "d_i": 1.0e-3},
        "vacuum_mu": 0.577e-5,
        "n_max": 16,
    },
    "channel": {
        "loss_db": 36.0,
        "y0_per_gate": 0.8e-5,
        "e_detector": 0.025,
        "e0_background": 0.5,
    },
    "protocol": {"q_sift": 0.25, "f_ec": 1.22},
    "run": {
        "total_pulses": 1_500_000_000,
        "intensity_ratio": [10, 4, 1],
        "n_sigma": 10.0,
        "rng_seed": 7,
        "mode": "sampled",
    },
}

RATES_DOC = {
    "rates": {
        "r0_hz": 1.0e6,
        "rs_hz": 8.0e3,
        "rc_hz": 4.05e5,
        "ds_hz": 1.0e3,
        "eta_s": 0.10,
        "gate_time_ns": 2.5,
    }
}


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestConfigRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        cfg1, mode1 = experiment_from_dict(SESSION_DOC)
        doc2 = experiment_to_dict(cfg1, mode1)
        cfg2, mode2 = experiment_from_dict(doc2)
        doc3 = experiment_to_dict(cfg2, mode2)
        assert doc2 == doc3
        assert mode1 == mode2

    def test_hash_stable_across_reserialization(self):
        cfg, mode = experiment_from_dict(SESSION_DOC)
        doc2 = experiment_to_dict(cfg, mode)
        doc3 = experiment_to_dict(experiment_from_dict(doc2)[0], mode)
        assert config_sha256(doc2) == config_sha256(doc3)

    def test_float_format_is_locale_independent(self):
        assert format_float(5.065e-6) == "5.06500000e-06"
        assert format_float(1.5e9) == "1.50000000e+09"

    def test_dump_json_is_valid_json(self):
        text = dump_json({"a": 1.5, "b": [True, None, "x"], "c": {"d": 3}})
        assert json.loads(text) == {"a": 1.5, "b": [True, None, "x"], "c": {"d": 3}}


class TestSessionCommand:
    def test_deterministic_reports(self, tmp_path, capsys):
        cfg = write_doc(tmp_path / "s.json", SESSION_DOC)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["session", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["session", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_sampled_report(self, tmp_path):
        cfg = write_doc(tmp_path / "s.json", SESSION_DOC)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["session", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["session", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_report_contents(self, tmp_path):
        cfg = write_doc(tmp_path / "s.json", SESSION_DOC)
        out = tmp_path / "r.json"
        assert main(["session", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["report"] == "session"
        assert report["mode"] == "sampled"
        assert report["condition_ok"] is True
        assert "y1_lower" in report["bounds"]
        assert "flags" in report["bounds"]
        assert report["key_rate"]["secure_bits"] >= 0
        assert "counts" in report

    def test_manifest_sidecar(self, tmp_path):
        cfg = write_doc(tmp_path / "s.json", SESSION_DOC)
        out = tmp_path / "r.json"
        main(["session", "--config", cfg, "--out", str(out)])
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["config_sha256"] == config_sha256(SESSION_DOC)
        assert str(out) in manifest["outputs"]
        assert manifest["tool_version"]

    def test_sigma_override(self, tmp_path):
        doc = json.loads(json.dumps(SESSION_DOC))
        doc["run"]["mode"] = "analytic"
        cfg = write_doc(tmp_path / "s.json", doc)
        out0, out10 = tmp_path / "r0.json", tmp_path / "r10.json"
        main(["session", "--config", cfg, "--out", str(out0), "--sigma", "0"])
        main(["session", "--config", cfg, "--out", str(out10), "--sigma", "10"])
        r0 = json.loads(out0.read_text())
        r10 = json.loads(out10.read_text())
        assert r0["key_rate"]["rate_per_pulse"] > r10["key_rate"]["rate_per_pulse"]

    def test_degenerate_bounds_still_exit_zero(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SESSION_DOC))
        doc["channel"]["loss_db"] = 70.0  # far beyond cutoff
        doc["run"]["mode"] = "analytic"
        cfg = write_doc(tmp_path / "s.json", doc)
        assert main(["session", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["key_rate"]["rate_per_pulse"] == 0.0


class TestCurveCommand:
    def run_curve(self, tmp_path, schemes, extra=()):
        cfg_doc = json.loads(json.dumps(SESSION_DOC))
        cfg_doc["protocol"]["q_sift"] = 0.5
        cfg_doc["source"]["vacuum_mu"] = 0.0
        cfg = write_doc(tmp_path / "c.json", cfg_doc)
        out = tmp_path / "curve.csv"
        code = main(
            [
                "curve",
                "--config",
                cfg,
                "--schemes",
                schemes,
                "--loss-from",
                "0",
                "--loss-to",
                "20",
                "--loss-step",
                "10",
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out

    def test_single_scheme_decreasing(self, tmp_path):
        code, out = self.run_curve(tmp_path, "ideal-sps")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "loss_db,ideal-sps"
        data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(data) == 3
        rates = [float(r[1]) for r in data]
        assert rates[0] > rates[1] > rates[2]

    def test_csv_format(self, tmp_path):
        code, out = self.run_curve(tmp_path, "ideal-sps,hsps-decoy:0.40")
        raw = out.read_bytes()
        assert b"\r" not in raw  # LF only
        text = raw.decode()
        number = re.compile(r"^-?\d\.\d{8}e[+-]\d{2}$")
        for line in text.splitlines()[1:]:
            if line.startswith("#"):
                continue
            for cell in line.split(","):
                assert number.match(cell), cell
        assert sum(1 for l in text.splitlines() if l.startswith("# cutoff_db")) == 2

    def test_rerun_is_stable(self, tmp_path):
        _, out1 = self.run_curve(tmp_path, "ideal-sps")
        first = out1.read_bytes()
        _, out2 = self.run_curve(tmp_path, "ideal-sps")
        assert out2.read_bytes() == first

    def test_six_scheme_rows_keep_ordering(self, tmp_path):
        schemes = (
            "wcs-no-decoy,hsps-no-decoy,wcs-decoy-opt,"
            "hsps-decoy:0.40,hsps-decoy:0.70,ideal-sps"
        )
        code, out = self.run_curve(tmp_path, schemes)
        assert code == 0
        lines = [
            l for l in out.read_text().splitlines()[1:] if not l.startswith("#")
        ]
        for line in lines:
            _, a, b, c, d, e, f = (float(x) for x in line.split(","))
            for lo, hi in ((a, b), (a, c), (c, d), (d, e), (e, f)):
                if lo > 0.0 and hi > 0.0:
                    assert lo < hi

    def test_decimal_step_grid_hits_endpoint(self, tmp_path):
        cfg = write_doc(tmp_path / "c.json", SESSION_DOC)
        out = tmp_path / "curve.csv"
        argv = ["curve", "--config", cfg, "--schemes", "ideal-sps", "--out", str(out)]
        argv += ["--loss-from", "0", "--loss-to", "1", "--loss-step", "0.1"]
        assert main(argv) == 0
        rows = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        losses = [row.split(",")[0] for row in rows]
        assert losses == [format_float(k / 10) for k in range(11)]
        assert losses[-1] == format_float(1.0)

    def test_cutoff_beyond_grid_is_noted_on_stderr(self, capsys):
        argv = ["curve", "--config", str(CONFIGS / "session-36db.json")]
        argv += ["--schemes", "ideal-sps,wcs-no-decoy"]
        argv += ["--loss-from", "0", "--loss-to", "1", "--loss-step", "1"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        # stdout is unchanged: the summary still names the last grid loss
        assert "# cutoff_db,ideal-sps,1.00000000e+00" in captured.out
        notes = captured.err.splitlines()
        assert len(notes) == 2
        assert "ideal-sps" in notes[0] and "beyond the grid" in notes[0]
        assert "wcs-no-decoy" in notes[1] and "beyond the grid" in notes[1]

    def test_no_key_where_single_photon_errors_reach_half(self, tmp_path, capsys):
        # every signal click errs with probability 1/2 and most clicks are
        # background that always errs, so the single-photon error bound is
        # at least 1/2 and the privacy term 1 - H2(min(e1, 1/2)) is zero;
        # uncapped, the rows read 0.25, 0.0910 and 0.203
        doc = json.loads((CONFIGS / "session-36db.json").read_text())
        doc["channel"].update(y0_per_gate=0.9, e0_background=1.0, e_detector=0.5)
        cfg = write_doc(tmp_path / "c.json", doc)
        argv = ["curve", "--config", cfg, "--schemes", "ideal-sps"]
        argv += ["--loss-from", "0", "--loss-to", "20", "--loss-step", "10"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert [float(loss) for loss, _ in rows] == [0.0, 10.0, 20.0]
        assert [float(rate) for _, rate in rows] == [0.0, 0.0, 0.0]

    def test_cutoff_inside_grid_has_no_note(self, tmp_path, capsys):
        code, out = self.run_curve(tmp_path, "wcs-no-decoy", extra=["--loss-to", "60"])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "scheme", ["wcs-decoy-opt", "ideal-sps", "wcs-no-decoy", "hsps-decoy:0.40"]
    )
    def test_zero_gain_without_background_exits_2(self, tmp_path, capsys, scheme):
        doc = json.loads(json.dumps(SESSION_DOC))
        doc["channel"]["y0_per_gate"] = 0.0
        doc["source"]["vacuum_mu"] = 0.0
        cfg = write_doc(tmp_path / "c.json", doc)
        argv = ["curve", "--config", cfg, "--schemes", scheme]
        argv += ["--loss-from", "100", "--loss-to", "400", "--loss-step", "100"]
        assert main(argv) == 2
        assert "undefined" in capsys.readouterr().err

    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = write_doc(tmp_path / "c.json", SESSION_DOC)
        code = main(
            [
                "curve",
                "--config",
                cfg,
                "--schemes",
                "ideal-sps",
                "--loss-from",
                "10",
                "--loss-to",
                "0",
                "--loss-step",
                "1",
            ]
        )
        assert code == 2

    def test_unknown_scheme_is_config_error(self, tmp_path):
        cfg = write_doc(tmp_path / "c.json", SESSION_DOC)
        code = main(
            [
                "curve",
                "--config",
                cfg,
                "--schemes",
                "bogus",
                "--loss-from",
                "0",
                "--loss-to",
                "10",
                "--loss-step",
                "5",
            ]
        )
        assert code == 2


class TestDistributionCommand:
    def test_vacuum_wcs(self, tmp_path, capsys):
        cfg = write_doc(
            tmp_path / "d.json", {"source": {"kind": "wcs", "mu": 0.0}}
        )
        assert main(["distribution", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["distribution"]["p0"] == 1.0
        assert report["distribution"]["g2_zero"] is None

    def test_heralded_benchmark_source(self, tmp_path, capsys):
        cfg = write_doc(
            tmp_path / "d.json",
            {"source": {"kind": "hsps", "p_cor": 0.40, "mu_acc": 5.325e-3}},
        )
        assert main(["distribution", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["distribution"]["p1"] == pytest.approx(0.4007, abs=1e-4)

    def test_rates_block_infers_source(self, tmp_path, capsys):
        cfg = write_doc(tmp_path / "d.json", RATES_DOC)
        assert main(["distribution", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "inference" in report
        assert report["inference"]["p_cor"] == pytest.approx(0.4, abs=0.01)
        assert report["distribution"]["p1"] > 0.3

    def test_malformed_config(self, tmp_path, capsys):
        cfg = write_doc(tmp_path / "d.json", {"source": {"kind": "nope"}})
        assert main(["distribution", "--config", cfg]) == 2

    def test_non_object_sections(self, tmp_path):
        cfg = write_doc(tmp_path / "d.json", {"source": 3})
        assert main(["distribution", "--config", cfg]) == 2
        cfg2 = write_doc(tmp_path / "i.json", {"rates": "nope"})
        assert main(["infer", "--config", cfg2]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["distribution", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"source": {"kind": "hsps", "p_cor": 1.5, "mu_acc": 1e-3}},
            {"source": {"kind": "wcs", "mu": -0.1}},
            {"source": {"kind": "hsps", "p_cor": 0.4}},
        ],
    )
    def test_invalid_source_values(self, tmp_path, doc):
        cfg = write_doc(tmp_path / "d.json", doc)
        assert main(["distribution", "--config", cfg]) == 2


class TestInferCommand:
    def test_reports_parameters(self, tmp_path, capsys):
        cfg = write_doc(tmp_path / "i.json", RATES_DOC)
        assert main(["infer", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"] == "infer"
        assert report["r_s_hz"] > 0
        assert 0.0 <= report["p_cor"] <= 1.0

    def test_inconsistent_rates_exit_three(self, tmp_path, capsys):
        doc = json.loads(json.dumps(RATES_DOC))
        doc["rates"]["rc_hz"] = 100.0  # far below the accidental floor
        doc["rates"]["rs_hz"] = 5.0e5
        cfg = write_doc(tmp_path / "i.json", doc)
        assert main(["infer", "--config", cfg]) == 3

    def test_missing_rates_block(self, tmp_path):
        cfg = write_doc(tmp_path / "i.json", {"source": {"kind": "ideal"}})
        assert main(["infer", "--config", cfg]) == 2


class TestNumpyImport:
    def test_no_command_needs_numpy(self):
        # a fresh interpreter in which importing numpy fails: every golden
        # case, the seeded sampled sessions among them, gives its bytes
        script = textwrap.dedent(
            """
            import sys, tempfile
            from pathlib import Path

            sys.modules["numpy"] = None  # import numpy now raises ImportError
            import test_golden

            with tempfile.TemporaryDirectory() as tmp:
                for name in test_golden.CASES:
                    out = test_golden._run(name, Path(tmp)).encode("utf-8")
                    if out != (test_golden.GOLDEN / name).read_bytes():
                        sys.exit(f"{name} differs from its golden file")
            """
        )
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr


class TestManifestImports:
    def test_no_manifest_loads_neither_hashlib_nor_datetime(self):
        # only --out writes a manifest, with its config hash and timestamp
        config = str(CONFIGS / "session-36db.json")
        script = textwrap.dedent(
            f"""
            import io, sys
            from contextlib import redirect_stdout
            from decoyqkd import cli

            with redirect_stdout(io.StringIO()):
                code = cli.main(["session", "--config", {config!r}])
            loaded = [name for name in ("hashlib", "datetime") if name in sys.modules]
            if code != 0 or loaded:
                sys.exit(f"exit {{code}}, loaded {{loaded}}")
            """
        )
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports the package and
    the test modules from this checkout."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, paths))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
