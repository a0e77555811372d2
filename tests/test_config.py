import ast
import json
from pathlib import Path

import pytest

from decoyqkd import (
    ChannelParams,
    ConfigError,
    HspsParams,
    HspsSource,
    IdealSpsSource,
    WcsSource,
)
from decoyqkd.config import (
    channel_from_dict,
    experiment_from_dict,
    experiment_to_dict,
    load_config,
    rates_from_dict,
    source_from_dict,
    source_to_dict,
)


class TestSourceSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            WcsSource(mu=0.1),
            HspsSource(HspsParams(p_cor=0.4, mu_acc=5e-3, d_i=1e-3)),
            IdealSpsSource(),
        ],
    )
    def test_round_trip(self, model):
        assert source_from_dict(source_to_dict(model), "source") == model

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            source_from_dict({"kind": "laser"}, "source")

    def test_missing_field_names_path(self):
        with pytest.raises(ConfigError, match="source.signal.mu"):
            source_from_dict({"kind": "wcs"}, "source.signal")

    def test_hsps_default_dark_fraction(self):
        model = source_from_dict(
            {"kind": "hsps", "p_cor": 0.4, "mu_acc": 5e-3}, "source"
        )
        assert model.params.d_i == 1e-3


class TestChannelSection:
    def test_loss_db_form(self):
        ch = channel_from_dict(
            {"loss_db": 10.0, "y0_per_gate": 1e-5, "e_detector": 0.02}
        )
        assert ch.eta == pytest.approx(0.1, rel=1e-12)
        assert ch.e0 == 0.5

    def test_eta_form(self):
        ch = channel_from_dict(
            {"eta": 0.25, "y0_per_gate": 1e-5, "e_detector": 0.02}
        )
        assert ch == ChannelParams(eta=0.25, y0=1e-5, e_det=0.02)

    def test_needs_exactly_one_transmittance_field(self):
        base = {"y0_per_gate": 1e-5, "e_detector": 0.02}
        with pytest.raises(ConfigError):
            channel_from_dict(dict(base))
        with pytest.raises(ConfigError):
            channel_from_dict(dict(base, loss_db=10.0, eta=0.1))

    def test_type_errors_carry_field_path(self):
        with pytest.raises(ConfigError, match="channel.y0_per_gate"):
            channel_from_dict({"loss_db": 10.0, "y0_per_gate": "x", "e_detector": 0.02})


class TestRatesSection:
    def test_gate_time_converted_from_ns(self):
        rates, _ = rates_from_dict(
            {
                "r0_hz": 1e6,
                "rs_hz": 8e3,
                "rc_hz": 4e5,
                "ds_hz": 1e3,
                "eta_s": 0.1,
                "gate_time_ns": 2.5,
            }
        )
        assert rates.gate_time_s == pytest.approx(2.5e-9, rel=1e-15)


class TestExperimentDocument:
    def doc(self, **run_overrides):
        run = {"total_pulses": 1000, "mode": "analytic"}
        run.update(run_overrides)
        return {
            "source": {
                "signal": {"kind": "wcs", "mu": 0.1},
                "decoy": {"kind": "wcs", "mu": 0.01},
                "vacuum_mu": 0.0,
            },
            "channel": {"eta": 0.1, "y0_per_gate": 1e-5, "e_detector": 0.02},
            "run": run,
        }

    def test_defaults_applied(self):
        cfg, mode = experiment_from_dict(self.doc())
        assert mode == "analytic"
        assert cfg.protocol.q_sift == 0.5
        assert cfg.protocol.f_ec == 1.22
        assert cfg.intensity_ratio == (10.0, 4.0, 1.0)
        assert cfg.fluctuation.n_sigma == 0.0
        assert cfg.n_max == 16

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            experiment_from_dict(self.doc(mode="replay"))

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            experiment_from_dict(self.doc(intensity_ratio=[1, 2]))

    def test_missing_section(self):
        doc = self.doc()
        del doc["channel"]
        with pytest.raises(ConfigError, match="channel"):
            experiment_from_dict(doc)

    def test_total_pulses_must_be_integer(self):
        with pytest.raises(ConfigError, match="run.total_pulses"):
            experiment_from_dict(self.doc(total_pulses=1.5e9))

    def test_to_dict_uses_loss_db(self):
        cfg, mode = experiment_from_dict(self.doc())
        doc = experiment_to_dict(cfg, mode)
        assert doc["channel"]["loss_db"] == pytest.approx(10.0, abs=1e-9)


class TestLoadConfig:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers(self, tmp_path, token):
        path = tmp_path / "nan.json"
        path.write_text('{"run": {"n_sigma": %s}}' % token)
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(str(path))


class TestVersion:
    def test_pyproject_reads_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            pyproject = tomllib.load(fh)
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        dynamic = pyproject["tool"]["setuptools"]["dynamic"]["version"]
        assert dynamic == {"attr": "decoyqkd.__version__"}

    def test_version_is_a_literal_assignment(self):
        # setuptools' attr: directive reads it from the source, statically
        import decoyqkd

        tree = ast.parse(Path(decoyqkd.__file__).read_text(encoding="utf-8"))
        versions = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        ]
        assert versions == [decoyqkd.__version__]

    def test_reports_carry_the_package_version(self, tmp_path, capsys):
        from decoyqkd import __version__
        from decoyqkd.cli import main

        path = tmp_path / "source.json"
        path.write_text(json.dumps({"source": {"kind": "ideal"}}))
        assert main(["distribution", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["tool_version"] == __version__
