"""Configuration documents and deterministic report serialization.

Sessions are described by a JSON document with ``source``, ``channel``,
``protocol`` and ``run`` sections. Physical quantities carry their unit
in the field name (``gate_time_ns``, ``loss_db``, ``y0_per_gate``) so a
nanosecond never silently becomes a second and a dB never a linear
transmittance.

Serialization is canonical: floats are rendered in scientific notation
with nine significant digits, which makes reports byte-reproducible and
configs stable under parse -> serialize -> parse.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from typing import Any

from .channel import ChannelParams, E0_DEFAULT, eta_to_loss_db, loss_db_to_eta
from .decoy import FluctuationPolicy
from .errors import ConfigError
from .keyrate import ProtocolParams
from .session import ExperimentConfig
from .sources import (
    DI_DEFAULT,
    HspsParams,
    HspsSource,
    IdealSpsSource,
    MeasuredRates,
    N_MAX_DEFAULT,
    SourceModel,
    WcsSource,
)


def format_float(x: float) -> str:
    """Scientific notation with nine significant digits."""
    return f"{x:.8e}"


def dump_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON text with canonical float formatting.

    Dict insertion order is preserved; floats are emitted as bare
    scientific-notation literals (valid JSON numbers), everything else
    as standard JSON.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dump_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def config_sha256(doc: dict) -> str:
    """Hash of the canonical serialization; stable across reformatting."""
    canonical = json.dumps(_canonical(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return format_float(obj)
    return obj


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load_config(path: str) -> dict:
    """Parse a config document. ``NaN``, ``Infinity``, numbers that
    overflow a float and integers past Python's digit limit are
    rejected as invalid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(
                fh, parse_constant=_finite_float, parse_float=_finite_float
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return doc


def section(doc: dict, name: str, required: bool = True) -> dict:
    value = doc.get(name)
    if value is None:
        if required:
            raise ConfigError(f"missing section {name!r}")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return value


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field {where}={value!r} overflows a float") from None


def number_field(block: dict, key: str, path: str, default=None) -> float:
    if key not in block:
        if default is not None:
            return default
        raise ConfigError(f"missing field {path}.{key}")
    return _as_float(block[key], f"{path}.{key}")


def integer_field(block: dict, key: str, path: str, default=None) -> int:
    if key not in block:
        if default is not None:
            return default
        raise ConfigError(f"missing field {path}.{key}")
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"field {path}.{key} must be an integer, got {value!r}"
        )
    return value


def source_from_dict(d: dict, path: str) -> SourceModel:
    kind = d.get("kind")
    if kind == "wcs":
        return WcsSource(mu=number_field(d, "mu", path))
    if kind == "hsps":
        return HspsSource(
            HspsParams(
                p_cor=number_field(d, "p_cor", path),
                mu_acc=number_field(d, "mu_acc", path),
                d_i=number_field(d, "d_i", path, default=DI_DEFAULT),
            )
        )
    if kind == "ideal":
        return IdealSpsSource()
    raise ConfigError(
        f"field {path}.kind must be one of 'wcs', 'hsps', 'ideal', got {kind!r}"
    )


def source_to_dict(model: SourceModel) -> dict:
    if isinstance(model, WcsSource):
        return {"kind": "wcs", "mu": model.mu}
    if isinstance(model, HspsSource):
        return {"kind": "hsps", **asdict(model.params)}
    return {"kind": "ideal"}


def channel_from_dict(d: dict, path: str = "channel") -> ChannelParams:
    has_loss = "loss_db" in d
    has_eta = "eta" in d
    if has_loss == has_eta:
        raise ConfigError(
            f"section {path!r} needs exactly one of 'loss_db' or 'eta'"
        )
    eta = (
        loss_db_to_eta(number_field(d, "loss_db", path))
        if has_loss
        else number_field(d, "eta", path)
    )
    return ChannelParams(
        eta=eta,
        y0=number_field(d, "y0_per_gate", path),
        e_det=number_field(d, "e_detector", path),
        e0=number_field(d, "e0_background", path, default=E0_DEFAULT),
    )


def rates_from_dict(d: dict, path: str = "rates") -> MeasuredRates:
    return MeasuredRates(
        r0_hz=number_field(d, "r0_hz", path),
        rs_hz=number_field(d, "rs_hz", path),
        rc_hz=number_field(d, "rc_hz", path),
        ds_hz=number_field(d, "ds_hz", path),
        eta_s=number_field(d, "eta_s", path),
        gate_time_s=number_field(d, "gate_time_ns", path) * 1e-9,
    )


def experiment_from_dict(doc: dict) -> tuple[ExperimentConfig, str]:
    """Build an :class:`ExperimentConfig` plus run mode from a document."""
    source = section(doc, "source")
    channel = section(doc, "channel")
    protocol = section(doc, "protocol", required=False)
    run = section(doc, "run")

    signal = source.get("signal")
    decoy = source.get("decoy")
    if not isinstance(signal, dict) or not isinstance(decoy, dict):
        raise ConfigError("source.signal and source.decoy must be objects")

    ratio = run.get("intensity_ratio", ExperimentConfig.intensity_ratio)
    if not isinstance(ratio, (list, tuple)) or len(ratio) != 3:
        raise ConfigError("run.intensity_ratio must be three numbers")

    mode = run.get("mode", "analytic")
    if mode not in ("analytic", "sampled"):
        raise ConfigError(
            f"run.mode must be 'analytic' or 'sampled', got {mode!r}"
        )

    cfg = ExperimentConfig(
        source_signal=source_from_dict(signal, "source.signal"),
        source_decoy=source_from_dict(decoy, "source.decoy"),
        vacuum_mu=number_field(source, "vacuum_mu", "source", default=0.0),
        channel=channel_from_dict(channel),
        protocol=ProtocolParams(
            q_sift=number_field(
                protocol, "q_sift", "protocol", default=ProtocolParams.q_sift
            ),
            f_ec=number_field(
                protocol, "f_ec", "protocol", default=ProtocolParams.f_ec
            ),
        ),
        total_pulses=integer_field(run, "total_pulses", "run"),
        intensity_ratio=tuple(_as_float(w, "run.intensity_ratio") for w in ratio),
        fluctuation=FluctuationPolicy(
            n_sigma=number_field(
                run, "n_sigma", "run", default=FluctuationPolicy.n_sigma
            )
        ),
        rng_seed=integer_field(
            run, "rng_seed", "run", default=ExperimentConfig.rng_seed
        ),
        n_max=integer_field(source, "n_max", "source", default=N_MAX_DEFAULT),
    )
    return cfg, mode


def experiment_to_dict(cfg: ExperimentConfig, mode: str = "analytic") -> dict:
    """Canonical document for a config; round-trips through
    :func:`experiment_from_dict` up to float formatting."""
    return {
        "source": {
            "signal": source_to_dict(cfg.source_signal),
            "decoy": source_to_dict(cfg.source_decoy),
            "vacuum_mu": cfg.vacuum_mu,
            "n_max": cfg.n_max,
        },
        "channel": {
            "loss_db": eta_to_loss_db(cfg.channel.eta),
            "y0_per_gate": cfg.channel.y0,
            "e_detector": cfg.channel.e_det,
            "e0_background": cfg.channel.e0,
        },
        "protocol": {
            "q_sift": cfg.protocol.q_sift,
            "f_ec": cfg.protocol.f_ec,
        },
        "run": {
            "total_pulses": cfg.total_pulses,
            "intensity_ratio": list(cfg.intensity_ratio),
            "n_sigma": cfg.fluctuation.n_sigma,
            "rng_seed": cfg.rng_seed,
            "mode": mode,
        },
    }
