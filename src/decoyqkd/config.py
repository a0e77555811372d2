"""Configuration documents and deterministic report serialization.

Sessions are described by a JSON document with ``source``, ``channel``,
``protocol`` and ``run`` sections. Physical quantities carry their unit
in the field name (``gate_time_ns``, ``loss_db``, ``y0_per_gate``) so a
nanosecond never silently becomes a second and a dB never a linear
transmittance. Each reader pops the fields it knows from a copy of its
section; any key left over, or any other section, is a ``ConfigError``
naming its path (``unknown field run.n_sigmaa``).

Serialization is canonical: floats are rendered in scientific notation
with nine significant digits, which makes reports byte-reproducible and
configs stable under parse -> serialize -> parse.

Only the channel and session readers and writers need the decoy-state
chain, and they import it when called, so reading a source or rates
document loads ``errors`` and ``sources`` alone.
"""

from __future__ import annotations

import json
import math
import operator
from typing import TYPE_CHECKING, Any

from .errors import ConfigError
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

if TYPE_CHECKING:
    from .channel import ChannelParams
    from .session import ExperimentConfig


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
    # imported here, so that only a run that writes a manifest loads it
    import hashlib

    canonical = json.dumps(_canonical(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical(obj: Any) -> Any:
    """A :func:`load_config` document with each float as
    :func:`format_float` writes it."""
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
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
    overflow a float, integers past Python's digit limit and nesting
    past the parser's depth are rejected as invalid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(
                fh, parse_constant=_finite_float, parse_float=_finite_float
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return doc


def _section(block: dict, key: str, path: str = "", required: bool = True) -> dict:
    """Pop section ``key`` as a copy for its reader to pop fields from;
    ``null`` counts as absent, and an absent optional section is empty."""
    name = f"{path}.{key}" if path else key
    value = block.pop(key, None)
    if value is None:
        if required:
            raise ConfigError(f"missing section {name!r}")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return dict(value)


def _reject_rest(block: dict, path: str = "") -> None:
    """Readers pop every key they use, so any key left over is unknown."""
    if block:
        key = next(iter(block))
        where = f"field {path}.{key}" if path else f"section {key!r}"
        raise ConfigError(f"unknown {where}")


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field {where}={value!r} overflows a float") from None


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {where} must be an integer, got {value!r}")
    return value


def _field(block: dict, key: str, path: str, default=None, read=_as_float):
    """Pop ``key`` and convert it with ``read``; required without a default."""
    if key not in block:
        if default is None:
            raise ConfigError(f"missing field {path}.{key}")
        return default
    return read(block.pop(key), f"{path}.{key}")


def source_from_dict(d: dict, path: str) -> SourceModel:
    d = dict(d)
    kind = d.pop("kind", None)
    if kind == "wcs":
        model: SourceModel = WcsSource(mu=_field(d, "mu", path))
    elif kind == "hsps":
        model = HspsSource(
            params=HspsParams(
                p_cor=_field(d, "p_cor", path),
                mu_acc=_field(d, "mu_acc", path),
                d_i=_field(d, "d_i", path, DI_DEFAULT),
            )
        )
    elif kind == "ideal":
        model = IdealSpsSource()
    else:
        raise ConfigError(
            f"field {path}.kind must be one of 'wcs', 'hsps', 'ideal', got {kind!r}"
        )
    _reject_rest(d, path)
    return model


def source_to_dict(model: SourceModel) -> dict:
    if isinstance(model, WcsSource):
        return {"kind": "wcs", "mu": model.mu}
    if isinstance(model, HspsSource):
        return {"kind": "hsps", **model.params._asdict()}
    return {"kind": "ideal"}


def channel_from_dict(d: dict) -> ChannelParams:
    # imported here, so that a source or rates document never loads the chain
    from .channel import E0, ChannelParams, loss_db_to_eta

    d = dict(d)
    has_loss = "loss_db" in d
    if has_loss == ("eta" in d):
        raise ConfigError("section 'channel' needs exactly one of 'loss_db' or 'eta'")
    eta = _field(d, "loss_db" if has_loss else "eta", "channel")
    channel = ChannelParams(
        eta=loss_db_to_eta(eta) if has_loss else eta,
        y0=_field(d, "y0_per_gate", "channel"),
        e_det=_field(d, "e_detector", "channel"),
        e0=_field(d, "e0_background", "channel", E0),
    )
    _reject_rest(d, "channel")
    return channel


def rates_from_dict(d: dict) -> tuple[MeasuredRates, float]:
    """Measured rates, and the idler dark fraction ``d_i`` of the source."""
    d = dict(d)
    rates = MeasuredRates(
        r0_hz=_field(d, "r0_hz", "rates"),
        rs_hz=_field(d, "rs_hz", "rates"),
        rc_hz=_field(d, "rc_hz", "rates"),
        ds_hz=_field(d, "ds_hz", "rates"),
        eta_s=_field(d, "eta_s", "rates"),
        gate_time_s=_field(d, "gate_time_ns", "rates") * 1e-9,
    )
    d_i = _field(d, "d_i", "rates", DI_DEFAULT)
    _reject_rest(d, "rates")
    return rates, d_i


def distribution_from_dict(doc: dict) -> tuple[SourceModel | None, tuple | None, int]:
    """Source model, :func:`rates_from_dict` pair and ``n_max`` of a
    ``distribution`` or ``infer`` document. A part is ``None`` when its
    section is absent or empty; ``source.n_max`` alone is no model."""
    doc = dict(doc)
    source = _section(doc, "source", required=False)
    rates = _section(doc, "rates", required=False)
    _reject_rest(doc)
    n_max = _field(source, "n_max", "source", N_MAX_DEFAULT, _as_int)
    if not source and not rates:
        raise ConfigError("document needs a 'source' model or a 'rates' section")
    model = source_from_dict(source, "source") if source else None
    return model, rates_from_dict(rates) if rates else None, n_max


def infer_from_dict(doc: dict) -> tuple[MeasuredRates, float]:
    """The :func:`rates_from_dict` pair of an ``infer`` document: a
    ``distribution`` document whose ``rates`` section is required."""
    if not doc.get("rates"):
        raise ConfigError("missing section 'rates'")
    return distribution_from_dict(doc)[1]


def experiment_from_dict(doc: dict) -> tuple[ExperimentConfig, str]:
    """Build an :class:`ExperimentConfig` plus run mode from a document."""
    from .decoy import FluctuationPolicy
    from .keyrate import ProtocolParams
    from .session import ExperimentConfig

    doc = dict(doc)
    source = _section(doc, "source")
    channel = _section(doc, "channel")
    protocol = _section(doc, "protocol", required=False)
    run = _section(doc, "run")
    _reject_rest(doc)

    ratio = run.pop("intensity_ratio", ExperimentConfig.intensity_ratio)
    if not isinstance(ratio, (list, tuple)) or len(ratio) != 3:
        raise ConfigError("run.intensity_ratio must be three numbers")

    mode = run.pop("mode", "analytic")
    if mode not in ("analytic", "sampled"):
        raise ConfigError(f"run.mode must be 'analytic' or 'sampled', got {mode!r}")

    signal, decoy = (
        source_from_dict(_section(source, key, "source"), f"source.{key}")
        for key in ("signal", "decoy")
    )
    cfg = ExperimentConfig(
        source_signal=signal,
        source_decoy=decoy,
        vacuum_mu=_field(source, "vacuum_mu", "source", 0.0),
        channel=channel_from_dict(channel),
        protocol=ProtocolParams(
            q_sift=_field(protocol, "q_sift", "protocol", ProtocolParams.q_sift),
            f_ec=_field(protocol, "f_ec", "protocol", ProtocolParams.f_ec),
        ),
        total_pulses=_field(run, "total_pulses", "run", read=_as_int),
        intensity_ratio=tuple(_as_float(w, "run.intensity_ratio") for w in ratio),
        fluctuation=FluctuationPolicy(
            n_sigma=_field(run, "n_sigma", "run", FluctuationPolicy.n_sigma)
        ),
        rng_seed=_field(run, "rng_seed", "run", ExperimentConfig.rng_seed, _as_int),
        n_max=_field(source, "n_max", "source", N_MAX_DEFAULT, _as_int),
    )
    for block, path in ((source, "source"), (protocol, "protocol"), (run, "run")):
        _reject_rest(block, path)
    return cfg, mode


def experiment_to_dict(cfg: ExperimentConfig, mode: str = "analytic") -> dict:
    """Canonical document for a config; round-trips through
    :func:`experiment_from_dict` up to float formatting. An integer field
    is written as the int it stands for (a numpy integer included)."""
    from .channel import eta_to_loss_db

    return {
        "source": {
            "signal": source_to_dict(cfg.source_signal),
            "decoy": source_to_dict(cfg.source_decoy),
            "vacuum_mu": cfg.vacuum_mu,
            "n_max": operator.index(cfg.n_max),
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
            "total_pulses": operator.index(cfg.total_pulses),
            "intensity_ratio": list(cfg.intensity_ratio),
            "n_sigma": cfg.fluctuation.n_sigma,
            "rng_seed": operator.index(cfg.rng_seed),
            "mode": mode,
        },
    }
