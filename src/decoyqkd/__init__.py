"""Decoy-state QKD security analysis with a heralded single-photon source.

The toolkit models photon-number statistics of practical sources,
propagates them through a lossy channel/detector model, bounds the
single-photon yield and error rate with a three-intensity decoy-state
estimator under finite-statistics fluctuations, and evaluates the
resulting secure key rate. A session simulator and loss-sweep harness
compare source/estimator schemes end to end.

Each public name loads its submodule on first use (PEP 562), so
``import decoyqkd`` loads no submodule, and a program that uses only the
source statistics never loads the decoy-state chain.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "channel": (
            "ChannelParams",
            "GainErrorPoint",
            "error_n",
            "eta_to_loss_db",
            "gain",
            "loss_db_to_eta",
            "qber",
            "yield_n",
        ),
        "decoy": (
            "BoundsResult",
            "FluctuationPolicy",
            "ObservableBounds",
            "ThreeIntensityObservation",
            "check_condition",
            "estimate_bounds",
            "estimate_y1_lower",
            "fluctuation_bounds",
            "no_decoy_bounds",
        ),
        "errors": (
            "ConfigError",
            "DegenerateDistributionError",
            "InconsistentDataError",
            "InvalidParameterError",
            "UndefinedStatisticError",
        ),
        "keyrate": (
            "KeyRateComponents",
            "KeyRateResult",
            "ProtocolParams",
            "binary_entropy",
            "key_rate",
            "secure_bits",
        ),
        "session": (
            "ExperimentConfig",
            "IntensityCounts",
            "IntensityStatistics",
            "LossCurve",
            "MuOptimum",
            "PipelineResult",
            "Scheme",
            "SchemeKind",
            "SimulatedCounts",
            "expected_statistics",
            "optimize_mu",
            "run_pipeline",
            "sample_counts",
            "scan_loss",
            "wcs_infinite_decoy_rate",
        ),
        "sources": (
            "HspsParams",
            "HspsSource",
            "IdealSpsSource",
            "MeasuredRates",
            "PhotonNumberDistribution",
            "SourceModel",
            "WcsSource",
            "g2_zero",
            "hsps_distribution",
            "ideal_sps_distribution",
            "infer_accidental_rate",
            "infer_correlation",
            "wcs_distribution",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    # later lookups find the name in the module globals and skip this hook
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # dir() sorts what this returns
    return list({*globals(), *__all__})
