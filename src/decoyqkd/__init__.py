"""Decoy-state QKD security analysis with a heralded single-photon source.

The toolkit models photon-number statistics of practical sources,
propagates them through a lossy channel/detector model, bounds the
single-photon yield and error rate with a three-intensity decoy-state
estimator under finite-statistics fluctuations, and evaluates the
resulting secure key rate. A session simulator and loss-sweep harness
compare source/estimator schemes end to end.
"""

from .channel import (
    ChannelParams,
    GainErrorPoint,
    error_n,
    eta_to_loss_db,
    gain,
    loss_db_to_eta,
    qber,
    yield_n,
)
from .decoy import (
    BoundsResult,
    FluctuationPolicy,
    ObservableBounds,
    ThreeIntensityObservation,
    check_condition,
    estimate_bounds,
    estimate_y1_lower,
    fluctuation_bounds,
    no_decoy_bounds,
)
from .errors import (
    ConfigError,
    DegenerateDistributionError,
    InconsistentDataError,
    InvalidParameterError,
    UndefinedStatisticError,
)
from .keyrate import (
    KeyRateComponents,
    KeyRateResult,
    ProtocolParams,
    binary_entropy,
    key_rate,
    secure_bits,
)
from .session import (
    ExperimentConfig,
    IntensityCounts,
    IntensityStatistics,
    LossCurve,
    MuOptimum,
    PipelineResult,
    Scheme,
    SchemeKind,
    SimulatedCounts,
    expected_statistics,
    optimize_mu,
    run_pipeline,
    sample_counts,
    scan_loss,
    wcs_infinite_decoy_rate,
)
from .sources import (
    HspsParams,
    HspsSource,
    IdealSpsSource,
    MeasuredRates,
    PhotonNumberDistribution,
    SourceModel,
    WcsSource,
    g2_zero,
    hsps_distribution,
    ideal_sps_distribution,
    infer_accidental_rate,
    infer_correlation,
    wcs_distribution,
)

__version__ = "0.1.0"
