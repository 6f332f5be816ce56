"""Incremental recomputation (finite differencing) — paper SS4.2.

Incrementally maintainable forms of the statistics the Summary Database
caches: automatically derived algebraic forms, hand-built aggregates with
support structures, the median/quantile histogram window, maintained
frequency tables and histograms, and derived-column rules.
"""

from repro.incremental.aggregates import (
    IncrementalCount,
    IncrementalMax,
    IncrementalMean,
    IncrementalMin,
    IncrementalMinMax,
    IncrementalStd,
    IncrementalSum,
    IncrementalVariance,
)
from repro.incremental.derived import (
    DerivationKind,
    DerivedColumnManager,
    GlobalDerivation,
    LocalDerivation,
    RefreshMode,
)
from repro.incremental.differencing import (
    AlgebraicForm,
    DEFINITIONS,
    Delta,
    IncrementalComputation,
    derive_incremental,
)
from repro.incremental.frequency import IncrementalFrequency
from repro.incremental.histogram import MaintainedHistogram
from repro.incremental.order_stats import MedianWindow, OrderStatWindow, QuantileWindow
from repro.incremental.sketches import (
    CountMinSketch,
    EPSILON_HLL,
    EPSILON_TDIGEST,
    HyperLogLog,
    ReservoirSample,
    TDigest,
    hash64,
)

__all__ = [
    "CountMinSketch",
    "EPSILON_HLL",
    "EPSILON_TDIGEST",
    "HyperLogLog",
    "ReservoirSample",
    "TDigest",
    "hash64",
    "AlgebraicForm",
    "DEFINITIONS",
    "Delta",
    "DerivationKind",
    "DerivedColumnManager",
    "GlobalDerivation",
    "IncrementalComputation",
    "IncrementalCount",
    "IncrementalFrequency",
    "IncrementalMax",
    "IncrementalMean",
    "IncrementalMin",
    "IncrementalMinMax",
    "IncrementalStd",
    "IncrementalSum",
    "IncrementalVariance",
    "LocalDerivation",
    "MaintainedHistogram",
    "MedianWindow",
    "OrderStatWindow",
    "QuantileWindow",
    "RefreshMode",
    "derive_incremental",
]
