"""Synthetic workloads: census-like data (Figure 1 at scale), analysis

session event streams, and update streams."""

from repro.workloads.census import (
    age_group_codebook,
    age_group_codebook_1980,
    census_schema,
    figure1_dataset,
    generate_census_summary,
    generate_microdata,
    microdata_schema,
    race_codebook,
    region_codebook,
)
from repro.workloads.sessions import (
    DEFAULT_FUNCTIONS,
    EventKind,
    SessionEvent,
    SessionGenerator,
)
from repro.workloads.updates import (
    PointUpdate,
    correction_stream,
    drift_stream,
)

__all__ = [
    "DEFAULT_FUNCTIONS",
    "EventKind",
    "PointUpdate",
    "SessionEvent",
    "SessionGenerator",
    "age_group_codebook",
    "age_group_codebook_1980",
    "census_schema",
    "correction_stream",
    "drift_stream",
    "figure1_dataset",
    "generate_census_summary",
    "generate_microdata",
    "microdata_schema",
    "race_codebook",
    "region_codebook",
]
