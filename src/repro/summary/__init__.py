"""The Summary Database (paper SS3.2, Figure 4): the per-view result cache,

plus the Database Abstract inference layer (SS5.1)."""

from repro.summary.abstract import DatabaseAbstract, Inference, InferenceKind
from repro.summary.entries import SummaryEntry, SummaryKey, decode_result, encode_result
from repro.summary.policies import (
    ConsistencyPolicy,
    InvalidatePolicy,
    PeriodicPolicy,
    PrecisePolicy,
    TolerantPolicy,
    make_policy,
)
from repro.summary.summarydb import SummaryDatabase, SummaryStats

__all__ = [
    "ConsistencyPolicy",
    "DatabaseAbstract",
    "Inference",
    "InferenceKind",
    "InvalidatePolicy",
    "PeriodicPolicy",
    "PrecisePolicy",
    "SummaryDatabase",
    "SummaryEntry",
    "SummaryKey",
    "SummaryStats",
    "TolerantPolicy",
    "decode_result",
    "encode_result",
    "make_policy",
]
