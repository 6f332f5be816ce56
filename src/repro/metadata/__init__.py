"""Meta-data layer: function registry, update rules, code books, SUBJECT

navigation, and the Management Database that ties them together (SS3.2)."""

from repro.metadata.codebook import (
    CodeBook,
    CodeBookRegistry,
    CodeConflict,
    detect_inconsistencies,
)
from repro.metadata.functions import FunctionRegistry, StatFunction
from repro.metadata.management import ManagementDatabase
from repro.metadata.rules import (
    IncrementalRule,
    InvalidateRule,
    RegenerateRule,
    RuleKind,
    RuleOutcome,
    RuleRepository,
    UpdateRule,
)
from repro.metadata.subject import ROOT, MetaGraph, NavigationSession, ViewRequest

__all__ = [
    "CodeBook",
    "CodeBookRegistry",
    "CodeConflict",
    "FunctionRegistry",
    "IncrementalRule",
    "InvalidateRule",
    "ManagementDatabase",
    "MetaGraph",
    "NavigationSession",
    "RegenerateRule",
    "ROOT",
    "RuleKind",
    "RuleOutcome",
    "RuleRepository",
    "StatFunction",
    "UpdateRule",
    "ViewRequest",
    "detect_inconsistencies",
]
