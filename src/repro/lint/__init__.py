"""Static analysis for the repro statistical DBMS (``python -m repro.lint``).

Three layers share one findings engine:

* **semantic** (``REPRO-Sxxx``) — imports the package and verifies the
  paper's maintenance contracts: registry/rule coherence, live and correct
  incremental maintainers, order statistics on the window scheme,
  differencable algebraic definitions, the full maintainer protocol, and
  a working invalidation path for every cacheable result;
* **AST** (``REPRO-Axxx``) — parses the sources and enforces codebase
  invariants, one table row per rule: no mutable default arguments, no
  bare ``except:``, ``__all__`` lists that match reality, and "only
  module X may touch Y" — no view-row mutation outside the logged-update
  layer, no cache-entry writes that bypass the rule repository, no
  row-wise ``bind`` in vectorized chunk loops, no ``Tracer`` built on a
  hot path, no WAL/checkpoint or workspace-manifest file access outside
  their packages, and no lock constructed outside the concurrency layer;
* **concurrency** (``REPRO-C2xx``) — builds a project-wide call graph and
  lock model, then reports lock-order cycles, unbounded lock waits on
  request paths, unguarded acquires, shared-state writes that escape
  their latch, blocking calls on the event loop, and writes to published
  MVCC versions or the summary cache around their APIs.  The same model
  feeds the runtime :class:`~repro.concurrency.sanitizer.
  LockOrderSanitizer` cross-check.

Suppress a finding with ``# repro-lint: disable=RULE-ID`` on (or above)
the flagged line, or file-wide with ``# repro-lint: disable-file=RULE-ID``
near the top of the file.
"""

from repro.lint.concurrency import (
    CONCURRENCY_RULE_IDS,
    ConcurrencyModel,
    LockSite,
    analyze_files,
    run_concurrency_checks,
)
from repro.lint.engine import LintReport, run_lint
from repro.lint.findings import (
    RULES,
    Finding,
    RuleRegistry,
    RuleSpec,
    Severity,
    parse_suppressions,
)
from repro.lint.semantic import run_semantic_checks

__all__ = [
    "CONCURRENCY_RULE_IDS",
    "ConcurrencyModel",
    "Finding",
    "LintReport",
    "LockSite",
    "RULES",
    "RuleRegistry",
    "RuleSpec",
    "Severity",
    "analyze_files",
    "parse_suppressions",
    "run_concurrency_checks",
    "run_lint",
    "run_semantic_checks",
]
