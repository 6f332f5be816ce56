"""Reporting for the experiment benchmarks.

Each benchmark registers one or more :class:`ExperimentTable` objects via
:func:`repro.bench.harness.report_table`; the terminal-summary hook here
prints every registered table after the pytest-benchmark timing block, so
``pytest benchmarks/`` output ends with the evaluation tables E17-E22 of
EXPERIMENTS.md.  The counting claims E1-E16 are tier-1 tests in
``tests/claims/``.
"""

from __future__ import annotations

from repro.bench.harness import REGISTRY


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not REGISTRY:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("#" * 72)
    terminalreporter.write_line(
        "# Experiment tables (paper-claim reproductions, DESIGN.md SS3)"
    )
    terminalreporter.write_line("#" * 72)
    seen = set()
    for table in REGISTRY:
        key = (table.experiment, table.title)
        if key in seen:
            continue
        seen.add(key)
        for line in table.render().splitlines():
            terminalreporter.write_line(line)
