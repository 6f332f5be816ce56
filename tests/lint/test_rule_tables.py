"""Drift guard: the linters' tables name code that still exists.

A rule keyed by a module path or a method name does not fail when that
module or method is renamed — it silently stops matching.  An ``only``
row of ``AST_RULES`` whose module moved polices nothing, and an analyzer
table entry whose method is gone resolves nothing.  These tests fail on
the rename instead.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import concurrency
from repro.lint.astlint import AST_RULES

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def _package_definitions():
    """Every def, class and ``self.X`` assignment name in the package."""
    defined = set()
    for path in PACKAGE_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                defined.add(node.attr)
    return defined


@pytest.mark.parametrize("row", AST_RULES, ids=lambda row: row.spec.rule_id)
def test_every_ast_rule_place_exists(row):
    for place in row.places:
        if place.startswith("/"):
            assert (PACKAGE_ROOT / place.strip("/")).is_dir(), place
        else:
            assert (PACKAGE_ROOT / place).is_file(), place


def test_every_analyzer_table_name_is_defined():
    defined = _package_definitions()
    coordinator_types = {spec[2] for spec in concurrency.COORDINATOR_CONTEXTS.values()}
    tables = {
        "MANAGER_ACQUIRE_METHODS": set(concurrency.MANAGER_ACQUIRE_METHODS),
        "COORDINATOR_CONTEXTS": set(concurrency.COORDINATOR_CONTEXTS)
        | coordinator_types,
        "MVCC_PRODUCER_METHODS": concurrency.MVCC_PRODUCER_METHODS,
        "SERVER_HANDLER_NAMES": concurrency.SERVER_HANDLER_NAMES,
        "SKETCH_MUTATOR_METHODS": concurrency.SKETCH_MUTATOR_METHODS,
        "SUMMARY_CACHE_ATTRS": concurrency.SUMMARY_CACHE_ATTRS,
    }
    missing = {
        table: sorted(set(names) - defined)
        for table, names in tables.items()
        if set(names) - defined
    }
    assert missing == {}
