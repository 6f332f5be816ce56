"""Command line for ``python -m repro.lint``.

Exit codes: 0 clean, 1 findings, 2 bad invocation or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import run_lint
from repro.lint.findings import RULES, Finding, Severity


def _split_ids(raw: str | None) -> set[str] | None:
    if not raw:
        return None
    return {part.strip() for part in raw.split(",") if part.strip()} or None


def _escape_data(value: str) -> str:
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_property(value: str) -> str:
    # A property value also may not contain the separators ',' and ':'.
    return _escape_data(value).replace(":", "%3A").replace(",", "%2C")


def render_github_annotation(finding: Finding) -> str:
    """One finding as a GitHub Actions workflow command.

    ``::error file=...,line=...,title=...::message`` shows up inline on
    the PR diff.  Newlines and the command's reserved characters must be
    percent-escaped per the workflow-command spec.
    """
    level = "error" if finding.severity is Severity.ERROR else "warning"
    return (
        f"::{level} file={_escape_property(finding.path)},line={finding.line},"
        f"title={_escape_property(finding.rule_id)}::{_escape_data(finding.message)}"
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static analysis for the repro statistical DBMS: semantic "
            "update-rule soundness checks plus AST codebase-invariant "
            "passes. Suppress one finding with a "
            "'# repro-lint: disable=RULE-ID' comment on (or above) the "
            "flagged line, or file-wide with "
            "'# repro-lint: disable-file=RULE-ID' near the top of the file."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="files or directories for the AST passes "
        "(default: the installed repro package sources)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "github"),
        default="human",
        help="report format (default: human); 'github' emits workflow "
        "annotation commands so CI surfaces findings inline",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule IDs to drop (applied after --select)",
    )
    parser.add_argument(
        "--no-semantic",
        action="store_true",
        help="skip the semantic (layer 1) checks",
    )
    parser.add_argument(
        "--no-ast",
        action="store_true",
        help="skip the AST (layer 2) passes",
    )
    parser.add_argument(
        "--no-concurrency",
        action="store_true",
        help="skip the concurrency (layer 3) analysis",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="render finding paths relative to this directory",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for spec in RULES.specs():
            print(f"{spec.rule_id}  [{spec.layer}/{spec.severity.value}]  {spec.title}")
        return 0

    select = _split_ids(args.select)
    ignore = _split_ids(args.ignore)
    targets = [Path(t) for t in args.targets]
    missing = [t for t in targets if not t.exists()]
    if missing:
        for target in missing:
            print(f"repro.lint: no such file or directory: {target}", file=sys.stderr)
        return 2
    try:
        report = run_lint(
            targets=targets or None,
            select=select,
            ignore=ignore,
            semantic_checks=not args.no_semantic,
            ast_checks=not args.no_ast,
            concurrency_checks=not args.no_concurrency,
            root=args.root,
        )
    except KeyError as exc:
        print(f"repro.lint: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return report.exit_code

    if args.format == "github":
        for finding in report.findings:
            print(render_github_annotation(finding))
        return report.exit_code

    for finding in report.findings:
        print(finding.render())
    errors = sum(1 for f in report.findings if f.severity is Severity.ERROR)
    warnings = len(report.findings) - errors
    tail = (
        f"{report.files_checked} files checked, "
        f"{errors} errors, {warnings} warnings"
    )
    if report.suppressed:
        tail += f", {report.suppressed} suppressed"
    print(("" if report.clean else "\n") + tail)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
