"""Tier-1 gate: the full linter runs clean over the shipped codebase.

This is the check the tentpole exists for — every future PR that breaks a
maintenance contract (a function claiming INCREMENTAL with no working
maintainer, a cache-entry write sneaking around the rule repository, a
drifted ``__all__``) fails here, before any runtime symptom.
"""

from pathlib import Path

from repro.lint import run_lint

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_package_sources_exist():
    assert PACKAGE_ROOT.is_dir()


def test_full_linter_is_clean():
    report = run_lint(targets=[PACKAGE_ROOT])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"repro.lint found violations:\n{rendered}"
    assert report.exit_code == 0
    assert report.files_checked > 50  # the whole package, not a subset


def test_ast_layer_alone_is_clean():
    report = run_lint(
        targets=[PACKAGE_ROOT], semantic_checks=False, concurrency_checks=False
    )
    assert report.clean, [f.render() for f in report.findings]
    # Clean without excuses: a new suppression comment in src/ would
    # otherwise slip past every gate.
    assert report.suppressed == 0


def test_semantic_layer_alone_is_clean():
    report = run_lint(ast_checks=False, concurrency_checks=False)
    assert report.clean, [f.render() for f in report.findings]
    assert report.suppressed == 0


def test_concurrency_layer_alone_is_clean():
    report = run_lint(
        targets=[PACKAGE_ROOT], semantic_checks=False, ast_checks=False
    )
    assert report.clean, [f.render() for f in report.findings]
    # Clean by *fixing or justifying*, not by finding nothing: the two
    # sanctioned sites (quiesce's sorted sweep, the shutdown-path release)
    # carry suppression comments and must show up in the count.
    assert report.suppressed >= 2
