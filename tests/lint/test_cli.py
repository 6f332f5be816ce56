"""The ``python -m repro.lint`` command line: formats and exit codes."""

import json
import textwrap

import pytest

from repro.lint.cli import main


@pytest.fixture
def seeded_file(tmp_path):
    """A scratch fixture with one A101 and one A102 violation."""
    bad = tmp_path / "seeded.py"
    bad.write_text(
        textwrap.dedent(
            """
            def f(x, acc=[]):
                try:
                    acc.append(x)
                except:
                    pass
                return acc
            """
        )
    )
    return bad


def test_clean_run_exits_zero(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "0 errors" in out


def test_seeded_violation_exits_nonzero(seeded_file, capsys):
    code = main(["--no-semantic", str(seeded_file)])
    assert code == 1
    out = capsys.readouterr().out
    # The acceptance-criteria report shape: file:line rule-id message
    assert f"{seeded_file}:2 REPRO-A101" in out
    assert f"{seeded_file}:5 REPRO-A102" in out


def test_json_format(seeded_file, capsys):
    code = main(["--no-semantic", "--format", "json", str(seeded_file)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    rules = [f["rule"] for f in payload["findings"]]
    assert rules == ["REPRO-A101", "REPRO-A102"]
    assert all(f["line"] > 0 and f["path"] for f in payload["findings"])


def test_select_filters_rules(seeded_file, capsys):
    code = main(["--no-semantic", "--select", "REPRO-A102", str(seeded_file)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO-A102" in out and "REPRO-A101" not in out


def test_ignore_drops_rules(seeded_file, capsys):
    code = main(["--no-semantic", "--ignore", "REPRO-A101", str(seeded_file)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REPRO-A102" in out and "REPRO-A101" not in out


def test_ignoring_every_finding_exits_zero(seeded_file, capsys):
    code = main(
        ["--no-semantic", "--ignore", "REPRO-A101,REPRO-A102", str(seeded_file)]
    )
    assert code == 0
    assert "0 errors" in capsys.readouterr().out


def test_github_format(seeded_file, capsys):
    code = main(["--no-semantic", "--format", "github", str(seeded_file)])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(
        f"::error file={seeded_file},line=2,title=REPRO-A101::"
    )
    assert all("\n" not in line for line in lines)


def test_github_format_escapes_reserved_characters():
    from repro.lint.cli import render_github_annotation
    from repro.lint.findings import Finding, Severity

    finding = Finding(
        rule_id="REPRO-C201",
        path="x.py",
        line=3,
        message="cycle: a -> b\nand 100% back",
        severity=Severity.ERROR,
    )
    rendered = render_github_annotation(finding)
    assert "\n" not in rendered
    assert "%0A" in rendered and "%25" in rendered
    # The file= property is escaped like title=: ',' and ':' separate
    # properties and would otherwise split the path.
    odd_path = Finding(
        rule_id="REPRO-A101",
        path="pkg,a:b.py",
        line=1,
        message="m",
        severity=Severity.ERROR,
    )
    assert render_github_annotation(odd_path).startswith(
        "::error file=pkg%2Ca%3Ab.py,line=1,title=REPRO-A101::"
    )


def test_unknown_rule_is_usage_error(capsys):
    assert main(["--select", "NOPE-123"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_unknown_ignore_rule_is_usage_error(capsys):
    assert main(["--ignore", "NOPE-123"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_select_concurrency_rule_runs_layer_three(tmp_path, capsys):
    from tests.lint.test_concurrency_lint import INVERTED_PAIR_SOURCE

    pair = tmp_path / "pair.py"
    pair.write_text(INVERTED_PAIR_SOURCE)
    code = main(["--no-semantic", "--select", "REPRO-C201", str(pair)])
    assert code == 1
    assert "REPRO-C201" in capsys.readouterr().out


def test_no_concurrency_skips_layer_three(tmp_path, capsys):
    from tests.lint.test_concurrency_lint import INVERTED_PAIR_SOURCE

    pair = tmp_path / "pair.py"
    pair.write_text(INVERTED_PAIR_SOURCE)
    # --no-ast too: the fixture's direct threading.Lock() trips REPRO-A109.
    code = main(["--no-semantic", "--no-ast", "--no-concurrency", str(pair)])
    assert code == 0
    assert "REPRO-C201" not in capsys.readouterr().out


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REPRO-A101", "REPRO-A105", "REPRO-S001", "REPRO-S006"):
        assert rule_id in out


def test_suppression_comment_silences(tmp_path, capsys):
    good = tmp_path / "suppressed.py"
    good.write_text(
        "def f(xs=[]):  # repro-lint: disable=REPRO-A101\n    return xs\n"
    )
    assert main(["--no-semantic", str(good)]) == 0
    assert "1 suppressed" in capsys.readouterr().out


def test_seeded_incremental_rule_without_maintainer_detected():
    """The ISSUE acceptance scenario, driven programmatically: wiring that

    claims INCREMENTAL but cannot build a maintainer is a finding."""
    from repro.lint import run_lint
    from repro.metadata.functions import FunctionRegistry, StatFunction
    from repro.metadata.rules import RuleRepository

    registry = FunctionRegistry()

    def no_maintainer(provider):
        raise RuntimeError("maintainer lost")

    registry.register(
        StatFunction(
            "phantom_inc",
            lambda values: 0.0,
            no_maintainer,
        )
    )
    report = run_lint(
        ast_checks=False, registry=registry, rules=RuleRepository(registry)
    )
    assert report.exit_code == 1
    assert any(
        f.rule_id == "REPRO-S002" and "phantom_inc" in f.message
        for f in report.findings
    )
