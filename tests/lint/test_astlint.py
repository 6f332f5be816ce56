"""Seeded-violation tests for the AST lint passes (layer 2)."""

import textwrap

from repro.lint.astlint import lint_source
from repro.lint.findings import parse_suppressions


def lint(code, path="scratch/module.py", select=None):
    return lint_source(textwrap.dedent(code), path, select=select)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestMutableDefault:
    def test_list_display(self):
        findings = lint("def f(x, acc=[]):\n    return acc\n")
        assert "REPRO-A101" in rule_ids(findings)
        assert findings[0].line == 1

    def test_dict_set_and_calls(self):
        code = """
        def f(a={}, b=set(), c=dict(), d=list()):
            return a, b, c, d
        """
        findings = lint(code, select={"REPRO-A101"})
        assert len(findings) == 4

    def test_keyword_only_default(self):
        findings = lint("def f(*, acc=[]):\n    return acc\n")
        assert rule_ids(findings) == ["REPRO-A101"]

    def test_immutable_defaults_pass(self):
        code = """
        def f(a=None, b=0, c=(), d="x", e=frozenset()):
            return a, b, c, d, e
        """
        assert lint(code) == []

    def test_nested_function_checked(self):
        code = """
        def outer():
            def inner(xs=[]):
                return xs
            return inner
        """
        assert "REPRO-A101" in rule_ids(lint(code))


class TestBareExcept:
    def test_flagged(self):
        code = """
        try:
            risky()
        except:
            pass
        """
        findings = lint(code, select={"REPRO-A102"})
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_typed_except_passes(self):
        code = """
        try:
            risky()
        except (ValueError, KeyError):
            pass
        except Exception:
            pass
        """
        assert lint(code, select={"REPRO-A102"}) == []


class TestViewMutation:
    CODE = """
    def sneak(view):
        view.set_value(0, "AGE", 99)
    """

    def test_flagged_outside_update_layer(self):
        findings = lint(self.CODE, path="src/repro/stats/sneaky.py")
        assert rule_ids(findings) == ["REPRO-A103"]

    def test_allowed_in_update_layer(self):
        findings = lint(self.CODE, path="src/repro/views/updates.py")
        assert findings == []

    def test_flagged_in_view_wrapper(self):
        """The view holds no second copy of its cells, so it writes none."""
        findings = lint(self.CODE, path="src/repro/views/view.py")
        assert rule_ids(findings) == ["REPRO-A103"]

    def test_flagged_in_wal_replay(self):
        """Recovery re-applies logged operations through views.updates;
        a cell-writing loop of its own would be a second write path."""
        code = """
        def replay(view, operation):
            for change in operation.changes:
                view.set_value(change.row, operation.attribute, change.new)
            view.history.restore(operation)
        """
        findings = lint(code, path="src/repro/durability/recovery.py")
        assert rule_ids(findings) == ["REPRO-A103"]


class TestCacheBypass:
    def test_stale_result_maintainer_writes_flagged(self):
        code = """
        def sneak(entry):
            entry.stale = True
            entry.result = 42
            entry.maintainer = None
        """
        findings = lint(code, path="src/repro/core/sneaky.py")
        assert rule_ids(findings) == ["REPRO-A104"] * 3

    def test_augmented_write_flagged(self):
        code = """
        def sneak(entry):
            entry.result += 1
        """
        assert rule_ids(lint(code, path="src/repro/core/sneaky.py")) == ["REPRO-A104"]

    def test_self_state_is_fine(self):
        code = """
        class Derivation:
            def refresh(self):
                self.stale = False
                self.result = 1
        """
        assert lint(code, path="src/repro/core/sneaky.py") == []

    def test_allowed_in_rules_module(self):
        code = """
        def apply(entry):
            entry.stale = True
        """
        assert lint(code, path="src/repro/metadata/rules.py") == []

    def test_other_attributes_untouched(self):
        code = """
        def touch(entry):
            entry.pending_updates += 1
            entry.hit_count = 3
        """
        assert lint(code, path="src/repro/core/sneaky.py") == []


class TestExports:
    def test_phantom_export_flagged(self):
        code = """
        __all__ = ["exists", "phantom"]

        def exists():
            return 1
        """
        findings = lint(code, select={"REPRO-A105"})
        assert len(findings) == 1
        assert "phantom" in findings[0].message

    def test_package_reexport_omission_flagged(self):
        code = """
        from repro.somewhere import Thing, Other

        __all__ = ["Thing"]
        """
        findings = lint(code, path="src/repro/pkg/__init__.py", select={"REPRO-A105"})
        assert len(findings) == 1
        assert "Other" in findings[0].message

    def test_private_imports_exempt(self):
        code = """
        from repro.somewhere import Thing, _helper

        __all__ = ["Thing"]
        """
        assert lint(code, path="src/repro/pkg/__init__.py") == []

    def test_non_init_modules_only_check_existence(self):
        code = """
        from repro.somewhere import Unlisted

        __all__ = ["local"]

        def local():
            return Unlisted
        """
        assert lint(code, path="src/repro/stats/module.py") == []

    def test_no_all_no_findings(self):
        assert lint("from x import y\n", path="src/repro/pkg/__init__.py") == []


class TestSuppressions:
    def test_line_suppression(self):
        code = "def f(xs=[]):  # repro-lint: disable=REPRO-A101\n    return xs\n"
        findings = lint(code)
        index = parse_suppressions(code)
        assert [f for f in findings if not index.suppresses(f)] == []

    def test_line_above_suppression(self):
        code = (
            "# repro-lint: disable=REPRO-A101\n"
            "def f(xs=[]):\n"
            "    return xs\n"
        )
        findings = lint(code)
        index = parse_suppressions(code)
        assert [f for f in findings if not index.suppresses(f)] == []

    def test_file_wide_suppression(self):
        code = (
            "# repro-lint: disable-file=REPRO-A101\n"
            "def f(xs=[]):\n"
            "    return xs\n"
            "def g(ys=[]):\n"
            "    return ys\n"
        )
        findings = lint(code)
        index = parse_suppressions(code)
        assert [f for f in findings if not index.suppresses(f)] == []

    def test_unrelated_rule_not_suppressed(self):
        code = "def f(xs=[]):  # repro-lint: disable=REPRO-A102\n    return xs\n"
        findings = lint(code)
        index = parse_suppressions(code)
        assert len([f for f in findings if not index.suppresses(f)]) == 1


def test_syntax_error_reported_not_raised():
    findings = lint("def broken(:\n")
    assert rule_ids(findings) == ["REPRO-A100"]


class TestRowwiseBindInVectorizedModule:
    VEC_PATH = "src/repro/relational/vectorized.py"

    def test_bind_inside_loop_flagged(self):
        code = """
        def chunks(self):
            for chunk in self.child.chunks():
                fn = self.predicate.bind(chunk.schema)
        """
        findings = lint(code, path=self.VEC_PATH, select={"REPRO-A106"})
        assert len(findings) == 1
        assert findings[0].rule_id == "REPRO-A106"

    def test_bind_inside_comprehension_flagged(self):
        code = """
        def kernels(self, chunks):
            return [expr.bind(c.schema) for c in chunks for expr in self.items]
        """
        findings = lint(code, path=self.VEC_PATH, select={"REPRO-A106"})
        assert len(findings) == 1

    def test_bind_columns_outside_loop_passes(self):
        code = """
        def __init__(self, child, predicate):
            self._fn = predicate.bind_columns(child.schema)
            for chunk in child.chunks():
                self._fn(chunk)
        """
        assert lint(code, path=self.VEC_PATH, select={"REPRO-A106"}) == []

    def test_bind_once_before_loop_passes(self):
        code = """
        def chunks(self):
            fn = self.predicate.bind(self.schema)
            for chunk in self.child.chunks():
                fn(chunk)
        """
        assert lint(code, path=self.VEC_PATH, select={"REPRO-A106"}) == []

    def test_other_modules_exempt(self):
        code = """
        def rows(self):
            for row in self.child:
                fn = self.predicate.bind(self.schema)
        """
        assert lint(code, path="src/repro/relational/operators.py", select={"REPRO-A106"}) == []


class TestTracerConstructInHotPath:
    HOT_PATH = "src/repro/core/session.py"

    def test_direct_construction_flagged(self):
        code = """
        from repro.obs.tracer import Tracer

        def __init__(self):
            self.tracer = Tracer()
        """
        findings = lint(code, path=self.HOT_PATH, select={"REPRO-A107"})
        assert len(findings) == 1
        assert findings[0].rule_id == "REPRO-A107"

    def test_attribute_construction_flagged(self):
        code = """
        import repro.obs.tracer as obs

        def make():
            return obs.Tracer()
        """
        findings = lint(code, path=self.HOT_PATH, select={"REPRO-A107"})
        assert len(findings) == 1

    def test_injection_pattern_passes(self):
        code = """
        from repro.obs.tracer import NULL_TRACER, AbstractTracer, NullTracer

        def __init__(self, tracer=None):
            self.tracer = tracer if tracer is not None else NULL_TRACER
            self.fallback = NullTracer()
        """
        assert lint(code, path=self.HOT_PATH, select={"REPRO-A107"}) == []

    def test_other_modules_exempt(self):
        code = """
        from repro.obs.tracer import Tracer

        def bench():
            return Tracer()
        """
        assert lint(code, path="bench/scan_mix.py", select={"REPRO-A107"}) == []
        assert lint(code, path="src/repro/core/dbms.py", select={"REPRO-A107"}) == []


class TestDurabilityIo:
    def test_constant_wal_path_flagged(self):
        code = """
        def sneak(directory):
            with open(directory / "log.wal", "rb") as handle:
                return handle.read()
        """
        findings = lint(code, path="src/repro/core/session.py", select={"REPRO-A108"})
        assert rule_ids(findings) == ["REPRO-A108"]

    def test_checkpoint_constant_flagged(self):
        code = """
        def sneak(directory):
            return open(directory / "checkpoint.json").read()
        """
        findings = lint(code, path="src/repro/core/dbms.py", select={"REPRO-A108"})
        assert rule_ids(findings) == ["REPRO-A108"]

    def test_variable_named_wal_flagged(self):
        code = """
        def sneak(wal_path):
            return open(wal_path, "ab")
        """
        findings = lint(code, path="src/repro/core/shell.py", select={"REPRO-A108"})
        assert rule_ids(findings) == ["REPRO-A108"]

    def test_attribute_receiver_flagged(self):
        code = """
        def sneak(manager):
            return manager.checkpoint_path.open("wb")
        """
        findings = lint(code, path="src/repro/core/shell.py", select={"REPRO-A108"})
        assert rule_ids(findings) == ["REPRO-A108"]

    def test_unrelated_open_passes(self):
        code = """
        def load(path):
            with open(path, "r") as handle:
                return handle.read()
        """
        assert lint(code, path="src/repro/io/csvio.py", select={"REPRO-A108"}) == []

    def test_durability_package_exempt(self):
        code = """
        def scan(path):
            return open(path.parent / "log.wal", "rb").read()
        """
        for module in (
            "src/repro/durability/wal.py",
            "src/repro/durability/checkpoint.py",
            "src/repro/durability/recovery.py",
        ):
            assert lint(code, path=module, select={"REPRO-A108"}) == []


class TestWorkspaceIo:
    def test_constant_manifest_path_flagged(self):
        code = """
        def sneak(directory):
            with open(directory / "manifest.json", "rb") as handle:
                return handle.read()
        """
        findings = lint(code, path="src/repro/core/session.py", select={"REPRO-A111"})
        assert rule_ids(findings) == ["REPRO-A111"]

    def test_variable_named_manifest_flagged(self):
        code = """
        def sneak(manifest_path):
            return open(manifest_path, "w")
        """
        findings = lint(code, path="src/repro/core/shell.py", select={"REPRO-A111"})
        assert rule_ids(findings) == ["REPRO-A111"]

    def test_replace_of_workspace_path_flagged(self):
        code = """
        import os

        def sneak(workspace_dir, tmp):
            os.replace(tmp, workspace_dir / "manifest.json")
        """
        findings = lint(code, path="src/repro/core/dbms.py", select={"REPRO-A111"})
        assert rule_ids(findings) == ["REPRO-A111"]

    def test_unrelated_open_passes(self):
        code = """
        def load(path):
            with open(path, "r") as handle:
                return handle.read()
        """
        assert lint(code, path="src/repro/io/csvio.py", select={"REPRO-A111"}) == []

    def test_workspace_package_exempt(self):
        code = """
        def scan(directory):
            return open(directory / "manifest.json", "rb").read()
        """
        for module in (
            "src/repro/workspace/manifest.py",
            "src/repro/workspace/space.py",
            "src/repro/workspace/index.py",
        ):
            assert lint(code, path=module, select={"REPRO-A111"}) == []


class TestLockConstruct:
    def test_threading_lock_flagged(self):
        code = """
        import threading

        class Cache:
            def __init__(self):
                self._latch = threading.Lock()
        """
        findings = lint(code, path="src/repro/summary/summarydb.py", select={"REPRO-A109"})
        assert rule_ids(findings) == ["REPRO-A109"]

    def test_asyncio_and_rlock_variants_flagged(self):
        code = """
        import asyncio
        import threading

        a = asyncio.Lock()
        b = threading.RLock()
        c = threading.Condition()
        d = asyncio.Semaphore(4)
        """
        findings = lint(code, path="src/repro/core/dbms.py", select={"REPRO-A109"})
        assert len(findings) == 4

    def test_from_import_spelling_flagged(self):
        code = """
        from threading import Lock

        guard = Lock()
        """
        findings = lint(code, path="src/repro/obs/tracer.py", select={"REPRO-A109"})
        assert rule_ids(findings) == ["REPRO-A109"]

    def test_concurrency_and_server_packages_exempt(self):
        code = """
        import threading

        mutex = threading.Lock()
        """
        for module in (
            "src/repro/concurrency/locks.py",
            "src/repro/concurrency/tracing.py",
            "src/repro/server/server.py",
        ):
            assert lint(code, path=module, select={"REPRO-A109"}) == []

    def test_unrelated_name_passes(self):
        code = """
        from repro.concurrency.tracing import make_latch

        class Holder:
            def __init__(self, Lock=None):
                self.latch = make_latch()
        """
        assert lint(code, path="src/repro/core/session.py", select={"REPRO-A109"}) == []

    def test_suppression_comment_honoured(self):
        code = """
        import threading

        guard = threading.Lock()  # repro-lint: disable=REPRO-A109
        """
        findings = lint(code, path="src/repro/core/dbms.py", select={"REPRO-A109"})
        index = parse_suppressions(textwrap.dedent(code))
        assert [f for f in findings if not index.suppresses(f)] == []
