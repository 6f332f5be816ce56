"""Layer 3 (``REPRO-C2xx``) concurrency analysis: fixtures and gates.

Each rule gets a minimal synthetic fixture that must trip it, plus a
suppression-comment variant that must silence it; the deliberately
inverted two-lock fixture here is the same shape
``tests/concurrency/test_sanitizer.py`` detects *dynamically* — the
acceptance criterion that the static and runtime halves agree.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.concurrency import (
    CONCURRENCY_RULE_IDS,
    analyze_files,
    run_concurrency_checks,
)
from repro.lint.findings import RULES

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The deliberately inverted two-lock fixture (also exercised dynamically).
INVERTED_PAIR_SOURCE = textwrap.dedent(
    """
    import threading

    class Pair:
        def __init__(self):
            self.a_latch = threading.Lock()
            self.b_latch = threading.Lock()

        def forward(self):
            with self.a_latch:
                with self.b_latch:
                    return 1

        def backward(self):
            with self.b_latch:
                with self.a_latch:
                    return 2
    """
)

#: The inverted pair again, with one side reached through a module-level
#: function defined below its caller.
FORWARD_CALL_SOURCE = textwrap.dedent(
    """
    import threading

    class Pair:
        def __init__(self):
            self.a_latch = threading.Lock()
            self.b_latch = threading.Lock()

        def forward(self):
            with self.a_latch:
                take_b(self)

        def hold_b(self):
            with self.b_latch:
                return 1

        def backward(self):
            with self.b_latch:
                with self.a_latch:
                    return 2

    def take_b(pair: Pair):
        return pair.hold_b()
    """
)


def lint_sources(*named_sources, select=None):
    """Run only the concurrency layer over (relpath, source) fixtures."""
    files = [
        (name, f"/fixtures/{name}", textwrap.dedent(source))
        for name, source in named_sources
    ]
    return run_concurrency_checks(files, select=select)


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestRuleRegistration:
    def test_all_c_rules_registered(self):
        for rule_id in sorted(CONCURRENCY_RULE_IDS):
            spec = RULES.get(rule_id)
            assert spec.layer == "concurrency"


class TestC201LockOrderCycles:
    def test_inverted_two_lock_fixture_is_a_cycle(self):
        findings = lint_sources(("pair.py", INVERTED_PAIR_SOURCE))
        assert "REPRO-C201" in rule_ids(findings)
        [cycle] = [f for f in findings if f.rule_id == "REPRO-C201"]
        assert "latch:Pair.a_latch" in cycle.message
        assert "latch:Pair.b_latch" in cycle.message

    def test_call_to_a_function_defined_below_is_followed(self):
        # forward() calls take_b(), defined further down the module, which
        # takes b_latch: a -> b, against backward()'s b -> a.
        findings = lint_sources(("pair.py", FORWARD_CALL_SOURCE))
        [cycle] = [f for f in findings if f.rule_id == "REPRO-C201"]
        assert "latch:Pair.a_latch -> latch:Pair.b_latch" in cycle.message

    def test_consistent_order_is_clean(self):
        source = INVERTED_PAIR_SOURCE.replace(
            "with self.b_latch:\n            with self.a_latch:",
            "with self.a_latch:\n            with self.b_latch:",
        )
        findings = lint_sources(("pair.py", source))
        assert "REPRO-C201" not in rule_ids(findings)

    def test_interprocedural_cycle_through_a_call(self):
        findings = lint_sources(
            (
                "chain.py",
                """
                import threading

                class Chain:
                    def __init__(self):
                        self.a_latch = threading.Lock()
                        self.b_latch = threading.Lock()

                    def outer(self):
                        with self.a_latch:
                            self.helper()

                    def helper(self):
                        with self.b_latch:
                            return 1

                    def backward(self):
                        with self.b_latch:
                            with self.a_latch:
                                return 2
                """,
            )
        )
        assert "REPRO-C201" in rule_ids(findings)

    def test_bare_acquire_loop_self_edge(self):
        findings = lint_sources(
            (
                "sweep.py",
                """
                class Sweep:
                    def grab_all(self, locks, names):
                        for name in names:
                            locks.acquire("sid", name, 1.0)
                        try:
                            return len(names)
                        finally:
                            for name in names:
                                locks.release("sid", name)
                """,
            )
        )
        assert "REPRO-C201" in rule_ids(findings)

    def test_with_statement_in_loop_is_not_a_self_edge(self):
        findings = lint_sources(
            (
                "reacquire.py",
                """
                import threading

                class Poller:
                    def __init__(self):
                        self.work_latch = threading.Lock()

                    def poll(self, jobs):
                        for job in jobs:
                            with self.work_latch:
                                job()
                """,
            )
        )
        assert "REPRO-C201" not in rule_ids(findings)


class TestC202UnboundedHandlerWaits:
    HANDLER_SOURCE = """
        class Handler:
            def _op_fetch(self, sid, request):
                self.locks.acquire(sid, "resource"{timeout})
                try:
                    return {{}}
                finally:
                    self.locks.release(sid, "resource")
    """

    def test_no_timeout_reachable_from_handler(self):
        findings = lint_sources(
            ("server/handlers.py", self.HANDLER_SOURCE.format(timeout="")),
            select={"REPRO-C202"},
        )
        assert rule_ids(findings) == {"REPRO-C202"}

    def test_timeout_bound_is_clean(self):
        findings = lint_sources(
            (
                "server/handlers.py",
                self.HANDLER_SOURCE.format(timeout=", timeout_s=1.0"),
            ),
            select={"REPRO-C202"},
        )
        assert findings == []

    def test_same_code_outside_server_is_not_flagged(self):
        findings = lint_sources(
            ("batch/handlers.py", self.HANDLER_SOURCE.format(timeout="")),
            select={"REPRO-C202"},
        )
        assert findings == []

    def test_reachability_through_a_callee(self):
        findings = lint_sources(
            (
                "server/handlers.py",
                """
                class Handler:
                    def _op_fetch(self, sid, request):
                        return self._locked_work(sid)

                    def _locked_work(self, sid):
                        self.locks.acquire(sid, "resource")
                        try:
                            return {}
                        finally:
                            self.locks.release(sid, "resource")
                """,
            ),
            select={"REPRO-C202"},
        )
        assert rule_ids(findings) == {"REPRO-C202"}


class TestC203UnguardedAcquire:
    def test_acquire_without_release_path(self):
        findings = lint_sources(
            (
                "leaky.py",
                """
                class Leaky:
                    def work(self, locks):
                        locks.acquire("sid", "resource", 1.0)
                        return self.compute()
                """,
            ),
            select={"REPRO-C203"},
        )
        assert rule_ids(findings) == {"REPRO-C203"}

    def test_acquire_then_try_finally_is_clean(self):
        findings = lint_sources(
            (
                "guarded.py",
                """
                class Guarded:
                    def work(self, locks):
                        locks.acquire("sid", "resource", 1.0)
                        try:
                            return self.compute()
                        finally:
                            locks.release("sid", "resource")
                """,
            ),
            select={"REPRO-C203"},
        )
        assert findings == []

    def test_acquire_inside_try_with_finally_release_is_clean(self):
        findings = lint_sources(
            (
                "guarded.py",
                """
                class Guarded:
                    def work(self, locks, names):
                        held = []
                        try:
                            for name in names:
                                locks.acquire("sid", name, 1.0)
                                held.append(name)
                            return len(held)
                        finally:
                            for name in held:
                                locks.release("sid", name)
                """,
            ),
            select={"REPRO-C203"},
        )
        assert findings == []


class TestC204EscapedState:
    MIXED_SOURCE = """
        import threading

        class Cache:
            def __init__(self):
                self.latch = threading.Lock()
                self.hits = 0

            def latched_bump(self):
                with self.latch:
                    self.hits += 1

            def bare_bump(self):
                self.hits += 1{suppress}
    """

    def test_mixed_latched_and_bare_mutation(self):
        findings = lint_sources(
            (
                "summary/cache.py",
                self.MIXED_SOURCE.format(suppress=""),
            ),
            select={"REPRO-C204"},
        )
        assert rule_ids(findings) == {"REPRO-C204"}
        [finding] = findings
        assert "self.hits" in finding.message

    def test_always_bare_is_not_flagged(self):
        findings = lint_sources(
            (
                "summary/cache.py",
                """
                class Cache:
                    def bump(self):
                        self.hits += 1

                    def other_bump(self):
                        self.hits += 1
                """,
            ),
            select={"REPRO-C204"},
        )
        assert findings == []

    def test_helper_only_called_under_latch_is_protected(self):
        findings = lint_sources(
            (
                "summary/cache.py",
                """
                import threading

                class Cache:
                    def __init__(self):
                        self.latch = threading.Lock()
                        self.hits = 0

                    def latched_bump(self):
                        with self.latch:
                            self._bump()

                    def _bump(self):
                        self.hits += 1
                """,
            ),
            select={"REPRO-C204"},
        )
        assert findings == []

    def test_out_of_scope_package_is_not_flagged(self):
        findings = lint_sources(
            ("stats/cache.py", self.MIXED_SOURCE.format(suppress="")),
            select={"REPRO-C204"},
        )
        assert findings == []


class TestC205BlockingInAsync:
    def test_direct_blocking_call(self):
        findings = lint_sources(
            (
                "server/loop.py",
                """
                import time

                class Service:
                    async def handle(self, request):
                        time.sleep(0.1)
                        return request
                """,
            ),
            select={"REPRO-C205"},
        )
        assert rule_ids(findings) == {"REPRO-C205"}

    def test_call_into_lock_taking_code(self):
        findings = lint_sources(
            (
                "server/loop.py",
                """
                import threading

                class Service:
                    def __init__(self):
                        self.state_latch = threading.Lock()

                    def teardown(self, sid):
                        with self.state_latch:
                            return sid

                    async def handle(self, sid):
                        return self.teardown(sid)
                """,
            ),
            select={"REPRO-C205"},
        )
        assert rule_ids(findings) == {"REPRO-C205"}

    def test_awaited_work_is_clean(self):
        findings = lint_sources(
            (
                "server/loop.py",
                """
                import asyncio

                class Service:
                    async def handle(self, request):
                        await asyncio.sleep(0.1)
                        return request
                """,
            ),
            select={"REPRO-C205"},
        )
        assert findings == []

    @pytest.mark.parametrize(
        "imported, call, flagged",
        [
            ("from time import sleep", "sleep(0.1)", True),
            ("from asyncio import sleep", "await sleep(0.1)", False),
        ],
    )
    def test_bare_imported_callee_resolves_through_its_import(
        self, imported, call, flagged
    ):
        findings = lint_sources(
            (
                "server/loop.py",
                f"""
                {imported}

                class Service:
                    async def handle(self, request):
                        {call}
                        return request
                """,
            ),
            select={"REPRO-C205"},
        )
        assert rule_ids(findings) == ({"REPRO-C205"} if flagged else set())


class TestC206VersionMutation:
    """Published MVCC versions and the summary cache are write-protected."""

    def test_annotated_parameter_mutation_is_flagged(self):
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, version: ViewVersion):
                        version.columns["x"] = [1.0]
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}
        [finding] = findings
        assert "ViewVersion" in finding.message
        assert "version.columns" in finding.message

    def test_pin_result_local_is_typed_and_flagged(self):
        # No annotation anywhere: the type flows from the producer call.
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, chain):
                        v = chain.pin("sid")
                        v.seq = 9
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}

    def test_mutator_call_on_version_state_is_flagged(self):
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, version: ViewVersion):
                        version.epochs.update({"x": 2})
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}

    def test_rebinding_a_version_local_is_not_a_mutation(self):
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def swap(self, chain):
                        v = chain.pin("sid")
                        v = chain.latest()
                        return v
                """,
            ),
            select={"REPRO-C206"},
        )
        assert findings == []

    def test_summary_cache_bypass_is_flagged(self):
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, summary: SummaryDatabase, key, entry):
                        summary._entries[key] = entry
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}
        [finding] = findings
        assert "_entries" in finding.message

    def test_summary_cache_bypass_through_a_chain_is_flagged(self):
        # Untyped receiver, but the attribute chain passes through
        # ``summary`` and lands on a cache structure.
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, key):
                        self.view.summary._entries[key] = None
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}

    def test_sketch_mutation_of_published_summary_is_flagged(self):
        # ISSUE 9: sketch results live in the published version's frozen
        # summary snapshot by reference; writing one corrupts every
        # pinned reader.
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, version: ViewVersion, key):
                        version.summary[key] = (1.0, 2.0)
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}
        [finding] = findings
        assert "version.summary" in finding.message

    def test_sketch_mutator_call_on_published_state_is_flagged(self):
        # Calling an in-place maintainer mutator (merge_partial,
        # on_insert, ...) on state fetched from a published snapshot is
        # a write, even though no assignment appears.
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, version: ViewVersion, key, state):
                        version.summary[key].merge_partial(state)
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}

    def test_sketch_mutator_on_pin_result_is_flagged(self):
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, chain, key):
                        v = chain.pin("sid")
                        v.summary[key].on_insert(2.0)
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}

    @pytest.mark.parametrize("call", ["fold([2.0], -1)", "reset()"])
    def test_fold_and_reset_on_published_state_are_flagged(self, call):
        # The two primitives every other maintainer mutator is built on.
        findings = lint_sources(
            (
                "server/patch.py",
                f"""
                class Patcher:
                    def poke(self, version: ViewVersion, key):
                        version.summary[key].{call}
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}

    def test_driving_a_local_sketch_is_clean(self):
        # Maintainer mutators on private, unpublished sketches are the
        # normal incremental-update path — not a C206 violation.
        findings = lint_sources(
            (
                "server/patch.py",
                """
                class Patcher:
                    def fold(self, values, state):
                        digest = TDigest()
                        digest.absorb(values)
                        digest.merge_partial(state)
                        return digest.value
                """,
            ),
            select={"REPRO-C206"},
        )
        assert findings == []

    def test_mvcc_module_itself_is_sanctioned(self):
        findings = lint_sources(
            (
                "concurrency/mvcc.py",
                """
                class VersionChain:
                    def _patch(self, version: ViewVersion):
                        version.columns["x"] = [1.0]
                """,
            ),
            select={"REPRO-C206"},
        )
        assert findings == []

    def test_summarydb_module_may_write_its_own_cache(self):
        findings = lint_sources(
            (
                "summary/summarydb.py",
                """
                class SummaryDatabase:
                    def insert(self, key, entry):
                        self._entries[key] = entry
                """,
            ),
            select={"REPRO-C206"},
        )
        assert findings == []

    def test_summarydb_module_may_not_mutate_versions(self):
        # The sanction is per-discipline: summarydb.py may write its own
        # cache, but published versions stay exclusive to mvcc.py.
        findings = lint_sources(
            (
                "summary/summarydb.py",
                """
                class SummaryDatabase:
                    def poke(self, version: ViewVersion):
                        version.summary["mean", ("x",)] = 0.0
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}


class TestCoordinatorReadContext:
    """``with coordinator.read(...) as r`` pins a version: ``r`` is a
    ``SnapshotReader`` and no lock is held while the body runs."""

    READER_SOURCE = """
        class SnapshotReader:
            def __init__(self, pinned: ViewVersion):
                self.pinned = pinned
    """

    def test_finding_inside_a_read_body_is_reported(self):
        # The mutation is only a C206 finding if the analyzer knows what
        # ``r`` is — which it learns from the ``with ... as`` binding.
        findings = lint_sources(
            ("concurrency/reader.py", self.READER_SOURCE),
            (
                "server/patch.py",
                """
                class Patcher:
                    def poke(self, sid):
                        with self.coordinator.read(sid, "v", None, 1.0) as r:
                            r.pinned.summary["k"] = 0.0
                """,
            ),
            select={"REPRO-C206"},
        )
        assert rule_ids(findings) == {"REPRO-C206"}
        [finding] = findings
        assert finding.path.endswith("server/patch.py")
        assert "r.pinned" in finding.message

    def test_read_holds_no_lock_for_its_body(self):
        # A write nested in a read is not view-lock nesting (the read
        # released its bootstrap lock before the body ran) ...
        source = """
            class Mover:
                def copy(self, sid, src, dst):
                    with self.coordinator.{outer}(sid, src, None, 1.0):
                        with self.coordinator.{inner}(sid, dst, None, 1.0):
                            return 1
        """
        findings = lint_sources(
            ("server/mover.py", source.format(outer="read", inner="write")),
            select={"REPRO-C201"},
        )
        assert findings == []
        # ... while a first read under a write may still bootstrap: two
        # view locks nest, which needs a stated order.
        findings = lint_sources(
            ("server/mover.py", source.format(outer="write", inner="read")),
            select={"REPRO-C201"},
        )
        assert rule_ids(findings) == {"REPRO-C201"}


class TestSuppressions:
    """Every C-rule honours line-level suppression comments (engine level)."""

    FIXTURES = {
        "REPRO-C201": (
            "pair.py",
            # The finding anchors on the first edge of the cycle: forward()'s
            # inner acquire.  Suppressing there documents the sanctioned order.
            INVERTED_PAIR_SOURCE.replace(
                "with self.b_latch:",
                "with self.b_latch:  # repro-lint: disable=REPRO-C201",
                1,
            ),
        ),
        "REPRO-C202": (
            "server/handlers.py",
            TestC202UnboundedHandlerWaits.HANDLER_SOURCE.format(
                timeout=""
            ).replace(
                '"resource")',
                '"resource")  # repro-lint: disable=REPRO-C202,REPRO-C203',
                1,
            ),
        ),
        "REPRO-C203": (
            "leaky.py",
            """
            class Leaky:
                def work(self, locks):
                    # repro-lint: disable=REPRO-C203
                    locks.acquire("sid", "resource", 1.0)
                    return self.compute()
            """,
        ),
        "REPRO-C204": (
            "summary/cache.py",
            TestC204EscapedState.MIXED_SOURCE.format(
                suppress="  # repro-lint: disable=REPRO-C204"
            ),
        ),
        "REPRO-C205": (
            "server/loop.py",
            """
            import time

            class Service:
                async def handle(self, request):
                    time.sleep(0.1)  # repro-lint: disable=REPRO-C205
                    return request
            """,
        ),
        "REPRO-C206": (
            "server/patch.py",
            """
            class Patcher:
                def poke(self, version: ViewVersion):
                    version.columns["x"] = [1.0]  # repro-lint: disable=REPRO-C206
            """,
        ),
    }

    def test_each_rule_is_silenced_by_its_suppression(self, tmp_path):
        for rule_id, (relpath, source) in self.FIXTURES.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source), encoding="utf-8")
            report = run_lint(
                targets=[target],
                select={rule_id},
                semantic_checks=False,
                ast_checks=False,
            )
            assert report.clean, (rule_id, [f.render() for f in report.findings])
            assert report.suppressed >= 1, f"{rule_id} found nothing to suppress"
            target.unlink()

    def test_cycle_suppression_survives_full_layer_run(self, tmp_path):
        # Same fixture, but with no --select narrowing: the suppression must
        # hold when every C-rule runs together.
        target = tmp_path / "pair.py"
        target.write_text(
            textwrap.dedent(self.FIXTURES["REPRO-C201"][1]), encoding="utf-8"
        )
        report = run_lint(
            targets=[target], semantic_checks=False, ast_checks=False
        )
        c201 = [f for f in report.findings if f.rule_id == "REPRO-C201"]
        assert c201 == [], [f.render() for f in c201]


class TestRealTreeModel:
    """The shipped tree's model contains the edges the design promises."""

    def test_known_lock_order_edges_present(self):
        files = [
            (str(p), str(p), p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE_ROOT.rglob("*.py"))
        ]
        model = analyze_files(files)
        edges = model.lock_order_edges()
        # quiesce: registry lock ordered before every view lock.
        assert ("lock:__registry__", "lock:<view>") in edges
        # group commit: the leader drains the queue while leading.
        assert (
            "latch:GroupCommitter._leader",
            "latch:GroupCommitter._queue_latch",
        ) in edges
        # a write warms the summary cache under its view lock.
        assert ("lock:<view>", "latch:SummaryDatabase.latch") in edges
        # instrumented sites exist for the runtime cross-check.
        assert len(model.instrumented_sites()) >= 10

    def test_fixed_tree_has_only_sanctioned_raw_findings(self):
        files = [
            (str(p), str(p), p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE_ROOT.rglob("*.py"))
        ]
        model = analyze_files(files)
        # Raw findings (pre-suppression) are exactly the two sanctioned,
        # comment-justified sites: the quiesce sorted-order self-edge and
        # the shutdown-path synchronous release.
        raw = sorted((f.rule_id, Path(f.path).name) for f in model.findings)
        assert raw == [
            ("REPRO-C201", "transactions.py"),
            ("REPRO-C205", "server.py"),
        ]

    def test_same_module_calls_resolve_whatever_the_definition_order(self):
        files = [
            (str(p), str(p), p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE_ROOT.rglob("*.py"))
        ]
        model = analyze_files(files)
        summary_latch = "latch:SummaryDatabase.latch"
        # Each reaches the summary latch only through a same-module
        # function defined below it (recover -> _replay_transaction, ...).
        for qualname in (
            "durability.recovery._replay_transaction",
            "durability.recovery._replay_undo",
            "durability.recovery.recover",
            "workspace.space.Workspace.create",
            "workspace.space.Workspace.open",
            "workspace.space.Workspace.open_many.<local>.open_one",
            "workspace.space.Workspace.recover_all.<local>.recover_one",
        ):
            assert summary_latch in model.may_acquire[f"repro.{qualname}"], qualname
        for qualname in (
            "core.dbms.StatisticalDBMS.checkpoint",
            "core.shell.AnalystShell.do_checkpoint",
            "core.shell.AnalystShell.do_durability",
            "durability.checkpoint.Checkpointer.write",
            "durability.faults.FaultInjector.fsync_directory",
            "durability.faults.write_atomically",
            "durability.manager.DurabilityManager.checkpoint",
            "durability.recovery._replay_transaction",
            "durability.recovery._replay_undo",
            "durability.recovery.recover",
            "durability.wal.WriteAheadLog._writer",
            "durability.wal.WriteAheadLog.truncate",
            "durability.wal.WriteAheadLog.truncate_tail",
            "workspace.manifest.write_manifest",
            "workspace.space.ManagedView.checkpoint",
            "workspace.space.ManagedView.close",
            "workspace.space.Workspace._write_manifest_for",
            "workspace.space.Workspace.close",
            "workspace.space.Workspace.close_all",
            "workspace.space.Workspace.open",
            "workspace.space.Workspace.open_many.<local>.open_one",
            "workspace.space.Workspace.recover_all.<local>.recover_one",
            "workspace.space.Workspace.refresh_manifest",
        ):
            assert f"repro.{qualname}" in model.may_block, qualname
