"""Layer 2: AST lint passes over the ``repro`` sources.

Each pass is a custom :class:`ast.NodeVisitor` enforcing one codebase
invariant that the runtime cannot check cheaply.  The two load-bearing
rules guard the paper's maintenance architecture: view rows may only be
mutated through the logged-update machinery (otherwise update histories
and Summary Databases silently diverge from the data, REPRO-A103), and
cache-entry maintenance state may only be written by the rule/policy layer
(otherwise entries change without the Management Database's rules seeing
it, REPRO-A104).  The remaining passes are hygiene shared by incremental
systems everywhere: no mutable default arguments, no bare ``except:``, and
``__all__`` export lists that match what a module actually defines.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.findings import Finding, Severity, rule

RULE_MUTABLE_DEFAULT = rule(
    "REPRO-A101",
    "mutable default argument",
    severity=Severity.ERROR,
    rationale="a shared default list/dict/set leaks state across calls",
)
RULE_BARE_EXCEPT = rule(
    "REPRO-A102",
    "bare except clause",
    severity=Severity.ERROR,
    rationale="swallows KeyboardInterrupt/SystemExit and hides real faults",
)
RULE_VIEW_MUTATION = rule(
    "REPRO-A103",
    "view-row mutation outside the logged-update layer",
    severity=Severity.ERROR,
    rationale=(
        "cell writes that bypass repro.views.updates skip the update "
        "history and the Summary Database propagation pipeline (paper SS4.1)"
    ),
)
RULE_CACHE_BYPASS = rule(
    "REPRO-A104",
    "cache-entry write bypassing the rule repository",
    severity=Severity.ERROR,
    rationale=(
        "SummaryEntry maintenance state (stale/result/maintainer) may only "
        "be written by update rules, consistency policies, and the Summary "
        "Database itself; ad-hoc writes desynchronize cache and rules"
    ),
)
RULE_EXPORTS = rule(
    "REPRO-A105",
    "__all__ inconsistent with module bindings",
    severity=Severity.ERROR,
    rationale="stale export lists advertise names that do not exist (or hide ones that do)",
)
RULE_TRACER_CONSTRUCT = rule(
    "REPRO-A107",
    "Tracer constructed inside a hot-path module",
    severity=Severity.ERROR,
    rationale=(
        "hot paths receive their tracer by injection (defaulting to the "
        "shared NULL_TRACER) so disabled tracing stays allocation-free; a "
        "locally constructed Tracer records unconditionally and its spans "
        "never reach the session/benchmark that should own them"
    ),
)
RULE_DURABILITY_IO = rule(
    "REPRO-A108",
    "direct open() of a WAL/checkpoint file outside repro.durability",
    severity=Severity.ERROR,
    rationale=(
        "the durability contract lives in WriteAheadLog/Checkpointer — "
        "framed CRC32 records, fsync points, temp-file-plus-rename; an "
        "ad-hoc open() of those files bypasses the framing and checksum "
        "discipline and can corrupt the recovery protocol"
    ),
)
RULE_LOCK_CONSTRUCT = rule(
    "REPRO-A109",
    "lock constructed outside the concurrency layer",
    severity=Severity.ERROR,
    rationale=(
        "lock discipline routes through repro.concurrency.LockManager "
        "(deadlock detection, timeouts, lock ordering); an ad-hoc "
        "threading/asyncio lock elsewhere is invisible to the wait-for "
        "graph and can deadlock the service layer undetectably"
    ),
)
RULE_SHARD_ISOLATION = rule(
    "REPRO-A110",
    "cross-shard mutation reachable from shard worker code",
    severity=Severity.ERROR,
    rationale=(
        "shard workers run in separate processes against a private copy of "
        "their shard; importing the view/summary layers there, or calling "
        "their write APIs, mutates process-local state the coordinator "
        "never sees — scatter-gather results silently diverge from the view"
    ),
)
RULE_ROWWISE_BIND = rule(
    "REPRO-A106",
    "row-wise Expr.bind inside a vectorized chunk loop",
    severity=Severity.ERROR,
    rationale=(
        "vectorized operators compile expressions once per pipeline with "
        "bind_columns; a .bind() call inside a chunk loop re-binds per "
        "chunk (or worse, per row) and forfeits the batch execution win"
    ),
)

#: Modules allowed to mutate view cells directly: the logged-update layer,
#: its undo path, the derived-column refresher, and the storage primitives
#: they delegate to.
VIEW_MUTATION_ALLOWED = (
    "views/updates.py",
    "views/view.py",
    "views/history.py",
    "incremental/derived.py",
    "relational/relation.py",
    # The sharded file's set_value is the storage primitive itself: it
    # routes a cell write to the owning shard's transposed file, exactly
    # as relation.py delegates to its backing file.
    "storage/sharded.py",
)

RULE_WORKSPACE_IO = rule(
    "REPRO-A111",
    "direct open()/replace() of a workspace/manifest path outside repro.workspace",
    severity=Severity.ERROR,
    rationale=(
        "workspace directories are content-addressed and their manifests "
        "are committed by temp-file-plus-rename with directory fsync; an "
        "ad-hoc open() or os.replace() of a manifest/workspace path "
        "bypasses the crash-safe write protocol and can leave the "
        "metadata index pointing at torn or phantom view state"
    ),
)

#: Modules allowed to touch workspace-managed paths directly: the
#: workspace package itself, where the manifest commit protocol lives.
WORKSPACE_IO_ALLOWED = (
    "workspace/__init__.py",
    "workspace/manifest.py",
    "workspace/space.py",
    "workspace/index.py",
    "workspace/fleet.py",
)

#: Modules allowed to open WAL/checkpoint files directly: the durability
#: package itself, where the framing/checksum/fsync discipline lives.
DURABILITY_IO_ALLOWED = (
    "durability/wal.py",
    "durability/checkpoint.py",
    "durability/faults.py",
    "durability/manager.py",
    "durability/recovery.py",
)

#: Lowercase substrings of a file-path expression that mark it as a
#: durability artifact (the WAL or a checkpoint snapshot).
DURABILITY_PATH_MARKERS = (".wal", "checkpoint")

#: Modules allowed to write SummaryEntry maintenance attributes: the rule
#: implementations and the Summary Database layer (entries, store, policies).
CACHE_WRITE_ALLOWED = (
    "metadata/rules.py",
    "summary/entries.py",
    "summary/summarydb.py",
    "summary/policies.py",
    "summary/stored.py",
)

#: SummaryEntry attributes whose writes are maintenance actions.
CACHE_STATE_ATTRS = frozenset({"stale", "result", "maintainer"})

#: Directories whose modules may construct locks (REPRO-A109): the
#: concurrency layer itself and the server's event-loop machinery.
#: Everything else either acquires through LockManager or holds an
#: injected latch.
LOCK_CONSTRUCT_ALLOWED_DIRS = ("/concurrency/", "/server/")

#: Lock-ish constructors whose direct use REPRO-A109 flags.
LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Modules whose ``Name(...)`` calls of a lock constructor count even
#: without an attribute receiver (``from threading import Lock``).
LOCK_MODULES = frozenset({"threading", "asyncio", "multiprocessing"})

#: Modules holding vectorized kernels, where REPRO-A106 applies (unlike the
#: allowlists above, this list scopes a rule *to* the named modules).
VECTORIZED_MODULES = ("relational/vectorized.py",)

#: Shard-worker modules, where REPRO-A110 applies (another scope-*to*
#: list): code shipped to shard processes must stay read-only and below
#: the view layer.  The vectorized module hosts the grouping loop
#: (``fold_groups``) the workers execute.
SHARD_WORKER_MODULES = ("relational/shardworker.py", "relational/vectorized.py")

#: Import prefixes a shard worker may never pull in: the view/summary
#: layers carry mutable per-analyst state that only exists in the
#: coordinator process.
SHARD_FORBIDDEN_IMPORTS = ("repro.views", "repro.summary")

#: Names whose import anywhere drags view-layer mutation into a worker.
SHARD_FORBIDDEN_NAMES = frozenset({"ConcreteView", "SummaryDatabase"})

#: Write-API attribute calls forbidden in shard workers: a worker runs in
#: its own process, so any of these would mutate a private copy.
SHARD_WRITE_ATTRS = frozenset(
    {
        "set_value",
        "append_row",
        "append_rows",
        "add_derived_column",
        "mark_stale",
        "refresh",
        "record",
        "apply_insert",
        "apply_delete",
        "apply_update",
    }
)

#: Instrumented hot-path modules, where REPRO-A107 applies: tracing must be
#: received by injection (defaulting to NULL_TRACER), never constructed.
HOT_PATH_MODULES = (
    "storage/pager.py",
    "storage/transposed.py",
    "storage/heapfile.py",
    "storage/wiss.py",
    "relational/vectorized.py",
    "relational/operators.py",
    "relational/planner.py",
    "core/session.py",
    "core/propagation.py",
    "summary/summarydb.py",
    "views/updates.py",
)


@dataclass(frozen=True)
class ModuleContext:
    """What an AST pass knows about the file it is checking."""

    path: str
    """Path as reported in findings (usually repo-relative)."""
    module_path: str
    """Posix-style path used for allowlist suffix matching."""

    def in_allowlist(self, allowed: tuple[str, ...]) -> bool:
        """Whether this module is one of the allowed suffixes."""
        return self.module_path.endswith(allowed)


class AstRule(ast.NodeVisitor):
    """Base class: one findings-collecting visitor per rule."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    def run(self, tree: ast.Module) -> list[Finding]:
        """Visit the tree and return the collected findings."""
        self.visit(tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        """Record one finding at a node's location."""
        self.findings.append(
            Finding(
                rule_id=self.rule_id,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                message=message,
                severity=self.severity,
            )
        )


class MutableDefaultRule(AstRule):
    """REPRO-A101: list/dict/set (display, call, or comprehension) defaults."""

    rule_id = RULE_MUTABLE_DEFAULT.rule_id
    severity = RULE_MUTABLE_DEFAULT.severity

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"})

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    f"function {node.name!r} has a mutable default "
                    f"({ast.unparse(default)}); use None and create inside",
                )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else ""
            )
            return name in self._MUTABLE_CALLS
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


class BareExceptRule(AstRule):
    """REPRO-A102: ``except:`` with no exception type."""

    rule_id = RULE_BARE_EXCEPT.rule_id
    severity = RULE_BARE_EXCEPT.severity

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                "name the exception types (use 'except Exception:' at minimum)",
            )
        self.generic_visit(node)


class ViewMutationRule(AstRule):
    """REPRO-A103: ``*.set_value(...)`` calls outside the update layer."""

    rule_id = RULE_VIEW_MUTATION.rule_id
    severity = RULE_VIEW_MUTATION.severity

    def run(self, tree: ast.Module) -> list[Finding]:
        if self.ctx.in_allowlist(VIEW_MUTATION_ALLOWED):
            return []
        return super().run(tree)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "set_value":
            self.report(
                node,
                "direct view-cell write (.set_value) outside "
                "repro.views.updates; route through the logged-update API "
                "so histories and the Summary Database stay consistent",
            )
        self.generic_visit(node)


class CacheBypassRule(AstRule):
    """REPRO-A104: writes to entry.stale/result/maintainer outside rules."""

    rule_id = RULE_CACHE_BYPASS.rule_id
    severity = RULE_CACHE_BYPASS.severity

    def run(self, tree: ast.Module) -> list[Finding]:
        if self.ctx.in_allowlist(CACHE_WRITE_ALLOWED):
            return []
        return super().run(tree)

    def _check_target(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in CACHE_STATE_ATTRS:
            return
        # Writes to an object's *own* attribute (self.stale = ...) are that
        # class managing its own state, not a cache-entry bypass.
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return
        self.report(
            target,
            f"write to cache-entry attribute .{target.attr} bypasses the "
            "rule repository; use SummaryDatabase.mark_stale/refresh/"
            "detach_maintainer or an UpdateRule",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)


class ExportsRule(AstRule):
    """REPRO-A105: ``__all__`` must match the module's real bindings.

    Two directions: every name in ``__all__`` must be bound at module top
    level, and (for package ``__init__`` re-export modules) every public
    name imported at top level must be listed in ``__all__``.
    """

    rule_id = RULE_EXPORTS.rule_id
    severity = RULE_EXPORTS.severity

    def run(self, tree: ast.Module) -> list[Finding]:
        exported = self._literal_all(tree)
        if exported is None:
            return []
        bound, imported = self._top_level_bindings(tree)
        for name, node in exported.items():
            if name not in bound and name != "__version__":
                self.report(
                    node,
                    f"__all__ lists {name!r} but the module never binds it",
                )
        if self.ctx.module_path.endswith("__init__.py"):
            for name, node in sorted(imported.items()):
                if name.startswith("_") or name in exported:
                    continue
                self.report(
                    node,
                    f"package re-exports {name!r} but __all__ omits it",
                )
        return self.findings

    def _literal_all(self, tree: ast.Module) -> dict[str, ast.AST] | None:
        for node in tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                continue
            if not isinstance(value, (ast.List, ast.Tuple)):
                return None  # computed __all__; out of scope
            names: dict[str, ast.AST] = {}
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names[element.value] = element
            return names
        return None

    def _top_level_bindings(
        self, tree: ast.Module
    ) -> tuple[set[str], dict[str, ast.AST]]:
        bound: set[str] = set()
        imported: dict[str, ast.AST] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    bound |= _assigned_names(target)
            elif isinstance(node, ast.AnnAssign):
                bound |= _assigned_names(node.target)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name == "*":
                        continue
                    bound.add(name)
                    imported[name] = alias
            elif isinstance(node, (ast.If, ast.Try)):
                # Conditional bindings (version guards, optional deps)
                # still satisfy the "listed name is bound" direction.
                for sub in ast.walk(node):
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        bound.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            bound |= _assigned_names(target)
                    elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            if alias.name != "*":
                                bound.add(
                                    (alias.asname or alias.name).split(".")[0]
                                )
        return bound, imported


class DurabilityIoRule(AstRule):
    """REPRO-A108: no direct ``open()`` of WAL/checkpoint paths.

    Outside :mod:`repro.durability`, any ``open(...)`` (builtin or
    ``path.open(...)``) whose path expression mentions a durability
    artifact — a ``.wal`` suffix or a checkpoint file — is flagged.  The
    check is conservative by name: a constant path containing a marker, or
    a variable/attribute whose name mentions ``wal``/``checkpoint``, marks
    the call.
    """

    rule_id = RULE_DURABILITY_IO.rule_id
    severity = RULE_DURABILITY_IO.severity

    _NAME_MARKERS = ("wal", "checkpoint")

    def run(self, tree: ast.Module) -> list[Finding]:
        if self.ctx.in_allowlist(DURABILITY_IO_ALLOWED):
            return []
        return super().run(tree)

    def _mentions_durability_path(self, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                text = sub.value.lower()
                if any(marker in text for marker in DURABILITY_PATH_MARKERS):
                    return True
            elif isinstance(sub, ast.Name):
                if any(m in sub.id.lower() for m in self._NAME_MARKERS):
                    return True
            elif isinstance(sub, ast.Attribute):
                if any(m in sub.attr.lower() for m in self._NAME_MARKERS):
                    return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_open = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if is_open:
            # For path.open() the receiver names the file; for open(p) the
            # first argument does.
            candidates: list[ast.expr] = list(node.args)
            if isinstance(func, ast.Attribute):
                candidates.append(func.value)
            if any(self._mentions_durability_path(c) for c in candidates):
                self.report(
                    node,
                    "direct open() of a WAL/checkpoint file outside "
                    "repro.durability; go through WriteAheadLog/"
                    "Checkpointer so framing, checksums, and fsync "
                    "discipline are preserved",
                )
        self.generic_visit(node)


class WorkspaceIoRule(AstRule):
    """REPRO-A111: workspace-directory containment.

    Outside :mod:`repro.workspace`, any ``open(...)`` or ``replace(...)``
    (builtin, ``os.replace``, or method) whose path expression mentions a
    workspace artifact — a manifest file or a workspace root — is
    flagged.  Same conservative by-name shape as REPRO-A108: a constant
    path containing a marker, or a variable/attribute whose name mentions
    ``manifest``/``workspace``, marks the call.
    """

    rule_id = RULE_WORKSPACE_IO.rule_id
    severity = RULE_WORKSPACE_IO.severity

    _PATH_MARKERS = ("manifest",)
    _NAME_MARKERS = ("manifest", "workspace")

    def run(self, tree: ast.Module) -> list[Finding]:
        if self.ctx.in_allowlist(WORKSPACE_IO_ALLOWED):
            return []
        return super().run(tree)

    def _mentions_workspace_path(self, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                text = sub.value.lower()
                if any(marker in text for marker in self._PATH_MARKERS):
                    return True
            elif isinstance(sub, ast.Name):
                if any(m in sub.id.lower() for m in self._NAME_MARKERS):
                    return True
            elif isinstance(sub, ast.Attribute):
                if any(m in sub.attr.lower() for m in self._NAME_MARKERS):
                    return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        touches = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr in ("open", "replace")
        )
        if touches:
            # For path.open()/os.replace(tmp, live) the receiver or the
            # arguments name the file; for open(p) the first argument does.
            candidates: list[ast.expr] = list(node.args)
            if isinstance(func, ast.Attribute):
                candidates.append(func.value)
            if any(self._mentions_workspace_path(c) for c in candidates):
                self.report(
                    node,
                    "direct open()/replace() of a workspace-managed path "
                    "outside repro.workspace; go through Workspace/"
                    "write_manifest so the temp-file-plus-rename commit "
                    "and directory fsync protocol is preserved",
                )
        self.generic_visit(node)


class RowwiseBindRule(AstRule):
    """REPRO-A106: no ``.bind(...)`` inside loops of vectorized modules.

    Chunk kernels must be compiled once per pipeline (``bind_columns`` in
    an operator's ``__init__``); any ``.bind()`` call under a ``for``/
    ``while`` or comprehension in a vectorized module is a row-wise
    binding sneaking into a chunk loop.
    """

    rule_id = RULE_ROWWISE_BIND.rule_id
    severity = RULE_ROWWISE_BIND.severity

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._loop_depth = 0

    def run(self, tree: ast.Module) -> list[Finding]:
        if not self.ctx.in_allowlist(VECTORIZED_MODULES):
            return []
        return super().run(tree)

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_loop(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_loop(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_loop(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_loop(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self._loop_depth > 0
            and isinstance(func, ast.Attribute)
            and func.attr == "bind"
        ):
            self.report(
                node,
                "row-wise .bind() call inside a loop of a vectorized "
                "module; compile the kernel once per pipeline with "
                ".bind_columns(schema) outside the chunk loop",
            )
        self.generic_visit(node)


class ShardIsolationRule(AstRule):
    """REPRO-A110: shard worker code must not mutate cross-shard state.

    Worker modules are shipped (pickled) into shard processes, where every
    object is a process-local copy: importing the view or summary layers
    there, or calling their write APIs (``set_value``, ``mark_stale``,
    ``record``, ...), would mutate state the coordinator never observes and
    silently desynchronize scatter-gather results from the view.  Workers
    scan and fold; all mutation stays in the coordinator.
    """

    rule_id = RULE_SHARD_ISOLATION.rule_id
    severity = RULE_SHARD_ISOLATION.severity

    def run(self, tree: ast.Module) -> list[Finding]:
        if not self.ctx.in_allowlist(SHARD_WORKER_MODULES):
            return []
        return super().run(tree)

    def _forbidden_module(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in SHARD_FORBIDDEN_IMPORTS
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if self._forbidden_module(alias.name):
                self.report(
                    node,
                    f"shard worker imports {alias.name}; workers run in "
                    "separate processes and may not touch the view/summary "
                    "layers — keep them scan-and-fold only",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if self._forbidden_module(module):
            self.report(
                node,
                f"shard worker imports from {module}; workers run in "
                "separate processes and may not touch the view/summary "
                "layers — keep them scan-and-fold only",
            )
        else:
            for alias in node.names:
                if alias.name in SHARD_FORBIDDEN_NAMES:
                    self.report(
                        node,
                        f"shard worker imports {alias.name}; per-analyst "
                        "view state exists only in the coordinator process",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in SHARD_WRITE_ATTRS:
            self.report(
                node,
                f"shard worker calls .{func.attr}(); a worker's objects are "
                "process-local copies, so writes never reach the "
                "coordinator — route all mutation through the coordinator",
            )
        self.generic_visit(node)


class TracerConstructRule(AstRule):
    """REPRO-A107: hot-path modules must not construct a ``Tracer``.

    Instrumented subsystems take ``tracer: AbstractTracer | None = None``
    and fall back to the shared ``NULL_TRACER``; only system edges (the
    DBMS facade's caller, benchmarks, tests, the shell) may build a
    recording :class:`~repro.obs.tracer.Tracer`.  ``NullTracer`` and the
    ``NULL_TRACER`` singleton stay allowed — they *are* the disabled path.
    """

    rule_id = RULE_TRACER_CONSTRUCT.rule_id
    severity = RULE_TRACER_CONSTRUCT.severity

    def run(self, tree: ast.Module) -> list[Finding]:
        if not self.ctx.in_allowlist(HOT_PATH_MODULES):
            return []
        return super().run(tree)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name == "Tracer":
            self.report(
                node,
                "hot-path module constructs a Tracer; accept one by "
                "injection (tracer: AbstractTracer | None = None, "
                "defaulting to NULL_TRACER) and let the system edge own it",
            )
        self.generic_visit(node)


class LockConstructRule(AstRule):
    """REPRO-A109: locks are constructed only in the concurrency layer.

    Flags ``threading.Lock()`` / ``asyncio.Lock()`` (and RLock, Condition,
    Semaphore, BoundedSemaphore, including ``multiprocessing``) everywhere
    outside ``repro/concurrency/`` and ``repro/server/``.  Both spellings
    are caught: the attribute call (``threading.Lock()``) and the bare
    name after a ``from threading import Lock``.  Structures that need a
    latch *hold* one by injection (see ``SummaryDatabase.latch``); only
    the concurrency layer constructs.
    """

    rule_id = RULE_LOCK_CONSTRUCT.rule_id
    severity = RULE_LOCK_CONSTRUCT.severity

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        self._lock_imports: set[str] = set()

    def run(self, tree: ast.Module) -> list[Finding]:
        if any(d in self.ctx.module_path for d in LOCK_CONSTRUCT_ALLOWED_DIRS):
            return []
        return super().run(tree)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in LOCK_MODULES:
            for alias in node.names:
                if alias.name in LOCK_CONSTRUCTORS:
                    self._lock_imports.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        flagged = ""
        if (
            isinstance(func, ast.Attribute)
            and func.attr in LOCK_CONSTRUCTORS
            and isinstance(func.value, ast.Name)
            and func.value.id in LOCK_MODULES
        ):
            flagged = f"{func.value.id}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in self._lock_imports:
            flagged = func.id
        if flagged:
            self.report(
                node,
                f"direct {flagged}() construction outside repro.concurrency"
                "/repro.server; acquire through LockManager, or take the "
                "latch by injection (repro.concurrency.tracing.make_latch)",
            )
        self.generic_visit(node)


def _assigned_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names |= _assigned_names(element)
        return names
    if isinstance(target, ast.Starred):
        return _assigned_names(target.value)
    return set()


#: Every AST pass, in report order.
AST_RULES: tuple[type[AstRule], ...] = (
    MutableDefaultRule,
    BareExceptRule,
    ViewMutationRule,
    CacheBypassRule,
    ExportsRule,
    RowwiseBindRule,
    ShardIsolationRule,
    TracerConstructRule,
    DurabilityIoRule,
    LockConstructRule,
    WorkspaceIoRule,
)


def lint_source(
    source: str,
    path: str,
    module_path: str | None = None,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Run every (selected) AST pass over one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id="REPRO-A100",
                path=path,
                line=exc.lineno or 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = ModuleContext(
        path=path,
        module_path=(module_path or path).replace("\\", "/"),
    )
    selected = set(select) if select is not None else None
    findings: list[Finding] = []
    for rule_cls in AST_RULES:
        if selected is not None and rule_cls.rule_id not in selected:
            continue
        findings.extend(rule_cls(ctx).run(tree))
    return findings


def lint_file(
    path: Path,
    report_path: str | None = None,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the AST passes over one file on disk."""
    source = path.read_text(encoding="utf-8")
    return lint_source(
        source,
        report_path or str(path),
        module_path=str(path),
        select=select,
    )
