"""Layer 2: AST lint passes over the ``repro`` sources.

Every rule is one row of :data:`AST_RULES`: its spec, a check that is
asked about each node of a module, and the modules it polices.  Most rows
say one thing — "only module X may touch Y" — so where a rule applies is
data, not code, and one walk per module serves every row.  The two
load-bearing rules guard the paper's maintenance architecture: view rows
may only be mutated through the logged-update machinery (otherwise update
histories and Summary Databases silently diverge from the data,
REPRO-A103), and cache-entry maintenance state may only be written by the
rule/policy layer (otherwise entries change without the Management
Database's rules seeing it, REPRO-A104).  The remaining passes are hygiene
shared by incremental systems everywhere: no mutable default arguments, no
bare ``except:``, and ``__all__`` export lists that match what a module
actually defines.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.lint.findings import Finding, RuleSpec, Severity, rule

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

#: SummaryEntry attributes whose writes are maintenance actions.
CACHE_STATE_ATTRS = frozenset({"stale", "result", "maintainer"})

#: Lock-ish constructors whose direct use REPRO-A109 flags.
LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Modules whose ``Name(...)`` calls of a lock constructor count even
#: without an attribute receiver (``from threading import Lock``).
LOCK_MODULES = frozenset({"threading", "asyncio", "multiprocessing"})

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

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"}
)

#: Nodes whose bodies REPRO-A106 counts as a chunk loop.
_LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

#: What a check yields: the node a finding anchors on, and its message.
Hit = tuple[ast.AST, str]


@dataclass(frozen=True)
class AstRule:
    """One row of the AST layer: a rule, its node check, and its scope.

    ``places`` are module-path suffixes (``"views/updates.py"``) or
    ``"/dir/"`` fragments.  ``only=True`` polices just those modules;
    ``only=False`` polices every module except them (an allowlist).
    """

    spec: RuleSpec
    check: Callable[[ast.AST, _Walk], Iterable[Hit]]
    places: tuple[str, ...] = ()
    only: bool = False

    def applies_to(self, module_path: str) -> bool:
        """Whether this row polices the module at ``module_path``."""
        named = any(
            place in module_path if place.startswith("/") else module_path.endswith(place)
            for place in self.places
        )
        return named == self.only


class _Walk(ast.NodeVisitor):
    """One visit of one module, asking every applicable row about every node.

    Carries the context rows need: the loop depth (REPRO-A106) and the
    names ``from threading import Lock``-style imports bound (REPRO-A109).
    """

    def __init__(self, path: str, rows: list[AstRule]) -> None:
        self.path = path
        self.rows = rows
        self.loop_depth = 0
        self.lock_names: set[str] = set()
        self.findings: list[Finding] = []

    def report(self, spec: RuleSpec, hits: Iterable[Hit]) -> None:
        """Record one finding per hit, anchored at the hit's node."""
        for node, message in hits:
            self.findings.append(
                Finding(
                    rule_id=spec.rule_id,
                    path=self.path,
                    line=getattr(node, "lineno", 1),
                    message=message,
                    severity=spec.severity,
                )
            )

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.ImportFrom) and node.module in LOCK_MODULES:
            self.lock_names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name in LOCK_CONSTRUCTORS
            )
        for row in self.rows:
            self.report(row.spec, row.check(node, self))
        loop = isinstance(node, _LOOPS)
        self.loop_depth += loop
        self.generic_visit(node)
        self.loop_depth -= loop


def _name(expr: ast.expr) -> str:
    """The identifier a ``Name`` or ``Attribute`` ends in ("" otherwise)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _method(node: ast.AST) -> str | None:
    """The method name of an ``x.method(...)`` call, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# -- node checks ----------------------------------------------------------------


def _mutable_default(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
    """REPRO-A101: list/dict/set (display, call, or comprehension) defaults."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    defaults = list(node.args.defaults) + [
        d for d in node.args.kw_defaults if d is not None
    ]
    for default in defaults:
        if isinstance(
            default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ) or (isinstance(default, ast.Call) and _name(default.func) in _MUTABLE_CALLS):
            yield default, (
                f"function {node.name!r} has a mutable default "
                f"({ast.unparse(default)}); use None and create inside"
            )


def _bare_except(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
    """REPRO-A102: ``except:`` with no exception type."""
    if isinstance(node, ast.ExceptHandler) and node.type is None:
        yield node, (
            "bare 'except:' catches SystemExit/KeyboardInterrupt; "
            "name the exception types (use 'except Exception:' at minimum)"
        )


def _view_mutation(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
    """REPRO-A103: ``*.set_value(...)`` calls."""
    if _method(node) == "set_value":
        yield node, (
            "direct view-cell write (.set_value) outside "
            "repro.views.updates; route through the logged-update API "
            "so histories and the Summary Database stay consistent"
        )


def _cache_write(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
    """REPRO-A104: stores to ``entry.stale/result/maintainer``.

    Writes to an object's *own* attribute (``self.stale = ...``) are that
    class managing its own state, not a cache-entry bypass.
    """
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr in CACHE_STATE_ATTRS
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ):
        yield node, (
            f"write to cache-entry attribute .{node.attr} bypasses the "
            "rule repository; use SummaryDatabase.mark_stale/refresh/"
            "detach_maintainer or an UpdateRule"
        )


def _rowwise_bind(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
    """REPRO-A106: ``.bind(...)`` under a ``for``/``while``/comprehension.

    Chunk kernels are compiled once per pipeline (``bind_columns`` in an
    operator's ``__init__``); a ``.bind()`` inside a loop is a row-wise
    binding sneaking into a chunk loop.
    """
    if walk.loop_depth and _method(node) == "bind":
        yield node, (
            "row-wise .bind() call inside a loop of a vectorized "
            "module; compile the kernel once per pipeline with "
            ".bind_columns(schema) outside the chunk loop"
        )


def _shard_isolation(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
    """REPRO-A110: shard worker code must not mutate cross-shard state.

    Worker modules are shipped (pickled) into shard processes, where every
    object is a process-local copy: importing the view or summary layers
    there, or calling their write APIs (``set_value``, ``mark_stale``,
    ``record``, ...), would mutate state the coordinator never observes.
    Workers scan and fold; all mutation stays in the coordinator.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            if _forbidden_module(alias.name):
                yield node, (
                    f"shard worker imports {alias.name}; workers run in "
                    "separate processes and may not touch the view/summary "
                    "layers — keep them scan-and-fold only"
                )
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if _forbidden_module(module):
            yield node, (
                f"shard worker imports from {module}; workers run in "
                "separate processes and may not touch the view/summary "
                "layers — keep them scan-and-fold only"
            )
        else:
            for alias in node.names:
                if alias.name in SHARD_FORBIDDEN_NAMES:
                    yield node, (
                        f"shard worker imports {alias.name}; per-analyst "
                        "view state exists only in the coordinator process"
                    )
    elif _method(node) in SHARD_WRITE_ATTRS:
        yield node, (
            f"shard worker calls .{_method(node)}(); a worker's objects are "
            "process-local copies, so writes never reach the "
            "coordinator — route all mutation through the coordinator"
        )


def _forbidden_module(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SHARD_FORBIDDEN_IMPORTS
    )


def _tracer_construct(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
    """REPRO-A107: a hot-path module constructs a ``Tracer``.

    Instrumented subsystems take ``tracer: AbstractTracer | None = None``
    and fall back to the shared ``NULL_TRACER``; ``NullTracer`` and the
    ``NULL_TRACER`` singleton stay allowed — they *are* the disabled path.
    """
    if isinstance(node, ast.Call) and _name(node.func) == "Tracer":
        yield node, (
            "hot-path module constructs a Tracer; accept one by "
            "injection (tracer: AbstractTracer | None = None, "
            "defaulting to NULL_TRACER) and let the system edge own it"
        )


def _lock_construct(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
    """REPRO-A109: ``threading.Lock()``-style construction.

    Both spellings are caught: the attribute call (``threading.Lock()``,
    ``asyncio.Semaphore()``, ...) and the bare name after a ``from
    threading import Lock``.  Structures that need a latch *hold* one by
    injection (see ``SummaryDatabase.latch``).
    """
    if not isinstance(node, ast.Call):
        return
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in LOCK_CONSTRUCTORS
        and isinstance(func.value, ast.Name)
        and func.value.id in LOCK_MODULES
    ):
        flagged = f"{func.value.id}.{func.attr}"
    elif isinstance(func, ast.Name) and func.id in walk.lock_names:
        flagged = func.id
    else:
        return
    yield node, (
        f"direct {flagged}() construction outside repro.concurrency"
        "/repro.server; acquire through LockManager, or take the "
        "latch by injection (repro.concurrency.tracing.make_latch)"
    )


def _file_access(
    verbs: tuple[str, ...],
    texts: tuple[str, ...],
    names: tuple[str, ...],
    message: str,
) -> Callable[[ast.AST, _Walk], Iterator[Hit]]:
    """A check for ``open(p)`` / ``p.<verb>(...)`` calls on a guarded file.

    Conservative by name: a string constant containing one of ``texts``
    (lowercased), or a variable/attribute whose name contains one of
    ``names``, marks the path.  For ``path.open()`` / ``os.replace(tmp,
    live)`` the receiver or the arguments name the file; for ``open(p)``
    the arguments do.
    """

    def mentions(expr: ast.expr) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if any(text in sub.value.lower() for text in texts):
                    return True
            elif isinstance(sub, (ast.Name, ast.Attribute)):
                if any(name in _name(sub).lower() for name in names):
                    return True
        return False

    def check(node: ast.AST, walk: _Walk) -> Iterator[Hit]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        candidates: list[ast.expr] = list(node.args)
        if isinstance(func, ast.Attribute) and func.attr in verbs:
            candidates.append(func.value)
        elif not (isinstance(func, ast.Name) and func.id == "open"):
            return
        if any(mentions(c) for c in candidates):
            yield node, message

    return check


#: Every node rule with the modules it polices, in report order.
#: REPRO-A105 needs the whole module at once (see :func:`_exports`).
AST_RULES: tuple[AstRule, ...] = (
    AstRule(RULE_MUTABLE_DEFAULT, _mutable_default),
    AstRule(RULE_BARE_EXCEPT, _bare_except),
    # Allowed: the logged-update layer, its undo path, the derived-column
    # refresher, and the storage primitives they delegate to (the sharded
    # file's set_value routes a cell write to the owning shard's file, as
    # relation.py delegates to its backing file).
    AstRule(
        RULE_VIEW_MUTATION,
        _view_mutation,
        (
            "views/updates.py",
            "views/history.py",
            "incremental/derived.py",
            "relational/relation.py",
            "storage/sharded.py",
        ),
    ),
    # Allowed: the rule implementations and the Summary Database layer.
    AstRule(
        RULE_CACHE_BYPASS,
        _cache_write,
        (
            "metadata/rules.py",
            "summary/entries.py",
            "summary/summarydb.py",
            "summary/policies.py",
        ),
    ),
    AstRule(RULE_ROWWISE_BIND, _rowwise_bind, ("relational/vectorized.py",), only=True),
    # Code shipped to shard processes; vectorized.py hosts the grouping
    # loop (fold_groups) the workers execute.
    AstRule(
        RULE_SHARD_ISOLATION,
        _shard_isolation,
        ("relational/shardworker.py", "relational/vectorized.py"),
        only=True,
    ),
    # The instrumented hot paths: tracing arrives by injection.
    AstRule(
        RULE_TRACER_CONSTRUCT,
        _tracer_construct,
        (
            "storage/pager.py",
            "storage/transposed.py",
            "storage/heapfile.py",
            "relational/vectorized.py",
            "relational/operators.py",
            "relational/planner.py",
            "core/session.py",
            "core/propagation.py",
            "summary/summarydb.py",
            "views/updates.py",
        ),
        only=True,
    ),
    # Allowed: the package where the framing/checksum/fsync discipline lives.
    AstRule(
        RULE_DURABILITY_IO,
        _file_access(
            ("open",),
            (".wal", "checkpoint"),
            ("wal", "checkpoint"),
            "direct open() of a WAL/checkpoint file outside "
            "repro.durability; go through WriteAheadLog/"
            "Checkpointer so framing, checksums, and fsync "
            "discipline are preserved",
        ),
        (
            "durability/wal.py",
            "durability/checkpoint.py",
            "durability/faults.py",
            "durability/manager.py",
            "durability/recovery.py",
        ),
    ),
    # Allowed: the concurrency layer and the server's event-loop machinery.
    AstRule(RULE_LOCK_CONSTRUCT, _lock_construct, ("/concurrency/", "/server/")),
    # Allowed: the package where the manifest commit protocol lives.
    AstRule(
        RULE_WORKSPACE_IO,
        _file_access(
            ("open", "replace"),
            ("manifest",),
            ("manifest", "workspace"),
            "direct open()/replace() of a workspace-managed path "
            "outside repro.workspace; go through Workspace/"
            "write_manifest so the temp-file-plus-rename commit "
            "and directory fsync protocol is preserved",
        ),
        (
            "workspace/__init__.py",
            "workspace/manifest.py",
            "workspace/space.py",
            "workspace/index.py",
        ),
    ),
)


# -- REPRO-A105: the one whole-module rule --------------------------------------


def _exports(tree: ast.Module, module_path: str) -> Iterator[Hit]:
    """REPRO-A105: ``__all__`` must match the module's real bindings.

    Two directions: every name in ``__all__`` must be bound at module top
    level, and (for package ``__init__`` re-export modules) every public
    name imported at top level must be listed in ``__all__``.
    """
    exported = _literal_all(tree)
    if exported is None:
        return
    bound, imported = _top_level_bindings(tree)
    for name, node in exported.items():
        if name not in bound and name != "__version__":
            yield node, f"__all__ lists {name!r} but the module never binds it"
    if module_path.endswith("__init__.py"):
        for name, node in sorted(imported.items()):
            if not name.startswith("_") and name not in exported:
                yield node, f"package re-exports {name!r} but __all__ omits it"


def _literal_all(tree: ast.Module) -> dict[str, ast.AST] | None:
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
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None  # computed __all__; out of scope
        names: dict[str, ast.AST] = {}
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names[element.value] = element
        return names
    return None


def _top_level_bindings(tree: ast.Module) -> tuple[set[str], dict[str, ast.AST]]:
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
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bound.add(sub.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        bound |= _assigned_names(target)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            bound.add((alias.asname or alias.name).split(".")[0])
    return bound, imported


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
    module_path = (module_path or path).replace("\\", "/")
    selected = set(select) if select is not None else None
    walk = _Walk(
        path,
        [
            row
            for row in AST_RULES
            if (selected is None or row.spec.rule_id in selected)
            and row.applies_to(module_path)
        ],
    )
    if walk.rows:
        walk.visit(tree)
    if selected is None or RULE_EXPORTS.rule_id in selected:
        walk.report(RULE_EXPORTS, _exports(tree, module_path))
    return walk.findings

