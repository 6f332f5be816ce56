"""Layer 3: project-wide concurrency-safety analysis (``REPRO-C2xx``).

Unlike the per-file AST passes (layer 2), these checks need the whole
tree at once: a deadlock is a property of the *interprocedural* lock-order
graph, not of any one acquisition site.  The analyzer builds

1. a **class/type index** — one sweep over class and function headers
   collects every class, its methods, its attribute types (inferred from
   ``self.X = ...`` assignments and parameter annotations), its *latch
   attributes* (anything assigned from ``make_latch()`` /
   ``threading.Lock`` / ``Condition``, or whose name says latch/mutex),
   and every function name — no body is walked for calls or locks;
2. a **call graph** — a second sweep walks every function body against
   that index, resolving calls through ``self``, inferred receiver types,
   module imports, and (as a guarded fallback) project-unique method
   names;
3. a **lock model** — every acquisition site, classified to a canonical
   key: ``lock:<resource>`` for :class:`~repro.concurrency.locks.
   LockManager` resources (string-literal resources keep their name,
   dynamic view names collapse to ``lock:<view>``) and
   ``latch:<Class>.<attr>`` for injected/constructed latches;
4. the **static lock-order graph** — an edge ``A -> B`` whenever ``B`` may
   be acquired while ``A`` is held, through any chain of calls.

The rules:

========  =====================================================================
C201      lock-order cycle in the static graph (potential deadlock); a
          self-edge means two locks of the same *class* (e.g. two view
          locks) nest — safe only under an explicit total order, which the
          analyzer cannot see, so the site must justify itself with a
          suppression comment.
C202      a LockManager acquisition with no explicit timeout argument is
          reachable from a server request handler — the handler's deadline
          contract (``_remaining``) requires every lock wait on the request
          path to be bounded by the time the request has left.
C203      a bare ``.acquire(...)`` whose release is not guaranteed: not a
          ``with`` statement, not inside (or immediately before) a ``try``
          whose ``finally`` releases.
C204      shared-state escape: an attribute of a latch-holding class is
          mutated both under a lock scope and outside any lock scope
          (scoped to ``repro/{concurrency,server,summary,durability}``).
C205      a blocking call — fsync, ``time.sleep``, ``Future.result``, or
          any project function that may acquire a latch/lock — made
          directly (not via ``await`` / an executor) inside an ``async
          def`` body, i.e. on the event loop.
C206      a published MVCC ``ViewVersion`` mutated outside
          ``repro.concurrency.mvcc``, or a Summary Database cache
          structure (``_entries``/``_insertion_order``/``_index``)
          written around the sanctioned insert/refresh/mark_stale/
          ``snapshot_fresh`` APIs — either tears lock-free readers.
========  =====================================================================

The model is also exported for the runtime cross-check: the
:class:`~repro.concurrency.sanitizer.LockOrderSanitizer` records actual
acquisition order during stress tests and compares it against
:meth:`ConcurrencyModel.lock_order_edges` (inversions, through
:func:`transitive_closure`) and :meth:`ConcurrencyModel.instrumented_sites`
(coverage).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.findings import Finding, RuleSpec, Severity, rule

RULE_LOCK_CYCLE = rule(
    "REPRO-C201",
    "lock-order cycle (potential deadlock)",
    severity=Severity.ERROR,
    layer="concurrency",
    rationale=(
        "two code paths that acquire the same locks in different orders "
        "deadlock under the right interleaving; the static lock-order "
        "graph must stay acyclic (same-class nesting needs a justified "
        "total order, e.g. sorted resource names)"
    ),
)
RULE_UNBOUNDED_WAIT = rule(
    "REPRO-C202",
    "unbounded lock wait reachable from a server request handler",
    severity=Severity.ERROR,
    layer="concurrency",
    rationale=(
        "request handlers promise a deadline (timeout_s); a lock "
        "acquisition on the request path that does not pass an explicit "
        "timeout can outwait the request's deadline and strand the worker"
    ),
)
RULE_UNGUARDED_ACQUIRE = rule(
    "REPRO-C203",
    "lock acquired without a guaranteed release path",
    severity=Severity.ERROR,
    layer="concurrency",
    rationale=(
        "an exception between acquire and release leaks the lock forever; "
        "use a with statement, or follow the acquire immediately with a "
        "try whose finally releases"
    ),
)
RULE_ESCAPED_STATE = rule(
    "REPRO-C204",
    "attribute mutated both under a lock and outside any lock scope",
    severity=Severity.ERROR,
    layer="concurrency",
    rationale=(
        "if one writer takes the latch and another does not, the latch "
        "protects nothing: the unlatched write races every latched one"
    ),
)
RULE_BLOCKING_IN_ASYNC = rule(
    "REPRO-C205",
    "blocking call on the event loop",
    severity=Severity.ERROR,
    layer="concurrency",
    rationale=(
        "the asyncio loop serves every connection; one fsync, sleep, "
        "Future.result, or contended lock wait inside an async def stalls "
        "all of them — run blocking work on an executor"
    ),
)
RULE_VERSION_MUTATION = rule(
    "REPRO-C206",
    "published MVCC version or summary-cache structure mutated outside "
    "sanctioned APIs",
    severity=Severity.ERROR,
    layer="concurrency",
    rationale=(
        "MVCC readers serve published ViewVersion objects without locks "
        "precisely because they are immutable; a mutation outside "
        "repro.concurrency.mvcc tears every pinned snapshot, and a direct "
        "write to the Summary Database's cache structures (_entries/"
        "_insertion_order/_index) bypasses the latch and the publish-time "
        "snapshot_fresh capture"
    ),
)

#: Every rule this layer owns (the engine skips the whole analysis when a
#: ``--select`` names none of them).
CONCURRENCY_RULE_IDS = frozenset(
    {
        "REPRO-C201",
        "REPRO-C202",
        "REPRO-C203",
        "REPRO-C204",
        "REPRO-C205",
        "REPRO-C206",
    }
)

#: Packages the escape analysis (C204) covers.
ESCAPE_SCOPE_DIRS = ("/concurrency/", "/server/", "/summary/", "/durability/")

#: Method names the mutation scan treats as in-place mutators.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
    }
)

#: In-place mutators of the sketch/model maintainer protocol
#: (:mod:`repro.incremental`).  Calling one on state reachable from a
#: published ``ViewVersion`` — e.g. a sketch tuple or maintainer fetched
#: from a version's frozen summary snapshot — corrupts every pinned
#: reader, so the C206 pass records these receivers as object mutations.
SKETCH_MUTATOR_METHODS = frozenset(
    {
        "fold",
        "reset",
        "on_insert",
        "on_delete",
        "on_update",
        "apply_delta",
        "apply_batch",
        "absorb",
        "merge_partial",
        "initialize",
    }
)

#: Methods whose return value is a published :class:`ViewVersion` — used
#: by the C206 pass to type locals like ``v = chain.pin(sid)``.
MVCC_PRODUCER_METHODS = frozenset({"pin", "latest", "head", "publish_version"})

#: Summary Database cache structures only ``summarydb.py`` itself (and the
#: MVCC snapshot capture) may write; everyone else goes through
#: insert/refresh/mark_stale/snapshot_fresh.
SUMMARY_CACHE_ATTRS = frozenset({"_entries", "_insertion_order", "_index"})

#: Module-path suffixes sanctioned to mutate published version objects.
MVCC_SANCTIONED_SUFFIXES = ("concurrency/mvcc.py",)

#: Module-path suffixes sanctioned to write summary-cache structures.
SUMMARY_SANCTIONED_SUFFIXES = ("concurrency/mvcc.py", "summary/summarydb.py")

#: Constructor names that mark an attribute as a latch.
LATCH_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "make_latch"}
)

#: Attribute-name substrings that mark an attribute as a latch.
LATCH_NAME_MARKERS = ("latch", "mutex")

#: Method names too generic for unique-name call resolution (matching a
#: project method by bare name alone would mis-resolve file.read(),
#: str.join(), dict.update(), ...).
NOISY_METHOD_NAMES = frozenset(
    {
        "read",
        "write",
        "open",
        "close",
        "get",
        "set",
        "add",
        "append",
        "pop",
        "items",
        "values",
        "keys",
        "join",
        "acquire",
        "release",
        "run",
        "start",
        "stop",
        "send",
        "put",
        "commit",
        "wait",
        "clear",
        "update",
        "remove",
        "insert",
        "result",
        "copy",
        "count",
        "index",
        "sort",
        "split",
        "strip",
        "encode",
        "decode",
        "format",
        "render",
        "name",
        "names",
        "next",
    }
)

#: LockManager-ish method -> (resource positional index, timeout positional
#: index), both counted among the call's arguments (self excluded).
MANAGER_ACQUIRE_METHODS = {
    "acquire": (1, 2),
    "exclusive": (1, 2),
}

#: TransactionCoordinator contexts that acquire a lock.  method ->
#: (resource index or None for the registry, timeout index, result type
#: bound by ``with ... as``, whether the lock is held for the body).
#: ``read`` only *may* take the view lock — the one-time chain bootstrap,
#: released before the body runs against the pinned version.
COORDINATOR_CONTEXTS = {
    "read": (1, 3, "SnapshotReader", False),
    "write": (1, 3, "AnalystSession", True),
    "registry_write": (None, 1, "StatisticalDBMS", True),
}

#: Receiver attribute names that identify a LockManager / coordinator even
#: when type inference fails.
MANAGER_RECEIVER_HINTS = frozenset({"locks", "lock_manager"})
COORDINATOR_RECEIVER_HINTS = frozenset({"coordinator"})

#: Server request handlers: roots for C202/C205 reachability.  Matched by
#: function name for modules under ``/server/``.
SERVER_HANDLER_NAMES = frozenset({"_execute", "_handshake_result", "_stats"})
SERVER_HANDLER_PREFIX = "_op_"

#: Calls that block outright: callee name -> the module it must come from
#: (None: any receiver).  A bare callee is first resolved through its
#: module's ``from ... import`` map, so ``from time import sleep; sleep(1)``
#: is ``time.sleep`` while an ``asyncio.sleep`` is not.
BLOCKING_CALL_NAMES: dict[str, str | None] = {"fsync": None, "sleep": "time"}


# -- model dataclasses --------------------------------------------------------


@dataclass(frozen=True)
class LockSite:
    """One static lock/latch acquisition site."""

    key: str
    kind: str  # "manager" | "latch"
    path: str
    line: int
    function: str  # enclosing function qualname
    has_timeout: bool = True
    guarded: bool = True

    def instrumented(self) -> bool:
        """Whether the runtime sanitizer can observe this site.

        Manager sites only: every :class:`LockManager` acquisition reports
        to an installed sanitizer.  Latch sites are never counted — a latch
        reports only when it came from a named ``make_latch``, which the
        static model does not distinguish from a plain mutex.
        """
        return self.kind == "manager"


@dataclass
class _Call:
    """One call site inside a function body."""

    callee: ast.expr
    line: int
    held: tuple[object, ...]  # str keys and _CallHold placeholders
    awaited: bool
    resolved: tuple[str, ...] = ()
    blocking: bool = False  # blocks outright (BLOCKING_CALL_NAMES, waits)


@dataclass(frozen=True)
class _CallHold:
    """Placeholder: a ``with``-item call whose acquisitions are held."""

    qualnames: tuple[str, ...]


@dataclass
class _Mutation:
    attr: str
    line: int
    held: tuple[object, ...]
    function: str


@dataclass
class _ObjectMutation:
    """A write through an arbitrary object (not just ``self.X``).

    Recorded for every assignment target and mutator-method receiver so
    the C206 pass can ask "whose state did this touch?": ``owner_type``
    is the inferred class of the object whose attribute was written, and
    ``chain`` the full dotted path of the target (for structural checks
    like "...summary._entries" reached through ``self``).
    """

    owner_type: str | None
    attr: str
    chain: tuple[str, ...]
    line: int
    function: str


@dataclass
class FunctionInfo:
    """Everything the analyzer learned about one function."""

    qualname: str
    name: str
    cls: str | None
    path: str
    module_path: str
    line: int
    is_async: bool
    sites: list[LockSite] = field(default_factory=list)
    calls: list[_Call] = field(default_factory=list)
    mutations: list[_Mutation] = field(default_factory=list)
    object_mutations: list[_ObjectMutation] = field(default_factory=list)
    local_edges: list[tuple[str, str, int]] = field(default_factory=list)
    loop_self_keys: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    qualname: str
    module: str
    path: str
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    attr_types: dict[str, str] = field(default_factory=dict)
    latch_attrs: set[str] = field(default_factory=set)
    latch_alias: dict[str, str] = field(default_factory=dict)


@dataclass
class ConcurrencyModel:
    """The whole-project concurrency model one analysis run produced."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)  # qualname
    edges: dict[tuple[str, str], tuple[str, int, str]] = field(
        default_factory=dict
    )  # (a, b) -> (path, line, via-function)
    findings: list[Finding] = field(default_factory=list)
    may_acquire: dict[str, frozenset[str]] = field(default_factory=dict)
    may_block: set[str] = field(default_factory=set)

    def lock_order_edges(self) -> set[tuple[str, str]]:
        """The static lock-order graph as bare key pairs."""
        return set(self.edges)

    def all_sites(self) -> list[LockSite]:
        return [s for fn in self.functions.values() for s in fn.sites]

    def instrumented_sites(self) -> list[LockSite]:
        """Sites the runtime :class:`LockOrderSanitizer` can observe."""
        return [s for s in self.all_sites() if s.instrumented()]


# -- helpers ------------------------------------------------------------------


def module_of(module_path: str) -> str:
    """Dotted module name from a file path (best effort)."""
    parts = Path(module_path.replace("\\", "/")).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or module_path


def transitive_closure(edges: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    """Every ``(a, b)`` such that ``b`` is reachable from ``a`` by edges.

    A node on a cycle reaches itself; the static analyzer's C201 pass and
    the runtime sanitizer's :meth:`static_violations` share this one
    closure.
    """
    reach: dict[str, set[str]] = {}
    for a, b in edges:
        reach.setdefault(a, set()).add(b)
        reach.setdefault(b, set())
    changed = True
    while changed:
        changed = False
        for node, direct in reach.items():
            expanded = set(direct)
            for nxt in direct:
                expanded |= reach[nxt]
            if expanded != direct:
                reach[node] = expanded
                changed = True
    return {(a, b) for a, targets in reach.items() for b in targets}


def _attr_chain(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None for anything fancier."""
    names: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        return list(reversed(names))
    return None


def _ann_class_names(ann: ast.expr) -> list[str]:
    """Class names mentioned in an annotation expression."""
    names = []
    for sub in ast.walk(ann):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names.extend(_ann_class_names(ast.parse(sub.value, mode="eval").body))
            except SyntaxError:
                pass
    return names


def _resource_key(expr: ast.expr | None) -> str:
    if expr is None:
        return "lock:__registry__"
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return f"lock:{expr.value}"
    name = ""
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    if name.endswith("REGISTRY_RESOURCE"):
        return "lock:__registry__"
    return "lock:<view>"


def _timeout_present(call: ast.Call, index: int) -> bool:
    for kw in call.keywords:
        if kw.arg == "timeout_s":
            return not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
    if len(call.args) > index:
        arg = call.args[index]
        return not (isinstance(arg, ast.Constant) and arg.value is None)
    return False


def _held_keys(held: tuple[object, ...]) -> tuple[str, ...]:
    return tuple(k for k in held if isinstance(k, str))


def _param_annotations(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str]:
    types: dict[str, str] = {}
    args = list(node.args.posonlyargs) + list(node.args.args) + list(
        node.args.kwonlyargs
    )
    for arg in args:
        if arg.annotation is not None:
            names = _ann_class_names(arg.annotation)
            if names:
                types[arg.arg] = names[0]
    return types


def _definitions(
    node: ast.AST, module: str, owner: str | None = None
) -> Iterator[tuple[ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef, str | None]]:
    """Classes and functions outside function bodies, in source order.

    Each comes with the qualname of its innermost enclosing class (None
    at module level).  Function bodies are not entered: their nested
    defs belong to the function (see :func:`_extract_module`).
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, owner
        elif isinstance(child, ast.ClassDef):
            yield child, owner
            yield from _definitions(child, module, f"{module}.{child.name}")
        elif not isinstance(child, ast.expr):
            yield from _definitions(child, module, owner)


# -- sweep 1: the project index -----------------------------------------------


class _Index:
    """Sweep 1: every class (methods, attribute types, latches) and function name.

    Built from definitions and the ``self.X = ...`` assignments of
    methods only; sweep 2 (:func:`_extract_module`) resolves method calls,
    receiver types and imported functions against the finished index.
    """

    def __init__(self, parsed: Sequence[tuple[str, str, ast.Module]]) -> None:
        self.classes: dict[str, ClassInfo] = {}
        self.functions: set[str] = set()
        for shown, module_path, tree in parsed:
            self._add_module(shown, module_of(module_path), tree)
        self._by_name: dict[str, ClassInfo] = {}
        self._methods: dict[str, list[str]] = {}
        for cls in self.classes.values():
            self._by_name.setdefault(cls.name, cls)
            for name, qualname in cls.methods.items():
                self._methods.setdefault(name, []).append(qualname)

    def _add_module(self, shown: str, module: str, tree: ast.Module) -> None:
        seen: set[str] = set()  # overload/redefinition: the first one counts
        for node, owner in _definitions(tree, module):
            if isinstance(node, ast.ClassDef):
                bases = [chain[-1] for chain in map(_attr_chain, node.bases) if chain]
                qualname = f"{module}.{node.name}"
                self.classes[qualname] = ClassInfo(
                    name=node.name,
                    qualname=qualname,
                    module=module,
                    path=shown,
                    bases=tuple(bases),
                )
                continue
            qualname = f"{owner or module}.{node.name}"
            if qualname in seen:
                continue
            seen.add(qualname)
            if owner is not None:
                cls = self.classes[owner]
                cls.methods.setdefault(node.name, qualname)
                _harvest_attr_types(cls, node)
        self.functions |= seen

    def class_named(self, name: str, module: str) -> ClassInfo | None:
        """Class ``name`` as seen from ``module``: its own, else the first."""
        return self.classes.get(f"{module}.{name}") or self._by_name.get(name)

    def method(self, class_name: str, method: str) -> tuple[str, ...]:
        """``class_name.method``, searched through the bases breadth first."""
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self._by_name.get(name)
            if cls is None:
                continue
            if method in cls.methods:
                return (cls.methods[method],)
            queue.extend(cls.bases)
        return ()

    def unique_method(self, method: str) -> tuple[str, ...]:
        """The project's one method of this name, if exactly one exists."""
        quals = self._methods.get(method, [])
        return tuple(quals) if len(quals) == 1 else ()


def _harvest_attr_types(
    cls: ClassInfo, node: ast.FunctionDef | ast.AsyncFunctionDef
) -> None:
    param_types = _param_annotations(node)
    for stmt in ast.walk(node):
        target: ast.expr | None = None
        value: ast.expr | None = None
        ann: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value, ann = stmt.target, stmt.value, stmt.annotation
        if (
            not isinstance(target, ast.Attribute)
            or not isinstance(target.value, ast.Name)
            or target.value.id != "self"
        ):
            continue
        attr = target.attr
        inferred = _infer_value_class(value, param_types)
        if inferred is None and ann is not None:
            inferred = next(iter(_ann_class_names(ann)), None)
        if inferred and attr not in cls.attr_types:
            cls.attr_types[attr] = inferred
        chain = _attr_chain(value.func) if isinstance(value, ast.Call) else None
        if (chain and chain[-1] in LATCH_FACTORIES) or any(
            marker in attr.lower() for marker in LATCH_NAME_MARKERS
        ):
            cls.latch_attrs.add(attr)
        # Condition(self._mutex) aliases the condition to its mutex.
        if isinstance(value, ast.Call) and chain and chain[-1] == "Condition" and value.args:
            mutex = _attr_chain(value.args[0])
            if mutex and mutex[0] == "self" and len(mutex) == 2:
                cls.latch_alias[attr] = mutex[1]


def _infer_value_class(
    value: ast.expr | None, param_types: dict[str, str]
) -> str | None:
    if value is None:
        return None
    if isinstance(value, ast.Call):
        chain = _attr_chain(value.func)
        if chain:
            return chain[-1][0].isupper() and chain[-1] or None
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    if isinstance(value, ast.BoolOp):  # x or Fallback(...)
        for operand in value.values:
            found = _infer_value_class(operand, param_types)
            if found:
                return found
    if isinstance(value, ast.IfExp):
        for operand in (value.body, value.orelse):
            found = _infer_value_class(operand, param_types)
            if found:
                return found
    return None


# -- sweep 2: function bodies -------------------------------------------------


@dataclass
class _Module:
    """The file sweep 2 is walking."""

    name: str
    imports: dict[str, str]  # local name -> "module.attr"
    functions: dict[str, FunctionInfo]  # extracted so far, in source order


def _extract_module(
    index: _Index, shown: str, module_path: str, tree: ast.Module
) -> dict[str, FunctionInfo]:
    """Walk every function of one file (nested defs as ``<local>`` ones)."""
    module_path = module_path.replace("\\", "/")
    mod = _Module(module_of(module_path), {}, {})
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name != "*":
                    mod.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    for node, owner in _definitions(tree, mod.name):
        qualname = f"{owner or mod.name}.{node.name}"
        if isinstance(node, ast.ClassDef) or qualname in mod.functions:
            continue
        cls = index.classes[owner] if owner is not None else None
        for sub in ast.walk(node):
            if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sub_qual = qualname if sub is node else f"{qualname}.<local>.{sub.name}"
            if sub_qual in mod.functions:
                continue
            info = FunctionInfo(
                qualname=sub_qual,
                name=sub.name,
                cls=owner,
                path=shown,
                module_path=module_path,
                line=sub.lineno,
                is_async=isinstance(sub, ast.AsyncFunctionDef),
            )
            mod.functions[sub_qual] = info
            _FunctionWalker(index, mod, info, cls, sub).walk()
    return mod.functions


@dataclass(frozen=True)
class _Acq:
    key: str
    kind: str
    line: int
    has_timeout: bool
    bare_call: bool  # True for x.acquire(...) used as a statement
    held_for_body: bool = True  # False: a ``with`` that releases before its body
    binds: str | None = None  # class of the ``with ... as`` target


class _FunctionWalker:
    """Walk one function body tracking held locks along the way."""

    def __init__(
        self,
        index: _Index,
        mod: _Module,
        info: FunctionInfo,
        cls: ClassInfo | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.index = index
        self.mod = mod
        self.info = info
        self.cls = cls
        self.node = node
        self.param_types = _param_annotations(node)
        self.local_types: dict[str, str] = {}
        self.local_latches: dict[str, str] = {}
        self._awaited: set[int] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Await):
                for call in ast.walk(sub.value):
                    if isinstance(call, ast.Call):
                        self._awaited.add(id(call))

    def walk(self) -> None:
        self._walk_body(self.node.body, held=(), in_loop=False, guarded=False)

    # -- statement walk ----------------------------------------------------

    def _walk_body(
        self,
        stmts: Sequence[ast.stmt],
        held: tuple[object, ...],
        in_loop: bool,
        guarded: bool,
    ) -> None:
        held = tuple(held)
        for position, stmt in enumerate(stmts):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # analyzed as their own FunctionInfo
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held
                for item in stmt.items:
                    acq = self._recognize(item.context_expr)
                    if acq is not None:
                        # No loop self-edge here: a ``with`` in a loop
                        # releases before the next iteration re-acquires.
                        self._record_site(acq, guarded=True, held=inner)
                        if acq.held_for_body:
                            inner = inner + (acq.key,)
                        if acq.binds and isinstance(item.optional_vars, ast.Name):
                            self.local_types[item.optional_vars.id] = acq.binds
                    else:
                        resolved = self._record_call(
                            item.context_expr, inner, line=stmt.lineno
                        )
                        if resolved:
                            inner = inner + (_CallHold(resolved),)
                self._walk_body(stmt.body, inner, in_loop, guarded)
                continue
            if isinstance(stmt, ast.Try):
                releases = self._finally_releases(stmt)
                self._walk_body(stmt.body, held, in_loop, guarded or releases)
                for handler in stmt.handlers:
                    self._walk_body(handler.body, held, in_loop, guarded)
                self._walk_body(stmt.orelse, held, in_loop, guarded)
                self._walk_body(stmt.finalbody, held, in_loop, guarded)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                if isinstance(stmt, ast.While):
                    self._scan_expr(stmt.test, held)
                else:
                    self._scan_expr(stmt.iter, held)
                self._walk_body(stmt.body, held, True, guarded)
                self._walk_body(stmt.orelse, held, in_loop, guarded)
                continue
            if isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, held)
                self._walk_body(stmt.body, held, in_loop, guarded)
                self._walk_body(stmt.orelse, held, in_loop, guarded)
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                acq = self._recognize(stmt.value, allow_bare=True)
                if acq is not None and acq.bare_call:
                    next_guarded = guarded or self._next_stmt_releases(
                        stmts, position
                    )
                    self._record_site(acq, guarded=next_guarded, held=held)
                    if in_loop:
                        self.info.loop_self_keys.append((acq.key, acq.line))
                    held = held + (acq.key,)
                    continue
            # Generic statement: type-harvest assigns, scan expressions,
            # record self.X mutations.
            self._harvest_locals(stmt)
            self._record_mutations(stmt, held)
            for expr in ast.iter_child_nodes(stmt):
                if isinstance(expr, ast.expr):
                    self._scan_expr(expr, held)
                elif isinstance(expr, ast.stmt):
                    # match/try*-style nesting not handled above: recurse
                    self._walk_body([expr], held, in_loop, guarded)

    def _finally_releases(self, stmt: ast.Try) -> bool:
        for sub in ast.walk(ast.Module(body=list(stmt.finalbody), type_ignores=[])):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr in ("release", "release_all", "__exit__"):
                    return True
        return False

    def _next_stmt_releases(
        self, stmts: Sequence[ast.stmt], position: int
    ) -> bool:
        """acquire(); try: ... finally: release() — the canonical pattern."""
        if position + 1 < len(stmts):
            nxt = stmts[position + 1]
            if isinstance(nxt, ast.Try) and self._finally_releases(nxt):
                return True
        return False

    # -- expression scan (calls + C205 candidates) -------------------------

    def _scan_expr(self, expr: ast.expr, held: tuple[object, ...]) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                self._record_call(sub, held, line=sub.lineno)

    def _record_call(
        self, expr: ast.expr, held: tuple[object, ...], line: int
    ) -> tuple[str, ...]:
        if not isinstance(expr, ast.Call):
            return ()
        resolved = self._resolve(expr.func)
        self.info.calls.append(
            _Call(
                callee=expr.func,
                line=line,
                held=tuple(held),
                awaited=id(expr) in self._awaited,
                resolved=resolved,
                blocking=self._blocking(expr.func),
            )
        )
        return resolved

    def _blocking(self, callee: ast.expr) -> bool:
        chain = _attr_chain(callee)
        if not chain:
            return False
        if len(chain) == 1 and chain[0] in self.mod.imports:
            chain = self.mod.imports[chain[0]].split(".")
        name = chain[-1]
        if name in BLOCKING_CALL_NAMES:
            source = BLOCKING_CALL_NAMES[name]
            return source is None or chain[0] == source
        if name == "result" and any("future" in part.lower() for part in chain[:-1]):
            return True
        return name in ("wait", "join") and any(
            marker in part.lower()
            for part in chain[:-1]
            for marker in ("thread", "event", "ticket", "done")
        )

    # -- acquisition recognition -------------------------------------------

    def _recognize(
        self, expr: ast.expr, allow_bare: bool = False
    ) -> _Acq | None:
        # ``with self.latchattr:``
        if isinstance(expr, ast.Attribute):
            latch = self._latch_key(expr)
            if latch is not None:
                return _Acq(latch, "latch", expr.lineno, True, False)
            return None
        if isinstance(expr, ast.Name):
            if expr.id in self.local_latches:
                return _Acq(
                    self.local_latches[expr.id], "latch", expr.lineno, True, False
                )
            return None
        if not isinstance(expr, ast.Call) or not isinstance(
            expr.func, ast.Attribute
        ):
            return None
        method = expr.func.attr
        receiver = expr.func.value
        if method in MANAGER_ACQUIRE_METHODS and self._receiver_is(
            receiver, "LockManager", MANAGER_RECEIVER_HINTS
        ):
            res_idx, timeout_idx = MANAGER_ACQUIRE_METHODS[method]
            resource = expr.args[res_idx] if len(expr.args) > res_idx else None
            return _Acq(
                _resource_key(resource),
                "manager",
                expr.lineno,
                _timeout_present(expr, timeout_idx),
                bare_call=method == "acquire",
            )
        if method in COORDINATOR_CONTEXTS and self._receiver_is(
            receiver, "TransactionCoordinator", COORDINATOR_RECEIVER_HINTS
        ):
            res_idx, timeout_idx, result, holds = COORDINATOR_CONTEXTS[method]
            resource = (
                expr.args[res_idx]
                if res_idx is not None and len(expr.args) > res_idx
                else None
            )
            key = _resource_key(resource) if res_idx is not None else (
                "lock:__registry__"
            )
            return _Acq(
                key,
                "manager",
                expr.lineno,
                _timeout_present(expr, timeout_idx),
                bare_call=False,
                held_for_body=holds,
                binds=result,
            )
        if method == "acquire" and allow_bare:
            latch = self._latch_key(receiver)
            if latch is not None:
                return _Acq(latch, "latch", expr.lineno, True, bare_call=True)
        return None

    def _latch_key(self, expr: ast.expr) -> str | None:
        chain = _attr_chain(expr)
        if not chain or len(chain) != 2 or chain[0] != "self" or self.cls is None:
            return None
        attr = chain[1]
        if attr not in self.cls.latch_attrs:
            return None
        attr = self.cls.latch_alias.get(attr, attr)
        return f"latch:{self.cls.name}.{attr}"

    def _receiver_is(
        self, receiver: ast.expr, class_name: str, hints: frozenset[str]
    ) -> bool:
        """Whether a call's receiver is a ``class_name`` (typed or by name)."""
        if self._infer_type(receiver) == class_name:
            return True
        chain = _attr_chain(receiver)
        return bool(chain) and chain[-1] in hints

    # -- type inference -----------------------------------------------------

    def _infer_type(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.cls is not None:
                return self.cls.name
            return self.local_types.get(expr.id) or self.param_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._infer_type(expr.value)
            if base is not None:
                cls = self.index.class_named(base, self.mod.name)
                if cls is not None:
                    return cls.attr_types.get(expr.attr)
        return None

    def _harvest_locals(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
            if isinstance(target, ast.Name) and isinstance(value, ast.Call):
                chain = _attr_chain(value.func)
                if chain and chain[-1] in LATCH_FACTORIES:
                    self.local_latches[target.id] = (
                        f"latch:{self.info.name}.{target.id}"
                    )
                elif chain and chain[-1][:1].isupper():
                    self.local_types[target.id] = chain[-1]
                elif chain and chain[-1] in MVCC_PRODUCER_METHODS:
                    # v = chain.pin(sid) / chain.latest() /
                    # chain.publish_version(view): the result is a
                    # published version object (C206 tracks its writes).
                    self.local_types[target.id] = "ViewVersion"

    # -- call resolution ----------------------------------------------------

    def _resolve(self, func: ast.expr) -> tuple[str, ...]:
        if isinstance(func, ast.Name):
            local = f"{self.mod.name}.{func.id}"  # above or below the caller
            if local in self.index.functions:
                return (local,)
            imported = self.mod.imports.get(func.id)
            return (imported,) if imported in self.index.functions else ()
        if not isinstance(func, ast.Attribute):
            return ()
        receiver_type = self._infer_type(func.value)
        if receiver_type is not None:
            # A typed receiver without the method is a foreign class: ().
            return self.index.method(receiver_type, func.attr)
        if func.attr in NOISY_METHOD_NAMES:
            return ()
        return self.index.unique_method(func.attr)

    def _record_site(
        self, acq: _Acq, guarded: bool, held: tuple[object, ...]
    ) -> None:
        self.info.sites.append(
            LockSite(
                key=acq.key,
                kind=acq.kind,
                path=self.info.path,
                line=acq.line,
                function=self.info.qualname,
                has_timeout=acq.has_timeout,
                guarded=guarded,
            )
        )
        for holder in _held_keys(held):
            self.info.local_edges.append((holder, acq.key, acq.line))
        for hold in held:
            if isinstance(hold, _CallHold):
                # Edges from the context-call's acquisitions are expanded
                # once may_acquire is known.
                self.info.local_edges.append(
                    (f"@call:{'|'.join(hold.qualnames)}", acq.key, acq.line)
                )

    def _record_mutations(self, stmt: ast.stmt, held: tuple[object, ...]) -> None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            attr = _self_attr_of(target)
            if attr is not None:
                self.info.mutations.append(
                    _Mutation(attr, stmt.lineno, tuple(held), self.info.qualname)
                )
            self._record_object_mutation(target, stmt.lineno, allow_name=False)
        # Mutating method calls on self.X
        for sub in ast.walk(stmt):
            if not (
                isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            ):
                continue
            if sub.func.attr in MUTATOR_METHODS:
                attr = _self_attr_of(sub.func.value, direct_only=True)
                if attr is not None:
                    self.info.mutations.append(
                        _Mutation(attr, sub.lineno, tuple(held), self.info.qualname)
                    )
                self._record_object_mutation(
                    sub.func.value, sub.lineno, allow_name=True
                )
            elif sub.func.attr in SKETCH_MUTATOR_METHODS:
                # Sketch/model maintainers mutate in place; the C206
                # pass flags these receivers when they resolve to
                # published-version state.
                self._record_object_mutation(
                    sub.func.value, sub.lineno, allow_name=True
                )

    def _record_object_mutation(
        self, target: ast.expr, line: int, allow_name: bool
    ) -> None:
        """Note whose state a write touched, for the C206 pass.

        ``target`` is an assignment target (subscripts stripped) or a
        mutator call's receiver: ``version.columns[k]`` records owner
        ``version``'s type and attribute ``columns``.  A bare name only
        counts for mutator receivers (``v.update(...)`` mutates ``v``;
        ``v = ...`` merely rebinds it).
        """
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            owner_type = self._infer_type(node.value)
            attr = node.attr
        elif allow_name and isinstance(node, ast.Name) and node.id != "self":
            owner_type = self._infer_type(node)
            attr = ""
        else:
            return
        if owner_type is None and attr not in SUMMARY_CACHE_ATTRS:
            return  # untyped and structurally uninteresting: keep the model small
        self.info.object_mutations.append(
            _ObjectMutation(
                owner_type,
                attr,
                tuple(_attr_chain(node) or ()),
                line,
                self.info.qualname,
            )
        )


def _self_attr_of(target: ast.expr, direct_only: bool = False) -> str | None:
    """The base ``self.X`` attribute a write touches, if any.

    ``self.X = ...`` / ``self.X.Y = ...`` / ``self.X[k] = ...`` all mutate
    the state reachable from ``self.X``.
    """
    node = target
    if not direct_only:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            parent = node.value
            if (
                isinstance(parent, ast.Name)
                and parent.id == "self"
                and isinstance(node, ast.Attribute)
            ):
                return node.attr
            node = parent
        return None
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# -- project-wide analysis ----------------------------------------------------


def analyze_files(
    files: Iterable[tuple[str, str, str]],
) -> ConcurrencyModel:
    """Build the project concurrency model from (shown, module_path, source).

    Runs two sweeps: the first indexes classes, attribute types and
    function names; the second walks every function body against that
    index.
    """
    parsed: list[tuple[str, str, ast.Module]] = []
    for shown, module_path, source in files:
        try:
            tree = ast.parse(source, filename=shown)
        except SyntaxError:
            continue  # the AST layer already reports REPRO-A100
        parsed.append((shown, module_path, tree))
    index = _Index(parsed)
    model = ConcurrencyModel(classes=index.classes)
    for shown, module_path, tree in parsed:
        model.functions.update(_extract_module(index, shown, module_path, tree))

    _compute_may_acquire(model)
    _expand_edges(model)
    _compute_may_block(model)
    _check_cycles(model)
    _check_timeouts(model)
    _check_guards(model)
    _check_escapes(model)
    _check_async_blocking(model)
    _check_version_mutations(model)
    return model


def _compute_may_acquire(model: ConcurrencyModel) -> None:
    acquire: dict[str, set[str]] = {
        q: {s.key for s in fn.sites} for q, fn in model.functions.items()
    }
    changed = True
    while changed:
        changed = False
        for q, fn in model.functions.items():
            for call in fn.calls:
                for callee in call.resolved:
                    extra = acquire.get(callee)
                    if extra and not extra <= acquire[q]:
                        acquire[q] |= extra
                        changed = True
    model.may_acquire = {q: frozenset(keys) for q, keys in acquire.items()}


def _expand_edges(model: ConcurrencyModel) -> None:
    def add_edge(a: str, b: str, path: str, line: int, via: str) -> None:
        model.edges.setdefault((a, b), (path, line, via))

    for q, fn in model.functions.items():
        for holder, key, line in fn.local_edges:
            if holder.startswith("@call:"):
                for callee in holder[len("@call:") :].split("|"):
                    for held_key in model.may_acquire.get(callee, ()):
                        add_edge(held_key, key, fn.path, line, q)
            else:
                add_edge(holder, key, fn.path, line, q)
        for key, line in fn.loop_self_keys:
            add_edge(key, key, fn.path, line, q)
        for call in fn.calls:
            held: set[str] = set(_held_keys(call.held))
            for hold in call.held:
                if isinstance(hold, _CallHold):
                    for callee in hold.qualnames:
                        held |= set(model.may_acquire.get(callee, ()))
            if not held:
                continue
            for callee in call.resolved:
                for key in model.may_acquire.get(callee, ()):
                    for holder in held:
                        if holder != key:
                            add_edge(holder, key, fn.path, call.line, q)


def _compute_may_block(model: ConcurrencyModel) -> None:
    blocked = {
        q
        for q, fn in model.functions.items()
        if fn.sites or any(call.blocking for call in fn.calls)
    }
    changed = True
    while changed:
        changed = False
        for q, fn in model.functions.items():
            if q in blocked or fn.is_async:
                continue
            for call in fn.calls:
                if any(c in blocked for c in call.resolved):
                    blocked.add(q)
                    changed = True
                    break
    model.may_block = blocked


# -- rule passes ---------------------------------------------------------------


def _report(
    model: ConcurrencyModel, spec: RuleSpec, path: str, line: int, message: str
) -> None:
    model.findings.append(
        Finding(
            rule_id=spec.rule_id,
            path=path,
            line=line,
            message=message,
            severity=spec.severity,
        )
    )


def _check_cycles(model: ConcurrencyModel) -> None:
    closure = transitive_closure(model.edges)
    reported: set[str] = set()
    for node in sorted(a for a, b in closure if a == b):
        if node in reported:
            continue
        # Mutually reachable nodes: the cycle's whole component.
        component = {b for a, b in closure if a == node and (b, node) in closure}
        reported |= component
        keys = sorted(component)
        witness_edges = sorted(
            (a, b) for (a, b) in model.edges if a in component and b in component
        )
        path, line, via = model.edges[witness_edges[0]]
        detail = "; ".join(
            f"{a} -> {b} at {model.edges[(a, b)][0]}:{model.edges[(a, b)][1]}"
            for a, b in witness_edges[:4]
        )
        if len(keys) == 1:
            message = (
                f"same-class locks nest ({keys[0]} acquired while already "
                f"held, in {via}); safe only under an explicit total order "
                f"— justify with a suppression if one is enforced ({detail})"
            )
        else:
            message = (
                "lock-order cycle (potential deadlock): "
                + " -> ".join(keys + [keys[0]])
                + f" ({detail})"
            )
        _report(model, RULE_LOCK_CYCLE, path, line, message)


def _handler_functions(model: ConcurrencyModel) -> set[str]:
    handlers = set()
    for q, fn in model.functions.items():
        if "/server/" not in fn.module_path:
            continue
        if fn.name.startswith(SERVER_HANDLER_PREFIX) or fn.name in (
            SERVER_HANDLER_NAMES
        ):
            handlers.add(q)
    return handlers


def _reachable_from(model: ConcurrencyModel, roots: set[str]) -> set[str]:
    reached = set(roots)
    frontier = list(roots)
    while frontier:
        q = frontier.pop()
        fn = model.functions.get(q)
        if fn is None:
            continue
        for call in fn.calls:
            for callee in call.resolved:
                if callee not in reached:
                    reached.add(callee)
                    frontier.append(callee)
    return reached


def _check_timeouts(model: ConcurrencyModel) -> None:
    handlers = _handler_functions(model)
    if not handlers:
        return
    reachable = _reachable_from(model, handlers)
    for q in sorted(reachable):
        fn = model.functions.get(q)
        if fn is None:
            continue
        for site in fn.sites:
            if site.kind == "manager" and not site.has_timeout:
                _report(
                    model,
                    RULE_UNBOUNDED_WAIT,
                    site.path,
                    site.line,
                    f"acquisition of {site.key} in {q} passes no "
                    "timeout but is reachable from a server request "
                    "handler; bound the wait with the request's "
                    "remaining deadline (timeout_s=...)",
                )


def _check_guards(model: ConcurrencyModel) -> None:
    for q, fn in sorted(model.functions.items()):
        for site in fn.sites:
            if not site.guarded:
                _report(
                    model,
                    RULE_UNGUARDED_ACQUIRE,
                    site.path,
                    site.line,
                    f"{site.key} acquired in {q} without a "
                    "guaranteed release: use a with statement, or "
                    "follow the acquire immediately with "
                    "try/finally-release",
                )


def _protected_functions(model: ConcurrencyModel) -> set[str]:
    """Functions only ever called with a lock held (helpers of latched code)."""
    call_sites: dict[str, list[tuple[str, bool]]] = {}
    for q, fn in model.functions.items():
        for call in fn.calls:
            held = bool(_held_keys(call.held)) or any(
                isinstance(h, _CallHold)
                and any(model.may_acquire.get(c) for c in h.qualnames)
                for h in call.held
            )
            for callee in call.resolved:
                call_sites.setdefault(callee, []).append((q, held))
    protected: set[str] = set()
    changed = True
    while changed:
        changed = False
        for q in model.functions:
            if q in protected:
                continue
            sites = call_sites.get(q)
            if not sites:
                continue
            if all(held or caller in protected for caller, held in sites):
                protected.add(q)
                changed = True
    return protected


def _check_escapes(model: ConcurrencyModel) -> None:
    protected = _protected_functions(model)
    by_class: dict[str, dict[str, list[tuple[_Mutation, bool]]]] = {}
    for q, fn in model.functions.items():
        path = fn.module_path.replace("\\", "/")
        if not any(d in path for d in ESCAPE_SCOPE_DIRS):
            continue
        if fn.cls is None or fn.name in ("__init__", "__new__", "__post_init__"):
            continue
        for mutation in fn.mutations:
            locked = bool(_held_keys(mutation.held)) or q in protected
            if not locked:
                for hold in mutation.held:
                    if isinstance(hold, _CallHold) and any(
                        model.may_acquire.get(c) for c in hold.qualnames
                    ):
                        locked = True
                        break
            by_class.setdefault(fn.cls, {}).setdefault(mutation.attr, []).append(
                (mutation, locked)
            )
    for cls_qual in sorted(by_class):
        cls = model.classes.get(cls_qual)
        for attr in sorted(by_class[cls_qual]):
            entries = by_class[cls_qual][attr]
            locked_count = sum(1 for _, locked in entries if locked)
            unlocked = [m for m, locked in entries if not locked]
            if not locked_count or not unlocked:
                continue
            for mutation in unlocked:
                _report(
                    model,
                    RULE_ESCAPED_STATE,
                    cls.path if cls else "",
                    mutation.line,
                    f"attribute self.{attr} of "
                    f"{cls.name if cls else cls_qual} is mutated "
                    f"here ({mutation.function}) outside any lock "
                    f"scope, but {locked_count} other write(s) hold "
                    "a latch — either every writer takes the latch "
                    "or none does",
                )


def _check_version_mutations(model: ConcurrencyModel) -> None:
    """REPRO-C206: published-version / summary-cache write discipline.

    Two ways to corrupt the MVCC read path, both flagged:

    * mutating an object the analyzer types as a published
      ``ViewVersion`` (parameter annotations, ``Upper()`` constructor
      locals, or results of ``pin``/``latest``/``publish_version``)
      anywhere outside ``repro/concurrency/mvcc.py`` — readers serve
      these without locks precisely because they are frozen;
    * writing the Summary Database's cache structures
      (``_entries``/``_insertion_order``/``_index``) from outside
      ``summarydb.py``/``mvcc.py`` — such writes bypass both the latch
      and the publish-time ``snapshot_fresh`` capture.
    """
    for q in sorted(model.functions):
        fn = model.functions[q]
        if fn.name in ("__init__", "__new__", "__post_init__"):
            continue
        path = fn.module_path.replace("\\", "/")
        may_mutate_versions = path.endswith(MVCC_SANCTIONED_SUFFIXES)
        may_write_cache = path.endswith(SUMMARY_SANCTIONED_SUFFIXES)
        if may_mutate_versions and may_write_cache:
            continue
        for mutation in fn.object_mutations:
            target = ".".join(mutation.chain) or mutation.owner_type or "?"
            if mutation.owner_type == "ViewVersion" and not may_mutate_versions:
                _report(
                    model,
                    RULE_VERSION_MUTATION,
                    fn.path,
                    mutation.line,
                    f"published ViewVersion mutated here "
                    f"({mutation.function} writes {target}"
                    f"{'.' + mutation.attr if mutation.attr else ''}): "
                    "version objects are immutable once published — "
                    "only repro.concurrency.mvcc may touch them; "
                    "writers must publish a new version instead",
                )
            elif (
                mutation.attr in SUMMARY_CACHE_ATTRS
                and not may_write_cache
                and (
                    mutation.owner_type == "SummaryDatabase"
                    or "summary" in mutation.chain
                )
            ):
                _report(
                    model,
                    RULE_VERSION_MUTATION,
                    fn.path,
                    mutation.line,
                    f"SummaryDatabase cache structure "
                    f"{mutation.attr} written directly here "
                    f"({mutation.function} writes {target}): go "
                    "through insert/refresh/mark_stale, or "
                    "snapshot_fresh for the MVCC publish capture "
                    "— direct writes bypass the latch and every "
                    "pinned snapshot",
                )


def _check_async_blocking(model: ConcurrencyModel) -> None:
    for q in sorted(model.functions):
        fn = model.functions[q]
        if not fn.is_async:
            continue
        for call in fn.calls:
            if call.awaited:
                continue
            reason = None
            for callee in call.resolved:
                target = model.functions.get(callee)
                if target is not None and target.is_async:
                    continue  # un-awaited coroutine creation, not blocking
                if callee in model.may_block:
                    reason = (
                        f"calls {callee}, which may acquire a lock/latch or "
                        "block"
                    )
                    break
            if reason is None and call.blocking:
                chain = _attr_chain(call.callee) or ["<call>"]
                reason = f"direct blocking call {'.'.join(chain)}(...)"
            if reason is not None:
                _report(
                    model,
                    RULE_BLOCKING_IN_ASYNC,
                    fn.path,
                    call.line,
                    f"async function {fn.name} {reason}; the event "
                    "loop must never block — await it via an "
                    "executor (loop.run_in_executor)",
                )


# -- public entry points -------------------------------------------------------


def run_concurrency_checks(
    files: Iterable[tuple[str, str, str]],
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """The engine's layer-3 hook: analyze and return (selected) findings."""
    selected = set(select) if select is not None else None
    model = analyze_files(files)
    findings = model.findings
    if selected is not None:
        findings = [f for f in findings if f.rule_id in selected]
    return findings


def default_model(root: Path | str | None = None) -> ConcurrencyModel:
    """Analyze the installed ``repro`` package tree (sanitizer cross-check)."""
    base = Path(root) if root is not None else Path(__file__).resolve().parent.parent
    files = []
    for path in sorted(base.rglob("*.py")):
        files.append(
            (str(path.relative_to(base.parent)), str(path), path.read_text("utf-8"))
        )
    return analyze_files(files)
