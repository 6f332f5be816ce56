"""Serialization of the Management Database's control information.

An analysis "can mean a lengthy period of time — as long as a few months"
(paper SS2.3), so the Management Database's contents — view definitions,
update histories, rule overrides, code books, accuracy preferences, the
meta-data graph — must outlive any one process.  This module round-trips
all of it through plain JSON-able dictionaries:

* expression trees (:mod:`repro.relational.expressions`),
* view-definition trees (:mod:`repro.views.materialize`),
* update histories with NA-aware cell values,
* code books, policies, rule overrides, and the SUBJECT graph.

:func:`dumps` / :func:`loads` are the one document codec of every durable
artefact (checkpoint, log frame): compact JSON whose C encoder and decoder
meet NA themselves, with no pass over the cells before or after.

Functions themselves are code; only *names* are persisted and resolved
against the registry on load (custom functions must be re-registered by
the application before loading, mirroring how 1982 systems reloaded
procedure libraries).
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.errors import DurabilityError, MetadataError, SchemaError
from repro.metadata.codebook import CodeBook
from repro.metadata.management import ManagementDatabase
from repro.metadata.rules import RuleKind
from repro.metadata.subject import ROOT
from repro.obs.tracer import AbstractTracer
from repro.relational import expressions as ex
from repro.relational.aggregates import AggregateSpec
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeRole, Schema
from repro.relational.types import NA, DataType, NAType, is_na
from repro.summary.policies import (
    ConsistencyPolicy,
    InvalidatePolicy,
    PeriodicPolicy,
    PrecisePolicy,
    TolerantPolicy,
)
from repro.summary.summarydb import SummaryDatabase
from repro.views.history import CellChange, OpKind, Operation, UpdateHistory
from repro.views.materialize import (
    AggregateNode,
    DefNode,
    JoinNode,
    ProjectNode,
    SelectNode,
    SourceNode,
    ViewDefinition,
)
from repro.views.view import ConcreteView

# -- scalar values (NA-aware) ---------------------------------------------------


def value_to_jsonable(value: Any) -> Any:
    """Encode a cell value, representing NA explicitly."""
    if is_na(value):
        return {"__na__": True}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise MetadataError(f"cannot persist value of type {type(value).__name__}")


def value_from_jsonable(data: Any) -> Any:
    """Inverse of :func:`value_to_jsonable`."""
    if isinstance(data, dict) and data.get("__na__"):
        return NA
    return data


def result_to_jsonable(value: Any) -> Any:
    """Encode a *statistic result*: scalars plus the vector shapes.

    Query answers are richer than cell values — histograms are pairs of
    vectors, reservoir samples and heavy-hitter rankings are tuples —
    so sequences encode recursively (as JSON arrays).  Cell persistence
    keeps using :func:`value_to_jsonable` directly, where a non-scalar
    is a bug worth raising on.
    """
    if isinstance(value, (tuple, list)):
        return [result_to_jsonable(item) for item in value]
    return value_to_jsonable(value)


# -- the document codec -------------------------------------------------------------
# The two hooks above, run by the C encoder and decoder only where JSON has no form.

_ENCODER = json.JSONEncoder(separators=(",", ":"), default=value_to_jsonable)
_DECODER = json.JSONDecoder(
    object_hook=value_from_jsonable,
    parse_constant=lambda text: NA if text == "NaN" else float(text),
)


def dumps(document: Any) -> bytes:
    """Compact UTF-8 JSON; NA is written as its record, a float NaN as ``NaN``."""
    return _ENCODER.encode(document).encode("utf-8")


def loads(raw: bytes) -> Any:
    """Inverse of :func:`dumps` (``NaN`` reads as NA); raises MetadataError."""
    try:
        return _DECODER.decode(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both
        raise MetadataError(f"not a JSON document: {exc}") from exc


def splice(document: dict[str, Any] | list[Any]) -> list[bytes]:
    """Fragments that join to what :func:`dumps` gives ``document`` decoded.

    A value of the object or array is encoded already if it is ``bytes``,
    or a list of fragments starting with ``bytes`` (what :func:`splice`
    returns); any other value is encoded here.  :func:`dumps` refuses bytes,
    so no document value is mistaken for either.  Keys are strings.  The
    caller joins once, so the payload is copied once."""
    keyed = isinstance(document, dict)
    out = [b"{" if keyed else b"["]
    for key, value in document.items() if keyed else enumerate(document):
        if len(out) > 1:
            out.append(b",")
        if keyed:
            out.append(dumps(key) + b":")
        if isinstance(value, bytes):
            out.append(value)
        elif isinstance(value, list) and value and isinstance(value[0], bytes):
            out += value
        else:
            out.append(dumps(value))
    out.append(b"}" if keyed else b"]")
    return out


# -- schema attributes ---------------------------------------------------------------


def attribute_to_dict(attr: Attribute) -> dict[str, Any]:
    """The per-attribute record of checkpoint snapshots and view manifests."""
    return {
        "name": attr.name,
        "dtype": attr.dtype.name,
        "role": attr.role.value,
        "codebook": attr.codebook,
    }


def attribute_from_dict(data: dict[str, Any]) -> Attribute:
    """Inverse of :func:`attribute_to_dict`."""
    return Attribute(
        data["name"],
        DataType[data["dtype"]],
        AttributeRole(data["role"]),
        data.get("codebook"),
    )


# -- expressions -------------------------------------------------------------------


def expr_to_dict(expr: ex.Expr) -> dict:
    """Serialize an expression tree."""
    if isinstance(expr, ex.Col):
        return {"node": "col", "name": expr.name}
    if isinstance(expr, ex.Const):
        return {"node": "const", "value": value_to_jsonable(expr.value)}
    if isinstance(expr, ex.Arith):
        return {
            "node": "arith",
            "op": expr.op,
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, ex.Func):
        return {"node": "func", "name": expr.name, "arg": expr_to_dict(expr.arg)}
    if isinstance(expr, ex.Compare):
        return {
            "node": "compare",
            "op": expr.op,
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, ex.And):
        return {
            "node": "and",
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, ex.Or):
        return {
            "node": "or",
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    if isinstance(expr, ex.Not):
        return {"node": "not", "child": expr_to_dict(expr.child)}
    if isinstance(expr, ex.In):
        return {
            "node": "in",
            "child": expr_to_dict(expr.child),
            "options": [value_to_jsonable(v) for v in expr.options],
        }
    if isinstance(expr, ex.Between):
        return {
            "node": "between",
            "child": expr_to_dict(expr.child),
            "lo": value_to_jsonable(expr.lo),
            "hi": value_to_jsonable(expr.hi),
        }
    if isinstance(expr, ex.IsNA):
        return {"node": "isna", "child": expr_to_dict(expr.child)}
    raise MetadataError(f"cannot persist expression node {type(expr).__name__}")


def expr_from_dict(data: dict) -> ex.Expr:
    """Inverse of :func:`expr_to_dict`."""
    kind = data.get("node")
    if kind == "col":
        return ex.Col(data["name"])
    if kind == "const":
        return ex.Const(value_from_jsonable(data["value"]))
    if kind == "arith":
        return ex.Arith(data["op"], expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    if kind == "func":
        return ex.Func(data["name"], expr_from_dict(data["arg"]))
    if kind == "compare":
        return ex.Compare(data["op"], expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    if kind == "and":
        return ex.And(expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    if kind == "or":
        return ex.Or(expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    if kind == "not":
        return ex.Not(expr_from_dict(data["child"]))
    if kind == "in":
        return ex.In(
            expr_from_dict(data["child"]),
            tuple(value_from_jsonable(v) for v in data["options"]),
        )
    if kind == "between":
        return ex.Between(
            expr_from_dict(data["child"]),
            value_from_jsonable(data["lo"]),
            value_from_jsonable(data["hi"]),
        )
    if kind == "isna":
        return ex.IsNA(expr_from_dict(data["child"]))
    raise MetadataError(f"unknown expression node kind {kind!r}")


# -- view definitions ------------------------------------------------------------------


def defnode_to_dict(node: DefNode) -> dict:
    """Serialize a view-definition tree."""
    if isinstance(node, SourceNode):
        return {"node": "source", "dataset": node.dataset}
    if isinstance(node, SelectNode):
        return {
            "node": "select",
            "child": defnode_to_dict(node.child),
            "predicate": expr_to_dict(node.predicate),
        }
    if isinstance(node, ProjectNode):
        return {
            "node": "project",
            "child": defnode_to_dict(node.child),
            "attributes": list(node.attributes),
        }
    if isinstance(node, JoinNode):
        return {
            "node": "join",
            "left": defnode_to_dict(node.left),
            "right": defnode_to_dict(node.right),
            "left_keys": list(node.left_keys),
            "right_keys": list(node.right_keys),
        }
    if isinstance(node, AggregateNode):
        return {
            "node": "aggregate",
            "child": defnode_to_dict(node.child),
            "keys": list(node.keys),
            "specs": [
                {
                    "func": s.func,
                    "attr": s.attr,
                    "alias": s.alias,
                    "weight": s.weight,
                }
                for s in node.specs
            ],
        }
    raise MetadataError(f"cannot persist definition node {type(node).__name__}")


def defnode_from_dict(data: dict) -> DefNode:
    """Inverse of :func:`defnode_to_dict`."""
    kind = data.get("node")
    if kind == "source":
        return SourceNode(data["dataset"])
    if kind == "select":
        return SelectNode(
            defnode_from_dict(data["child"]), expr_from_dict(data["predicate"])
        )
    if kind == "project":
        return ProjectNode(
            defnode_from_dict(data["child"]), tuple(data["attributes"])
        )
    if kind == "join":
        return JoinNode(
            defnode_from_dict(data["left"]),
            defnode_from_dict(data["right"]),
            tuple(data["left_keys"]),
            tuple(data["right_keys"]),
        )
    if kind == "aggregate":
        return AggregateNode(
            defnode_from_dict(data["child"]),
            tuple(data["keys"]),
            tuple(
                AggregateSpec(
                    func=s["func"], attr=s["attr"], alias=s["alias"], weight=s["weight"]
                )
                for s in data["specs"]
            ),
        )
    raise MetadataError(f"unknown definition node kind {kind!r}")


def definition_to_dict(definition: ViewDefinition) -> dict:
    """Serialize a named view definition."""
    return {"name": definition.name, "root": defnode_to_dict(definition.root)}


def definition_from_dict(data: dict) -> ViewDefinition:
    """Inverse of :func:`definition_to_dict`."""
    return ViewDefinition(data["name"], defnode_from_dict(data["root"]))


# -- histories -------------------------------------------------------------------------


def operation_to_dict(op: Operation) -> dict:
    """Serialize one logged operation (cell values NA-aware).

    Shared by history snapshots and the write-ahead log
    (:mod:`repro.durability`), so both speak the same record schema.
    """
    return {
        "version": op.version,
        "kind": op.kind.value,
        "attribute": op.attribute,
        "description": op.description,
        "changes": [
            {
                "row": c.row,
                "old": value_to_jsonable(c.old),
                "new": value_to_jsonable(c.new),
            }
            for c in op.changes
        ],
    }


def operation_from_dict(data: dict) -> Operation:
    """Inverse of :func:`operation_to_dict`."""
    try:
        kind = OpKind(data["kind"])
    except ValueError:
        raise MetadataError(f"unknown operation kind {data['kind']!r}") from None
    return Operation(
        version=data["version"],
        kind=kind,
        attribute=data["attribute"],
        description=data.get("description", ""),
        changes=tuple(
            CellChange(
                row=c["row"],
                old=value_from_jsonable(c["old"]),
                new=value_from_jsonable(c["new"]),
            )
            for c in data["changes"]
        ),
    )


def history_to_dict(history: UpdateHistory) -> dict:
    """Serialize an update history (values NA-aware).

    ``next_version`` preserves the monotonic high-water mark: undone
    operations burn their version numbers (see
    :meth:`~repro.views.history.UpdateHistory.undo_last`), so the mark can
    exceed the last recorded operation's version + 1.
    """
    return {
        "view_name": history.view_name,
        "next_version": history._next_version,
        "operations": [operation_to_dict(op) for op in history.operations()],
    }


def history_from_dict(data: dict) -> UpdateHistory:
    """Inverse of :func:`history_to_dict`.

    Snapshots written before the high-water mark was persisted lack
    ``next_version``; for those the mark is derived from the last
    operation, which is exact whenever nothing was ever undone.
    """
    history = UpdateHistory(data["view_name"])
    for op in data["operations"]:
        history.restore(operation_from_dict(op))
    history._next_version = max(
        history._next_version, data.get("next_version", history._next_version)
    )
    return history


# -- views ------------------------------------------------------------------------------


def persistable_column(relation: Relation, name: str) -> list[Any]:
    """A copy of one attribute's cells, after a type census refuses what
    :func:`value_to_jsonable` refuses but the C encoder would take (a list)."""
    column = relation.column(name)
    for kind in set(map(type, column)):
        if not issubclass(kind, (int, float, str, type(None), NAType)):
            raise MetadataError(f"cannot persist value of type {kind.__name__}")
    return column


def view_to_record(view: ConcreteView, columns: Any = None) -> dict[str, Any]:
    """A view's owner, schema and cells: a :func:`persistable_column` per
    attribute in schema order, or ``columns`` if the caller holds them encoded."""
    relation = view.relation
    if columns is None:
        columns = [persistable_column(relation, name) for name in relation.schema.names]
    return {
        "owner": view.owner,
        "schema": [attribute_to_dict(attr) for attr in relation.schema.attributes],
        "columns": columns,
    }


def view_from_record(
    name: str,
    record: dict[str, Any],
    definition: ViewDefinition | None,
    tracer: AbstractTracer,
    origin: str,
) -> ConcreteView:
    """Inverse of :func:`view_to_record`; history and summary start empty.

    Also reads the ``"rows"`` of the log's ``view`` frame and of a format-1
    checkpoint.  A malformed record raises, naming ``origin`` (its file)."""
    try:
        schema = Schema([attribute_from_dict(column) for column in record["schema"]])
        if "columns" in record:  # from_columns refuses a missing or short column
            relation = Relation.from_columns(name, schema, record["columns"])
        else:
            relation = Relation(name, schema, record["rows"])
    except (KeyError, TypeError, ValueError, AttributeError, SchemaError) as exc:
        raise DurabilityError(f"{origin}: view {name!r} is malformed: {exc!r}") from exc
    return ConcreteView(
        name=name,
        relation=relation,
        definition=definition,
        owner=record.get("owner", "analyst"),
        summary=SummaryDatabase(view_name=name, tracer=tracer),
    )


# -- policies ---------------------------------------------------------------------------


def policy_to_dict(policy: ConsistencyPolicy) -> dict:
    """Serialize a consistency policy."""
    if isinstance(policy, PeriodicPolicy):
        return {"name": "periodic", "period": policy.period}
    if isinstance(policy, TolerantPolicy):
        return {"name": "tolerant", "max_staleness": policy.max_staleness}
    if isinstance(policy, InvalidatePolicy):
        return {"name": "invalidate"}
    if isinstance(policy, PrecisePolicy):
        return {"name": "precise"}
    raise MetadataError(f"cannot persist policy {type(policy).__name__}")


def policy_from_dict(data: dict) -> ConsistencyPolicy:
    """Inverse of :func:`policy_to_dict`."""
    name = data["name"]
    if name == "periodic":
        return PeriodicPolicy(period=data["period"])
    if name == "tolerant":
        return TolerantPolicy(max_staleness=data["max_staleness"])
    if name == "invalidate":
        return InvalidatePolicy()
    if name == "precise":
        return PrecisePolicy()
    raise MetadataError(f"unknown policy {name!r}")


# -- the whole Management Database ----------------------------------------------------------


def management_to_dict(management: ManagementDatabase) -> dict:
    """Snapshot everything the Management Database holds."""
    graph = management.metagraph.graph
    return {
        "rule_overrides": {
            name: kind.value for name, kind in management.rules._overrides.items()
        },
        "force_rule_mode": (
            management.rules.force_mode.value if management.rules.force_mode else None
        ),
        "codebooks": [
            {
                "name": book.name,
                "edition": book.edition,
                "mapping": {str(code): label for code, label in book.mapping.items()},
            }
            for key in sorted(management.codebooks._books)
            for book in [management.codebooks._books[key]]
        ],
        "views": [
            definition_to_dict(management.view_definition(name))
            for name in management.view_names()
        ],
        "histories": [
            history_to_dict(management.view_history(name))
            for name in management.view_names()
        ],
        "policies": [
            {
                "analyst": analyst,
                "view": view,
                "policy": policy_to_dict(policy),
            }
            for (analyst, view), policy in sorted(management._policies.items())
        ],
        "publications": [
            {
                "view": record.view_name,
                "publisher": record.publisher,
                "version": record.version,
            }
            for _, record in sorted(management.publications().items())
        ],
        "metagraph": {
            "nodes": [
                {"name": n, **graph.nodes[n]}
                for n in graph.nodes
                if n != ROOT
            ],
            "edges": [[u, v] for u, v in graph.edges],
        },
    }


def management_from_dict(data: dict) -> ManagementDatabase:
    """Rebuild a Management Database from a snapshot.

    Built-in functions come from a fresh registry; rule overrides, code
    books, views, histories, policies, and the SUBJECT graph are restored.
    """
    force = data.get("force_rule_mode")
    management = ManagementDatabase(
        force_rule_mode=RuleKind(force) if force else None
    )
    for name, kind in data.get("rule_overrides", {}).items():
        management.rules.set_rule(name, RuleKind(kind))
    for book in data.get("codebooks", []):
        management.codebooks.register(
            CodeBook(
                book["name"],
                {int(code): label for code, label in book["mapping"].items()},
                edition=book["edition"],
            )
        )
    histories = {
        h["view_name"]: history_from_dict(h) for h in data.get("histories", [])
    }
    for view_data in data.get("views", []):
        definition = definition_from_dict(view_data)
        # An explicit None check: an empty history is falsy (__len__ == 0)
        # yet may still carry a burned high-water mark (next_version > 1)
        # that `or` would silently throw away.
        history = histories.get(definition.name)
        if history is None:
            history = UpdateHistory(definition.name)
        management.register_view(definition, history)
    for item in data.get("policies", []):
        management.set_policy(
            item["analyst"], item["view"], policy_from_dict(item["policy"])
        )
    for item in data.get("publications", []):
        management.record_publication(
            item["view"], publisher=item["publisher"], version=item["version"]
        )
    graph_data = data.get("metagraph", {"nodes": [], "edges": []})
    graph = management.metagraph.graph
    for node in graph_data["nodes"]:
        attrs = {k: v for k, v in node.items() if k != "name"}
        graph.add_node(node["name"], **attrs)
    for u, v in graph_data["edges"]:
        if u in graph and v in graph:
            graph.add_edge(u, v)
    return management


def dump_management(management: ManagementDatabase, path: str) -> None:
    """Write a Management Database snapshot to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(management_to_dict(management), handle, indent=2)


def load_management(path: str) -> ManagementDatabase:
    """Read a Management Database snapshot from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return management_from_dict(json.load(handle))
