"""A rule-based planner turning the SQL IR into an operator pipeline.

The plan shape is fixed — scan -> (pushed selections) -> join -> selection
-> group-by/projection -> sort -> limit — with two simple optimizations:

* conjuncts of the WHERE clause that reference only one join input are
  pushed below the join;
* equi-joins always use :class:`HashJoin` (the parser only produces
  equality join conditions);
* the base table's :class:`~repro.relational.index.AttributeIndex` on an
  attribute registered in the catalog serves an equality, one-sided range
  or BETWEEN conjunct (join-free queries), the remaining conjuncts running
  as a residual filter;
* a query over a chunk-capable source (in-memory relation, or a
  transposed-file backing, sharded or not) runs on the vectorized engine
  (:mod:`repro.relational.vectorized`): the scan is pruned to the columns
  the query touches and selection/projection/group-by execute
  chunk-at-a-time, falling back to the row engine for index access and
  heap-backed sources;
* the hash join is a chunk operator with the vectorized stack above it;
  over a transposed-file probe (left) input it reads only the columns the
  query touches plus the join keys, with the pushed conjuncts as chunk
  kernels — unless the query is ``SELECT *``; and
* HAVING becomes a selection over the group-by output (it may reference
  aggregate aliases).
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import QueryError
from repro.relational import expressions as ex
from repro.relational.aggregates import AggregateSpec, GroupBy
from repro.relational.catalog import Catalog
from repro.relational.index import (
    AttributeIndex,
    IndexScan,
    combine,
    conjuncts,
    index_access,
)
from repro.relational.operators import (
    HashJoin,
    Limit,
    Project,
    Select,
    Sort,
)
from repro.relational.relation import Relation, StoredRelation
from repro.relational.sql import Query, SelectItem, parse


def plan(query: Query, catalog: Catalog, use_vectorized: bool = True) -> Any:
    """Build an operator pipeline for ``query`` against ``catalog``.

    ``use_vectorized=False`` forces the row engine, scans included, even
    over chunk-capable sources (EXPLAIN ANALYZE uses it to show both
    engines on the same query).
    """
    left: Any = catalog.get(query.table)
    where = query.where

    if query.join is not None:
        right: Any = catalog.get(query.join.table)
        pushed_left: list[ex.Expr] = []
        pushed_right: list[ex.Expr] = []
        kept: list[ex.Expr] = []
        if where is not None:
            left_cols = set(left.schema.names)
            right_cols = set(right.schema.names)
            for conjunct in conjuncts(where):
                used = conjunct.columns()
                if used <= left_cols:
                    pushed_left.append(conjunct)
                elif used <= right_cols:
                    pushed_right.append(conjunct)
                else:
                    kept.append(conjunct)
        probe = (
            _try_pruned_probe(query, left, right, combine(pushed_left))
            if use_vectorized
            else None
        )
        if probe is not None:
            left = probe
        elif pushed_left:
            left = Select(left, combine(pushed_left))
        if pushed_right and query.join.how == "inner":
            right = Select(right, combine(pushed_right))
        elif pushed_right:
            # A left join must keep unmatched left rows, so right-side
            # predicates cannot be pushed below it; filter after the join.
            kept.extend(pushed_right)
        left = HashJoin(
            left,
            right,
            left_keys=query.join.left_keys,
            right_keys=query.join.right_keys,
            how=query.join.how,
        )
        where = combine(kept)

    pipeline: Any = left
    if where is not None and query.join is None:
        pipeline, where = _try_index_access(query.table, pipeline, where, catalog)

    vectorized: Any = None
    if use_vectorized and pipeline is left:
        # Index access won (pipeline replaced) and keeps the row engine;
        # otherwise any chunk-capable source, sharded storage and a join
        # included, runs the whole select/project/group-by stack vectorized.
        vectorized = _try_vectorized(query, pipeline, where)

    if vectorized is not None:
        pipeline = vectorized
    else:
        # The row operators bind lazily: check the query's names now.
        specs, items, _ = _query_shape(query, pipeline.schema, where)
        if where is not None:
            pipeline = Select(pipeline, where)
        if specs is not None:
            pipeline = _grouped_tail(
                query, GroupBy(pipeline, query.group_by, specs), Select, Project
            )
        elif items is not None:
            pipeline = Project(pipeline, items)

    if query.order_by:
        pipeline = Sort(pipeline, query.order_by, descending=query.order_desc)
    if query.limit is not None:
        pipeline = Limit(pipeline, query.limit)
    return pipeline


def _grouped_specs(query: Query) -> list[AggregateSpec] | None:
    """Aggregate specs for a grouped query, or ``None`` if ungrouped.

    Also enforces the grouped-query shape rules shared by both engines.
    """
    aggs = [item for item in query.select if item.kind == "agg"]
    if not aggs and not query.group_by:
        return None
    specs = [
        AggregateSpec(
            func=item.agg_func or "count",
            attr=item.agg_attr,
            alias=item.alias or item.agg_func or "agg",
            weight=item.agg_weight,
        )
        for item in aggs
    ]
    for item in query.select:
        if item.kind in ("agg", "star"):
            continue
        name = item.name
        if name is None or name not in query.group_by:
            raise QueryError(f"select item {name!r} must appear in GROUP BY")
    if not specs:
        raise QueryError("GROUP BY requires at least one aggregate")
    return specs


def _grouped_tail(query: Query, grouped: Any, select: Any, project: Any) -> Any:
    """What every engine puts above its group-by operator.

    HAVING filters the grouped rows — it references group keys and
    aggregate aliases, which are exactly the group-by output schema — and
    a projection reorders the output columns to the SELECT order when it
    differs.  ``select`` / ``project`` are the operator classes of the
    engine ``grouped`` runs on.
    """
    if query.having is not None:
        grouped = select(grouped, query.having)
    wanted = _grouped_output_names(query.select, query.group_by)
    if wanted != grouped.schema.names:
        grouped = project(grouped, wanted)
    return grouped


def _query_shape(
    query: Query, schema: Any, where: ex.Expr | None
) -> tuple[list[AggregateSpec] | None, list[Any] | None, list[str] | None]:
    """A query's grouped specs, its projection items, and the columns it needs.

    At most one of specs and items is set; with neither (``SELECT *``) the
    needed columns are ``None``, the full width.  Otherwise they are the
    columns of ``schema`` the query touches, and a name ``schema`` lacks is
    rejected here, whichever engine the plan ends up on.
    """
    from repro.relational.vectorized import needed_columns

    specs = _grouped_specs(query)
    items = _projection_items(query) if specs is None else None
    if specs is None and items is None:
        return None, None, None
    return specs, items, needed_columns(
        schema, where, query.group_by, specs or (), items or ()
    )


def _projection_items(query: Query) -> list[Any] | None:
    """Projection items for an ungrouped query, or ``None`` for SELECT *."""
    star = any(item.kind == "star" for item in query.select)
    if star:
        if len(query.select) > 1:
            raise QueryError("* cannot be combined with other select items")
        return None
    items: list[Any] = []
    for item in query.select:
        if item.kind == "column":
            items.append(item.name)
        else:
            items.append((item.alias, item.expr))
    return items


def _try_vectorized(query: Query, source: Any, where: ex.Expr | None) -> Any:
    """Build a vectorized pipeline for ``query``, or ``None`` to stay row-wise."""
    from repro.relational.vectorized import (
        VecGroupBy,
        VecProject,
        VecSelect,
        as_chunk_pipeline,
    )

    specs, items, needed = _query_shape(query, source.schema, where)
    pipeline = as_chunk_pipeline(source, columns=needed)
    if pipeline is None:
        return None
    if where is not None:
        pipeline = VecSelect(pipeline, where)
    if specs is not None:
        pipeline = _grouped_tail(
            query, VecGroupBy(pipeline, query.group_by, specs), VecSelect, VecProject
        )
    elif items is not None:
        pipeline = VecProject(pipeline, items)
    return pipeline


def _try_pruned_probe(query: Query, source: Any, right: Any, pushed: ex.Expr | None) -> Any:
    """A join's probe input read q-of-m, or ``None`` to feed it unpruned.

    Only the columns the query touches (plus the join keys) are read, and
    the pushed conjuncts run as chunk kernels.  ``SELECT *`` needs the full
    width, a heap-backed input cannot be pruned, and an in-memory relation
    reads no page either way; the join lifts those inputs itself.
    """
    from repro.relational.vectorized import VecScan, VecSelect

    assert query.join is not None
    if not (isinstance(source, StoredRelation) and source.supports_column_chunks()):
        return None
    # The query may touch ``right``'s columns too: check against the join.
    joined = source.schema.concat(right.schema)
    _, _, needed = _query_shape(query, joined, query.where)
    if needed is None:
        return None
    wanted = set(needed) | set(query.join.left_keys)
    probe: Any = VecScan(
        source, columns=[name for name in source.schema.names if name in wanted]
    )
    if pushed is not None:
        probe = VecSelect(probe, pushed)
    return probe


def _try_index_access(
    table: str, pipeline: Any, where: ex.Expr, catalog: Catalog
) -> tuple[Any, ex.Expr | None]:
    """Serve one indexable conjunct through a registered index.

    Returns the (possibly replaced) pipeline and the residual predicate.
    Only applies when the pipeline is still the base relation (no pushed
    selections wrap it) and the relation supports positional access.
    """
    if not isinstance(pipeline, Relation):
        return pipeline, where

    def registered(attribute: str) -> AttributeIndex | None:
        found = catalog.index_for(table, attribute)
        if isinstance(found, AttributeIndex) and not found.stale_for(pipeline):
            return found
        return None

    access = index_access(where, registered)
    if access is None:
        return pipeline, where
    return IndexScan(pipeline, *access), None


def _grouped_output_names(select: list[SelectItem], group_by: list[str]) -> list[str]:
    names: list[str] = []
    explicit = [
        item.name if item.kind == "column" else item.alias for item in select
    ]
    mentioned = set(n for n in explicit if n)
    # Keys not mentioned in SELECT still appear (SQL would reject; we are
    # permissive and emit them first).
    for key in group_by:
        if key not in mentioned:
            names.append(key)
    names.extend(n for n in explicit if n)
    return names


def execute(text: str, catalog: Catalog, name: str = "result") -> Relation:
    """Parse, plan, and fully evaluate a query into an in-memory relation."""
    pipeline = plan(parse(text), catalog)
    return Relation.from_operator(name, pipeline)


def explain_analyze(
    text: str, catalog: Catalog, name: str = "result", engine: str = "auto"
) -> Any:
    """Plan, instrument, and run a query; return the measured plan.

    ``engine`` selects the execution engine: ``"auto"`` takes whatever the
    planner picks, ``"vectorized"`` requires the vectorized path (raising
    :class:`QueryError` when the query cannot run on it), and ``"row"``
    forces the row engine above the scans and joins.  The hash join is a
    chunk operator under either engine; its line shows its build-side rows
    and its probe key's vector kind.  The result is an
    :class:`~repro.obs.explain.ExplainResult` whose ``render()`` shows
    per-operator row counts and inclusive wall time.
    """
    from repro.obs.explain import ExplainResult, instrument, uses_vectorized

    if engine not in ("auto", "row", "vectorized"):
        raise QueryError(
            f"unknown engine {engine!r}; choose auto, row, or vectorized"
        )
    pipeline = plan(parse(text), catalog, use_vectorized=engine != "row")
    vectorized = uses_vectorized(pipeline)
    if engine == "vectorized" and not vectorized:
        raise QueryError(
            "query cannot run on the vectorized engine "
            "(index access and heap-backed sources are row-only)"
        )
    probed, stats = instrument(pipeline)
    relation = Relation.from_operator(name, probed)
    return ExplainResult(
        engine="vectorized" if vectorized else "row",
        root=stats,
        relation=relation,
    )
