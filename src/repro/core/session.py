"""Analyst sessions: the cached compute / update / undo loop.

An :class:`AnalystSession` is the paper's Figure 3 in motion, written
once: every ``compute(function, attribute | attributes)`` resolves the
function's row in the Management Database's catalogue
(:mod:`repro.metadata.functions`), passes the row's check (attribute
count, existence, SS3.2 applicability), then searches the view's Summary
Database using the (function, attributes) search argument; a hit returns
the cached result subject to the analyst's accuracy policy — whatever the
key's arity — and a miss computes over the view, inserts the result with a
live incremental maintainer where the row has one, and returns it (SS3.2).
``compute_pair``, ``fit_model`` and ``compute_crosstab`` are presenters
over that one loop: they name a catalogue row and shape its cached tuple
for the analyst.

Every write is the same three steps: a :mod:`repro.views.updates` entry
point mutates the view and records :class:`~repro.views.history.Operation`
objects in its history; those operations are logged as one WAL transaction;
and :meth:`~repro.core.propagation.UpdatePropagator.propagate_operations`
brings the Summary Database up to date with them.  ``undo`` pops operations
off the history instead of recording them and propagates their inverse, so
cached results stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.errors import FunctionError
from repro.core.propagation import PropagationReport, UpdatePropagator
from repro.obs.tracer import NULL_TRACER, AbstractTracer
from repro.metadata.functions import StatFunction
from repro.metadata.management import ManagementDatabase
from repro.relational.expressions import Expr
from repro.stats.crosstab import CrossTab, crosstab_from_summary
from repro.stats.regression import OLSModel, model_from_summary
from repro.stats.sampling import sample_column
from repro.summary.abstract import DatabaseAbstract, Inference, InferenceKind
from repro.summary.entries import SummaryEntry
from repro.summary.policies import ConsistencyPolicy
from repro.views.updates import (
    apply_update,
    invalidate_rows,
    invalidate_where,
    update_rows,
)
from repro.views.view import ConcreteView

if TYPE_CHECKING:
    from repro.durability.manager import DurabilityManager


@dataclass
class SessionStats:
    """Work accounting for one analyst session."""

    queries: int = 0
    cache_hits: int = 0
    rows_scanned: int = 0
    sampled_queries: int = 0
    updates: int = 0
    undos: int = 0


class AnalystSession:
    """One analyst working against one concrete view."""

    def __init__(
        self,
        management: ManagementDatabase,
        view: ConcreteView,
        analyst: str = "analyst",
        policy: ConsistencyPolicy | None = None,
        tracer: AbstractTracer | None = None,
        durability: "DurabilityManager | None" = None,
        session_id: str | None = None,
    ) -> None:
        self.management = management
        self.view = view
        self.analyst = analyst
        self.policy = policy or management.policy_for(analyst, view.name)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.durability = durability
        #: Wire-server session id, stamped onto WAL ``begin`` records so a
        #: post-crash log attributes every transaction to the connection
        #: that issued it.  ``None`` for in-process (library) sessions.
        self.session_id = session_id
        if tracer is not None:
            # The session's tracer also observes its view's cache, so
            # summary hit/stale/refresh counters land in session spans.
            view.summary.tracer = self.tracer
        self.propagator = UpdatePropagator(
            management, view, self.policy, tracer=self.tracer
        )
        self.abstract = DatabaseAbstract(view.summary)
        self.stats = SessionStats()

    # -- cached computation ------------------------------------------------------

    def compute(
        self,
        function: str,
        attribute: str | Sequence[str],
        sample: float | None = None,
        seed: int = 0,
        force: bool = False,
    ) -> Any:
        """Compute (or fetch) one function over one attribute, or over the

        attributes of a multi-attribute function in key order.

        ``sample`` computes on a random fraction instead (uncached — it is
        the preliminary-responsiveness path of SS2.2).  ``force`` bypasses
        the meta-data check that rejects numeric summaries of encoded
        category attributes (SS3.2).
        """
        with self.tracer.span("compute", function=function, attribute=attribute):
            self.stats.queries += 1
            fn = self.management.functions.get(function)
            attributes = (attribute,) if isinstance(attribute, str) else tuple(attribute)
            fn.check(attributes, self.view.schema.attribute, force)
            if sample is not None:
                self.stats.sampled_queries += 1
                return fn.compute(*self._columns(attributes, sample, seed))
            summary = self.view.summary
            entry = summary.lookup(function, attributes)
            if entry is not None:
                self.stats.cache_hits += 1
                value, _ = self.policy.on_lookup(summary, entry, self._recompute)
                return value
            return self._insert(fn, attributes, self._columns(attributes)).result

    def _columns(
        self, attributes: Sequence[str], sample: float | None = None, seed: int = 0
    ) -> list[list[Any]]:
        columns = [self.view.column(name) for name in attributes]
        if sample is not None:
            # One seed draws one set of row indices, so the columns of a
            # multi-attribute function stay aligned.
            columns = [sample_column(column, sample, seed=seed) for column in columns]
        self.stats.rows_scanned += sum(map(len, columns))
        return columns

    def _insert(
        self, fn: StatFunction, attributes: tuple[str, ...], columns: list[list[Any]]
    ) -> SummaryEntry:
        """Compute over ``columns`` and insert the result, with a live

        maintainer where the catalogue row has an incremental form."""
        result = fn.compute(*columns)
        maintainer = None
        if fn.is_incremental:
            maintainer = fn.make_maintainer(
                self.view.column_provider(attributes[0])
                if len(attributes) == 1
                else self.view.rows_provider(attributes)
            )
        return self.view.summary.insert(
            fn.name,
            attributes,
            result,
            maintainer=maintainer,
            compute_cost_rows=len(columns[0]),
            version=self.view.version,
            kind=fn.summary_kind,
            epsilon=fn.epsilon,
        )

    def _recompute(self, entry: SummaryEntry) -> Any:
        """The recompute callback every consistency policy is handed."""
        fn = self.management.functions.get(entry.key.function)
        columns = self._columns(entry.key.attributes)
        self.view.summary.refresh(
            entry, fn.compute(*columns), version=self.view.version
        )
        if entry.maintainer is not None:
            # Values for one attribute, row tuples for n (the catalogue's
            # convention).
            entry.maintainer.initialize(
                columns[0] if len(columns) == 1 else zip(*columns)
            )
        return entry.result

    def compute_pair(self, function: str, a: str, b: str) -> Any:
        """Compute (or fetch) a two-attribute function (the correlations)."""
        return self.compute(function, (a, b))

    def fit_model(self, response: str, predictors: Sequence[str]) -> OLSModel:
        """Fit (or fetch) an OLS model cached as a ``model`` summary entry.

        The fit registers under ``("ols_model", (response, *predictors))``
        with a live maintainer over row tuples, so an action that rewrites
        any of its input columns reaches it as (old row, new row) updates
        through the propagation pipeline and later calls serve warm
        coefficients without a refit.  Policies that defer maintenance
        invalidate instead; a stale hit refits once.
        """
        value = self.compute("ols_model", (response, *predictors))
        return model_from_summary(response, predictors, value)

    def annotate(self, attribute: str, text: str) -> None:
        """Attach a verbal description to an attribute (paper SS3.2).

        "Additional summary information ... might include ... verbal
        descriptions of the data set (for example, a statement of how far
        analysis has proceeded, what difficulties have been encountered)."
        Annotations live in the Summary Database but carry no function
        semantics: updates never invalidate them.
        """
        self.view.schema.index_of(attribute)  # validate
        existing = self.view.summary.peek("__note__", attribute)
        notes = list(existing.result) if existing is not None else []
        notes.append(text)
        self.view.summary.insert(
            "__note__", attribute, notes, version=self.view.version
        )

    def notes(self, attribute: str) -> list[str]:
        """The analyst's annotations on one attribute, oldest first."""
        entry = self.view.summary.peek("__note__", attribute)
        return list(entry.result) if entry is not None else []

    def compute_crosstab(
        self,
        row_attr: str,
        col_attr: str,
        weight_attr: str | None = None,
    ) -> CrossTab:
        """Compute (or fetch) a cross tabulation, cached in the Summary DB.

        This is the summary-table facility the paper compares against the
        Tsukuba/Hiroshima system (SS5.1): "the capability of creating and
        querying summary tables which are essentially cross tabulations" —
        here with the update propagation that system lacked (an update to
        any input attribute invalidates the cached table).  Labels are
        stringified for storage.
        """
        attributes = (row_attr, col_attr) + ((weight_attr,) if weight_attr else ())
        return crosstab_from_summary(
            row_attr, col_attr, self.compute("crosstab", attributes)
        )

    def test_independence(
        self, row_attr: str, col_attr: str, weight_attr: str | None = None
    ) -> Any:
        """Chi-squared independence off the cached cross tabulation —

        the paper's "is the proportion of people who live past 40 dependent
        on race?" (SS2.2), repeatable for free."""
        from repro.stats.tests_stat import chi_squared_independence

        return chi_squared_independence(
            self.compute_crosstab(row_attr, col_attr, weight_attr)
        )

    def estimate(self, function: str, attribute: str) -> Inference:
        """Answer via the Database Abstract where possible (paper SS5.1).

        Inference rules over cached values answer exactly (mean from
        sum/count), with bounds (quantiles bracketed by cached neighbours),
        or as estimates — all with **zero data access**.  Only when no rule
        applies does this fall back to :meth:`compute`.
        """
        inference = self.abstract.infer(function, attribute)
        if inference is not None:
            self.stats.queries += 1
            return inference
        value = self.compute(function, attribute)
        return Inference(
            function,
            attribute,
            InferenceKind.EXACT,
            value,
            derivation="computed over the view",
        )

    # -- updates -------------------------------------------------------------------

    def update(
        self,
        predicate: Expr | None,
        assignments: Mapping[str, Any],
        description: str = "",
    ) -> PropagationReport:
        """UPDATE ... WHERE with full cache propagation."""
        with self.tracer.span("update", attributes=sorted(assignments)):
            return self._write(
                apply_update, predicate, assignments, description=description
            )

    def update_cells(
        self, attribute: str, row_values: Sequence[tuple[int, Any]], description: str = ""
    ) -> PropagationReport:
        """Point-update specific cells with propagation."""
        with self.tracer.span("update_cells", attribute=attribute):
            return self._write(
                update_rows, attribute, row_values, description=description
            )

    def mark_invalid(
        self,
        attribute: str,
        predicate: Expr | None = None,
        rows: Sequence[int] | None = None,
        description: str = "mark invalid",
    ) -> PropagationReport:
        """Mark suspicious values as NA (SS3.1), with propagation."""
        if predicate is None and rows is None:
            raise FunctionError("mark_invalid needs a predicate or row list")
        with self.tracer.span("mark_invalid", attribute=attribute):
            if predicate is not None:
                return self._write(
                    invalidate_where, predicate, attribute, description
                )
            return self._write(invalidate_rows, rows, attribute, description)

    def _write(
        self, mutate: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> PropagationReport:
        """The tail every write shares: mutate the view, log, propagate.

        What ``mutate`` (a :mod:`repro.views.updates` entry point) recorded
        in the history is the action: one WAL transaction — its commit
        fsync is the durability point, so it precedes any change to the
        Summary Database — and one propagation.  An action that changed no
        cell logs and propagates nothing.
        """
        self.stats.updates += 1
        mark = len(self.view.history)
        mutate(self.view, *args, **kwargs)
        operations = self.view.history.operations()[mark:]
        if self.durability is not None:
            self.durability.log_operations(
                self.view.name, operations, session_id=self.session_id
            )
        return self.propagator.propagate_operations(operations)

    # -- undo --------------------------------------------------------------------------

    def undo(self, count: int = 1) -> PropagationReport:
        """Undo the last ``count`` operations, propagating inverse deltas.

        The Summary Database stays exact: the undone operations' (new ->
        old) transitions go through the same sweep as a forward write,
        coalesced per attribute, so a large undo costs one clustered sweep
        per touched attribute instead of one per operation.
        """
        self.stats.undos += 1
        with self.tracer.span("undo", count=count):
            undone = self.view.history.undo_last(self.view.relation, count)
            if self.durability is not None:
                self.durability.log_undo(
                    self.view.name,
                    count,
                    versions=[op.version for op in undone],
                    session_id=self.session_id,
                )
            return self.propagator.propagate_operations(undone, inverse=True)

    # -- convenience ----------------------------------------------------------------

    def summary_of(self, attribute: str) -> dict[str, Any]:
        """The standing summary block (all through the cache)."""
        block = {}
        for fn in ("count", "min", "max", "mean", "std", "median", "unique_count"):
            try:
                block[fn] = self.compute(fn, attribute)
            except FunctionError:
                continue
        return block

    @property
    def cache_stats(self) -> Any:
        """The view's Summary Database counters."""
        return self.view.summary.stats
