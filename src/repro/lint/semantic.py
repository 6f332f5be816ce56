"""Layer 1: semantic rule-soundness checks.

These checks import the live package and verify the paper's maintenance
contracts — the wiring between :class:`~repro.metadata.functions.FunctionRegistry`,
:class:`~repro.metadata.rules.RuleRepository`, and the
:class:`~repro.incremental.differencing.IncrementalComputation` maintainers
that keeps cached Summary Database results consistent (SS3.2/SS4).  They
run against real objects (a registry, a rule repository), so tests can
also point them at deliberately broken wiring.

Findings are anchored to the defining source file via :mod:`inspect`, so
``file:line`` locations stay meaningful even though nothing is parsed.
"""

from __future__ import annotations

import inspect
import math
from typing import Any, Callable, Iterable, Iterator

from repro.lint.findings import Finding, Severity, rule

RULE_COHERENT = rule(
    "REPRO-S001",
    "function resolves to a coherent update rule",
    layer="semantic",
    rationale=(
        "every registered StatFunction must map to a RuleKind in the "
        "RuleRepository without error, and an IncrementalRule may only "
        "govern a function that actually has an incremental form"
    ),
)
RULE_LIVE_MAINTAINER = rule(
    "REPRO-S002",
    "incremental rule is backed by a live, correct maintainer",
    layer="semantic",
    rationale=(
        "a function claiming INCREMENTAL must build a working maintainer "
        "whose value tracks batch recomputation under inserts, deletes, "
        "and (x, NA) invalidation updates"
    ),
)
RULE_ORDER_STATS = rule(
    "REPRO-S003",
    "order statistics use the order-statistic window scheme",
    layer="semantic",
    rationale=(
        "functions reflecting an ordering on the data (median, quantiles) "
        "cannot be finitely differenced (SS4.2); if they claim INCREMENTAL "
        "their maintainer must be an order_stats window"
    ),
)
RULE_ALGEBRAIC = rule(
    "REPRO-S004",
    "algebraic definitions reference only differencable base measures",
    layer="semantic",
    rationale=(
        "an AlgebraicForm is sound only if every leaf of its definition "
        "is a base measure with an exact O(1) delta (count/sum/sumsq/...)"
    ),
)
RULE_PROTOCOL = rule(
    "REPRO-S005",
    "IncrementalComputation subclasses write their arithmetic once",
    layer="semantic",
    rationale=(
        "a maintainer missing reset/fold/value raises NotImplementedError "
        "mid-propagation, stranding entries half-updated; one overriding a "
        "base-owned entry point (initialize/absorb/on_insert/on_delete/"
        "apply_delta/apply_batch) forks its arithmetic into a second copy "
        "that can drift from fold"
    ),
)
RULE_INVALIDATION = rule(
    "REPRO-S006",
    "every cacheable result has an invalidation path",
    layer="semantic",
    rationale=(
        "the SS4.3 fallback must always work: InvalidateRule must mark the "
        "entry stale, every other rule the repository can hand out for the "
        "function must leave it fresh, at the function's own arity, and the "
        "computed result must be encodable so the Summary Database can "
        "store and account for it"
    ),
)

#: Registered functions whose value reflects an ordering on the data
#: (paper SS4.2) — plus the dynamically synthesized quantile_XX family.
ORDER_STATISTIC_FUNCTIONS = ("median", "iqr", "mad", "trimmed_mean")
SYNTHESIZED_QUANTILES = ("quantile_25", "quantile_75", "quantile_95")

#: Deterministic sample used to exercise maintainers (includes an NA).
_SAMPLE = (1.0, 2.0, 2.0, None, 4.0, 5.5)


def _anchor(obj: Any, fallback: tuple[str, int] = ("<semantic>", 1)) -> tuple[str, int]:
    """(file, line) of an object's definition, best effort."""
    for candidate in (obj, type(obj)):
        try:
            path = inspect.getsourcefile(candidate)
            _, line = inspect.getsourcelines(candidate)
            if path:
                return path, line
        except (TypeError, OSError):
            continue
    return fallback


def _finding(rule_spec: Any, obj: Any, message: str) -> Finding:
    path, line = _anchor(obj)
    return Finding(
        rule_id=rule_spec.rule_id,
        path=path,
        line=line,
        message=message,
        severity=Severity.ERROR,
    )


def _sample_values(arity: int = 1) -> list[Any]:
    """The sample as what a maintainer of that arity consumes: one column's
    values, or row tuples led by those values (the catalogue's convention)."""
    from repro.relational.types import NA

    return [_observation(NA if v is None else v, i, arity) for i, v in enumerate(_SAMPLE)]


def _observation(lead: Any, position: int, arity: int) -> Any:
    """``lead`` itself, or a row whose other components are fixed by its
    position (and not collinear with the sample)."""
    if arity == 1:
        return lead
    return (lead, *(float(position * (j + 2) % 5 + j) for j in range(1, arity)))


def _evaluate(function: Any, observations: list[Any]) -> Any:
    """Batch-evaluate over observations: one column per attribute."""
    columns = [observations] if function.arity == 1 else zip(*observations)
    return function.compute(*(list(column) for column in columns))


def check_registry_coherence(registry: Any, rules: Any) -> Iterator[Finding]:
    """REPRO-S001: every function resolves to a coherent rule kind."""
    from repro.metadata.rules import IncrementalRule, RuleKind

    for name in _checked_names(registry):
        function = registry.get(name)
        try:
            update_rule = rules.rule_for(name)
        except Exception as exc:
            yield _finding(
                RULE_COHERENT,
                function.compute,
                f"rule_for({name!r}) raised {type(exc).__name__}: {exc}",
            )
            continue
        if not isinstance(getattr(update_rule, "kind", None), RuleKind):
            yield _finding(
                RULE_COHERENT,
                update_rule,
                f"rule for {name!r} has kind {getattr(update_rule, 'kind', None)!r}, "
                "not a RuleKind",
            )
        if isinstance(update_rule, IncrementalRule) and not function.is_incremental:
            yield _finding(
                RULE_COHERENT,
                update_rule,
                f"{name!r} is governed by an IncrementalRule but has no "
                "incremental form (maintainer_factory is None)",
            )


def check_live_maintainers(registry: Any, rules: Any) -> Iterator[Finding]:
    """REPRO-S002: INCREMENTAL functions build maintainers that track batch.

    The maintainer is driven through the full Delta vocabulary — insert,
    delete, and the (x, NA) invalidation update of SS3.1 — with the backing
    data mutated first (the order-statistic window contract).  Scalar
    results must then agree with recomputation from scratch.
    """
    from repro.incremental.differencing import IncrementalComputation
    from repro.metadata.rules import RuleKind

    for name in _checked_names(registry):
        function = registry.get(name)
        try:
            kind = rules.rule_for(name).kind
        except Exception:
            continue  # REPRO-S001 already reports this
        if kind is not RuleKind.INCREMENTAL:
            continue
        if not function.is_incremental:
            continue  # REPRO-S001 already reports this
        values = _sample_values(function.arity)
        try:
            maintainer = function.make_maintainer(lambda: list(values))
        except Exception as exc:
            yield _finding(
                RULE_LIVE_MAINTAINER,
                function.compute,
                f"make_maintainer for {name!r} raised "
                f"{type(exc).__name__}: {exc}",
            )
            continue
        if not isinstance(maintainer, IncrementalComputation):
            yield _finding(
                RULE_LIVE_MAINTAINER,
                function.compute,
                f"maintainer for {name!r} is {type(maintainer).__name__}, "
                "not an IncrementalComputation",
            )
            continue
        finding = _drive_maintainer(name, function, maintainer, values)
        if finding is not None:
            yield finding


def _drive_maintainer(
    name: str, function: Any, maintainer: Any, values: list[Any]
) -> Finding | None:
    from repro.relational.types import NA

    arity = function.arity
    # The sample's own observations led by 4.0 and 5.5, and the latter's
    # twin under the (x, NA) invalidation update.
    gone, old = (_observation(v, _SAMPLE.index(v), arity) for v in (4.0, 5.5))
    new = _observation(NA, _SAMPLE.index(5.5), arity)
    try:
        for lead in (2.0, 7.5):
            fresh = _observation(lead, len(values), arity)
            values.append(fresh)
            maintainer.on_insert(fresh)
        values.remove(gone)
        maintainer.on_delete(gone)
        values[values.index(old)] = new
        maintainer.on_update(old, new)
        live = maintainer.value
        batch = _evaluate(function, values)
    except Exception as exc:
        return _finding(
            RULE_LIVE_MAINTAINER,
            type(maintainer),
            f"maintainer for {name!r} failed under insert/delete/(x, NA) "
            f"updates: {type(exc).__name__}: {exc}",
        )
    if isinstance(batch, float) and isinstance(live, (int, float)):
        if not math.isclose(float(live), batch, rel_tol=1e-6, abs_tol=1e-9):
            return _finding(
                RULE_LIVE_MAINTAINER,
                type(maintainer),
                f"maintainer for {name!r} diverged from batch recomputation: "
                f"incremental={live!r} batch={batch!r}",
            )
    return None


def check_order_statistics(registry: Any, rules: Any) -> Iterator[Finding]:
    """REPRO-S003: order statistics claiming INCREMENTAL must be windows."""
    from repro.incremental.order_stats import OrderStatWindow
    from repro.metadata.rules import RuleKind

    names = [
        n for n in ORDER_STATISTIC_FUNCTIONS if _has_function(registry, n)
    ] + list(SYNTHESIZED_QUANTILES)
    for name in names:
        try:
            function = registry.get(name)
        except Exception:
            continue
        try:
            kind = rules.rule_for(name).kind
        except Exception:
            continue  # REPRO-S001 territory
        if kind is not RuleKind.INCREMENTAL:
            continue
        if not function.is_incremental:
            yield _finding(
                RULE_ORDER_STATS,
                function.compute,
                f"order statistic {name!r} claims INCREMENTAL with no "
                "maintainer; it must fall back to invalidation (SS4.3)",
            )
            continue
        maintainer = function.make_maintainer(_sample_values().copy)
        if not isinstance(maintainer, OrderStatWindow):
            yield _finding(
                RULE_ORDER_STATS,
                type(maintainer),
                f"order statistic {name!r} is maintained by "
                f"{type(maintainer).__name__}, which is not an order_stats "
                "window; finite differencing cannot maintain an ordering "
                "(paper SS4.2)",
            )


def check_algebraic_definitions(definitions: Any = None) -> Iterator[Finding]:
    """REPRO-S004: every algebraic definition stays in the differencable algebra."""
    import repro.incremental.differencing as differencing

    defs = definitions if definitions is not None else differencing.DEFINITIONS
    base = set(differencing._BASE_MEASURES)
    for name, definition in sorted(defs.items()):
        try:
            measures = differencing._collect_measures(definition)
        except Exception as exc:
            yield _finding(
                RULE_ALGEBRAIC,
                differencing.AlgebraicForm,
                f"definition {name!r} is outside the differencable algebra: "
                f"{exc}",
            )
            continue
        rogue = measures - base
        if rogue:
            yield _finding(
                RULE_ALGEBRAIC,
                differencing.AlgebraicForm,
                f"definition {name!r} references non-differencable base "
                f"measures {sorted(rogue)}",
            )
            continue
        try:
            form = differencing.AlgebraicForm(definition)
            form.initialize(_sample_values())
            form.value
        except Exception as exc:
            yield _finding(
                RULE_ALGEBRAIC,
                differencing.AlgebraicForm,
                f"definition {name!r} fails to evaluate over sample data: "
                f"{type(exc).__name__}: {exc}",
            )


#: What a concrete maintainer must supply, and the entry points the base
#: class derives from those (``on_update`` may be overridden where a
#: replace is not delete-then-insert).
_MAINTAINER_REQUIRED = ("reset", "fold", "value")
_MAINTAINER_BASE_OWNED = (
    "initialize", "absorb", "on_insert", "on_delete", "apply_delta", "apply_batch",
)


def check_computation_protocol() -> Iterator[Finding]:
    """REPRO-S005: maintainers implement reset/fold/value and nothing twice."""
    import repro.metadata.functions  # noqa: F401  (loads private subclasses)
    from repro.incremental.differencing import IncrementalComputation

    for cls in _all_subclasses(IncrementalComputation):
        if inspect.isabstract(cls):
            continue
        name = f"{cls.__module__}.{cls.__qualname__}"
        missing = [
            method
            for method in _MAINTAINER_REQUIRED
            if getattr(cls, method) is getattr(IncrementalComputation, method)
        ]
        if missing:
            yield _finding(
                RULE_PROTOCOL,
                cls,
                f"{name} does not implement {missing} of the "
                "IncrementalComputation protocol",
            )
        forked = [
            method
            for method in _MAINTAINER_BASE_OWNED
            if getattr(cls, method) is not getattr(IncrementalComputation, method)
        ]
        if forked:
            yield _finding(
                RULE_PROTOCOL,
                cls,
                f"{name} overrides {forked}, which IncrementalComputation "
                "derives from fold(); put the arithmetic in fold() instead",
            )


def check_invalidation_paths(registry: Any, rules: Any) -> Iterator[Finding]:
    """REPRO-S006: the SS4.3 fallback works for every cacheable result, and

    so does every other rule an override could give it — each driven through
    ``apply`` with an entry key, a delta and a provider of the row's arity."""
    from repro.incremental.differencing import Delta
    from repro.metadata.rules import RuleKind
    from repro.summary.entries import SummaryEntry, SummaryKey, encode_result

    for name in _checked_names(registry):
        function = registry.get(name)
        arity = function.arity
        values = _sample_values(arity)
        try:
            result = _evaluate(function, values)
        except Exception as exc:
            yield _finding(
                RULE_INVALIDATION,
                function.compute,
                f"{name!r} cannot be computed over plain sample data: "
                f"{type(exc).__name__}: {exc}",
            )
            continue
        try:
            encode_result(result)
        except Exception as exc:
            yield _finding(
                RULE_INVALIDATION,
                function.compute,
                f"{name!r} produced a result the Summary Database cannot "
                f"encode ({type(result).__name__}): {exc}",
            )
        key = SummaryKey(function=name, attributes=tuple(f"x{i}" for i in range(arity)))
        # The provider already holds the update the delta describes.
        delta = Delta(updates=[(_observation(3.0, 0, arity), values[0])])
        for kind in RuleKind:
            try:
                update_rule = rules.rule_for(name, kind)
            except Exception:
                continue  # REPRO-S001 territory
            label = f"{type(update_rule).__name__}.apply"
            entry = SummaryEntry(key=key, result=result)
            try:
                outcome = update_rule.apply(entry, delta, lambda: list(values))
            except Exception as exc:
                yield _finding(
                    RULE_INVALIDATION,
                    function.compute,
                    f"{label} failed for {name!r}: {type(exc).__name__}: {exc}",
                )
                continue
            invalidates = update_rule.kind is RuleKind.INVALIDATE
            if entry.stale != invalidates or outcome.marked_stale != invalidates:
                yield _finding(
                    RULE_INVALIDATION,
                    function.compute,
                    f"{label} left a {name!r} entry "
                    f"{'stale' if entry.stale else 'fresh'} "
                    f"(marked_stale={outcome.marked_stale})",
                )


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def _checked_names(registry: Any) -> list[str]:
    """Registered function names, skipping Summary DB pseudo-entries."""
    return [n for n in registry.names() if not n.startswith("__")]


def _has_function(registry: Any, name: str) -> bool:
    try:
        registry.get(name)
        return True
    except Exception:
        return False


#: (rule_id, callable(registry, rules) -> findings) — checks over wiring.
WIRING_CHECKS: tuple[tuple[str, Callable[[Any, Any], Iterator[Finding]]], ...] = (
    (RULE_COHERENT.rule_id, check_registry_coherence),
    (RULE_LIVE_MAINTAINER.rule_id, check_live_maintainers),
    (RULE_ORDER_STATS.rule_id, check_order_statistics),
    (RULE_INVALIDATION.rule_id, check_invalidation_paths),
)

#: (rule_id, callable() -> findings) — checks with no configurable input.
GLOBAL_CHECKS: tuple[tuple[str, Callable[[], Iterator[Finding]]], ...] = (
    (RULE_ALGEBRAIC.rule_id, lambda: check_algebraic_definitions()),
    (RULE_PROTOCOL.rule_id, check_computation_protocol),
)


def run_semantic_checks(
    registry: Any = None,
    rules: Any = None,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Run every (selected) semantic check and return the findings.

    With no arguments the default :class:`ManagementDatabase` wiring is
    checked — the configuration the DBMS actually ships.
    """
    if registry is None or rules is None:
        from repro.metadata.management import ManagementDatabase

        management = ManagementDatabase()
        registry = registry or management.functions
        rules = rules or management.rules
    selected = set(select) if select is not None else None
    findings: list[Finding] = []
    for rule_id, check in WIRING_CHECKS:
        if selected is not None and rule_id not in selected:
            continue
        findings.extend(check(registry, rules))
    for rule_id, check in GLOBAL_CHECKS:
        if selected is not None and rule_id not in selected:
            continue
        findings.extend(check())
    return findings
