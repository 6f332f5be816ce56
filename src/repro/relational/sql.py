"""A SQL-subset parser producing a query IR.

The paper laments that statistical packages force analysts to "manually
look up the encoded values in a code book" instead of "simply being able to
join" (SS2.4).  This module gives the reproduction a declarative surface:

.. code-block:: sql

    SELECT RACE, AGE_GROUP, SUM(POPULATION) AS POP
    FROM census JOIN age_codes ON AGE_GROUP = CATEGORY
    WHERE SEX = 'M' AND AVE_SALARY BETWEEN 10000 AND 50000
    GROUP BY RACE, AGE_GROUP
    ORDER BY POP DESC
    LIMIT 10

Supported: SELECT list with ``*``, columns, ``expr AS alias``, aggregates
(every row of :data:`repro.relational.aggregates.AGGREGATES` by its name —
COUNT/SUM/AVG/MIN/MAX/MEDIAN/STD/VAR/WEIGHTED_AVG(v, w) — plus
QUANTILE_NN, COUNT(*), COUNT(DISTINCT x) and the synonym MEAN);
one optional [LEFT] JOIN with conjunctive equality conditions; WHERE with
comparisons, AND/OR/NOT, IN, BETWEEN, IS NA; GROUP BY with HAVING (over
the aggregate output columns); ORDER BY [DESC]; LIMIT.  The IR is planned into operators by :mod:`repro.relational.planner`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import QueryError
from repro.relational import expressions as ex
from repro.relational.aggregates import AGGREGATES, resolve_aggregate

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\.\d+|\d+)"
    r"|(?P<str>'(?:[^']|'')*')"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\*|\+|-|/)"
    r")"
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "JOIN", "ON",
    "AND", "OR", "NOT", "IN", "BETWEEN", "AS", "DESC", "ASC", "DISTINCT",
    "IS", "NA", "NULL", "HAVING", "LEFT",
}

#: SQL spellings that are not themselves names of :data:`AGGREGATES` rows:
#: one synonym, and the two argument forms of COUNT that have rows of their
#: own.  Every other aggregate is called by its row's name.
_SPELLINGS = {
    "mean": "avg",
    "count(*)": "count_star",
    "count(distinct)": "count_distinct",
}


@dataclass
class SelectItem:
    """One SELECT-list entry."""

    kind: str  # "star" | "column" | "expr" | "agg"
    name: str | None = None
    expr: ex.Expr | None = None
    alias: str | None = None
    agg_func: str | None = None
    agg_attr: str | None = None
    agg_weight: str | None = None
    agg_distinct: bool = False


@dataclass
class JoinClause:
    """One join with conjunctive equality conditions."""

    table: str
    left_keys: list[str] = field(default_factory=list)
    right_keys: list[str] = field(default_factory=list)
    how: str = "inner"


@dataclass
class Query:
    """The parsed query IR handed to the planner."""

    select: list[SelectItem]
    table: str
    join: JoinClause | None = None
    where: ex.Expr | None = None
    group_by: list[str] = field(default_factory=list)
    having: ex.Expr | None = None
    order_by: list[str] = field(default_factory=list)
    order_desc: bool = False
    limit: int | None = None


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.tokens: list[tuple[str, Any]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match:
                if text[pos:].strip():
                    raise QueryError(f"cannot tokenize near {text[pos:pos+20]!r}")
                break
            pos = match.end()
            if match.lastgroup == "num":
                raw = match.group("num")
                self.tokens.append(("num", float(raw) if "." in raw else int(raw)))
            elif match.lastgroup == "str":
                raw = match.group("str")[1:-1].replace("''", "'")
                self.tokens.append(("str", raw))
            elif match.lastgroup == "name":
                name = match.group("name")
                if name.upper() in _KEYWORDS:
                    self.tokens.append(("kw", name.upper()))
                else:
                    self.tokens.append(("name", name))
            else:
                self.tokens.append(("op", match.group("op")))
        self.pos = 0

    def peek(self) -> tuple[str, Any] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, Any]:
        tok = self.peek()
        if tok is None:
            raise QueryError("unexpected end of query")
        self.pos += 1
        return tok

    def accept_kw(self, *words: str) -> str | None:
        tok = self.peek()
        if tok and tok[0] == "kw" and tok[1] in words:
            self.pos += 1
            return tok[1]
        return None

    def accept_op(self, *ops: str) -> str | None:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ops:
            self.pos += 1
            return tok[1]
        return None

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            raise QueryError(f"expected {word}, got {self.peek()!r}")

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise QueryError(f"expected {op!r}, got {self.peek()!r}")

    def expect_name(self) -> str:
        tok = self.next()
        if tok[0] != "name":
            raise QueryError(f"expected identifier, got {tok!r}")
        return tok[1]


def parse(text: str) -> Query:
    """Parse a SQL-subset query string into a :class:`Query`."""
    t = _Tokenizer(text)
    t.expect_kw("SELECT")
    select = _parse_select_list(t)
    t.expect_kw("FROM")
    table = t.expect_name()
    join = None
    if t.accept_kw("LEFT"):
        t.expect_kw("JOIN")
        join = _parse_join(t)
        join.how = "left"
    elif t.accept_kw("JOIN"):
        join = _parse_join(t)
    where = None
    if t.accept_kw("WHERE"):
        where = _parse_or(t)
    group_by: list[str] = []
    order_by: list[str] = []
    order_desc = False
    limit = None
    having = None
    if t.accept_kw("GROUP"):
        t.expect_kw("BY")
        group_by.append(t.expect_name())
        while t.accept_op(","):
            group_by.append(t.expect_name())
        if t.accept_kw("HAVING"):
            having = _parse_or(t)
    if t.accept_kw("ORDER"):
        t.expect_kw("BY")
        order_by.append(t.expect_name())
        while t.accept_op(","):
            order_by.append(t.expect_name())
        if t.accept_kw("DESC"):
            order_desc = True
        else:
            t.accept_kw("ASC")
    if t.accept_kw("LIMIT"):
        tok = t.next()
        if tok[0] != "num" or not isinstance(tok[1], int):
            raise QueryError(f"LIMIT requires an integer, got {tok!r}")
        limit = tok[1]
    if t.peek() is not None:
        raise QueryError(f"trailing tokens at {t.peek()!r}")
    return Query(
        select=select,
        table=table,
        join=join,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        order_desc=order_desc,
        limit=limit,
    )


def _parse_select_list(t: _Tokenizer) -> list[SelectItem]:
    items = [_parse_select_item(t)]
    while t.accept_op(","):
        items.append(_parse_select_item(t))
    return items


def _parse_select_item(t: _Tokenizer) -> SelectItem:
    if t.accept_op("*"):
        return SelectItem(kind="star")
    tok = t.peek()
    if tok and tok[0] == "name" and tok[1].lower() not in ex.Func._FNS:
        after = t.tokens[t.pos + 1] if t.pos + 1 < len(t.tokens) else None
        if after == ("op", "("):  # a call that is no scalar function
            return _parse_aggregate(t)
    expr = _parse_additive(t)
    alias = None
    if t.accept_kw("AS"):
        alias = t.expect_name()
    if isinstance(expr, ex.Col) and alias is None:
        return SelectItem(kind="column", name=expr.name)
    if alias is None:
        raise QueryError(f"computed select item needs AS alias: {expr!r}")
    return SelectItem(kind="expr", expr=expr, alias=alias)


def _parse_aggregate(t: _Tokenizer) -> SelectItem:
    func = t.expect_name().upper()
    name = _SPELLINGS.get(func.lower(), func.lower())
    found = resolve_aggregate(name)  # synthesizes quantile_NN rows
    if found is None:
        if func.startswith("QUANTILE_"):
            raise QueryError(
                f"malformed quantile aggregate {func!r}; use QUANTILE_NN "
                "with NN in 0..99"
            )
        raise QueryError(
            f"unknown aggregate function {func!r}; known: "
            f"{sorted(row.upper() for row in AGGREGATES)} and QUANTILE_NN"
        )
    t.expect_op("(")
    distinct = bool(t.accept_kw("DISTINCT"))
    attr: str | None = None
    weight: str | None = None
    if t.accept_op("*"):
        form = "(*)"
    else:
        form = "(distinct)" if distinct else ""
        attr = t.expect_name()
        if found.arity == 2:
            t.expect_op(",")
            weight = t.expect_name()
    t.expect_op(")")
    resolved = _SPELLINGS.get(name + form, name)
    if attr is None and resolved == name:
        raise QueryError(f"{func}(*) is not supported")
    alias = None
    if t.accept_kw("AS"):
        alias = t.expect_name()
    if alias is None:
        alias = f"{resolved}_{attr}" if attr else resolved
    return SelectItem(
        kind="agg",
        agg_func=resolved,
        agg_attr=attr,
        agg_weight=weight,
        agg_distinct=distinct,
        alias=alias,
    )


def _parse_join(t: _Tokenizer) -> JoinClause:
    table = t.expect_name()
    t.expect_kw("ON")
    join = JoinClause(table=table)
    while True:
        left = t.expect_name()
        t.expect_op("=")
        right = t.expect_name()
        join.left_keys.append(left)
        join.right_keys.append(right)
        if not t.accept_kw("AND"):
            break
    return join


# -- predicate grammar: or_expr > and_expr > not_expr > primary ---------------


def _parse_or(t: _Tokenizer) -> ex.Expr:
    left = _parse_and(t)
    while t.accept_kw("OR"):
        left = ex.Or(left, _parse_and(t))
    return left


def _parse_and(t: _Tokenizer) -> ex.Expr:
    left = _parse_not(t)
    while t.accept_kw("AND"):
        left = ex.And(left, _parse_not(t))
    return left


def _parse_not(t: _Tokenizer) -> ex.Expr:
    if t.accept_kw("NOT"):
        return ex.Not(_parse_not(t))
    return _parse_condition(t)


def _parse_condition(t: _Tokenizer) -> ex.Expr:
    tok = t.peek()
    if tok == ("op", "("):
        # Could be a parenthesized boolean expression.
        save = t.pos
        t.next()
        try:
            inner = _parse_or(t)
            t.expect_op(")")
            return inner
        except QueryError:
            t.pos = save
    left = _parse_additive(t)
    if t.accept_kw("IS"):
        negated = bool(t.accept_kw("NOT"))
        if not (t.accept_kw("NA") or t.accept_kw("NULL")):
            raise QueryError("expected NA/NULL after IS")
        pred: ex.Expr = ex.IsNA(left)
        return ex.Not(pred) if negated else pred
    if t.accept_kw("BETWEEN"):
        lo = _parse_value(t)
        t.expect_kw("AND")
        hi = _parse_value(t)
        return ex.Between(left, lo, hi)
    if t.accept_kw("IN"):
        t.expect_op("(")
        options = [_parse_value(t)]
        while t.accept_op(","):
            options.append(_parse_value(t))
        t.expect_op(")")
        return ex.In(left, tuple(options))
    op = t.accept_op("=", "!=", "<>", "<=", ">=", "<", ">")
    if op is None:
        raise QueryError(f"expected a comparison, got {t.peek()!r}")
    if op == "<>":
        op = "!="
    right = _parse_additive(t)
    return ex.Compare(op, left, right)


def _parse_value(t: _Tokenizer) -> Any:
    tok = t.next()
    if tok[0] in ("num", "str"):
        return tok[1]
    if tok == ("op", "-"):
        inner = t.next()
        if inner[0] == "num":
            return -inner[1]
    raise QueryError(f"expected a literal, got {tok!r}")


def _parse_additive(t: _Tokenizer) -> ex.Expr:
    left = _parse_multiplicative(t)
    while True:
        op = t.accept_op("+", "-")
        if op is None:
            return left
        left = ex.Arith(op, left, _parse_multiplicative(t))


def _parse_multiplicative(t: _Tokenizer) -> ex.Expr:
    left = _parse_primary(t)
    while True:
        op = t.accept_op("*", "/")
        if op is None:
            return left
        left = ex.Arith(op, left, _parse_primary(t))


def _parse_primary(t: _Tokenizer) -> ex.Expr:
    tok = t.next()
    if tok[0] == "num" or tok[0] == "str":
        return ex.Const(tok[1])
    if tok == ("op", "-"):
        nxt = t.peek()
        if nxt is not None and nxt[0] == "num":
            t.next()
            return ex.Const(-nxt[1])
        return ex.Arith("-", ex.Const(0), _parse_primary(t))
    if tok == ("op", "("):
        inner = _parse_additive(t)
        t.expect_op(")")
        return inner
    if tok[0] == "name":
        name = tok[1]
        if t.peek() == ("op", "(") and name.lower() in ex.Func._FNS:
            t.next()
            arg = _parse_additive(t)
            t.expect_op(")")
            return ex.Func(name.lower(), arg)
        return ex.Col(name)
    raise QueryError(f"unexpected token {tok!r} in expression")
