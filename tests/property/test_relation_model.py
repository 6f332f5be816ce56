"""Model-based test of the column-major :class:`Relation`.

A Hypothesis state machine builds a relation of drawn rows, then drives
every mutator of it and of a plain list-of-row-tuples model side by side
(the row count is fixed at construction), and after each step checks
every read path — rows, columns, chunk scans, float arrays — plus the
maintained indexes against fresh builds and the per-attribute write
epochs.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.relational.index import AttributeIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema, category, measure
from repro.relational.types import NA, DataType, is_na

_VALUES = {
    DataType.INT: st.one_of(st.integers(-5, 5), st.just(NA)),
    DataType.FLOAT: st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), st.just(NA)
    ),
    DataType.STR: st.one_of(st.sampled_from(["a", "b", "c"]), st.just(NA)),
}


class RelationModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.schema = Schema(
            [category("k", DataType.INT), measure("v"), measure("s", DataType.STR)]
        )
        self.rows = [(1, 0.5, "a"), (2, NA, "b")]
        self.epochs: dict[str, int] = {}
        self.indexed: set[str] = set()
        self.relation = Relation("r", self.schema, self.rows)

    def _row(self, data):
        return tuple(data.draw(_VALUES[a.dtype]) for a in self.schema.attributes)

    @initialize(data=st.data())
    def build(self, data):
        self.rows = [self._row(data) for _ in range(data.draw(st.integers(0, 8)))]
        validate = data.draw(st.booleans())
        self.relation = Relation("r", self.schema, self.rows, validate=validate)

    # -- mutators --------------------------------------------------------------

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def set_value(self, data):
        position = data.draw(st.integers(0, len(self.rows) - 1))
        attr = data.draw(st.sampled_from(self.schema.attributes))
        value = data.draw(_VALUES[attr.dtype])
        i = self.schema.index_of(attr.name)
        assert self.relation.set_value(position, attr.name, value) is self.rows[position][i]
        row = list(self.rows[position])
        row[i] = value
        self.rows[position] = tuple(row)
        self.epochs[attr.name] = self.epochs.get(attr.name, 0) + 1

    @precondition(lambda self: len(self.schema) < 6)
    @rule(data=st.data(), dtype=st.sampled_from(list(_VALUES)))
    def append_column(self, data, dtype):
        attribute = Attribute(f"c{len(self.schema)}", dtype)
        values = [data.draw(_VALUES[dtype]) for _ in self.rows]
        self.relation.append_column(attribute, values)
        self.schema = self.schema.extend(attribute)
        self.rows = [row + (value,) for row, value in zip(self.rows, values)]
        self.epochs[attribute.name] = 1

    @rule(data=st.data())
    def index_on(self, data):
        attr = data.draw(st.sampled_from(self.schema.names))
        self.relation.index_on(attr)
        self.indexed.add(attr)

    @rule()
    def copy(self):
        original = self.relation
        self.relation = original.copy("r2")
        # The copy shares no vector with its source.
        for name in original.schema.names:
            for position in range(len(original)):
                original.set_value(position, name, "gone")
        original.append_column(Attribute("gone", DataType.INT), [NA] * len(original))
        self.epochs = {}
        self.indexed = set()

    # -- every read path agrees with the model ---------------------------------

    @invariant()
    def rows_agree(self):
        relation = self.relation
        assert len(relation) == len(self.rows)
        assert list(relation) == self.rows
        assert [relation.row(i) for i in range(len(self.rows))] == self.rows
        assert relation.schema.names == self.schema.names

    @invariant()
    def columns_agree(self):
        for i, name in enumerate(self.schema.names):
            expected = [row[i] for row in self.rows]
            column = self.relation.column(name)
            assert column == expected
            column.append("scratch")  # a copy: the relation is untouched
            assert self.relation.frozen_column(name) == tuple(expected)

    @invariant()
    def chunks_agree(self):
        width = len(self.schema)
        selected = list(range(width - 1, -1, -1))
        for size in (1, 3, 1024):
            chunks = list(self.relation.scan_column_chunks(selected, size))
            expected = [
                [[row[i] for row in self.rows[start : start + size]] for i in selected]
                for start in range(0, len(self.rows), size)
            ]
            assert chunks == expected

    @invariant()
    def arrays_agree(self):
        for i, attr in enumerate(self.schema.attributes):
            if not attr.dtype.is_numeric:
                continue
            array = self.relation.column_array(attr.name)
            expected = [row[i] for row in self.rows]
            assert len(array) == len(expected)
            for got, want in zip(array, expected):
                assert math.isnan(got) if is_na(want) else got == float(want)

    @invariant()
    def indexes_agree(self):
        assert set(self.relation.indexes) == self.indexed
        for attr, live in self.relation.indexes.items():
            fresh = AttributeIndex(attr, self.relation.column(attr))
            assert live.distinct_values == fresh.distinct_values
            i = self.schema.index_of(attr)
            for value in {row[i] for row in self.rows if not is_na(row[i])}:
                assert live.lookup(value) == fresh.lookup(value)
            assert live.range() == fresh.range()

    @invariant()
    def epochs_agree(self):
        assert self.relation.epochs == self.epochs


RelationModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestRelationModel = RelationModel.TestCase
