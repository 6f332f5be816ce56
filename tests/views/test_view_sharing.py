"""Tests for concrete views and the sharing registry."""

import pytest

from repro.core.errors import ViewError
from repro.relational.expressions import col
from repro.relational.relation import Relation
from repro.relational.schema import Schema, measure
from repro.views.materialize import ProjectNode, SelectNode, SourceNode, ViewDefinition
from repro.views.sharing import ViewRegistry
from repro.views.view import ConcreteView


def simple_relation(n=20):
    schema = Schema([measure("x"), measure("y")])
    return Relation("v", schema, [(float(i), float(i * 2)) for i in range(n)])


def make_view(name="v", definition=None):
    return ConcreteView(name, simple_relation(), definition=definition)


class TestConcreteView:
    def test_basics(self):
        view = make_view()
        assert len(view) == 20
        assert view.version == 0
        assert "v" in repr(view)


class TestSharingRegistry:
    def make_registered(self):
        registry = ViewRegistry()
        definition = ViewDefinition("base", SourceNode("census"))
        view = make_view("base", definition=definition)
        registry.register(view)
        return registry, view

    def test_register_get(self):
        registry, view = self.make_registered()
        assert registry.get("base") is view
        assert registry.names() == ["base"]
        with pytest.raises(ViewError):
            registry.register(view)
        with pytest.raises(ViewError):
            registry.get("missing")

    def test_identical_detection(self):
        registry, _ = self.make_registered()
        request = ViewDefinition("dup", SourceNode("census"))
        match = registry.find_match(request)
        assert match is not None
        assert match.kind == "identical" and match.operations == 0

    def test_derivable_detection(self):
        registry, _ = self.make_registered()
        request = ViewDefinition(
            "subset",
            ProjectNode(
                SelectNode(SourceNode("census"), col("x") > 5),
                ("x",),
            ),
        )
        match = registry.find_match(request)
        assert match is not None
        assert match.kind == "derivable" and match.operations == 2

    def test_too_many_ops_not_derivable(self):
        registry, _ = self.make_registered()
        node = SourceNode("census")
        for i in range(5):
            node = SelectNode(node, col("x") > i)
        assert registry.find_match(ViewDefinition("deep", node)) is None

    def test_unrelated_not_matched(self):
        registry, _ = self.make_registered()
        request = ViewDefinition("other", SourceNode("different_dataset"))
        assert registry.find_match(request) is None

    def test_derive_from_existing_data(self):
        registry, _ = self.make_registered()
        request = ViewDefinition(
            "subset", SelectNode(SourceNode("census"), col("x") > 15)
        )
        match = registry.find_match(request)
        derived = registry.derive_from(request, match)
        assert len(derived) == 4  # x in 16..19
        assert derived.name == "subset"

    def test_unregister(self):
        registry, _ = self.make_registered()
        registry.unregister("base")
        assert registry.names() == []
        with pytest.raises(ViewError):
            registry.unregister("base")


class TestPublishing:
    def test_publish_snapshot(self):
        registry = ViewRegistry()
        view = make_view("v", definition=ViewDefinition("v", SourceNode("d")))
        registry.register(view)
        edits = registry.publish(view, publisher="alice")
        # Later private changes do not leak into the snapshot.
        view.relation.set_value(0, "x", -99.0)
        assert edits.relation.column("x")[0] == 0.0
        assert edits.publisher == "alice"
        assert registry.published("v") is edits
        assert registry.published_names() == ["v"]

    def test_unpublished_lookup_rejected(self):
        with pytest.raises(ViewError):
            ViewRegistry().published("nope")
