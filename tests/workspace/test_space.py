"""Workspace lifecycle: create/open/checkpoint/find/lineage/drop."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.errors import WorkspaceError
from repro.workspace.manifest import manifest_path, read_manifest
from repro.workspace.space import Workspace

from tests.workspace.helpers import (
    full_definition,
    projected_definition,
    tiny_relation,
)


class TestCreateOpen:
    def test_create_materializes_directory(self, tmp_path):
        ws = Workspace(tmp_path)
        managed = ws.create(full_definition(), tiny_relation())
        assert managed.directory.is_dir()
        assert manifest_path(managed.directory).exists()
        assert (managed.directory / "checkpoint.json").exists()
        assert managed.space_id in ws.ids()
        assert len(managed.view) == 12

    def test_create_is_idempotent_signac_style(self, tmp_path):
        ws = Workspace(tmp_path)
        first = ws.create(full_definition(), tiny_relation(), {"e": 1})
        again = ws.create(full_definition(), tiny_relation(), {"e": 1})
        assert again is first
        assert len(ws.ids()) == 1

    def test_create_reopens_existing_content(self, tmp_path):
        first = Workspace(tmp_path)
        space_id = first.create(full_definition(), tiny_relation()).space_id
        first.close_all()
        # A fresh workspace over the same root sees the same content
        # address and opens instead of re-materializing.
        second = Workspace(tmp_path)
        managed = second.create(full_definition(), tiny_relation())
        assert managed.space_id == space_id
        assert managed.recovery is not None  # came through recovery

    def test_distinct_parameters_distinct_spaces(self, tmp_path):
        ws = Workspace(tmp_path)
        a = ws.create(full_definition(), tiny_relation(), {"edition": "1970"})
        b = ws.create(full_definition(), tiny_relation(), {"edition": "1980"})
        assert a.space_id != b.space_id
        assert len(ws.ids()) == 2

    def test_open_recovers_statistics(self, tmp_path):
        ws = Workspace(tmp_path)
        managed = ws.create(full_definition(), tiny_relation())
        session = managed.session("a")
        mean = session.compute("mean", "x")
        managed.checkpoint()
        space_id = managed.space_id
        ws.close(space_id)
        assert space_id not in ws.open_ids()

        reopened = ws.open(space_id)
        assert reopened.session("a").compute("mean", "x") == pytest.approx(mean)

    def test_open_unknown_id(self, tmp_path):
        ws = Workspace(tmp_path)
        with pytest.raises(WorkspaceError):
            ws.open("feedfacedeadbeef")


class TestManifestMaintenance:
    def test_checkpoint_refreshes_inventory(self, tmp_path):
        ws = Workspace(tmp_path)
        managed = ws.create(full_definition(), tiny_relation())
        assert read_manifest(managed.directory).stats() == set()
        managed.session("a").compute("median", "x")
        managed.checkpoint()
        assert "median" in read_manifest(managed.directory).stats()

    def test_parameters_survive_refresh(self, tmp_path):
        ws = Workspace(tmp_path)
        managed = ws.create(full_definition(), tiny_relation(), {"edition": "1980"})
        managed.session("a").compute("mean", "x")
        managed.checkpoint()
        assert read_manifest(managed.directory).parameters == {"edition": "1980"}


class TestLineage:
    def test_derivable_lineage_inferred(self, tmp_path):
        ws = Workspace(tmp_path)
        parent = ws.create(full_definition(), tiny_relation())
        child = ws.create(projected_definition(), tiny_relation())
        lineage = read_manifest(child.directory).lineage
        assert lineage is not None
        assert lineage["parent"] == parent.space_id
        assert lineage["kind"] == "derivable"
        assert ws.index.children(parent.space_id)[0].space_id == child.space_id

    def test_explicit_parent_recorded(self, tmp_path):
        ws = Workspace(tmp_path)
        parent = ws.create(full_definition(), tiny_relation())
        child = ws.create(
            projected_definition(),
            tiny_relation(),
            {"trimmed": True},
            parent=parent.space_id,
        )
        lineage = read_manifest(child.directory).lineage
        assert lineage == {
            "parent": parent.space_id,
            "kind": "explicit",
            "operations": 0,
        }

    def test_unknown_explicit_parent_rejected(self, tmp_path):
        ws = Workspace(tmp_path)
        with pytest.raises(WorkspaceError, match="not managed"):
            ws.create(full_definition(), tiny_relation(), parent="nope")


class TestFind:
    def test_find_without_opening(self, tmp_path):
        builder = Workspace(tmp_path)
        managed = builder.create(full_definition(), tiny_relation(), {"edition": "1980"})
        managed.session("a").compute("approx_median", "x")
        builder.close_all()

        cold = Workspace(tmp_path)  # index rebuilt from manifests alone
        assert cold.open_ids() == []
        hits = cold.find(stat="approx_median", edition="1980")
        assert [entry.space_id for entry in hits] == [managed.space_id]
        assert cold.open_ids() == []  # find never opened anything

    def test_find_stale_filter(self, tmp_path):
        ws = Workspace(tmp_path)
        managed = ws.create(full_definition(), tiny_relation())
        session = managed.session("a")
        session.compute("mean", "x")
        managed.checkpoint()
        assert ws.find(stat="mean", stale=True) == []
        assert len(ws.find(stat="mean", stale=False)) == 1

    def test_find_by_arbitrary_parameter(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.create(full_definition(), tiny_relation(), {"wave": 3})
        ws.create(full_definition(), tiny_relation(), {"wave": 4})
        assert len(ws.find(wave=3)) == 1
        assert len(ws.find(wave=9)) == 0


class TestBulkAndDrop:
    def test_open_many_and_checkpoint_all(self, tmp_path):
        ws = Workspace(tmp_path)
        ids = [
            ws.create(full_definition(), tiny_relation(), {"wave": wave}).space_id
            for wave in range(5)
        ]
        ws.close_all()

        views, report = ws.open_many(ids)
        assert report.ok
        assert sorted(report.succeeded) == sorted(ids)
        assert len(views) == 5

        report = ws.checkpoint_all()
        assert report.ok
        assert len(report.succeeded) == 5

    def test_open_many_names_missing_views(self, tmp_path):
        ws = Workspace(tmp_path)
        good = ws.create(full_definition(), tiny_relation()).space_id
        ws.close_all()
        views, report = ws.open_many([good, "feedfacedeadbeef"])
        assert [v.space_id for v in views] == [good]
        assert "feedfacedeadbeef" in report.quarantined

    def test_drop_removes_directory_and_index(self, tmp_path):
        ws = Workspace(tmp_path)
        managed = ws.create(full_definition(), tiny_relation())
        space_id = managed.space_id
        ws.drop(space_id)
        assert not ws.directory_of(space_id).exists()
        assert space_id not in ws.ids()
        with pytest.raises(WorkspaceError, match="no managed view"):
            ws.drop(space_id)

    def test_index_rebuild_quarantines_corrupt_manifest(self, tmp_path):
        ws = Workspace(tmp_path)
        good = ws.create(full_definition(), tiny_relation(), {"wave": 1})
        bad = ws.create(full_definition(), tiny_relation(), {"wave": 2})
        ws.close_all()
        manifest_path(bad.directory).write_bytes(b"\x00 garbage")

        cold = Workspace(tmp_path)
        assert cold.ids() == [good.space_id]
        assert bad.directory.name in cold.index.quarantined
        assert cold.describe()["quarantined"]


class TestRelease:
    def test_released_views_are_freed_without_the_cycle_collector(self, tmp_path):
        """A sweep drops one recovered DBMS per view, and a workspace may be

        dropped with views open: neither may wait for a gen-2 collection."""
        ws = Workspace(tmp_path)
        for wave in range(3):
            session = ws.create(full_definition(), tiny_relation(), {"w": wave}).session()
            session.compute("median", "x")
            session.update_cells("x", [(wave, -1.0)])
        ws.close_all()
        gc.collect()
        gc.disable()
        try:
            ws = Workspace(tmp_path)
            assert len(ws.recover_all().succeeded) == 3  # released one by one
            views, _ = ws.open_many(ws.ids())
            views[0].session().update_cells("x", [(5, 2.0)])
            views[0].checkpoint()
            assert views[0].workspace.index.get(views[0].space_id) is not None
            probes = [weakref.ref(obj) for obj in (ws, views[0].dbms, views[1].view)]
            del ws, views  # dropped open, not closed
            assert [probe() for probe in probes] == [None] * 3
        finally:
            gc.enable()
