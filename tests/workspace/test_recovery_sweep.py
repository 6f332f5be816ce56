"""Satellite: bulk recovery over a damaged 20-view workspace.

Builds a fleet, injects three kinds of damage — corrupt manifests,
corrupt checkpoints, torn WAL tails — and asserts that ``recover_all``
quarantines exactly the destroyed views (naming each), reports torn
tails as degraded-but-recovered, and brings every undamaged view back.
"""

from __future__ import annotations

from repro.metadata.persistence import dumps, loads
from repro.workspace.manifest import manifest_path
from repro.workspace.space import Workspace

from tests.workspace.helpers import full_definition, tiny_relation

N_VIEWS = 20
CORRUPT_MANIFEST_WAVES = (3, 7)
CORRUPT_CHECKPOINT_WAVES = (5, 11)
TORN_WAL_WAVES = (2, 13, 17)


def build_damaged_fleet(root):
    """20 views with per-wave parameters; returns wave -> space id."""
    ws = Workspace(root)
    ids = {}
    for wave in range(N_VIEWS):
        managed = ws.create(full_definition(), tiny_relation(), {"wave": wave})
        session = managed.session("a")
        session.compute("mean", "x")
        session.update_cells("x", [(wave % 12, float(wave))])
        ids[wave] = managed.space_id
    ws.close_all()

    for wave in CORRUPT_MANIFEST_WAVES:
        manifest_path(root / ids[wave]).write_bytes(b"\x00\x01 not a manifest")
    for wave in CORRUPT_CHECKPOINT_WAVES:
        (root / ids[wave] / "checkpoint.json").write_bytes(b"{torn checkpoint")
    for wave in TORN_WAL_WAVES:
        with open(root / ids[wave] / "log.wal", "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef torn tail bytes")
    return ids


def test_recover_all_quarantines_only_damage(tmp_path):
    ids = build_damaged_fleet(tmp_path)
    ws = Workspace(tmp_path)

    report = ws.recover_all()

    damaged_dirs = {
        ids[wave]
        for wave in CORRUPT_MANIFEST_WAVES + CORRUPT_CHECKPOINT_WAVES
    }
    assert set(report.quarantined) == damaged_dirs
    assert not report.ok
    for name, reason in report.quarantined.items():
        assert reason  # every quarantined view carries a cause
        assert name in report.summary()

    torn_ids = {ids[wave] for wave in TORN_WAL_WAVES}
    assert set(report.degraded) == torn_ids
    for warnings in report.degraded.values():
        assert any("torn" in w or "truncated" in w for w in warnings)

    expected_ok = {
        space_id for wave, space_id in ids.items() if space_id not in damaged_dirs
    }
    assert set(report.succeeded) == expected_ok
    assert len(report.succeeded) == N_VIEWS - len(damaged_dirs)


def test_recover_all_keep_open_serves_sessions(tmp_path):
    ids = build_damaged_fleet(tmp_path)
    ws = Workspace(tmp_path)

    report = ws.recover_all(keep_open=True)

    assert set(ws.open_ids()) == set(report.succeeded)
    survivor = ids[0]
    mean = ws._open[survivor].session("a").compute("mean", "x")
    assert isinstance(mean, float)
    ws.close_all()


def test_recovered_views_lose_nothing(tmp_path):
    """Undamaged and torn-tail views recover their committed state."""
    ids = build_damaged_fleet(tmp_path)
    ws = Workspace(tmp_path)
    ws.recover_all(keep_open=True)

    clean_wave, torn_wave = 0, TORN_WAL_WAVES[0]
    for wave in (clean_wave, torn_wave):
        managed = ws._open[ids[wave]]
        column = managed.view.column("x")
        assert column[wave % 12] == float(wave)  # the committed update survived
    ws.close_all()


def test_second_sweep_after_repair_is_clean(tmp_path):
    """Torn tails are truncated by the first sweep; the second is quiet."""
    build_damaged_fleet(tmp_path)
    ws = Workspace(tmp_path)
    first = ws.recover_all()
    second = ws.recover_all()
    assert set(second.quarantined) == set(first.quarantined)
    assert second.degraded == {}  # tails were truncated, damage healed


def test_a_snapshot_with_ragged_columns_is_quarantined_by_name(tmp_path):
    """Valid JSON, wrong shape: one column a cell short.  Zipping it bare

    would recover the view a row short; it is refused, and named."""
    ws = Workspace(tmp_path)
    ids = [
        ws.create(full_definition(), tiny_relation(), {"wave": wave}).space_id
        for wave in range(8)
    ]
    ws.close_all()
    checkpoint = tmp_path / ids[3] / "checkpoint.json"
    document = loads(checkpoint.read_bytes())
    assert len(document["views"][0]["columns"][1]) == 12
    document["views"][0]["columns"][1].pop()
    checkpoint.write_bytes(dumps(document))

    report = Workspace(tmp_path).recover_all()

    assert set(report.quarantined) == {ids[3]}
    reason = report.quarantined[ids[3]]
    assert reason.startswith("DurabilityError") and str(checkpoint) in reason
    assert "shorter than argument" in reason
    assert sorted(report.succeeded) == sorted(set(ids) - {ids[3]})
    assert report.degraded == {}
