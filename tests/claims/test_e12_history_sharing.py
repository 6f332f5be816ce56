"""E12: the update history undoes, replays and shares without a rebuild (§2.3, §3.2).

Rolling back through the history costs the cells the undone operations
changed, never a view rebuild, and restores the data exactly; the version
stays at its high-water mark, so no peer that read the log sees a version
reissued.  A second analyst replays a predecessor's data checking "rather
than repeating the mundane and time consuming data checking operations",
and a derivable view request is served from an existing view, not the tape.
"""

import random

from repro.core.dbms import StatisticalDBMS
from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.relational.expressions import col
from repro.relational.types import is_na
from repro.views.materialize import SelectNode, SourceNode, ViewDefinition
from repro.views.view import ConcreteView


def test_rollback_costs_the_cells_undone_and_is_exact(microdata_10k):
    view = ConcreteView("e12", microdata_10k.copy("e12"))
    session = AnalystSession(ManagementDatabase(), view, analyst="e12")
    rng = random.Random(23)
    for _ in range(100):
        session.update_cells("INCOME", [(rng.randrange(len(view)), rng.uniform(0, 9e4))])

    operations = view.history.operations()
    for depth in (1, 10, 50, 100):
        assert sum(op.cells_changed for op in operations[-depth:]) == depth
    session.undo(100)
    assert view.relation.column("INCOME") == microdata_10k.column("INCOME")
    assert view.history.operations() == []
    assert view.version == 100  # the high-water mark: undone versions stay burned


def test_a_second_analyst_replays_the_cleaning(microdata_10k):
    dirty = microdata_10k.copy("dirty")
    bad_rows = sorted(random.Random(29).sample(range(len(dirty)), 40))
    for row in bad_rows:
        dirty.set_value(row, "AGE", 1000)
    first_view = ConcreteView("first", dirty.copy("first"))
    first = AnalystSession(ManagementDatabase(), first_view, analyst="alice")
    first.mark_invalid("AGE", predicate=col("AGE") > 150)

    second = dirty.copy("second")
    assert first_view.history.replay_onto(second) == len(bad_rows)
    assert all(is_na(second.column("AGE")[row]) for row in bad_rows)


def test_a_derivable_view_streams_no_tape(microdata_10k):
    dbms = StatisticalDBMS()
    dbms.load_raw(microdata_10k.copy("micro"))
    dbms.create_view(ViewDefinition("base", SourceNode("micro")))
    streamed = dbms.raw.tape.stats.blocks_streamed
    created = dbms.create_view(ViewDefinition(
        "high_earners", SelectNode(SourceNode("micro"), col("INCOME") > 50_000)
    ))
    assert created.reused.kind == "derivable"
    assert dbms.raw.tape.stats.blocks_streamed == streamed
    assert all(row[5] > 50_000 for row in created.view.relation)
