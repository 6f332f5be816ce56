"""Maintenance equals re-evaluation across updates, undo, checkpoints and crashes.

A Hypothesis state machine drives the durable two-view DBMS of
``tests/durability/test_checkpoint_reuse.py`` with the analyst actions of
``tests/action_stream.py``: predicate updates that assign two attributes at
once, bursts naming a row twice, NA marks and the writes over them, single
cells set to NA, and undos.  Between them it checkpoints, crashes at a
fault ordinal (in an action or in a checkpoint) and recovers.  Each view
caches entries of arity 1 (``mean``, ``median``, ``min``) and 2
(``pearson``, ``ols_model``).

After every step, every fresh entry equals its function re-evaluated over
the view, or lies inside its stamped epsilon
(:func:`~tests.oracle.check.equal_or_inside_epsilon`).  A recovered system
holds the rows, history and versions the live one held; after a crash,
those from just before or just after the action in flight.

The default profile is derandomized and bounded, for tier-1;
``REPRO_ORACLE_PROFILE=long`` selects a longer search.
"""

import os
import random
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.dbms import StatisticalDBMS
from repro.core.errors import InjectedFault
from repro.durability.faults import NO_FAULTS, FaultInjector, FaultPlan
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import recover
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import NA, DataType
from repro.views.materialize import SourceNode, ViewDefinition

from tests.action_stream import action_stream, apply
from tests.durability.test_checkpoint_reuse import picture
from tests.oracle.check import equal_or_inside_epsilon

ROWS = 24
MEASURES = ("x", "y", "z")
VIEWS = ("v1", "v2")
KEYS = (
    ("mean", ("x",)),
    ("median", ("y",)),
    ("min", ("z",)),
    ("pearson", ("x", "y")),
    ("ols_model", ("z", "x")),
)

settings.register_profile(
    "oracle-ci", derandomize=True, max_examples=60, stateful_step_count=40, deadline=None
)
settings.register_profile(
    "oracle-long", max_examples=500, stateful_step_count=60, deadline=None
)


def people():
    rng = random.Random("oracle")
    schema = Schema(
        [Attribute("id", DataType.INT)]
        + [Attribute(name, DataType.FLOAT) for name in MEASURES]
    )
    rows = [
        (i, *(round(rng.uniform(-60.0, 60.0), 3) for _ in MEASURES)) for i in range(ROWS)
    ]
    return Relation("people", schema, rows)


def one_action(seed):
    """One step of the seeded analyst action stream."""
    return next(action_stream(random.Random(seed), MEASURES, ROWS, 1))


_VIEW = st.sampled_from(VIEWS)
_SEED = st.integers(0, 2**32 - 1)
_VALUES = st.one_of(
    st.sampled_from([3, 3.0, NA, -0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
#: A fault point, and the injector counter its ordinal is relative to.
_COUNTERS = {
    "fail_on_write": "writes",
    "fail_on_fsync": "fsyncs",
    "fail_on_open": "opens",
    "fail_on_replace": "replaces",
}
_ACTION_FAULTS = st.tuples(
    st.sampled_from(["fail_on_write", "fail_on_fsync"]),
    st.integers(1, 2),
    st.sampled_from(["raise", "torn"]),
)
_CHECKPOINT_FAULTS = st.tuples(
    st.sampled_from(list(_COUNTERS)), st.integers(1, 2), st.just("raise")
)


class WholeStack(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="oracle-")
        self.faults = FaultInjector()
        self.dbms = StatisticalDBMS(
            durability=DurabilityManager(self.directory, faults=self.faults)
        )
        self.dbms.load_raw(people())
        for name in VIEWS:
            self.dbms.create_view(
                ViewDefinition(name, SourceNode("people")), allow_duplicate=True
            )
        self.look()

    def teardown(self):
        self.dbms.durability.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- the analyst ------------------------------------------------------

    @rule(name=_VIEW, seed=_SEED)
    def act(self, name, seed):
        apply(self.dbms.session(name), one_action(seed))

    @rule(
        name=_VIEW,
        attribute=st.sampled_from(MEASURES),
        row=st.integers(0, ROWS - 1),
        value=_VALUES,
    )
    def set_cell(self, name, attribute, row, value):
        self.dbms.session(name).update_cells(attribute, [(row, value)])

    @rule(name=_VIEW, count=st.integers(1, 3))
    def undo(self, name, count):
        apply(self.dbms.session(name), ("undo", count))

    @rule()
    def look(self):
        """Read every key on every view: a stale entry recomputes."""
        for name in VIEWS:
            session = self.dbms.session(name)
            for key in KEYS:
                session.compute(*key)

    # -- durability -------------------------------------------------------

    @rule()
    def checkpoint(self):
        self.dbms.checkpoint()

    @rule()
    def recover_and_continue(self):
        before = picture(self.dbms, summary=False)
        self.dbms.durability.close()
        self._recover()
        assert picture(self.dbms, summary=False) == before

    @rule(name=_VIEW, seed=_SEED, fault=_ACTION_FAULTS)
    def crash_in_action(self, name, seed, fault):
        step = one_action(seed)
        before = picture(self.dbms, summary=False)
        after = self._applied_to_a_recovered_copy(name, step)
        if not self._dies(fault, lambda: apply(self.dbms.session(name), step)):
            assert picture(self.dbms, summary=False) == after
            return
        assert picture(self.dbms, summary=False) in (before, after)

    @rule(fault=_CHECKPOINT_FAULTS)
    def crash_in_checkpoint(self, fault):
        before = picture(self.dbms, summary=False)
        self._dies(fault, self.dbms.checkpoint)
        assert picture(self.dbms, summary=False) == before

    def _dies(self, fault, work):
        """Run ``work`` armed to die at the ``fault``'s ordinal, counted from
        now; True if it died and the system recovered from its files."""
        point, ordinal, mode = fault
        now = getattr(self.faults, _COUNTERS[point])
        self.faults.plan = FaultPlan(**{point: now + ordinal}, mode=mode)
        try:
            work()
        except InjectedFault:
            self.dbms.durability.wal.close()  # buffered bytes reach the OS
            self._recover()
            return True
        finally:
            self.faults.plan = NO_FAULTS
        return False

    def _recover(self):
        self.faults = FaultInjector()
        self.dbms, report = recover(self.directory, faults=self.faults)
        assert set(self.dbms.registry.names()) == set(VIEWS), report

    def _applied_to_a_recovered_copy(self, name, step):
        copy = tempfile.mkdtemp(prefix="oracle-copy-")
        try:
            shutil.copytree(self.directory, copy, dirs_exist_ok=True)
            dbms, _ = recover(copy)
            apply(dbms.session(name), step)
            dbms.durability.close()
            return picture(dbms, summary=False)
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    # -- the contract -----------------------------------------------------

    @invariant()
    def fresh_entries_equal_re_evaluation(self):
        functions = self.dbms.management.functions
        for name in VIEWS:
            view = self.dbms.view(name)
            for function, attributes in KEYS:
                entry = view.summary.peek(function, attributes)
                if entry is None or entry.stale:
                    continue
                truth = functions.get(function).compute(
                    *(view.relation.column(a) for a in attributes)
                )
                assert equal_or_inside_epsilon(entry, truth), (
                    name, function, entry.result, truth
                )


WholeStack.TestCase.settings = settings.get_profile(
    "oracle-" + os.environ.get("REPRO_ORACLE_PROFILE", "ci")
)
TestWholeStack = WholeStack.TestCase
