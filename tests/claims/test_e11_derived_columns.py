"""E11: a local derived column recomputes one cell; a global one, the vector (§3.2).

For "the sum of three attributes, or the logarithm of some attribute ...
the effect of the update to the input attribute is 'local', i.e., it will
require the computation of only one value".  For regression residuals,
"updating even a single value in the attribute upon which the residuals
depend requires regeneration of the entire vector (since the model may
change)": once per update when eager, once at the next read when marked
stale.  The residuals are right under either rule.
"""

import random

import pytest

from repro.core.session import AnalystSession
from repro.incremental.derived import GlobalDerivation, LocalDerivation, RefreshMode
from repro.metadata.management import ManagementDatabase
from repro.relational.expressions import col, func
from repro.stats.regression import residual_computer
from repro.views.view import ConcreteView

K_UPDATES = 50


@pytest.mark.parametrize("mode", [RefreshMode.EAGER, RefreshMode.MARK_STALE])
def test_local_recomputes_a_cell_and_global_the_vector(microdata_10k, mode):
    view = ConcreteView("e11", microdata_10k.copy("e11"))
    view.add_derived_column(LocalDerivation("LOG_INCOME", func("log", col("INCOME") + 1)))
    residuals = residual_computer("INCOME", ["YEARS_EDUCATION"])
    view.add_derived_column(
        GlobalDerivation("RESID", ["INCOME", "YEARS_EDUCATION"], residuals, mode)
    )
    session = AnalystSession(ManagementDatabase(), view, analyst="e11")
    rng = random.Random(17)
    for _ in range(K_UPDATES):
        row = rng.randrange(len(view))
        session.update_cells("INCOME", [(row, rng.uniform(10_000, 90_000))])
    stored = view.derived.read_column("RESID")  # forces a deferred regeneration

    local = view.derived.derivation("LOG_INCOME").stats
    global_ = view.derived.derivation("RESID").stats
    assert local.cell_recomputes == K_UPDATES  # exactly one cell per update
    if mode is RefreshMode.EAGER:
        assert global_.vector_regenerations == K_UPDATES
    else:
        assert global_.vector_regenerations == 1  # one, at the read
        assert global_.stale_markings == K_UPDATES
    assert stored[:100] == pytest.approx(residuals(view.relation)[:100])
