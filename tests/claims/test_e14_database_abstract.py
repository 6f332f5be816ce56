"""E14: a Database Abstract answers new statistics with no data access (§5.1, after Rowe).

Inference rules over precomputed values "calculate the results of other
functions".  With ten standing statistics of INCOME cached, at least eight
of ten different probes are answered with zero rows touched, at least four
of them exactly; every exact answer equals the direct computation and
every bounded one brackets it.
"""

import pytest

from repro.core.session import AnalystSession
from repro.metadata.management import ManagementDatabase
from repro.summary.abstract import InferenceKind
from repro.views.view import ConcreteView

WARM_FUNCTIONS = [
    "min", "max", "mean", "std", "count", "median",
    "quantile_5", "quantile_25", "quantile_75", "quantile_95",
]
PROBE_FUNCTIONS = [
    "sum", "var", "cv", "rms", "iqr", "trimmed_mean",
    "quantile_10", "quantile_50", "quantile_60", "quantile_90",
]


def test_inference_answers_most_probes_without_data(microdata_10k):
    view = ConcreteView("e14", microdata_10k.copy("e14"))
    session = AnalystSession(ManagementDatabase(), view, analyst="rowe")
    for name in WARM_FUNCTIONS:
        session.compute(name, "INCOME")
    scanned = session.stats.rows_scanned
    income = view.column("INCOME")

    exact = bounded = 0
    for name in PROBE_FUNCTIONS:
        inference = session.abstract.infer(name, "INCOME")
        if inference is None:
            continue
        truth = session.management.functions.get(name).compute(income)
        if inference.kind is InferenceKind.EXACT:
            exact += 1
            assert inference.value == pytest.approx(truth, rel=1e-9), name
        else:
            bounded += 1
            assert inference.lo - 1e-9 <= truth <= inference.hi + 1e-9, name
    assert session.stats.rows_scanned == scanned  # no inference touched the data
    assert exact >= 4
    assert exact + bounded >= 8
