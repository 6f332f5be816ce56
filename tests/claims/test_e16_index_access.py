"""E16: an attribute index fixes the informational query, and the advisor asks for it (§2.3, §2.7).

E4 measured the transposed file's weakness.  The paper's remedy is "to
create auxiliary storage structures such as indices" when reference
patterns justify them.  A REGION index answers a selective query over 50k
rows by examining under a fifth of them, with the full scan's answer; and
the access advisor, fed the workload, recommends a transposed layout with
exactly that index.
"""

import pytest

from repro.relational.catalog import Catalog
from repro.relational.index import AttributeIndex, IndexScan
from repro.relational.planner import execute, plan
from repro.relational.sql import parse
from repro.views.advisor import AccessAdvisor
from repro.workloads.census import generate_microdata

N_ROWS = 50_000
QUERY = "SELECT PERSON_ID, INCOME FROM micro WHERE REGION = 7 AND AGE > 60"


@pytest.fixture(scope="module")
def micro():
    return generate_microdata(N_ROWS, seed=61, bad_value_rate=0.0)


def test_the_index_examines_a_fraction_of_the_rows(micro):
    indexed = Catalog()
    indexed.register(micro, "micro")
    indexed.register_index("micro", "REGION", AttributeIndex.build(micro, "REGION"))
    access = plan(parse(QUERY), indexed)
    while not isinstance(access, IndexScan) and hasattr(access, "child"):
        access = access.child
    assert isinstance(access, IndexScan)
    access.rows()
    assert access.rows_fetched < N_ROWS / 5

    plain = Catalog()
    plain.register(micro, "micro")
    assert sorted(execute(QUERY, indexed)) == sorted(execute(QUERY, plain))


def test_the_advisor_recommends_the_index(micro):
    advisor = AccessAdvisor(n_columns=len(micro.schema), index_threshold=5)
    for _ in range(30):
        advisor.observe_column_scan("INCOME")  # the statistical workload
    for _ in range(8):
        advisor.observe_predicate("REGION", selectivity=0.1)  # informational queries
    advisor.observe_cardinality("REGION", distinct=10, rows=N_ROWS)
    recommendation = advisor.recommend()
    assert recommendation.layout.value == "transposed"
    assert "REGION" in recommendation.index_attributes
