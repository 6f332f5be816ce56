"""E6: a relational join decodes the code book a person looks up by hand (Figures 1–2, §2.4).

"Instead of simply being able to join the table in Figure 2 with the table
in Figure 1 to decode AGE_GROUP values, the statistical package user is
generally forced to manually 'look up' the encoded values in a code book."
A hash join decodes 200 000 coded RACE values with one build and one probe
per row; a person flipping pages rescans the book for every value.  Hash
and sort-merge joins agree.
"""

import pytest

from repro.relational.operators import HashJoin, SortMergeJoin
from repro.workloads.census import generate_census_summary, race_codebook

N_REPEAT = 200  # the 1 000-row census summary, decoded 200 times over


@pytest.fixture(scope="module")
def tables():
    census = generate_census_summary(seed=11)
    return census, race_codebook().to_relation("CATEGORY", "VALUE")


def manual_lookup_comparisons(coded_values, book):
    """Codes compared while scanning the book from its start per value."""
    comparisons = 0
    for value in coded_values:
        for code, _ in book:
            comparisons += 1
            if code == value:
                break
    return comparisons


def test_the_join_compares_fewer_values_than_manual_lookup(tables):
    census, codes = tables
    coded = census.column("RACE") * N_REPEAT
    book = [tuple(row) for row in codes]
    join_comparisons = len(coded) + len(book)  # one build, one probe per row
    assert join_comparisons < manual_lookup_comparisons(coded, book)
    assert len(HashJoin(census, codes, ["RACE"], ["CATEGORY"]).rows()) == len(census)


def test_hash_and_sort_merge_joins_agree(tables):
    census, codes = tables
    hashed = sorted(HashJoin(census, codes, ["RACE"], ["CATEGORY"]).rows())
    merged = sorted(SortMergeJoin(census, codes, ["RACE"], ["CATEGORY"]).rows())
    assert hashed == merged
