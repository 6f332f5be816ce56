"""Tests for the synthetic workload generators."""

import pytest

from repro.core.errors import SamplingError
from repro.relational.types import is_na
from repro.workloads.census import (
    age_group_codebook,
    figure1_dataset,
    generate_census_summary,
    generate_microdata,
)
from repro.workloads.sessions import EventKind, SessionGenerator
from repro.workloads.updates import correction_stream, drift_stream


class TestCensusData:
    def test_figure1_verbatim(self):
        rel = figure1_dataset()
        assert len(rel) == 9
        assert rel.row(0) == ("M", "W", 1, 12_300_347, 33_122)
        assert rel.row(8) == ("M", "B", 1, 2_143_924, 29_402)

    def test_figure2_verbatim(self):
        book = age_group_codebook()
        assert book.decode(1) == "0 to 20"
        assert book.decode(4) == "over 60"

    def test_summary_cross_product(self):
        """SS2.1: rows can equal the cross product of category ranges."""
        rel = generate_census_summary(sexes=2, races=3, age_groups=4, regions=5, seed=1)
        assert len(rel) == 2 * 3 * 4 * 5

    def test_summary_deterministic(self):
        a = generate_census_summary(seed=9)
        b = generate_census_summary(seed=9)
        assert list(a) == list(b)

    def test_microdata_shape(self):
        rel = generate_microdata(1000, seed=2)
        assert len(rel) == 1000
        assert rel.schema.names[0] == "PERSON_ID"

    def test_microdata_bad_values_planted(self):
        rel = generate_microdata(20_000, seed=3, bad_value_rate=0.01)
        ages = rel.column("AGE")
        incomes = rel.column("INCOME")
        bad_ages = [v for v in ages if not is_na(v) and not 0 <= v <= 120]
        bad_incomes = [v for v in incomes if not is_na(v) and v < 0]
        assert bad_ages or bad_incomes
        assert len(bad_ages) + len(bad_incomes) < 1000

    def test_microdata_clean_when_rate_zero(self):
        rel = generate_microdata(5000, seed=4, bad_value_rate=0.0)
        assert all(0 <= v <= 120 for v in rel.column("AGE"))
        assert all(v >= 0 for v in rel.column("INCOME"))


class TestSessionGenerator:
    def test_deterministic(self):
        gen1 = SessionGenerator(["a", "b"], seed=7)
        gen2 = SessionGenerator(["a", "b"], seed=7)
        assert list(gen1.events(50)) == list(gen2.events(50))

    def test_zipf_skew(self):
        gen = SessionGenerator(["a", "b", "c"], zipf_s=1.5, seed=8)
        from collections import Counter

        counts = Counter(
            (e.function, e.attribute) for e in gen.events(3000)
        )
        frequencies = sorted(counts.values(), reverse=True)
        assert frequencies[0] > 5 * frequencies[-1]

    def test_update_fraction(self):
        gen = SessionGenerator(["a"], update_fraction=0.3, n_rows=100, seed=9)
        events = list(gen.events(2000))
        updates = [e for e in events if e.kind is EventKind.UPDATE]
        assert 0.25 < len(updates) / len(events) < 0.35
        assert all(0 <= e.row < 100 for e in updates)

    def test_validation(self):
        with pytest.raises(SamplingError):
            SessionGenerator([])
        with pytest.raises(SamplingError):
            SessionGenerator(["a"], update_fraction=1.0)


class TestUpdateStreams:
    def test_correction_stream_near_old_values(self):
        values = [100.0] * 50
        updates = list(correction_stream(values, 200, noise_sd=1.0, seed=1))
        assert len(updates) == 200
        assert all(90 < u.value < 110 for u in updates)

    def test_drift_stream_increases(self):
        updates = list(drift_stream(100, 500, start=0.0, drift_per_step=1.0, seed=2))
        assert updates[-1].value > updates[0].value + 400

    def test_correction_validation(self):
        with pytest.raises(SamplingError):
            list(correction_stream([1.0], -1))
