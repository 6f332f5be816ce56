"""Tests for the statistical function registry."""

import pytest

from repro.core.errors import FunctionError
from repro.metadata.functions import FunctionRegistry
from repro.relational.schema import category, measure
from repro.relational.types import NA, DataType

DATA = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0]


@pytest.fixture()
def registry():
    return FunctionRegistry()


class TestResolution:
    def test_known_functions_present(self, registry):
        for name in ("min", "max", "mean", "std", "median", "count", "mode"):
            assert name in registry
            assert registry.get(name).name == name

    def test_quantile_synthesis(self, registry):
        fn = registry.get("quantile_95")
        values = list(range(101))
        assert fn.compute(values) == pytest.approx(95.0)

    def test_quantile_maintainer(self, registry):
        fn = registry.get("quantile_25")
        maintainer = fn.make_maintainer(lambda: DATA)
        import numpy as np

        assert maintainer.value == pytest.approx(float(np.quantile(DATA, 0.25)))

    def test_unknown_rejected(self, registry):
        with pytest.raises(FunctionError, match="unknown"):
            registry.get("kurtosis")
        assert "kurtosis" not in registry

    def test_register_custom(self, registry):
        from repro.metadata.functions import StatFunction

        registry.register(
            StatFunction("always_seven", lambda values: 7.0)
        )
        assert registry.get("always_seven").compute([1]) == 7.0


    def test_synthesis_leaves_every_listing_alone(self):
        """``names()`` is the registered rows: what a client has asked for
        must not change it, nor the listings and error text built on it."""
        from repro.metadata.management import ManagementDatabase

        management = ManagementDatabase()
        registry = management.functions
        names, rules, described = (
            registry.names(), management.rules.describe(), management.describe()
        )
        with pytest.raises(FunctionError) as before:
            registry.get("kurtosis")
        for name in ("quantile_95", "heavy_hitters_3", "quantile_95"):
            assert registry.get(name).name == name
        assert registry.get("quantile_95") is registry.get("quantile_95")  # memoized
        assert "quantile_95" in registry and "heavy_hitters_3" in registry
        assert registry.names() == names
        assert management.rules.describe() == rules
        assert management.describe() == described
        with pytest.raises(FunctionError) as after:
            registry.get("kurtosis")
        assert str(after.value) == str(before.value)

    @pytest.mark.parametrize("first", ["register", "synthesize"])
    def test_registered_name_wins_over_synthesis(self, registry, first):
        from repro.metadata.functions import StatFunction

        mine = StatFunction("quantile_95", lambda values: -1.0)
        if first == "synthesize":
            assert registry.get("quantile_95").compute(list(range(101))) == 95.0
        registry.register(mine)
        assert registry.get("quantile_95") is mine
        assert "quantile_95" in registry.names()


class TestArity:
    def test_every_cached_kind_is_a_row(self, registry):
        for name in ("pearson", "spearman", "covariance"):
            row = registry.get(name)
            assert (row.arity, row.optional_attributes) == (2, 0)
            assert not row.is_incremental  # hence InvalidateRule by default
        model = registry.get("ols_model")
        assert (model.arity, model.optional_attributes) == (2, None)
        assert model.is_incremental and model.summary_kind == "model"
        table = registry.get("crosstab")
        assert (table.arity, table.optional_attributes) == (2, 1)

    def test_an_n_attribute_row_takes_one_column_per_attribute(self, registry):
        ys = [2.0 * x + 1.0 for x in DATA]
        assert registry.get("pearson").compute(DATA, ys) == pytest.approx(1.0)
        fit = registry.get("ols_model").compute(ys, DATA)
        assert fit[0] == 6.0 and fit[3:] == pytest.approx((1.0, 2.0))
        # ... and its maintainer consumes row tuples, sized by the first.
        rows = list(zip(ys, DATA))
        maintainer = registry.get("ols_model").make_maintainer(lambda: rows)
        assert maintainer.value == pytest.approx(fit)
        labels = registry.get("crosstab").compute("aab", "xyx", [1.0, 2.0, 4.0])
        assert labels == (["a", "b"], ["x", "y"], [1.0, 2.0, 4.0, 0.0])

    def test_check_is_count_then_existence_then_role(self, registry):
        from repro.core.errors import SchemaError
        from repro.relational.schema import Schema

        schema = Schema(
            [measure("SALARY", DataType.FLOAT), category("AGE_GROUP", DataType.CATEGORY)]
        )
        median = registry.get("median")
        median.check(("SALARY",), schema.attribute)
        with pytest.raises(FunctionError, match=r"takes 1 attribute\(s\), got 0"):
            median.check((), schema.attribute)
        with pytest.raises(SchemaError):
            median.check(("NOPE",), schema.attribute)
        with pytest.raises(FunctionError, match="not meaningful"):
            median.check(("AGE_GROUP",), schema.attribute)
        median.check(("AGE_GROUP",), schema.attribute, force=True)
        registry.get("crosstab").check(("AGE_GROUP", "AGE_GROUP", "SALARY"), schema.attribute)


class TestComputation:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("count", 6.0),
            ("sum", 108.0),
            ("min", 4.0),
            ("max", 42.0),
            ("mean", 18.0),
            ("unique_count", 6.0),
        ],
    )
    def test_compute(self, registry, name, expected):
        assert registry.get(name).compute(DATA) == pytest.approx(expected)

    def test_na_count(self, registry):
        assert registry.get("na_count").compute([1.0, NA, NA]) == 2.0

    def test_histogram_two_vectors(self, registry):
        edges, counts = registry.get("histogram").compute(DATA)
        assert len(edges) == len(counts) + 1
        assert sum(counts) == 6


class TestMaintainers:
    @pytest.mark.parametrize(
        "name", ["count", "sum", "mean", "var", "std", "min", "max", "median",
                  "mode", "unique_count", "na_count", "histogram"]
    )
    def test_maintainer_matches_compute(self, registry, name):
        fn = registry.get(name)
        assert fn.is_incremental
        maintainer = fn.make_maintainer(lambda: DATA)
        computed = fn.compute(DATA)
        maintained = maintainer.value
        if name == "histogram":
            assert sum(maintained[1]) == sum(computed[1])
        else:
            assert maintained == pytest.approx(computed)

    def test_non_incremental_functions(self, registry):
        for name in ("trimmed_mean", "iqr", "mad"):
            fn = registry.get(name)
            assert not fn.is_incremental
            with pytest.raises(FunctionError):
                fn.make_maintainer(lambda: DATA)

    def test_maintainer_tracks_updates(self, registry):
        fn = registry.get("mean")
        work = list(DATA)
        maintainer = fn.make_maintainer(lambda: work)
        maintainer.on_update(4.0, 10.0)
        work[0] = 10.0
        assert maintainer.value == pytest.approx(sum(work) / len(work))


class TestApplicability:
    def test_numeric_on_category_rejected(self, registry):
        """SS3.2: the median of AGE_GROUP makes no sense."""
        age_group = category("AGE_GROUP", DataType.CATEGORY)
        assert not registry.get("median").applicable_to(age_group)
        assert not registry.get("mean").applicable_to(age_group)

    def test_counts_fine_on_category(self, registry):
        age_group = category("AGE_GROUP", DataType.CATEGORY)
        assert registry.get("count").applicable_to(age_group)
        assert registry.get("mode").applicable_to(age_group)
        assert registry.get("unique_count").applicable_to(age_group)

    def test_measures_accept_everything(self, registry):
        salary = measure("SALARY", DataType.FLOAT)
        for name in registry.names():
            assert registry.get(name).applicable_to(salary)
