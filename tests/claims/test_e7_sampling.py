"""E7: a small random sample is enough for a first impression (§2.2).

"The statistician may base this preliminary analysis on a set of sample
records drawn at random ... forming an impression of the structure of the
data based on a small sampling is sufficient."  The mean of a 1% sample of
50k incomes lands within 10% of the full scan, averaged over five seeds,
and the error shrinks as the rate grows.
"""

import statistics

from repro.relational.types import is_na
from repro.stats.sampling import sample_column


def mean_error(income, rate):
    truth = statistics.fmean(income)
    errors = [
        abs(statistics.fmean(sample_column(income, rate, seed=seed)) - truth) / abs(truth)
        for seed in range(5)
    ]
    return statistics.fmean(errors)


def test_a_one_percent_sample_estimates_the_mean(microdata_50k):
    income = [v for v in microdata_50k.column("INCOME") if not is_na(v)]
    assert mean_error(income, 0.01) < 0.10
    assert mean_error(income, 1.0) < 1e-12
    assert mean_error(income, 0.25) <= mean_error(income, 0.001)
