"""Data sets shared by the paper-claim tests."""

import pytest

from repro.workloads.census import generate_microdata


@pytest.fixture(scope="session")
def microdata_50k():
    """A 50k-row person-level data set, clean values only."""
    return generate_microdata(50_000, seed=101, bad_value_rate=0.0)


@pytest.fixture(scope="session")
def microdata_10k():
    """A 10k-row person-level data set, clean values only."""
    return generate_microdata(10_000, seed=102, bad_value_rate=0.0)
