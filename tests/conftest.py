"""Shared fixtures: bundled data files and small reusable demand series,
and `grants`, which builds the grant record array build_report reads."""

from pathlib import Path

import numpy as np
import pytest

from adapshare import DemandSeries, fit, generate, read_series_csv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def grants(pairs):
    """The grant record array of (n_a, n_b) pairs: float64 fields n_a and
    n_b, the form greedy_policy returns."""
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return np.rec.fromarrays((pairs[:, 0], pairs[:, 1]), names="n_a,n_b")


@pytest.fixture(scope="session")
def dci_fixture_path():
    return FIXTURES / "dci_small.csv"


@pytest.fixture(scope="session")
def hourly_fixture_path():
    return FIXTURES / "lte_hourly.csv"


@pytest.fixture(scope="session")
def ref_series(hourly_fixture_path):
    return read_series_csv(hourly_fixture_path)


@pytest.fixture(scope="session")
def synth_series(ref_series):
    """The 860-sample two-network dataset the experiments run on."""
    stats = fit(ref_series, side="a")
    gen_a = generate(stats, 860, 42, side="a")
    gen_b = generate(stats, 860, 43, side="b")
    return DemandSeries(gen_a.timestamps, gen_a.d_a, gen_b.d_b, 3600.0)


@pytest.fixture
def small_series():
    """Ten steps of gently varying two-sided demand."""
    t = np.arange(10)
    d_a = 5.0 + np.sin(t)
    d_b = 4.0 + np.cos(t)
    return DemandSeries(t * 3600.0, d_a, d_b, 3600.0)


@pytest.fixture
def constant_series():
    """Sixty steps of constant (5, 5) demand."""
    t = np.arange(60)
    return DemandSeries(t * 3600.0, np.full(60, 5.0), np.full(60, 5.0), 3600.0)
