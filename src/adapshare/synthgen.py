"""Synthetic demand generation, statistically matched to a reference series.

The generator is a deliberately small surrogate for heavyweight learned
time-series models: a Gaussian-copula AR(1) process reproduces the reference
marginal distribution exactly (via the empirical quantile table) and its
lag-1 persistence, and nothing else. Every draw is bounded by the reference
min/max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import INT64_MAX, DemandSeries, frozen, positive_int

_SQRT2 = np.sqrt(2.0)


def _gauss_cdf(z: np.ndarray) -> np.ndarray:
    # Phi(z) through the complementary error function; scipy loads here, on
    # first use, so the commands that never synthesize a series skip its
    # import (math.erfc would be cheaper, but differs in the last bits)
    from scipy.special import erfc

    return 0.5 * erfc(-z / _SQRT2)


@dataclass(frozen=True)
class DemandStats:
    """Empirical quantile table plus lag-1 autocorrelation of a reference
    demand series."""

    sorted_values: np.ndarray
    lag1_corr: float
    length: int

    def __post_init__(self):
        sv = frozen(self.sorted_values, np.float64)
        if sv.ndim != 1 or len(sv) == 0 or not ((sv >= 0) & (sv < np.inf)).all():
            raise ValueError("sorted_values must be a nonempty 1-D array of finite nonnegative demands")
        if np.any(np.diff(sv) < 0):
            raise ValueError("sorted_values must be nondecreasing")
        rho = self.lag1_corr
        # a str or None fails the range check with a TypeError, and a bool or
        # a numpy float32 would pass it (a float32 would run the chain in
        # float32); NaN fails it. A numpy float64 is a float.
        if not isinstance(rho, (int, float)) or isinstance(rho, bool) or not -1.0 <= rho <= 1.0:
            raise ValueError(f"lag1_corr must be a real number in [-1, 1], got {rho!r}")
        object.__setattr__(self, "lag1_corr", float(rho))
        object.__setattr__(self, "length", positive_int(self.length, "length"))
        object.__setattr__(self, "sorted_values", sv)

    @property
    def max_demand(self) -> float:
        return float(self.sorted_values[-1])


def fit(series: DemandSeries, side: str) -> DemandStats:
    """Extract the quantile table and lag-1 Pearson correlation from the
    series' side ('a' or 'b') column.

    A zero-variance reference has no defined correlation; it is fixed at 0
    so downstream generation degenerates to a constant rather than NaN.
    """
    values = np.asarray(series.column(side), dtype=np.float64)
    if len(values) < 2:
        raise ValueError(f"need at least 2 samples to fit, got {len(values)}")
    x0, x1 = values[:-1], values[1:]
    s0, s1 = x0.std(), x1.std()
    if s0 == 0.0 or s1 == 0.0:
        rho = 0.0
    else:
        rho = float(np.mean((x0 - x0.mean()) * (x1 - x1.mean())) / (s0 * s1))
        rho = float(np.clip(rho, -1.0, 1.0))
    return DemandStats(np.sort(values), rho, len(values))


def generate(
    stats: DemandStats,
    length: int,
    seed: int,
    side: str = "a",
    granularity: int = 3600,
) -> DemandSeries:
    """Draw a synthetic one-sided series from fitted stats.

    Latent chain: z_0 ~ N(0,1), z_t = rho*z_{t-1} + sqrt(1-rho^2)*eps_t; each
    z_t maps through the Gaussian CDF to a uniform, then through the
    empirical quantile table (linear interpolation). Deterministic given
    (stats, length, seed). Timestamps run from 0 in steps of granularity.
    For speed the chain runs on Python floats and the table takes sorted
    queries; both keep the bits of numpy scalars and unsorted queries.
    """
    length = positive_int(length, "length")
    granularity = positive_int(granularity, "granularity")
    # the last timestamp must fit int64, or the timestamps wrap
    if granularity * (length - 1) > INT64_MAX:
        raise ValueError(
            f"length {length} at granularity {granularity} puts the last timestamp past int64"
        )
    # one sample has no last gap, but numpy cannot scale its timestamp by
    # such a granularity
    if granularity > INT64_MAX:
        raise ValueError(f"granularity must fit int64, got {granularity}")
    rng = np.random.default_rng(seed)
    prev, rho = rng.standard_normal(), stats.lag1_corr
    steps = (np.sqrt(1.0 - rho * rho) * rng.standard_normal(length - 1)).tolist()
    # the chain runs on Python floats: each step is the same two IEEE double
    # products and one add as on numpy scalars, unfused, so the bits match
    chain, rho = [prev], float(rho)
    for step in steps:
        prev = rho * prev + step
        chain.append(prev)
    u = _gauss_cdf(np.array(chain))
    sv = stats.sorted_values
    if len(sv) == 1:
        values = np.full(length, sv[0])
    else:
        positions = np.arange(len(sv)) / (len(sv) - 1)
        # np.interp computes each value from its query and its bracket in the
        # strictly increasing positions alone, so sorted queries give the bits
        order = np.argsort(u)
        values = np.empty(length)
        values[order] = np.interp(u[order], positions, sv)
    timestamps = granularity * np.arange(length, dtype=np.int64)
    zeros = np.zeros(length)
    for arr in (timestamps, values, zeros):
        arr.setflags(write=False)
    if side == "a":
        return DemandSeries(timestamps, values, zeros, granularity)
    if side == "b":
        return DemandSeries(timestamps, zeros, values, granularity)
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic of two value arrays (a
    series' demand column, say): the maximum absolute gap between their
    empirical CDFs. An empty or non-finite sample is refused, naming it."""
    va = np.sort(np.asarray(a, dtype=np.float64))
    vb = np.sort(np.asarray(b, dtype=np.float64))
    for name, v in (("a", va), ("b", vb)):
        if len(v) == 0 or not np.isfinite(v).all():
            raise ValueError(f"{name} must be a nonempty sample of finite values")
    grid = np.concatenate([va, vb])
    cdf_a = np.searchsorted(va, grid, side="right") / len(va)
    cdf_b = np.searchsorted(vb, grid, side="right") / len(vb)
    return float(np.max(np.abs(cdf_a - cdf_b)))
