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
from scipy.special import erfc

from .domain import DemandSeries

_SQRT2 = np.sqrt(2.0)


def _gauss_cdf(z: np.ndarray) -> np.ndarray:
    # Phi(z) through the complementary error function
    return 0.5 * erfc(-z / _SQRT2)


@dataclass(frozen=True)
class DemandStats:
    """Empirical quantile table plus lag-1 autocorrelation of a reference
    demand series."""

    sorted_values: np.ndarray
    lag1_corr: float
    length: int

    def __post_init__(self):
        sv = np.asarray(self.sorted_values, dtype=np.float64)
        if np.any(np.diff(sv) < 0):
            raise ValueError("sorted_values must be nondecreasing")
        if not -1.0 <= self.lag1_corr <= 1.0:
            raise ValueError(f"lag1_corr out of [-1, 1]: {self.lag1_corr}")
        object.__setattr__(self, "sorted_values", sv)
        sv.setflags(write=False)

    @property
    def max_demand(self) -> float:
        return float(self.sorted_values[-1])


def fit(series: DemandSeries, side: str | None = None) -> DemandStats:
    """Extract the quantile table and lag-1 Pearson correlation from a
    one-sided series.

    A zero-variance reference has no defined correlation; it is fixed at 0
    so downstream generation degenerates to a constant rather than NaN.
    """
    if side is None:
        side = series.populated_side()
        if side is None:
            raise ValueError("series is two-sided; pass side='a' or side='b' explicitly")
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
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    rng = np.random.default_rng(seed)
    rho = stats.lag1_corr
    z = np.empty(length, dtype=np.float64)
    z[0] = rng.standard_normal()
    if length > 1:
        innovations = rng.standard_normal(length - 1)
        scale = np.sqrt(1.0 - rho * rho)
        for t in range(1, length):
            z[t] = rho * z[t - 1] + scale * innovations[t - 1]
    u = _gauss_cdf(z)
    sv = stats.sorted_values
    if len(sv) == 1:
        values = np.full(length, sv[0])
    else:
        positions = np.arange(len(sv)) / (len(sv) - 1)
        values = np.interp(u, positions, sv)
    timestamps = granularity * np.arange(length, dtype=np.int64)
    zeros = np.zeros(length)
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
