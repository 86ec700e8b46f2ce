"""The contextual-bandit spectrum-sharing environment.

Each step is a one-shot decision: observe the current and recent demand
pairs, pick a raw action (u_a, u_b) in [0,1]^2, have it projected onto
the feasible pool, and receive reward -(1 + eta) * J where J is the
weighted sum of squared fractional surpluses/deficits. A raw action is
a pair of floats, and `step` computes its reward, one float. Actions
never influence future demand, so steps carry no hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Allocation, DemandSeries, EnvConfig, clamp_demand


@dataclass(frozen=True)
class Observation:
    """Normalized demand context: (window_n + 1) pairs, most recent first."""

    pairs: np.ndarray  # shape (window_n + 1, 2), demands / capacity_norm

    def __post_init__(self):
        arr = np.asarray(self.pairs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"pairs must have shape (k, 2), got {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("observation entries must be nonnegative")
        object.__setattr__(self, "pairs", arr)
        arr.setflags(write=False)

    def vector(self) -> np.ndarray:
        """Flat feature vector for the networks, recent pair first."""
        return self.pairs.ravel()


def _weighted_squares(n_a, n_b, d_a, d_b, zeta):
    # the J formula for floats and for numpy columns alike
    frac_a = (n_a - d_a) / d_a
    frac_b = (n_b - d_b) / d_b
    return zeta * frac_a * frac_a + (1.0 - zeta) * frac_b * frac_b


def objective_j(alloc: Allocation, demand: tuple[float, float], zeta: float, d_min: float) -> float:
    """Weighted sum of squared fractional surpluses/deficits.

    J = zeta*((n_a - d_a)/d_a)^2 + (1 - zeta)*((n_b - d_b)/d_b)^2 with both
    demands floored at d_min before dividing.
    """
    d_a = clamp_demand(demand[0], d_min)
    d_b = clamp_demand(demand[1], d_min)
    return _weighted_squares(alloc.n_a, alloc.n_b, d_a, d_b, zeta)


def project_action(raw: tuple[float, float], n_r: float) -> Allocation:
    """Map a raw action (u_a, u_b) in [0,1]^2 onto the feasible pool.

    The candidate grant is (u_a*n_r, u_b*n_r); if it overshoots the pool,
    both components are rescaled radially so the A:B ratio the actor asked
    for is preserved and the budget line is met exactly.
    """
    u_a, u_b = raw
    if not (0.0 <= u_a <= 1.0 and 0.0 <= u_b <= 1.0):
        raise ValueError(f"raw action out of [0,1]^2: ({u_a}, {u_b})")
    if not 0.0 < n_r < math.inf:
        raise ValueError(f"n_r must be positive and finite, got {n_r}")
    cand_a = u_a * n_r
    cand_b = u_b * n_r
    total = cand_a + cand_b
    if total > n_r:
        # halving is exact, and keeps a sum past the float maximum finite
        scale = n_r / total if total < math.inf else (0.5 * n_r) / (0.5 * cand_a + 0.5 * cand_b)
        cand_a *= scale
        cand_b *= scale
    return Allocation(cand_a, cand_b)


def _check_step(series: DemandSeries, t: int, cfg: EnvConfig) -> None:
    """Refuse a step t that has no full demand window or lies past the series."""
    if t < cfg.window_n or t >= len(series):
        raise IndexError(
            f"t={t} outside valid range [{cfg.window_n}, {len(series) - 1}] for window_n={cfg.window_n}"
        )


def observe(series: DemandSeries, t: int, cfg: EnvConfig) -> Observation:
    """Build the context at step t: demand pairs at t, t-1, ..., t-window_n,
    normalized by capacity_norm. Indices below window_n are not valid
    episode starts."""
    _check_step(series, t, cfg)
    idx = np.arange(t, t - cfg.window_n - 1, -1)
    pairs = np.stack([series.d_a[idx], series.d_b[idx]], axis=1) / cfg.capacity_norm
    return Observation(pairs)


def observation_rows(series: DemandSeries, stop: int, cfg: EnvConfig) -> np.ndarray:
    """Every observation vector of steps [window_n, stop) in one matrix:
    row t - window_n holds the bits of observe(series, t, cfg).vector()."""
    if not cfg.window_n < stop <= len(series):
        raise IndexError(f"stop={stop} outside ({cfg.window_n}, {len(series)}]")
    pairs = np.stack([series.d_a[:stop], series.d_b[:stop]], axis=1) / cfg.capacity_norm
    idx = np.arange(cfg.window_n, stop)[:, None] - np.arange(cfg.window_n + 1)
    return pairs[idx].reshape(len(idx), -1)


def step(series: DemandSeries, t: int, raw: tuple[float, float], cfg: EnvConfig) -> float:
    """The reward -(1 + eta) * J of raw action (u_a, u_b) at step t, never
    above 0. Pure: never mutates the series, and the outcome is independent
    of actions taken at other times."""
    _check_step(series, t, cfg)
    alloc = project_action(raw, cfg.n_r)
    return -(1.0 + cfg.eta) * objective_j(alloc, series.demand(t), cfg.zeta, cfg.d_min)
