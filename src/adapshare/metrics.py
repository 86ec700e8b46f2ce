"""Evaluation metrics: fractional surplus/deficit, Jain fairness, objectives.

Surplus/deficit is the signed mean of (allocated - demanded) / demanded per
network, so 0 means perfect tracking, +0.5 means half again too much, and -1
means nothing allocated. Fairness is Jain's index averaged over steps.
build_report computes all of them, with the mean objective J, from one
grant record array (the form greedy_policy returns) and its demands.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import check_objective, clamp_demands
from .env import _weighted_squares


class LengthMismatch(ValueError):
    """Allocation and demand sequences differ in length."""


class EmptyInput(ValueError):
    """A metric was asked to aggregate zero steps."""


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics for one evaluated policy on one scenario.

    zero_alloc_steps counts the (0, 0) allocations whose fairness term
    used the both-starved convention (counted as 1). per_step is a
    read-only (T, 6) float array with columns t, n_a, n_b, d_a, d_b, j,
    the detail CSV's order; == ignores it.
    """

    s_a: float
    s_b: float
    fairness: float
    mean_j: float
    zero_alloc_steps: int
    per_step: np.ndarray = field(compare=False)


def _demand_arrays(demands, length):
    if len(demands) != length:
        raise LengthMismatch(f"{length} allocations vs {len(demands)} demands")
    pairs = np.array(demands, dtype=float).reshape(length, 2)
    return pairs[:, 0], pairs[:, 1]


def _jain(n_a, n_b):
    """Mean per-step Jain index and the number of (0, 0) steps counted as 1.

    A nonzero step whose squares underflow below the normal range or
    overflow is scored on its grants divided by the larger one.
    """
    zero = (n_a == 0.0) & (n_b == 0.0)
    with np.errstate(over="ignore"):
        num = (n_a + n_b) ** 2
        denom = 2.0 * (n_a ** 2 + n_b ** 2)
    plain = (denom >= np.finfo(float).tiny) & np.isfinite(num) & np.isfinite(denom)
    per_step = np.ones_like(denom)
    np.divide(num, denom, out=per_step, where=plain)
    scaled = ~plain & ~zero
    if scaled.any():
        top = np.maximum(n_a[scaled], n_b[scaled])
        a, b = n_a[scaled] / top, n_b[scaled] / top
        per_step[scaled] = (a + b) ** 2 / (2.0 * (a ** 2 + b ** 2))
    return float(np.mean(per_step)), int(zero.sum())


def _mean_left_to_right(values):
    # a plain running sum, as a Python loop would add, not np.sum's pairwise one
    return float(np.add.accumulate(values)[-1]) / len(values)


def moving_average(values, window):
    """Trailing mean with an expanding head: out[i] = mean(values[max(0, i-window+1) .. i])."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyInput("no values to average")
    out = np.empty_like(values)
    head = min(window - 1, values.size)
    for i in range(head):
        out[i] = values[: i + 1].mean()
    if values.size >= window:
        out[head:] = sliding_window_view(values, window).mean(axis=1)
    return out


def build_report(grants, demands, zeta, d_min=0.1, timestamps=None):
    """Bundle every metric for one policy run into an EvalReport.

    grants is a grant record array (fields n_a and n_b, as greedy_policy
    returns), and demands a sequence of (d_a, d_b) pairs or a (T, 2)
    array. Each demand column is floored at d_min once (clamp_demands),
    and that column feeds both J and the surplus:
      J_t = zeta ((n_a - d_a) / d_a)^2 + (1 - zeta) ((n_b - d_b) / d_b)^2,
        the per-step objective_j's formula and bits;
      s_a = mean((n_a - d_a) / d_a), and s_b likewise;
      fairness = mean Jain index (n_a + n_b)^2 / (2 (n_a^2 + n_b^2)),
        a (0, 0) step counting as 1 (both sides equally starved) and
        tallied in zero_alloc_steps.
    mean_j adds J left to right. The per_step matrix holds the unfloored
    demands and takes its t column from timestamps, or 0 .. T-1 when none
    are given. zeta must lie in [0, 1] and d_min be positive and finite.
    """
    if len(grants) == 0:
        raise EmptyInput("no allocations to aggregate")
    check_objective(zeta, d_min)
    n_a = np.asarray(grants["n_a"], dtype=float)
    n_b = np.asarray(grants["n_b"], dtype=float)
    d_a, d_b = _demand_arrays(demands, len(grants))
    floor_a = clamp_demands(d_a, d_min, "d_a")
    floor_b = clamp_demands(d_b, d_min, "d_b")
    j = _weighted_squares(n_a, n_b, floor_a, floor_b, zeta)
    fairness, zero_steps = _jain(n_a, n_b)
    t = np.arange(len(j)) if timestamps is None else timestamps
    per_step = np.column_stack((t, n_a, n_b, d_a, d_b, j))
    per_step.setflags(write=False)
    return EvalReport(
        s_a=float(np.mean((n_a - floor_a) / floor_a)),
        s_b=float(np.mean((n_b - floor_b) / floor_b)),
        fairness=fairness,
        mean_j=_mean_left_to_right(j),
        zero_alloc_steps=zero_steps,
        per_step=per_step,
    )
