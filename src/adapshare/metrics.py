"""Evaluation metrics: fractional surplus/deficit, Jain fairness, objectives.

Surplus/deficit is the signed mean of (allocated - demanded) / demanded per
network, so 0 means perfect tracking, +0.5 means half again too much, and -1
means nothing allocated. Fairness is Jain's index averaged over steps.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .env import objective_j_array


class LengthMismatch(ValueError):
    """Allocation and demand sequences differ in length."""


class EmptyInput(ValueError):
    """A metric was asked to aggregate zero steps."""


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics for one evaluated policy on one scenario.

    per_step rows are (t, allocation, demand, j). zero_alloc_steps counts
    the (0, 0) allocations whose fairness term used the both-starved
    convention (counted as 1).
    """

    s_a: float
    s_b: float
    fairness: float
    mean_j: float
    zero_alloc_steps: int = 0
    per_step: list = field(default_factory=list)


def _alloc_arrays(allocs):
    if len(allocs) == 0:
        raise EmptyInput("no allocations to aggregate")
    n_a = np.array([a.n_a for a in allocs], dtype=float)
    n_b = np.array([a.n_b for a in allocs], dtype=float)
    return n_a, n_b


def _demand_arrays(demands, length):
    if len(demands) != length:
        raise LengthMismatch(f"{length} allocations vs {len(demands)} demands")
    pairs = np.array(demands, dtype=float).reshape(length, 2)
    return pairs[:, 0], pairs[:, 1]


def _surplus(n_a, n_b, d_a, d_b, d_min):
    d_a = np.maximum(d_a, d_min)
    d_b = np.maximum(d_b, d_min)
    return float(np.mean((n_a - d_a) / d_a)), float(np.mean((n_b - d_b) / d_b))


def _jain(n_a, n_b):
    """Mean per-step Jain index and the number of 0/0 steps counted as 1."""
    denom = 2.0 * (n_a ** 2 + n_b ** 2)
    zero = denom == 0.0
    per_step = np.ones_like(denom)
    np.divide((n_a + n_b) ** 2, denom, out=per_step, where=~zero)
    return float(np.mean(per_step)), int(zero.sum())


def _mean_left_to_right(values):
    # a plain running sum, as a Python loop would add, not np.sum's pairwise one
    return float(np.add.accumulate(values)[-1]) / len(values)


def surplus_deficit(allocs, demands, d_min=0.1):
    """Mean fractional surplus (+) or deficit (-) per network.

    s_a = (1/T) sum (n_a - d_a) / d_a, demands clamped by d_min before
    division; symmetrically s_b.
    """
    n_a, n_b = _alloc_arrays(allocs)
    return _surplus(n_a, n_b, *_demand_arrays(demands, len(allocs)), d_min)


def jain_fairness(allocs):
    """Mean per-step Jain index (n_a + n_b)^2 / (2 (n_a^2 + n_b^2)).

    A (0, 0) step is 0/0; both sides are equally starved there, so it
    counts as 1 and a warning reports how many steps did.
    """
    fairness, zero_steps = _jain(*_alloc_arrays(allocs))
    if zero_steps:
        warnings.warn(
            f"{zero_steps} all-zero allocation step(s) counted as fairness 1",
            stacklevel=2,
        )
    return fairness


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


def build_report(allocs, demands, zeta, d_min=0.1, timestamps=None, keep_per_step=False):
    """Bundle every metric for one policy run into an EvalReport.

    allocs is a sequence of Allocation and demands one of (d_a, d_b)
    pairs. Both are read into columns once; J, surplus and fairness are
    then whole-array expressions with the same bits the per-step
    objective_j and the single-metric functions give.
    """
    n_a, n_b = _alloc_arrays(allocs)
    d_a, d_b = _demand_arrays(demands, len(allocs))
    j = objective_j_array(n_a, n_b, d_a, d_b, zeta, d_min)
    s_a, s_b = _surplus(n_a, n_b, d_a, d_b, d_min)
    fairness, _ = _jain(n_a, n_b)
    per_step = []
    if keep_per_step:
        if timestamps is None:
            timestamps = range(len(allocs))
        per_step = list(zip(timestamps, allocs, demands, j.tolist()))
    return EvalReport(
        s_a=s_a,
        s_b=s_b,
        fairness=fairness,
        mean_j=_mean_left_to_right(j),
        zero_alloc_steps=int(np.sum((n_a == 0.0) & (n_b == 0.0))),
        per_step=per_step,
    )

