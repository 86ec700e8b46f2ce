"""Exact per-step solvers for the allocation problem: the closed form, and
the quasi-static baseline built on it.

The problem: minimize J(n_a, n_b) = zeta*((n_a-a)/a)^2 + (1-zeta)*((n_b-b)/b)^2
subject to n_a + n_b <= n_r, 0 <= n_a, n_b <= n_r, with a, b the d_min-clamped
demands. When the pool covers both demands the answer is the demand itself;
otherwise the budget constraint binds (each term strictly improves toward its
demand, so no optimum wastes pool) and stationarity on the budget line gives
the interior solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Allocation, clamp_demand, clamp_demands
from .env import objective_j


@dataclass(frozen=True)
class OracleSolution:
    allocation: Allocation
    j_value: float
    constraint_active: bool


def _check_problem(zeta, n_r, d_min):
    if not 0.0 < n_r < math.inf:
        raise ValueError(f"n_r must be positive and finite, got {n_r}")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta}")
    if not 0.0 < d_min < math.inf:
        raise ValueError(f"d_min must be positive and finite, got {d_min}")


def _closed_form(a, b, zeta, n_r):
    """Optimal grants for clamped demands a, b (numpy scalars or
    equal-shape arrays), plus where the pool binds.

    For zeta in (0,1) with a binding pool, the stationarity condition
    zeta*(x-a)/a^2 = (1-zeta)*(n_r-x-b)/b^2 yields
    x* = [zeta*a*b^2 + (1-zeta)*a^2*(n_r-b)] / [zeta*b^2 + (1-zeta)*a^2],
    clamped to [0, n_r]. At zeta 0 or 1 the objective ignores one network;
    the weighted one gets min(demand, pool) and the other min(demand,
    remainder), which avoids gratuitous starvation. Each np.where picks
    what Python's min(p, q) or max(p, q) would: q only when strictly
    smaller (larger), so ties and signed zeros land as they would there.
    """
    active = a + b > n_r
    if zeta >= 1.0:
        n_a = np.where(n_r < a, n_r, a)
        rest = n_r - n_a
        n_b = np.where(rest < b, rest, b)
    elif zeta <= 0.0:
        n_b = np.where(n_r < b, n_r, b)
        rest = n_r - n_b
        n_a = np.where(rest < a, rest, a)
    else:
        x, bad = _stationary(a, b, zeta, n_r)
        redo = active & bad
        if redo.any():
            e = np.frexp(np.maximum(np.maximum(a, b), n_r))[1]
            scaled, _ = _stationary(np.ldexp(a, -e), np.ldexp(b, -e), zeta, np.ldexp(n_r, -e))
            x = np.where(redo, np.ldexp(scaled, e), x)
        x = np.where(0.0 > x, 0.0, x)
        n_a = np.where(n_r < x, n_r, x)
        n_b = n_r - n_a
    return np.where(active, n_a, a), np.where(active, n_b, b), active


def _stationary(a, b, zeta, n_r):
    """_closed_form's x*, with no warning, and where a term of it overflows
    or it is not finite (vanishing squares give 0/0): _closed_form computes
    those again on a, b and n_r scaled by a power of two, as metrics._jain does."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = zeta * a * b * b + (1.0 - zeta) * a * a * (n_r - b)
        den = zeta * b * b + (1.0 - zeta) * a * a
        x = num / den
    return x, ~(np.isfinite(num) & np.isfinite(den) & np.isfinite(x))


def solve_opt_array(d_a, d_b, zeta: float, n_r: float, d_min: float = 0.1):
    """solve_opt over whole demand columns in one array pass.

    Returns the grant columns (n_a, n_b), element for element the bits
    solve_opt returns for the same demand pair.
    """
    _check_problem(zeta, n_r, d_min)
    n_a, n_b, _ = _closed_form(
        clamp_demands(d_a, d_min, "d_a"), clamp_demands(d_b, d_min, "d_b"), zeta, n_r
    )
    return n_a, n_b


def solve_opt(
    demand: tuple[float, float], zeta: float, n_r: float, d_min: float = 0.1
) -> OracleSolution:
    """Closed-form optimal allocation for one demand pair: the clamped
    demands when the pool covers both, else the optimum on the budget
    line (derived in _closed_form)."""
    _check_problem(zeta, n_r, d_min)
    n_a, n_b, active = _closed_form(
        np.float64(clamp_demand(demand[0], d_min)),
        np.float64(clamp_demand(demand[1], d_min)),
        zeta,
        n_r,
    )
    alloc = Allocation(float(n_a), float(n_b))
    return OracleSolution(alloc, objective_j(alloc, demand, zeta, d_min), bool(active))


def solve_opt_base(
    max_demand: tuple[float, float], zeta: float, n_r: float, d_min: float = 0.1
) -> OracleSolution:
    """Quasi-static baseline: solve once against the historical maximum
    demands; callers reuse the same allocation for every step."""
    return solve_opt(max_demand, zeta, n_r, d_min)

