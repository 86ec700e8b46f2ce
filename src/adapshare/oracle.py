"""Exact per-step solvers for the allocation problem, plus a brute-force
grid oracle used to cross-check the closed form.

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
    if zeta >= 1.0:
        n_a = np.where(n_r < a, n_r, a)
        rest = n_r - n_a
        n_b = np.where(rest < b, rest, b)
    elif zeta <= 0.0:
        n_b = np.where(n_r < b, n_r, b)
        rest = n_r - n_b
        n_a = np.where(rest < a, rest, a)
    else:
        x = (zeta * a * b * b + (1.0 - zeta) * a * a * (n_r - b)) / (
            zeta * b * b + (1.0 - zeta) * a * a
        )
        x = np.where(0.0 > x, 0.0, x)
        n_a = np.where(n_r < x, n_r, x)
        n_b = n_r - n_a
    active = a + b > n_r
    return np.where(active, n_a, a), np.where(active, n_b, b), active


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


def grid_solve(
    demand: tuple[float, float], zeta: float, n_r: float, d_min: float = 0.1, step: float = 0.01
) -> OracleSolution:
    """Brute-force minimizer of J over the grid {(i*step, j*step): i+j <= K},
    K = floor(n_r/step). Ties break toward smallest n_a, then smallest n_b.

    The objective separates as term_a(x) + term_b(y), so the scan runs in
    O(K) via prefix minima of term_b instead of materializing the K^2 grid;
    the returned point is identical to the full two-dimensional sweep with
    the same lexicographic tie-breaking.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    _check_problem(zeta, n_r, d_min)
    a = clamp_demand(demand[0], d_min)
    b = clamp_demand(demand[1], d_min)
    k_max = int(np.floor(n_r / step + 1e-9))
    grid = np.arange(k_max + 1) * step
    term_a = zeta * ((grid - a) / a) ** 2
    term_b = (1.0 - zeta) * ((grid - b) / b) ** 2

    # prefix_idx[j] = argmin of term_b[0..j], first occurrence on ties
    running = np.minimum.accumulate(term_b)
    improved = term_b < np.concatenate(([np.inf], running[:-1]))
    prefix_idx = np.maximum.accumulate(np.where(improved, np.arange(k_max + 1), 0))

    pair_j = prefix_idx[::-1]  # best j for each i is argmin over [0 .. k_max - i]
    values = term_a + term_b[pair_j]
    best_i = int(np.argmin(values))  # first occurrence = smallest n_a on ties
    best_pair_j = int(pair_j[best_i])
    alloc = Allocation(best_i * step, best_pair_j * step)
    return OracleSolution(alloc, objective_j(alloc, demand, zeta, d_min), constraint_active=(a + b > n_r))
