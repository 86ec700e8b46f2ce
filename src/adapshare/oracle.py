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

from .domain import Allocation, check_objective, clamp_demand, clamp_demands
from .env import objective_j


@dataclass(frozen=True)
class OracleSolution:
    allocation: Allocation
    j_value: float
    constraint_active: bool


def _check_problem(zeta, n_r, d_min):
    if not 0.0 < n_r < math.inf:
        raise ValueError(f"n_r must be positive and finite, got {n_r}")
    check_objective(zeta, d_min)


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
        x = np.where(0.0 > x, 0.0, x)
        n_a = np.where(n_r < x, n_r, x)
        n_b = n_r - n_a
        redo = active & bad
        if redo.any():
            split_a, split_b = _split_deficit(a, b, zeta, n_r)
            n_a = np.where(redo, split_a, n_a)
            n_b = np.where(redo, split_b, n_b)
    return np.where(active, n_a, a), np.where(active, n_b, b), active


# Where x* is exact to a few roundings: demands and pool within 2**-256
# to 2**256, so no term of it (a product of three) overflows or leaves
# the normal range, and the smaller demand at least this share of the
# pool, so that subtracting x* from n_r does not round its grant away.
_RANGE = 2.0 ** 256
_SMALL_SHARE = 2.0 ** -20


def _stationary(a, b, zeta, n_r):
    """_closed_form's x*, with no warning, and the rows where it is not to
    be trusted (see _RANGE), to which _closed_form gives _split_deficit's
    grants."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        x = (zeta * a * b * b + (1.0 - zeta) * a * a * (n_r - b)) / (zeta * b * b + (1.0 - zeta) * a * a)
    return x, (lo < 1.0 / _RANGE) | (hi > _RANGE) | (lo < _SMALL_SHARE * n_r)


def _split_deficit(a, b, zeta, n_r):
    """The grants on the budget line as each demand less its share of the
    deficit D = a + b - n_r: A gives up D / (1 + r) and B D / (1 + 1/r),
    with r = zeta b^2 / ((1 - zeta) a^2) the weight of A's term over B's,
    the algebra of _closed_form's x*. The network with the smaller demand
    gets its grant so, and the other the rest of the pool; as the larger
    demand exceeds half the pool, each grant is then within a few
    roundings of its demand. Halved terms keep D from overflowing, and a
    ratio b / a past the float range makes r 0 or inf, not NaN."""
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        q = b / a
        r = zeta / (1.0 - zeta) * (q * q)
        half = (0.5 * np.maximum(a, b) - 0.5 * n_r) + 0.5 * np.minimum(a, b)
        g_a = np.clip(2.0 * (0.5 * a - half / (1.0 + r)), 0.0, n_r)
        g_b = np.clip(2.0 * (0.5 * b - half / (1.0 + 1.0 / r)), 0.0, n_r)
    a_first = a <= b
    return np.where(a_first, g_a, n_r - g_b), np.where(a_first, n_r - g_a, g_b)


def solve_opt_array(d_a, d_b, zeta: float, n_r: float, d_min: float = 0.1):
    """solve_opt over two 1-D demand columns of one shape in one array pass.

    Returns the grant columns (n_a, n_b), element for element the bits
    solve_opt returns for the same demand pair.
    """
    _check_problem(zeta, n_r, d_min)
    if np.ndim(d_a) != 1 or np.shape(d_a) != np.shape(d_b):
        raise ValueError(f"d_a and d_b must be 1-D of one shape, got {np.shape(d_a)} and {np.shape(d_b)}")
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

