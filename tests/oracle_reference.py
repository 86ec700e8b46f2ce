"""The brute-force grid minimizer that the closed-form solver in
adapshare.oracle is checked against, kept with the tests as row_reference
is for the CSV reader: it scans every grant pair on a grid of the budget
triangle, so it needs no derivation to be right, only time.
"""

import numpy as np

from adapshare.domain import Allocation, clamp_demand
from adapshare.env import objective_j
from adapshare.oracle import OracleSolution, _check_problem


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
