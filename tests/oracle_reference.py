"""The references the closed-form solver in adapshare.oracle is checked
against, kept with the tests as row_reference is for the CSV reader: a
brute-force grid minimizer, which scans every grant pair on a grid of the
budget triangle, so it needs no derivation to be right, only time; and an
exact solver over rationals, which says how far a float grant is from
the true optimum.
"""

from fractions import Fraction

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


def exact_j(n_a, n_b, a, b, zeta):
    """J of grants (n_a, n_b) for clamped demands (a, b), exactly: every
    float is read as the rational it holds."""
    n_a, n_b, a, b, zeta = (Fraction(v) for v in (n_a, n_b, a, b, zeta))
    return zeta * ((n_a - a) / a) ** 2 + (1 - zeta) * ((n_b - b) / b) ** 2


def exact_solve(a, b, zeta, n_r):
    """The exact optimum (n_a, n_b, J) as Fractions, for clamped demands
    (a, b) that a pool n_r cannot cover and a weight 0 < zeta < 1.

    J is then strictly convex along the budget line n_a + n_b = n_r, on
    which every optimum lies, so its optimum is the stationary point of
    the oracle's derivation, x* = [zeta a b^2 + (1 - zeta) a^2 (n_r - b)]
    / [zeta b^2 + (1 - zeta) a^2], clamped to [0, n_r], here computed
    with no rounding at all.
    """
    if not (a + b > n_r and 0.0 < zeta < 1.0):
        raise ValueError("exact_solve takes a binding pool and 0 < zeta < 1")
    a, b, zeta, n_r = (Fraction(v) for v in (a, b, zeta, n_r))
    x = (zeta * a * b * b + (1 - zeta) * a * a * (n_r - b)) / (zeta * b * b + (1 - zeta) * a * a)
    n_a = min(max(x, Fraction(0)), n_r)
    return n_a, n_r - n_a, exact_j(n_a, n_r - n_a, a, b, zeta)
