"""
Closed-form optimal splits and a neighbourhood cross-check
==========================================================

The allocator minimizes the priority-weighted squared fractional error
between allocation and demand. When the pool covers both demands the
answer is trivially the demand itself; when it binds, the closed form
solves the constrained quadratic. Moving its split a little either way
along the budget line never lowers the objective, which confirms it.
"""

import numpy as np

from adapshare import Allocation, objective_j, solve_opt, solve_opt_base

D_MIN = 0.1  # solve_opt's default demand floor
SHIFT = 0.01  # PRB moved from one network to the other

# plenty of pool: both networks get exactly what they asked for
sol = solve_opt((26.31, 25.80), zeta=0.5, n_r=100.0)
print(f"n_r=100: alloc=({sol.allocation.n_a:.2f}, {sol.allocation.n_b:.2f}) "
      f"J={sol.j_value:.6f} binding={sol.constraint_active}")

# tight pool: 20 PRB against ~52 PRB of demand forces a tradeoff
sol = solve_opt((26.31, 25.80), zeta=0.5, n_r=20.0)
print(f"n_r=20:  alloc=({sol.allocation.n_a:.5f}, {sol.allocation.n_b:.5f}) "
      f"J={sol.j_value:.6f} binding={sol.constraint_active}")


def shifted(allocation, shift):
    """The split with `shift` PRB moved from B to A, on the same budget
    line, or None where a grant would turn negative."""
    n_a, n_b = allocation.n_a + shift, allocation.n_b - shift
    return Allocation(n_a, n_b) if n_a >= 0 and n_b >= 0 else None


# the independent check: a 0.01-PRB move either way costs J
for shift in (-SHIFT, SHIFT):
    moved = shifted(sol.allocation, shift)
    j = objective_j(moved, (26.31, 25.80), 0.5, D_MIN)
    print(f"moved {shift:+.2f}: alloc=({moved.n_a:.5f}, {moved.n_b:.5f}) "
          f"J={j:.6f} ({j - sol.j_value:+.2e})")

# sweeping the priority weight slides the split from all-B to all-A
print("\npriority sweep at n_r=20, demand (25, 30):")
for zeta in (0.0, 0.25, 0.5, 0.75, 1.0):
    sol = solve_opt((25.0, 30.0), zeta, 20.0)
    print(f"  zeta={zeta:.2f} -> ({sol.allocation.n_a:6.3f}, {sol.allocation.n_b:6.3f})")

# the quasi-static baseline splits the pool by historical maxima instead
base = solve_opt_base((26.31, 25.80), zeta=0.5, n_r=20.0)
print(f"\nquasi-static split of the same pool: "
      f"({base.allocation.n_a:.3f}, {base.allocation.n_b:.3f})")

# random spot checks: no 0.01-PRB move along the budget line lowers J
rng = np.random.default_rng(0)
least = np.inf
for _ in range(50):
    d = tuple(rng.uniform(0.5, 50.0, 2))
    zeta = float(rng.uniform(0.0, 1.0))
    closed = solve_opt(d, zeta, 60.0)
    for shift in (-SHIFT, SHIFT):
        moved = shifted(closed.allocation, shift)
        if moved is not None:
            least = min(least, objective_j(moved, d, zeta, D_MIN) - closed.j_value)
print(f"50 random instances: least J gain of a {SHIFT}-PRB move = {least:.2e}")
if least < 0.0:
    raise SystemExit("a move along the budget line lowered J: the closed form is not the optimum")
