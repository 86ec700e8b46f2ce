"""Closed-form solver against hand arithmetic and the brute-force grid."""

import numpy as np
import pytest

from adapshare.domain import Allocation, clamp_demand
from adapshare.env import objective_j
from adapshare.oracle import solve_opt, solve_opt_array, solve_opt_base
from oracle_reference import grid_solve


class TestFeasiblePool:
    def test_demand_granted_exactly(self):
        sol = solve_opt((5.0, 8.0), zeta=0.5, n_r=20.0)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (5.0, 8.0)
        assert sol.j_value == 0.0
        assert sol.constraint_active is False

    def test_boundary_total_counts_as_feasible(self):
        sol = solve_opt((12.0, 8.0), zeta=0.3, n_r=20.0)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (12.0, 8.0)
        assert sol.constraint_active is False

    def test_zero_demand_receives_clamp_floor(self):
        # zero demands are floored at d_min before solving, so the grant is
        # the floor itself and the fractional error is exactly zero
        sol = solve_opt((0.0, 0.0), zeta=0.5, n_r=20.0, d_min=0.1)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (0.1, 0.1)
        assert sol.j_value == 0.0


class TestBindingPool:
    def test_peak_demand_scenario(self):
        # a=26.31, b=25.80, n_r=20, zeta=0.5:
        # x* = (0.5*a*b^2 + 0.5*a^2*(20-b)) / (0.5*b^2 + 0.5*a^2) = 9.94077
        sol = solve_opt((26.31, 25.80), zeta=0.5, n_r=20.0)
        assert sol.constraint_active is True
        assert sol.allocation.n_a == pytest.approx(9.94077, abs=1e-4)
        assert sol.allocation.n_b == pytest.approx(10.05923, abs=1e-4)
        assert sol.allocation.n_a + sol.allocation.n_b == pytest.approx(20.0, abs=1e-9)
        assert sol.j_value == pytest.approx(0.3796618, abs=1e-6)

    def test_equal_demand_splits_evenly_at_balanced_weight(self):
        sol = solve_opt((30.0, 30.0), zeta=0.5, n_r=20.0)
        assert sol.allocation.n_a == pytest.approx(10.0, abs=1e-12)
        assert sol.allocation.n_b == pytest.approx(10.0, abs=1e-12)

    def test_zeta_one_feeds_network_a_first(self):
        sol = solve_opt((25.0, 30.0), zeta=1.0, n_r=20.0)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (20.0, 0.0)

    def test_zeta_zero_feeds_network_b_first(self):
        sol = solve_opt((25.0, 30.0), zeta=0.0, n_r=20.0)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (0.0, 20.0)

    def test_extreme_weight_never_wastes_leftover(self):
        # A only wants 5 of the 20; B gets the remainder even at zeta=1
        sol = solve_opt((5.0, 30.0), zeta=1.0, n_r=20.0)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (5.0, 15.0)

    def test_interior_point_clamped_to_zero(self):
        # tiny a with near-zero weight drives the unconstrained x* negative;
        # dJ/dx at x=0 is +0.00602 so the clamped corner is optimal
        sol = solve_opt((0.2, 100.0), zeta=0.001, n_r=20.0)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (0.0, 20.0)

    def test_stationarity_on_budget_line(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            demand = tuple(rng.uniform(0.5, 40.0, size=2))
            zeta = rng.uniform(0.05, 0.95)
            sol = solve_opt(demand, zeta, n_r=20.0)
            if not sol.constraint_active:
                continue
            x = sol.allocation.n_a
            if not 1e-9 < x < 20.0 - 1e-9:
                continue
            a = clamp_demand(demand[0], 0.1)
            b = clamp_demand(demand[1], 0.1)
            residual = zeta * (x - a) / a**2 - (1.0 - zeta) * (20.0 - x - b) / b**2
            assert abs(residual) < 1e-9
            checked += 1
        assert checked > 50

    def test_allocation_monotone_in_zeta(self):
        zetas = np.linspace(0.0, 1.0, 21)
        grants = [solve_opt((26.31, 25.80), z, n_r=20.0).allocation.n_a for z in zetas]
        assert all(g2 >= g1 - 1e-12 for g1, g2 in zip(grants, grants[1:]))
        assert grants[0] == 0.0 and grants[-1] == 20.0

    def test_never_beaten_by_sampled_feasible_points(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            demand = tuple(rng.uniform(0.5, 40.0, size=2))
            zeta = rng.uniform(0.0, 1.0)
            sol = solve_opt(demand, zeta, n_r=20.0)
            for _ in range(25):
                n_a = rng.uniform(0.0, 20.0)
                n_b = rng.uniform(0.0, 20.0 - n_a)
                j = objective_j(Allocation(n_a, n_b), demand, zeta, 0.1)
                assert sol.j_value <= j + 1e-12

    def test_invalid_pool_rejected(self):
        with pytest.raises(ValueError):
            solve_opt((5.0, 5.0), zeta=0.5, n_r=0.0)

    def test_binding_pool_whose_squares_overflow(self):
        # a, b and n_r of 1e200 once gave NaN grants: their squares overflow
        n_a, n_b = solve_opt_array([1e200], [1e200], 0.5, 1e200)
        assert (n_a[0], n_b[0]) == (5e199, 5e199)
        sol = solve_opt((1e200, 1e200), 0.5, 1e200)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (5e199, 5e199)
        assert sol.constraint_active is True
        # here only the denominator overflows, which once granted A nothing
        sol = solve_opt((0.1, 2.5e154), 0.5, 2.4e154)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (0.1, 2.4e154)

    def test_binding_pool_whose_terms_underflow(self):
        # a * b * b and a * a vanish below the normal range: x* was 0, which
        # granted A nothing (J 0.505) where it asks for the smallest float step
        sol = solve_opt((1e-300, 1e-150), 0.5, 0.9e-150, d_min=1e-300)
        assert sol.allocation.n_a == 1e-300
        assert sol.allocation.n_b == pytest.approx(0.9e-150, rel=1e-12)
        assert sol.j_value == pytest.approx(0.005, rel=1e-9)

    @pytest.mark.parametrize("demand, zeta, n_r, grant_b", [((1e17, 1.0), 0.5, 1e16, 1.0),
                                                            ((1.25, 1e-10), 1e-300, 1.0, 1e-10)],
                             ids=["large_ratio", "small_demand"])
    def test_small_demand_not_rounded_away(self, demand, zeta, n_r, grant_b):
        # n_r - x* rounded B's grant to 0 (J 0.905), or 1.2e-6 of it off its
        # demand where B's term carries all the weight (J 1.4e-12, not 0)
        sol = solve_opt(demand, zeta, n_r, d_min=1e-10)
        assert sol.allocation.n_b == grant_b
        assert sol.allocation.n_a == n_r - grant_b


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_demand_rejected(self, bad):
        with pytest.raises(ValueError, match="demand must be finite"):
            solve_opt((bad, 5.0), zeta=0.5, n_r=20.0)
        with pytest.raises(ValueError, match="demand must be finite"):
            solve_opt((5.0, bad), zeta=0.5, n_r=20.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pool_rejected(self, bad):
        with pytest.raises(ValueError, match="n_r"):
            solve_opt((5.0, 5.0), zeta=0.5, n_r=bad)
        with pytest.raises(ValueError, match="n_r"):
            solve_opt_array([5.0], [5.0], zeta=0.5, n_r=bad)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_zeta_rejected(self, bad):
        with pytest.raises(ValueError, match="zeta"):
            solve_opt((5.0, 5.0), zeta=bad, n_r=20.0)
        with pytest.raises(ValueError, match="zeta"):
            solve_opt_array([5.0], [5.0], zeta=bad, n_r=20.0)

    def test_d_min_rejected(self):
        with pytest.raises(ValueError, match="d_min"):
            solve_opt((5.0, 5.0), zeta=0.5, n_r=20.0, d_min=np.nan)

    def test_array_columns_named(self):
        with pytest.raises(ValueError, match="d_a must be finite"):
            solve_opt_array([5.0, np.nan], [5.0, 5.0], zeta=0.5, n_r=20.0)
        with pytest.raises(ValueError, match="d_b must be finite"):
            solve_opt_array([5.0, 5.0], [np.inf, 5.0], zeta=0.5, n_r=20.0)

    def test_clamp_demand_rejects_nan(self):
        with pytest.raises(ValueError, match="demand must be finite"):
            clamp_demand(np.nan, 0.1)


class TestArraySolver:
    # bit-for-bit agreement with solve_opt is a property in test_properties.py
    def test_returns_columns_of_the_input_shape(self):
        n_a, n_b = solve_opt_array(np.array([5.0, 40.0]), np.array([8.0, 40.0]), 0.5, 20.0)
        assert n_a.shape == n_b.shape == (2,)
        assert (n_a[0], n_b[0]) == (5.0, 8.0)
        assert n_a[1] + n_b[1] == 20.0


class TestQuasiStaticBaseline:
    def test_delegates_to_exact_solver(self):
        base = solve_opt_base((26.31, 25.80), zeta=0.5, n_r=20.0)
        exact = solve_opt((26.31, 25.80), zeta=0.5, n_r=20.0)
        assert base == exact

    def test_maxima_fit_in_large_pools(self):
        for n_r in (100.0, 60.0):
            sol = solve_opt_base((26.31, 25.80), zeta=0.5, n_r=n_r)
            assert (sol.allocation.n_a, sol.allocation.n_b) == (26.31, 25.80)
            assert sol.j_value == 0.0

    def test_maxima_squeezed_by_small_pool(self):
        sol = solve_opt_base((26.31, 25.80), zeta=0.5, n_r=20.0)
        assert sol.allocation.n_a == pytest.approx(9.94077, abs=1e-4)


def brute_force_grid(demand, zeta, n_r, d_min, step):
    """Literal two-dimensional sweep with first-occurrence tie-breaking."""
    a = clamp_demand(demand[0], d_min)
    b = clamp_demand(demand[1], d_min)
    k_max = int(np.floor(n_r / step + 1e-9))
    best = None
    for i in range(k_max + 1):
        for j in range(k_max + 1 - i):
            val = zeta * ((i * step - a) / a) ** 2 + (1.0 - zeta) * ((j * step - b) / b) ** 2
            if best is None or val < best[0]:
                best = (val, i, j)
    return best[1], best[2]


class TestGridSolve:
    def test_matches_brute_force_including_ties(self):
        rng = np.random.default_rng(5)
        cases = [((5.0, 5.0), 0.5), ((3.0, 3.0), 0.5), ((1.7, 1.7), 0.25)]
        cases += [
            (tuple(rng.uniform(0.2, 4.0, size=2)), float(rng.uniform(0.0, 1.0)))
            for _ in range(20)
        ]
        for demand, zeta in cases:
            sol = grid_solve(demand, zeta, n_r=2.0, step=0.1)
            bi, bj = brute_force_grid(demand, zeta, n_r=2.0, d_min=0.1, step=0.1)
            assert round(sol.allocation.n_a / 0.1) == bi
            assert round(sol.allocation.n_b / 0.1) == bj

    def test_tie_breaks_toward_smallest_n_a(self):
        # demand (5,5), n_r=1, step=1: J(0,1) == J(1,0) == 0.82; pick (0,1)
        sol = grid_solve((5.0, 5.0), zeta=0.5, n_r=1.0, step=1.0)
        assert (sol.allocation.n_a, sol.allocation.n_b) == (0.0, 1.0)

    def test_fine_grid_lands_next_to_closed_form(self):
        sol = grid_solve((26.31, 25.80), zeta=0.5, n_r=20.0, step=0.01)
        assert sol.allocation.n_a == pytest.approx(9.94, abs=1e-9)
        assert sol.allocation.n_b == pytest.approx(10.06, abs=1e-9)

    def test_never_better_than_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            demand = tuple(rng.uniform(0.5, 40.0, size=2))
            zeta = rng.uniform(0.0, 1.0)
            exact = solve_opt(demand, zeta, n_r=20.0)
            grid = grid_solve(demand, zeta, n_r=20.0, step=0.01)
            assert exact.j_value <= grid.j_value + 1e-12
            assert grid.j_value - exact.j_value < 1e-3

    def test_feasible_demand_recovered(self):
        sol = grid_solve((5.0, 8.0), zeta=0.5, n_r=20.0, step=0.01)
        assert sol.allocation.n_a == pytest.approx(5.0, abs=1e-9)
        assert sol.allocation.n_b == pytest.approx(8.0, abs=1e-9)
        assert sol.constraint_active is False
