"""Objective, reward, action projection, and the bandit step."""

import numpy as np
import pytest

from adapshare.domain import Allocation, DemandSeries, EnvConfig
from adapshare.env import (
    Observation,
    RawAction,
    objective_j,
    observe,
    project_action,
    reward,
    step,
)


def make_series(d_a, d_b):
    n = len(d_a)
    return DemandSeries(np.arange(n), d_a, d_b, granularity=1)


class TestObjective:
    def test_exact_match_is_zero(self):
        assert objective_j(Allocation(30.0, 20.0), (30.0, 20.0), zeta=0.5, d_min=0.1) == 0.0
        assert objective_j(Allocation(30.0, 20.0), (30.0, 20.0), zeta=1.0, d_min=0.1) == 0.0

    def test_hand_computed_value(self):
        # frac_a = (15-30)/30 = -0.5, frac_b = (25-20)/20 = 0.25
        j = objective_j(Allocation(15.0, 25.0), (30.0, 20.0), zeta=0.3, d_min=0.1)
        assert j == pytest.approx(0.3 * 0.25 + 0.7 * 0.0625, abs=1e-12)

    def test_zeta_extremes_ignore_other_side(self):
        alloc = Allocation(15.0, 25.0)
        assert objective_j(alloc, (30.0, 20.0), zeta=1.0, d_min=0.1) == pytest.approx(0.25)
        assert objective_j(alloc, (30.0, 20.0), zeta=0.0, d_min=0.1) == pytest.approx(0.0625)

    def test_zero_demand_clamped(self):
        # denominator floored at d_min: frac_a = (1 - 0.1)/0.1 = 9
        j = objective_j(Allocation(1.0, 0.0), (0.0, 0.0), zeta=1.0, d_min=0.1)
        assert j == pytest.approx(81.0, abs=1e-12)

    def test_surplus_and_deficit_penalized_alike(self):
        over = objective_j(Allocation(36.0, 20.0), (30.0, 20.0), zeta=1.0, d_min=0.1)
        under = objective_j(Allocation(24.0, 20.0), (30.0, 20.0), zeta=1.0, d_min=0.1)
        assert over == pytest.approx(under, abs=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alloc = Allocation(*rng.uniform(0, 40, size=2))
            demand = tuple(rng.uniform(0, 40, size=2))
            assert objective_j(alloc, demand, zeta=rng.uniform(), d_min=0.1) >= 0.0


class TestReward:
    def test_scaling(self):
        assert reward(2.0, eta=0.5) == -3.0
        assert reward(0.0, eta=7.0) == 0.0

    def test_eta_rescales_without_reordering(self):
        js = [0.1, 0.4, 0.2]
        base = [reward(j, eta=0.0) for j in js]
        scaled = [reward(j, eta=3.0) for j in js]
        assert np.argsort(base).tolist() == np.argsort(scaled).tolist()
        for b, s in zip(base, scaled):
            assert s == pytest.approx(4.0 * b, abs=1e-15)


class TestProjectAction:
    def test_feasible_action_passes_through(self):
        alloc = project_action(RawAction(0.2, 0.3), n_r=10.0)
        assert (alloc.n_a, alloc.n_b) == (2.0, 3.0)

    def test_overshoot_rescaled_onto_budget(self):
        alloc = project_action(RawAction(0.8, 0.8), n_r=10.0)
        assert alloc.n_a == pytest.approx(5.0)
        assert alloc.n_b == pytest.approx(5.0)
        assert alloc.n_a + alloc.n_b == pytest.approx(10.0, abs=1e-12)

    def test_rescale_preserves_requested_ratio(self):
        alloc = project_action(RawAction(0.9, 0.3), n_r=10.0)
        assert alloc.n_a == pytest.approx(7.5)
        assert alloc.n_b == pytest.approx(2.5)
        assert alloc.n_a / alloc.n_b == pytest.approx(3.0)

    def test_budget_boundary_untouched(self):
        alloc = project_action(RawAction(0.5, 0.5), n_r=10.0)
        assert (alloc.n_a, alloc.n_b) == (5.0, 5.0)

    def test_always_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            raw = RawAction(*rng.uniform(0, 1, size=2))
            alloc = project_action(raw, n_r=20.0)
            assert alloc.n_a + alloc.n_b <= 20.0 + 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -5.0])
    def test_pool_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="n_r must be positive and finite"):
            project_action(RawAction(0.5, 0.5), n_r=bad)

    def test_raw_action_validated(self):
        with pytest.raises(ValueError):
            RawAction(1.2, 0.5)
        with pytest.raises(ValueError):
            RawAction(0.5, -0.01)


class TestObservation:
    def test_vector_flattens_recent_first(self):
        obs = Observation(np.array([[0.05, 0.5], [0.04, 0.4]]))
        assert obs.vector().tolist() == [0.05, 0.5, 0.04, 0.4]

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            Observation(np.zeros(4))
        with pytest.raises(ValueError):
            Observation(np.zeros((2, 3)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Observation(np.array([[0.1, -0.1]]))

    def test_pairs_frozen(self):
        obs = Observation(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            obs.pairs[0, 0] = 0.9


class TestObserve:
    def test_window_ordering_and_normalization(self):
        series = make_series([1, 2, 3, 4, 5, 6], [10, 20, 30, 40, 50, 60])
        cfg = EnvConfig(n_r=20.0, window_n=2, capacity_norm=100.0)
        obs = observe(series, 4, cfg)
        assert obs.pairs.shape == (3, 2)
        np.testing.assert_allclose(
            obs.pairs, [[0.05, 0.5], [0.04, 0.4], [0.03, 0.3]], atol=1e-15
        )

    def test_window_zero_sees_only_current(self):
        series = make_series([1, 2, 3], [4, 5, 6])
        cfg = EnvConfig(n_r=20.0, window_n=0, capacity_norm=100.0)
        obs = observe(series, 0, cfg)
        np.testing.assert_allclose(obs.pairs, [[0.01, 0.04]])

    def test_invalid_t_rejected(self):
        series = make_series([1, 2, 3, 4], [1, 2, 3, 4])
        cfg = EnvConfig(n_r=20.0, window_n=2)
        with pytest.raises(IndexError):
            observe(series, 1, cfg)
        with pytest.raises(IndexError):
            observe(series, 4, cfg)


class TestStep:
    def test_composes_projection_objective_reward(self):
        series = make_series([1, 2, 30.0], [1, 2, 20.0])
        cfg = EnvConfig(n_r=20.0, zeta=0.5, eta=0.5, window_n=1)
        result = step(series, 2, RawAction(1.0, 1.0), cfg)
        assert result.allocation.n_a == pytest.approx(10.0)
        assert result.allocation.n_b == pytest.approx(10.0)
        expected_j = objective_j(result.allocation, (30.0, 20.0), zeta=0.5, d_min=0.1)
        assert result.j_value == pytest.approx(expected_j, abs=1e-15)
        assert result.reward == pytest.approx(-1.5 * expected_j, abs=1e-15)

    def test_pure_and_repeatable(self):
        series = make_series([3, 7, 5], [4, 2, 6])
        cfg = EnvConfig(n_r=10.0, window_n=1)
        before = series.d_a.copy()
        r1 = step(series, 2, RawAction(0.4, 0.4), cfg)
        r2 = step(series, 2, RawAction(0.4, 0.4), cfg)
        assert r1 == r2
        np.testing.assert_array_equal(series.d_a, before)

    def test_bounds_checked(self):
        series = make_series([1, 2, 3], [1, 2, 3])
        cfg = EnvConfig(n_r=10.0, window_n=2)
        with pytest.raises(IndexError):
            step(series, 1, RawAction(0.1, 0.1), cfg)
