"""Surplus/deficit, Jain fairness, mean objective, curves, reports."""

import re

import numpy as np
import pytest

from adapshare.domain import Allocation
from adapshare.env import objective_j
from adapshare.metrics import EmptyInput, LengthMismatch, build_report, moving_average
from adapshare.oracle import solve_opt
from conftest import grants


def surplus(pairs, demands, d_min=0.1):
    report = build_report(grants(pairs), demands, zeta=0.5, d_min=d_min)
    return report.s_a, report.s_b


def fairness(pairs):
    # demands equal to the grants keep J finite at any grant scale
    return build_report(grants(pairs), pairs, zeta=0.5).fairness


class TestSurplusDeficit:
    def test_hand_computed_pair(self):
        # step 1: a surplus (30 vs 20) = +0.5; step 2 has none
        # step 1: b deficit (20 vs 25) = -0.2; step 2 has none
        demands = [(20.0, 25.0), (10.0, 5.0)]
        s_a, s_b = surplus([(30.0, 20.0), (10.0, 5.0)], demands)
        assert s_a == pytest.approx(0.25, abs=1e-12)
        assert s_b == pytest.approx(-0.1, abs=1e-12)

    def test_perfect_tracking_is_zero(self):
        demands = [(7.0, 3.0)] * 5
        assert surplus(demands, demands) == (0.0, 0.0)

    def test_nothing_allocated_is_minus_one(self):
        demands = [(4.0, 9.0)] * 3
        assert surplus([(0.0, 0.0)] * 3, demands) == (-1.0, -1.0)

    def test_zero_demand_clamped(self):
        # d_b = 0 clamps to 0.1: (0.05 - 0.1) / 0.1 = -0.5
        s_a, s_b = surplus([(0.0, 0.05)], [(5.0, 0.0)], d_min=0.1)
        assert s_a == pytest.approx(-1.0)
        assert s_b == pytest.approx(-0.5, abs=1e-12)

    def test_length_mismatch_and_empty(self):
        with pytest.raises(LengthMismatch):
            surplus([(1.0, 1.0)], [])
        with pytest.raises(EmptyInput):
            surplus([], [])


class TestJainFairness:
    def test_hand_computed(self):
        # (10,10) -> 1.0; (20,0) -> 0.5; mean 0.75
        assert fairness([(10.0, 10.0), (20.0, 0.0)]) == pytest.approx(0.75, abs=1e-12)

    def test_equal_positive_shares_give_one(self):
        for v in (0.3, 5.0, 40.0):
            assert fairness([(v, v)]) == pytest.approx(1.0, abs=1e-15)

    def test_scale_invariant_per_step(self):
        a = fairness([(3.0, 1.0)])
        # at 1e-200 and 1e200 the squares leave the float range
        for scale in (10.0, 1e-200, 1e200):
            b = fairness([(3.0 * scale, scale)])
            assert a == pytest.approx(b, abs=1e-15)

    def test_bounded_below_by_half(self):
        rng = np.random.default_rng(2)
        f = fairness(rng.uniform(0, 20, size=(100, 2)))
        assert 0.5 <= f <= 1.0


class TestMeanObjective:
    def test_zero_when_allocation_meets_demand(self):
        assert build_report(grants([(5.0, 6.0)]), [(5.0, 6.0)], zeta=0.7).mean_j == 0.0

    def test_hand_computed_average(self):
        allocs = grants([(15.0, 20.0), (30.0, 20.0)])
        demands = [(30.0, 20.0), (30.0, 20.0)]
        # step 1: 0.5*0.25 + 0 = 0.125; step 2: 0
        assert build_report(allocs, demands, zeta=0.5).mean_j == pytest.approx(0.0625, abs=1e-12)

    def test_oracle_never_worse_than_even_split(self):
        rng = np.random.default_rng(8)
        demands = [tuple(rng.uniform(5, 40, size=2)) for _ in range(50)]
        n_r = 20.0
        oracle = [solve_opt(d, 0.5, n_r).allocation for d in demands]
        oracle_allocs = grants([(a.n_a, a.n_b) for a in oracle])
        even = grants([(n_r / 2, n_r / 2)] * len(demands))
        j_oracle = build_report(oracle_allocs, demands, zeta=0.5).mean_j
        j_even = build_report(even, demands, zeta=0.5).mean_j
        assert j_oracle <= j_even + 1e-12

    def test_validation(self):
        with pytest.raises(EmptyInput):
            build_report(grants([]), np.empty((0, 2)), zeta=0.5)
        with pytest.raises(LengthMismatch):
            build_report(grants([(1.0, 1.0)]), [(1.0, 1.0), (2.0, 2.0)], zeta=0.5)


class TestMovingAverage:
    def test_expanding_head_then_trailing_window(self):
        out = moving_average([1.0, 2.0, 3.0, 4.0], window=2)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])

    def test_window_one_is_identity(self):
        vals = [3.0, -1.0, 2.0]
        np.testing.assert_allclose(moving_average(vals, 1), vals)

    def test_window_larger_than_series_is_running_mean(self):
        out = moving_average([2.0, 4.0, 6.0], window=100)
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0])

    def test_constant_series_unchanged(self):
        out = moving_average([5.0] * 10, window=3)
        np.testing.assert_allclose(out, 5.0)

    @pytest.mark.parametrize("n", [1, 5, 50, 300, 1600, 20000])
    @pytest.mark.parametrize("window", [1, 7, 8, 100])
    def test_bits_match_per_step_slices(self, n, window):
        values = -np.random.default_rng(n + window).exponential(2.0, n)
        expect = np.array(
            [values[max(0, i - window + 1): i + 1].mean() for i in range(n)]
        )
        assert moving_average(values, window).tobytes() == expect.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_average([1.0], window=0)
        with pytest.raises(EmptyInput):
            moving_average([], window=3)


class TestBuildReport:
    def test_columns_match_per_step_objective_bits(self):
        rng = np.random.default_rng(3)
        pairs = [tuple(rng.uniform(0.0, 30.0, 2)) for _ in range(500)]
        demands = [tuple(rng.uniform(0.0, 30.0, 2)) for _ in range(500)]
        report = build_report(grants(pairs), demands, 0.3)
        per_step = [objective_j(Allocation(*p), d, 0.3, 0.1) for p, d in zip(pairs, demands)]
        total = 0.0
        for j in per_step:
            total += j
        assert report.per_step[:, 5].tolist() == per_step
        assert report.mean_j == total / len(per_step)

    def test_non_finite_demand_rejected(self):
        with pytest.raises(ValueError, match="d_b must be finite"):
            build_report(grants([(1.0, 1.0)]), [(1.0, float("nan"))], 0.5)

    def test_bundles_all_metrics(self):
        demands = [(20.0, 25.0), (10.0, 5.0)]
        report = build_report(grants([(30.0, 20.0), (10.0, 5.0)]), demands, zeta=0.5)
        assert report.s_a == pytest.approx(0.25)
        assert report.s_b == pytest.approx(-0.1)
        assert report.fairness == pytest.approx(
            0.5 * ((50.0**2) / (2 * (900.0 + 400.0)) + (15.0**2) / (2 * (100.0 + 25.0)))
        )
        # step 1: 0.5 * (1/2)^2 + 0.5 * (1/5)^2 = 0.145; step 2: 0
        assert report.mean_j == pytest.approx(0.0725, abs=1e-15)
        assert report.zero_alloc_steps == 0
        # t defaults to the step index; the columns follow DETAIL_HEADER
        assert report.per_step.dtype == np.float64
        assert not report.per_step.flags.writeable
        assert report.per_step[:, :5].tolist() == [
            [0.0, 30.0, 20.0, 20.0, 25.0],
            [1.0, 10.0, 5.0, 10.0, 5.0],
        ]
        assert report.per_step[:, 5] == pytest.approx([0.145, 0.0], abs=1e-15)

    def test_zero_steps_counted_without_warning_noise(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = build_report(grants([(0.0, 0.0)]), [(5.0, 5.0)], zeta=0.5)
        assert report.zero_alloc_steps == 1
        assert report.fairness == 1.0

    @pytest.mark.parametrize("zeta, d_min", [(float("nan"), 0.1), (1.5, 0.1), (-0.5, 0.1), (0.5, float("nan")),
                                             (0.5, -1.0), (0.5, 0.0), (0.5, float("inf"))])
    def test_bad_zeta_or_d_min_refused(self, zeta, d_min):
        # each once gave a NaN, an infinite or an out-of-range mean J
        message = (f"zeta must lie in [0, 1], got {zeta}" if zeta != 0.5
                   else f"d_min must be positive and finite, got {d_min}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_report(grants([(1.0, 2.0)]), [(3.0, 4.0)], zeta, d_min)

    def test_per_step_rows_carry_timestamps(self):
        allocs = grants([(1.0, 2.0), (3.0, 4.0)])
        demands = [(1.0, 2.0), (5.0, 5.0)]
        report = build_report(allocs, demands, zeta=0.5, timestamps=[100, 101])
        assert report.per_step.shape == (2, 6)
        assert report.per_step[:, 0].tolist() == [100.0, 101.0]
        assert report.per_step[0, 5] == 0.0
        assert report.per_step[1, 1:3].tolist() == [allocs[1].n_a, allocs[1].n_b]

