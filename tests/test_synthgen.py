import numpy as np
import pytest

from adapshare.domain import DemandSeries
from adapshare.synthgen import DemandStats, fit, generate, ks_distance


def one_sided(values, side="a"):
    values = np.asarray(values, dtype=float)
    t = np.arange(len(values)) * 3600.0
    zeros = np.zeros(len(values))
    if side == "a":
        return DemandSeries(t, values, zeros, 3600.0)
    return DemandSeries(t, zeros, values, 3600.0)


class TestStats:
    def test_sorted_values_validated(self):
        with pytest.raises(ValueError):
            DemandStats(sorted_values=np.array([3.0, 1.0]), lag1_corr=0.0, length=2)

    def test_corr_range_validated(self):
        with pytest.raises(ValueError):
            DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=1.5, length=2)

    def test_max_demand(self):
        stats = DemandStats(sorted_values=np.array([1.0, 5.0, 9.0]), lag1_corr=0.0, length=3)
        assert stats.max_demand == 9.0


class TestFit:
    def test_constant_series_zero_corr(self):
        stats = fit(one_sided([5.0, 5.0, 5.0]))
        assert stats.sorted_values.tolist() == [5.0, 5.0, 5.0]
        assert stats.lag1_corr == 0.0

    def test_linear_trend_perfect_corr(self):
        stats = fit(one_sided([1.0, 2.0, 3.0, 4.0]))
        assert stats.lag1_corr == pytest.approx(1.0, abs=1e-12)

    def test_fixture_against_direct_pearson(self, ref_series):
        stats = fit(ref_series, side="a")
        x = ref_series.d_a
        x0, x1 = x[:-1], x[1:]
        direct = float(np.mean((x0 - x0.mean()) * (x1 - x1.mean())) / (x0.std() * x1.std()))
        assert stats.lag1_corr == pytest.approx(direct, abs=1e-12)
        assert np.array_equal(stats.sorted_values, np.sort(x))
        assert stats.length == len(x)

    def test_two_sided_requires_side(self):
        series = DemandSeries([0.0, 1.0], [1.0, 2.0], [3.0, 4.0], 1)
        with pytest.raises(ValueError):
            fit(series)
        stats = fit(series, side="b")
        assert stats.sorted_values.tolist() == [3.0, 4.0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit(one_sided([5.0]))


class TestGenerate:
    def test_length_and_side(self):
        stats = fit(one_sided([1.0, 2.0, 3.0, 4.0, 5.0]))
        series = generate(stats, 860, seed=42)
        assert len(series.timestamps) == 860
        assert series.populated_side() == "a"

    def test_deterministic(self, ref_series):
        stats = fit(ref_series, side="a")
        g1 = generate(stats, 100, seed=9)
        g2 = generate(stats, 100, seed=9)
        assert np.array_equal(g1.d_a, g2.d_a)

    def test_bounded_by_reference_range(self, ref_series):
        stats = fit(ref_series, side="a")
        lo, hi = stats.sorted_values[0], stats.sorted_values[-1]
        for seed in range(5):
            out = generate(stats, 500, seed=seed).d_a
            assert out.min() >= lo - 1e-12
            assert out.max() <= hi + 1e-12

    def test_seed_42_ks_within_bar(self, ref_series):
        stats = fit(ref_series, side="a")
        gen = generate(stats, 860, seed=42)
        assert ks_distance(gen.d_a, ref_series.d_a) <= 0.1

    def test_zero_corr_matches_iid_quantile_draws(self):
        values = np.linspace(10.0, 20.0, 50)
        stats = DemandStats(sorted_values=values, lag1_corr=0.0, length=50)
        out = generate(stats, 5000, seed=3).d_a
        # i.i.d. copula draws from the empirical table stay KS-close to it
        assert ks_distance(out, values) < 0.05

    def test_invalid_length(self):
        stats = DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=0.0, length=2)
        with pytest.raises(ValueError):
            generate(stats, 0, seed=1)


class TestKsDistance:
    def test_identical_is_zero(self, ref_series):
        assert ks_distance(ref_series.d_a, ref_series.d_a) == 0.0

    def test_disjoint_supports_is_one(self):
        assert ks_distance(np.zeros(3), np.ones(3)) == 1.0

    def test_symmetric(self, ref_series):
        stats = fit(ref_series, side="a")
        gen = generate(stats, 300, seed=4)
        assert ks_distance(gen.d_a, ref_series.d_a) == pytest.approx(
            ks_distance(ref_series.d_a, gen.d_a), abs=1e-15
        )

    def test_two_generates_close(self, ref_series):
        stats = fit(ref_series, side="a")
        g1 = generate(stats, 860, seed=42)
        g2 = generate(stats, 860, seed=43)
        assert ks_distance(g1.d_a, g2.d_a) <= 0.1

    def test_larger_samples_converge(self, ref_series):
        stats = fit(ref_series, side="a")
        iid = DemandStats(sorted_values=stats.sorted_values, lag1_corr=0.0, length=stats.length)
        distances = [
            ks_distance(generate(iid, n, seed=5).d_a, ref_series.d_a) for n in (100, 1000, 10000)
        ]
        assert distances[0] > distances[1] > distances[2]

    def test_accepts_plain_arrays(self):
        assert ks_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), np.array([1.0]))

    @pytest.mark.parametrize(
        "a,b,name",
        [([np.nan], [1.0], "a"), ([np.nan, 1.0], [1.0, 2.0], "a"),
         ([1.0, 2.0], [1.0, np.inf], "b"), ([1.0], [-np.inf], "b")],
    )
    def test_non_finite_rejected_naming_argument(self, a, b, name):
        # a NaN sorts last and would read as a large demand, not an error
        with pytest.raises(ValueError, match=f"^{name} must be a nonempty sample of finite values"):
            ks_distance(np.array(a), np.array(b))
