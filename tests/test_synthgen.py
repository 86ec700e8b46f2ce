from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth_reference import generate_values

from adapshare import domain
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

    @pytest.mark.parametrize("values", [
        [], [[1.0, 2.0]], [[1.0], [2.0]], [np.nan], [1.0, np.nan], [1.0, np.inf], [-1.0, 2.0], [-np.inf],
    ])
    def test_bad_table_refused_naming_it(self, values):
        # these were accepted; generate then failed inside np.interp, or
        # named d_a of a series the caller never saw
        with pytest.raises(ValueError, match="^sorted_values must be a nonempty 1-D array of finite "
                                             "nonnegative demands$"):
            DemandStats(sorted_values=np.array(values), lag1_corr=0.0, length=2)

    @pytest.mark.parametrize("rho", [
        "0.5", None, True, False, np.float32(0.5), [0.5], 1.5, -1.0000001, np.nan, np.inf, 2, 10 ** 400,
    ], ids=lambda rho: repr(rho)[:16])
    def test_bad_corr_refused_naming_it(self, rho):
        # "0.5" and None escaped as a TypeError from the range check; True
        # and a float32 were accepted
        with pytest.raises(ValueError, match=r"^lag1_corr must be a real number in \[-1, 1\], got "):
            DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=rho, length=2)

    @pytest.mark.parametrize("rho", [-1, 0, 1, 0.25, np.float64(-0.75)], ids=repr)
    def test_corr_kept_as_a_python_float(self, rho):
        stats = DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=rho, length=2)
        assert type(stats.lag1_corr) is float and stats.lag1_corr == rho

    @pytest.mark.parametrize("length", [0, -1, True, 2.5, "3", None])
    def test_bad_length_refused_naming_it(self, length):
        with pytest.raises(ValueError, match="^length must be a positive integer, got "):
            DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=0.0, length=length)

    def test_max_demand(self):
        stats = DemandStats(sorted_values=np.array([1.0, 5.0, 9.0]), lag1_corr=0.0, length=3)
        assert stats.max_demand == 9.0

    def test_callers_array_stays_writeable_and_unshared(self):
        values = np.array([1.0, 5.0, 9.0])
        stats = DemandStats(sorted_values=values, lag1_corr=0.0, length=3)
        assert values.flags.writeable and not stats.sorted_values.flags.writeable
        values[2] = 20.0
        assert stats.max_demand == 9.0


class TestFit:
    def test_constant_series_zero_corr(self):
        stats = fit(one_sided([5.0, 5.0, 5.0]), side="a")
        assert stats.sorted_values.tolist() == [5.0, 5.0, 5.0]
        assert stats.lag1_corr == 0.0

    def test_linear_trend_perfect_corr(self):
        stats = fit(one_sided([1.0, 2.0, 3.0, 4.0]), side="a")
        assert stats.lag1_corr == pytest.approx(1.0, abs=1e-12)

    def test_fixture_against_direct_pearson(self, ref_series):
        stats = fit(ref_series, side="a")
        x = ref_series.d_a
        x0, x1 = x[:-1], x[1:]
        direct = float(np.mean((x0 - x0.mean()) * (x1 - x1.mean())) / (x0.std() * x1.std()))
        assert stats.lag1_corr == pytest.approx(direct, abs=1e-12)
        assert np.array_equal(stats.sorted_values, np.sort(x))
        assert stats.length == len(x)

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit(one_sided([5.0]), side="a")


class TestGenerate:
    def test_length_and_side(self):
        stats = fit(one_sided([1.0, 2.0, 3.0, 4.0, 5.0]), side="a")
        series = generate(stats, 860, seed=42)
        assert len(series.timestamps) == 860
        assert series.populated_side() == "a"

    def test_side_b_fills_column_b_and_other_sides_are_refused(self):
        stats = fit(one_sided([1.0, 2.0, 3.0, 4.0, 5.0]), side="a")
        series = generate(stats, 10, seed=42, side="b")
        assert series.populated_side() == "b"
        assert series.d_b.tobytes() == generate(stats, 10, seed=42).d_a.tobytes()
        with pytest.raises(ValueError, match="^side must be 'a' or 'b', got 'c'$"):
            generate(stats, 10, seed=42, side="c")

    @pytest.mark.parametrize("length", [1, 10])
    def test_hands_its_fresh_columns_to_the_series_uncopied(self, length):
        stats = fit(one_sided([1.0, 2.0, 3.0, 4.0, 5.0]), side="a")
        shared = []

        def spy(values, dtype):
            out = frozen(values, dtype)
            shared.append(out is values)
            return out

        frozen = domain.frozen
        with mock.patch.object(domain, "frozen", spy):
            series = generate(stats, length, seed=42)
        assert shared == [True, True, True]
        assert not any(c.flags.writeable for c in (series.timestamps, series.d_a, series.d_b))

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

    @pytest.mark.parametrize("length", [-3, True, 2.5, "3", None])
    def test_length_refused_naming_it(self, length):
        # True and 2.5 once escaped as numpy's TypeError, "3" as a str < int one
        stats = DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=0.0, length=2)
        with pytest.raises(ValueError, match=f"^length must be a positive integer, got {length!r}$"):
            generate(stats, length, seed=1)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(
        rho=st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 0.999999, -0.5]), st.floats(-1.0, 1.0)),
        length=st.one_of(st.sampled_from([1, 2, 3000]), st.integers(1, 3000)),
        size=st.one_of(st.sampled_from([1, 2, 1000]), st.integers(1, 1000)),
        decimals=st.integers(0, 3),
        zeros=st.floats(0.0, 1.0),
        table_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**63),
    )
    def test_matches_reference_bit_for_bit(self, rho, length, size, decimals, zeros, table_seed, seed):
        # rounding makes ties, and a share of the table is zero
        table_rng = np.random.default_rng(table_seed)
        values = np.round(table_rng.exponential(5.0, size), decimals)
        values[table_rng.random(size) < zeros] = 0.0
        stats = DemandStats(sorted_values=np.sort(values), lag1_corr=rho, length=size)
        expected = generate_values(stats, length, seed).tobytes()
        zero = np.zeros(length).tobytes()
        gen_a = generate(stats, length, seed, side="a")
        gen_b = generate(stats, length, seed, side="b")
        assert (gen_a.d_a.tobytes(), gen_a.d_b.tobytes()) == (expected, zero)
        assert (gen_b.d_a.tobytes(), gen_b.d_b.tobytes()) == (zero, expected)

    def test_last_timestamp_at_int64_max(self):
        stats = DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=0.0, length=2)
        assert generate(stats, 2, seed=1, granularity=2 ** 63 - 1).timestamps.tolist() == [0, 2 ** 63 - 1]

    @pytest.mark.parametrize("length, granularity", [
        (2000, 9223372036854775), (3, 2 ** 63 - 1), (2 ** 63 + 1, 1), (10 ** 20, 3600),
    ])
    def test_timestamps_past_int64_refused(self, length, granularity):
        # they once wrapped to negative values, which DemandSeries let pass
        # (its np.diff wraps too); the largest lengths never reach numpy
        stats = DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=0.0, length=2)
        with pytest.raises(ValueError, match=f"length {length} at granularity {granularity} puts the last "
                                             "timestamp past int64"):
            generate(stats, length, seed=1, granularity=granularity)

    @pytest.mark.parametrize("length, granularity, message", [
        (1, 2 ** 63, "granularity must fit int64, got 9223372036854775808"),
        (2, -10 ** 30, "granularity must be a positive integer, got -1000000000000000000000000000000"),
    ])
    def test_granularity_refused_naming_it(self, length, granularity, message):
        # the first two once let numpy's OverflowError escape
        stats = DemandStats(sorted_values=np.array([1.0, 2.0]), lag1_corr=0.0, length=2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(stats, length, seed=1, granularity=granularity)


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
