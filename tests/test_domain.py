import numpy as np
import pytest

from adapshare import (
    AgentKind,
    Allocation,
    DemandSeries,
    EnvConfig,
    ExperimentConfig,
    clamp_demand,
    read_series_csv,
    write_series_csv,
)
from adapshare.domain import SERIES_HEADER


class TestClampDemand:
    def test_floor_applied(self):
        assert clamp_demand(0.0, 0.5) == 0.5

    def test_identity_above_floor(self):
        assert clamp_demand(10.0, 0.5) == 10.0

    def test_boundary(self):
        assert clamp_demand(0.5, 0.5) == 0.5

    def test_idempotent(self):
        for d in [0.0, 0.05, 0.1, 3.7]:
            once = clamp_demand(d, 0.1)
            assert clamp_demand(once, 0.1) == once


class TestDemandSeries:
    def test_uniform_spacing_required(self):
        with pytest.raises(ValueError):
            DemandSeries([0.0, 3600.0, 7201.0], [1, 1, 1], [1, 1, 1], 3600)

    def test_length_at_least_one(self):
        with pytest.raises(ValueError):
            DemandSeries([], [], [], 3600)

    @pytest.mark.parametrize("granularity", [np.nan, "3600", True, 2.5, 0, -1])
    def test_granularity_must_be_a_positive_integer(self, granularity):
        with pytest.raises(ValueError, match=r"granularity must be a positive integer, got "):
            DemandSeries([0], [1.0], [1.0], granularity)

    def test_integral_granularity_stored_as_int(self):
        for granularity in (np.int64(60), 60.0):
            series = DemandSeries([0, 60], [1.0, 1.0], [1.0, 1.0], granularity)
            assert series.granularity == 60 and type(series.granularity) is int

    @pytest.mark.parametrize(
        "d_a,d_b,message",
        [
            ([np.nan, 1.0], [1.0, np.inf], r"d_a\[0\] must be a finite"),
            ([1.0, 2.0], [1.0, np.inf], r"d_b\[1\] must be a finite"),
            ([1.0, -np.inf], [1.0, 1.0], r"d_a\[1\] must be a finite"),
            ([1.0, 2.0], [-0.5, 1.0], r"d_b\[0\] must be a finite nonnegative"),
        ],
        ids=["nan_a", "inf_b", "neg_inf_a", "negative_b"],
    )
    def test_non_finite_demand_rejected_with_index(self, d_a, d_b, message):
        with pytest.raises(ValueError, match=message):
            DemandSeries([0, 1], d_a, d_b, 1)

    def test_arrays_write_protected(self, small_series):
        with pytest.raises(ValueError):
            small_series.d_a[0] = 99.0

    def test_demand_accessor(self, small_series):
        d_a, d_b = small_series.demand(3)
        assert d_a == small_series.d_a[3]
        assert d_b == small_series.d_b[3]
        assert isinstance(d_a, float) and isinstance(d_b, float)

    def test_populated_side(self):
        one_sided = DemandSeries([0.0, 1.0], [2.0, 3.0], [0.0, 0.0], 1)
        assert one_sided.populated_side() == "a"
        other = DemandSeries([0.0, 1.0], [0.0, 0.0], [2.0, 3.0], 1)
        assert other.populated_side() == "b"

    def test_column(self, small_series):
        assert np.array_equal(small_series.column("a"), small_series.d_a)
        assert np.array_equal(small_series.column("b"), small_series.d_b)


class TestEnvConfig:
    def test_defaults(self):
        cfg = EnvConfig(n_r=60.0)
        assert cfg.zeta == 0.5
        assert cfg.eta == 0.0
        assert cfg.window_n == 4
        assert cfg.d_min == 0.1
        assert cfg.capacity_norm == 100.0

    def test_zeta_range_enforced(self):
        with pytest.raises(ValueError):
            EnvConfig(n_r=60.0, zeta=1.2)
        with pytest.raises(ValueError):
            EnvConfig(n_r=60.0, zeta=-0.1)

    def test_positive_pool_enforced(self):
        with pytest.raises(ValueError):
            EnvConfig(n_r=0.0)

    def test_capacity_norm_covers_pool(self):
        with pytest.raises(ValueError):
            EnvConfig(n_r=120.0)  # default capacity_norm 100 < n_r

    @pytest.mark.parametrize(
        "field,value",
        [("n_r", np.nan), ("d_min", np.nan), ("eta", np.nan), ("capacity_norm", np.inf),
         ("n_r", np.inf), ("window_n", np.nan), ("zeta", np.nan), ("n_r", "60")],
    )
    def test_non_finite_field_rejected(self, field, value):
        kwargs = {"n_r": 60.0, field: value}
        expected = "an integer" if field == "window_n" else "a finite number"
        with pytest.raises(ValueError, match=f"{field} must be {expected}"):
            EnvConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, -1])
    def test_window_n_must_be_a_nonnegative_integer(self, value):
        # 2.5 fails the integer check, -1 the range check
        with pytest.raises(ValueError, match="window_n must be (an|a nonnegative) integer"):
            EnvConfig(n_r=60.0, window_n=value)

    @pytest.mark.parametrize(
        "kwargs,field",
        [({"n_r": True, "zeta": False}, "n_r"), ({"n_r": 60.0, "window_n": True}, "window_n"),
         ({"n_r": 60.0, "zeta": False}, "zeta"), ({"n_r": 60.0, "d_min": True}, "d_min")],
    )
    def test_bool_field_rejected_naming_it(self, kwargs, field):
        # True and False pass as 1 and 0 to numbers.Real, but no setting means them
        message = f"^{field} must be (a finite number|an integer), got (True|False)$"
        with pytest.raises(ValueError, match=message):
            EnvConfig(**kwargs)

    def test_int_pool_size_is_kept_as_given(self):
        # float fields are checked, not coerced, so a checkpoint writes 60
        cfg = EnvConfig(n_r=60)
        assert cfg.n_r == 60 and type(cfg.n_r) is int

    def test_integral_float_window_n_is_stored_as_int(self):
        cfg = EnvConfig(n_r=60.0, window_n=2.0)
        assert cfg.window_n == 2 and type(cfg.window_n) is int


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(env=EnvConfig(n_r=60.0))
        assert cfg.agent_kind == AgentKind.TD3
        assert cfg.agent is not None
        assert 0.0 < cfg.eval_split < 1.0

    def test_eval_split_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(env=EnvConfig(n_r=60.0), eval_split=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(env=EnvConfig(n_r=60.0), eval_split=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [("train_steps", 10.5), ("train_steps", np.nan), ("seed", 1.5), ("seed", "x")],
    )
    def test_non_integral_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(env=EnvConfig(n_r=60.0), **{field: value})

    @pytest.mark.parametrize(
        "field,value,message",
        [("eval_split", "x", "eval_split must be a finite number"),
         ("eval_split", np.nan, "eval_split must be a finite number"),
         ("agent_kind", "bogus", "agent_kind must be one of ddpg, td3, opt_oracle, opt_base"),
         ("agent_kind", None, "agent_kind must be one of")],
    )
    def test_bad_field_rejected_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(env=EnvConfig(n_r=60.0), **{field: value})

    @pytest.mark.parametrize(
        "field,value,kind",
        [("seed", True, "an integer"), ("train_steps", False, "an integer"),
         ("eval_split", True, "a finite number")],
    )
    def test_bool_field_rejected_naming_it(self, field, value, kind):
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {value}$"):
            ExperimentConfig(env=EnvConfig(n_r=60.0), **{field: value})

    def test_agent_kind_name_is_stored_as_the_enum(self):
        cfg = ExperimentConfig(env=EnvConfig(n_r=60.0), agent_kind="ddpg")
        assert cfg.agent_kind is AgentKind.DDPG

    def test_integral_float_counts_are_stored_as_int(self):
        cfg = ExperimentConfig(env=EnvConfig(n_r=60.0), seed=3.0, train_steps=10.0)
        assert (cfg.seed, cfg.train_steps) == (3, 10)
        assert type(cfg.seed) is int and type(cfg.train_steps) is int

    def test_with_env(self):
        cfg = ExperimentConfig(env=EnvConfig(n_r=60.0))
        changed = cfg.with_env(n_r=20.0, zeta=0.3)
        assert changed.env.n_r == 20.0
        assert changed.env.zeta == 0.3
        assert cfg.env.n_r == 60.0


class TestAllocation:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            Allocation(-0.1, 5.0)
        with pytest.raises(ValueError):
            Allocation(5.0, -0.1)

    @pytest.mark.parametrize("n_a,n_b", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)])
    def test_nan_grant_rejected(self, n_a, n_b):
        with pytest.raises(ValueError, match="grants must be nonnegative numbers"):
            Allocation(n_a, n_b)

    def test_infinite_grant_constructs(self):
        # only a caller that knows the pool size can bound a grant
        assert Allocation(np.inf, 1.0).n_a == np.inf


class TestSeriesCsv:
    def test_round_trip_exact(self, tmp_path, small_series):
        path = tmp_path / "series.csv"
        write_series_csv(small_series, path)
        back = read_series_csv(path)
        assert np.array_equal(back.d_a, small_series.d_a)
        assert np.array_equal(back.d_b, small_series.d_b)
        assert np.array_equal(back.timestamps, small_series.timestamps)
        assert back.granularity == small_series.granularity

    def test_header_line(self, tmp_path, small_series):
        path = tmp_path / "series.csv"
        write_series_csv(small_series, path)
        first = path.read_text().splitlines()[0]
        assert first == SERIES_HEADER

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b\n0,1,2\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1: expected header"):
            read_series_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"bad\.csv:1: expected header"):
            read_series_csv(path)

    @pytest.mark.parametrize("granularity", [None, 3600])
    def test_no_data_rows_named(self, tmp_path, granularity):
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n\n")
        with pytest.raises(ValueError, match=r"bad\.csv: no data rows"):
            read_series_csv(path, granularity=granularity)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n0,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: expected 3 fields, got 2"):
            read_series_csv(path)

    def test_row_of_commas_is_not_blank(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n0,1.0,2.0\n,\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: expected 3 fields, got 2"):
            read_series_csv(path)

    def test_crlf_and_blank_rows_read(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"timestamp,d_a,d_b\r\n0,1.5,2.5\r\n \r\n\r\n60,0.5,0.25\r\n")
        series = read_series_csv(path)
        assert series.granularity == 60
        assert series.d_a.tolist() == [1.5, 0.5] and series.d_b.tolist() == [2.5, 0.25]

    @pytest.mark.parametrize("granularity", [np.nan, "3600", True])
    def test_given_granularity_must_be_a_positive_integer(self, tmp_path, granularity):
        path = tmp_path / "one.csv"
        path.write_text(SERIES_HEADER + "\n0,1.5,2.5\n")
        with pytest.raises(ValueError, match=r"granularity must be a positive integer, got "):
            read_series_csv(path, granularity=granularity)

    @pytest.mark.parametrize(
        "row", ["3600,nan,1.0", "3600,1.0,inf", "3600,-inf,1.0", "3600,-1.0,2.0"]
    )
    def test_non_finite_cell_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n0,1.0,2.0\n\n" + row + "\n")
        with pytest.raises(ValueError, match="bad.csv:4: demands must be finite and nonnegative"):
            read_series_csv(path)

    @pytest.mark.parametrize("row", ["3600,abc,1.0", "later,1.0,1.0", "9000,1.0,2.0"])
    def test_unparsable_cell_names_line(self, tmp_path, row):
        # the third row breaks the 3600 s spacing the first two set
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n0,1.0,2.0\n3600,1.0,2.0\n" + row + "\n")
        with pytest.raises(ValueError, match="bad.csv:4: "):
            read_series_csv(path)

    @pytest.mark.parametrize("row", ["0,1.0,2.0", "-3600,1.0,2.0"])
    def test_non_increasing_first_gap_names_line(self, tmp_path, row):
        # the spacing is inferred from this gap, so it must be positive
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n0,1.0,2.0\n" + row + "\n")
        with pytest.raises(ValueError, match="bad.csv:3: timestamps must increase"):
            read_series_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_series_csv(tmp_path / "absent.csv")

    def test_single_row_needs_granularity(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(SERIES_HEADER + "\n0,1.5,2.5\n")
        with pytest.raises(ValueError):
            read_series_csv(path)
        series = read_series_csv(path, granularity=3600)
        assert len(series.timestamps) == 1
        assert series.d_a[0] == 1.5
