import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from adapshare import domain, ingest
from adapshare.domain import SERIES_HEADER
from adapshare.harness import results
from adapshare.harness.cli import main
from conftest import loadtxt_route
from row_reference import series_rows, where


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

    def test_falling_timestamps_named_by_index(self):
        # np.diff wraps both steps to 2**63 - 1, the granularity
        with pytest.raises(ValueError, match=r"at index 1: timestamps must increase, got -2 after 9223372036854775807"):
            DemandSeries([2 ** 63 - 1, -2, 2 ** 63 - 3], [1.0] * 3, [0.0] * 3, 2 ** 63 - 1)

    def test_granularity_past_int64_rejected(self):
        with pytest.raises(ValueError, match=r"granularity must fit int64"):
            DemandSeries([-(2 ** 63), 2 ** 63 - 1], [1.0] * 2, [0.0] * 2, 2 ** 64 - 1)

    def test_length_at_least_one(self):
        with pytest.raises(ValueError):
            DemandSeries([], [], [], 3600)

    @pytest.mark.parametrize("lengths", [(2, 1, 1), (1, 2, 1), (1, 1, 2)])
    def test_columns_of_unequal_length_rejected(self, lengths):
        ts, d_a, d_b = (list(range(n)) for n in lengths)
        with pytest.raises(ValueError, match="^timestamps, d_a, d_b must have equal length$"):
            DemandSeries(ts, d_a, d_b, 1)

    def test_column_names_its_side(self):
        series = DemandSeries([0, 1], [1.0, 2.0], [3.0, 4.0], 1)
        assert series.column("a") is series.d_a and series.column("b") is series.d_b
        with pytest.raises(ValueError, match="^side must be 'a' or 'b', got 'c'$"):
            series.column("c")

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
            ([np.nan, 1.0], [1.0, np.inf], r"at index 0: d_a must be a finite nonnegative demand, got nan"),
            ([1.0, 2.0], [1.0, np.inf], r"at index 1: d_b must be a finite nonnegative demand, got inf"),
            ([1.0, -np.inf], [1.0, 1.0], r"at index 1: d_a must be a finite nonnegative demand, got -inf"),
            ([1.0, 2.0], [-0.5, 1.0], r"at index 0: d_b must be a finite nonnegative demand, got -0.5"),
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

    @pytest.mark.parametrize("d_min", [0.0, -0.1])
    def test_positive_d_min_enforced(self, d_min):
        with pytest.raises(ValueError, match=f"^d_min must be positive, got {d_min}$"):
            EnvConfig(n_r=60.0, d_min=d_min)

    def test_positive_pool_enforced(self):
        with pytest.raises(ValueError):
            EnvConfig(n_r=0.0)

    def test_capacity_norm_covers_pool(self):
        with pytest.raises(ValueError):
            EnvConfig(n_r=120.0)  # default capacity_norm 100 < n_r

    @pytest.mark.parametrize(
        "field,value",
        [("n_r", np.nan), ("d_min", np.nan), ("eta", np.nan), ("capacity_norm", np.inf),
         ("n_r", np.inf), ("window_n", np.nan), ("zeta", np.nan), ("n_r", "60"),
         ("n_r", 10 ** 400), ("eta", -10 ** 400), ("window_n", 10 ** 400)],
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

    def test_negative_train_steps_rejected(self):
        assert ExperimentConfig(env=EnvConfig(n_r=60.0), train_steps=0).train_steps == 0
        with pytest.raises(ValueError, match="^train_steps must be nonnegative, got -1$"):
            ExperimentConfig(env=EnvConfig(n_r=60.0), train_steps=-1)

    @pytest.mark.parametrize(
        "field,value",
        [("train_steps", 10.5), ("train_steps", np.nan), ("seed", 1.5), ("seed", "x"),
         ("seed", 10 ** 400), ("train_steps", 10 ** 400)],
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
    def test_no_data_rows_named(self, tmp_path, capsys, granularity):
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n\n")
        with pytest.raises(ValueError, match=r"bad\.csv: no data rows"):
            read_series_csv(path)
        # synth is the one caller that supplies a granularity next to the file
        argv = ["synth", "--ref", str(path), "--out", str(tmp_path / "x.csv")]
        if granularity is not None:
            argv += ["--granularity", str(granularity)]
        assert main(argv) == 2
        assert "bad.csv: no data rows" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize(
        "row", ["3600,nan,1.0", "3600,1.0,inf", "3600,-inf,1.0", "3600,-1.0,2.0"]
    )
    def test_non_finite_cell_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n0,1.0,2.0\n\n" + row + "\n")
        _, a, b = row.split(",")
        name, value = ("d_a", a) if a != "1.0" else ("d_b", b)
        with pytest.raises(ValueError, match=f"bad.csv:4: {name} must be a finite nonnegative demand, got {value}$"):
            read_series_csv(path)

    @pytest.mark.parametrize("row", ["3600,abc,1.0", "later,1.0,1.0", "9000,1.0,2.0"])
    def test_unparsable_cell_names_line(self, tmp_path, row):
        # the third row breaks the 3600 s spacing the first two set
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n0,1.0,2.0\n3600,1.0,2.0\n" + row + "\n")
        with pytest.raises(ValueError, match="bad.csv:4: "):
            read_series_csv(path)

    @pytest.mark.parametrize("rows, message", [
        (["0,1.0,2.0", "3600,abc,2.0", "7200,1.0"], "bad.csv:3: could not convert string to float: 'abc'"),
        (["0,1.0,2.0", f"{2 ** 63},1.0,2.0", "7200,abc,2.0"], f"bad.csv:3: timestamp must fit int64, got {2 ** 63}"),
        (["0,1.0,2.0", f"{2 ** 63},abc,2.0"], "bad.csv:3: could not convert string to float: 'abc'"),
        (["0,1.0,2.0", "3600,1.0,2.0", "x,1.0,2.0", f"{2 ** 64},1.0,2.0"], "bad.csv:4: invalid literal for int"),
    ])
    def test_first_cell_fault_in_file_order_named(self, tmp_path, rows, message):
        # columns convert once every row is read; the first row in file
        # order whose cell does not convert or fit is named, and within it a
        # cell that does not convert before an int64 that does not fit
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([SERIES_HEADER] + rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_series_csv(path)

    @pytest.mark.parametrize("row", ["0,1.0,2.0", "-3600,1.0,2.0"])
    def test_non_increasing_first_gap_names_line(self, tmp_path, row):
        # the spacing is inferred from this gap, so it must be positive
        path = tmp_path / "bad.csv"
        path.write_text(SERIES_HEADER + "\n0,1.0,2.0\n" + row + "\n")
        with pytest.raises(ValueError, match="bad.csv:3: timestamps must increase"):
            read_series_csv(path)

    @pytest.mark.parametrize("first,second,line", [
        (2 ** 63, 2 ** 63 + 3600, 2), (-(2 ** 63) - 1, -(2 ** 63) + 3599, 2),
        (2 ** 63 - 3600, 2 ** 63, 3), (10 ** 30, 10 ** 30 + 3600, 2),
    ])
    def test_timestamp_outside_int64_names_line(self, tmp_path, first, second, line):
        path = tmp_path / "late.csv"
        path.write_text(f"{SERIES_HEADER}\n{first},1.0,2.0\n{second},1.0,2.0\n")
        with pytest.raises(ValueError, match=f"late.csv:{line}: timestamp must fit int64, got "):
            read_series_csv(path)

    def test_first_gap_past_int64_names_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(f"{SERIES_HEADER}\n{-(2 ** 63)},1.0,2.0\n{2 ** 63 - 1},1.0,2.0\n")
        with pytest.raises(ValueError, match=f"wide.csv:3: timestamp gap {2 ** 64 - 1} does not fit int64"):
            read_series_csv(path)

    def test_int64_extremes_read(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text(f"{SERIES_HEADER}\n{2 ** 63 - 3601},1.0,2.0\n{2 ** 63 - 1},1.0,2.0\n")
        assert read_series_csv(path).timestamps.tolist() == [2 ** 63 - 3601, 2 ** 63 - 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_series_csv(tmp_path / "absent.csv")

    def test_single_row_needs_granularity(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(SERIES_HEADER + "\n0,1.5,2.5\n")
        with pytest.raises(ValueError, match=r"one\.csv: cannot infer granularity from fewer than 2 rows"):
            read_series_csv(path)


def series_outcome(read, path):
    """What read(path) gives: the series' bits, or the path:line its
    ValueError names."""
    try:
        series = read(path)
    except ValueError as exc:
        return "error", where(exc, path)
    if isinstance(series, tuple):  # the reference's (timestamps, d_a, d_b, granularity)
        series = DemandSeries(*series)
    columns = (series.timestamps, series.d_a, series.d_b)
    return ("series", *((col.dtype, col.tobytes()) for col in columns),
            type(series.granularity), series.granularity)


def loadtxt_pass(path):
    return loadtxt_route(path, domain._SERIES_DTYPE, domain._series_rule)


class TestLoadtxtPass:
    """read_series_csv parses a file in one np.loadtxt call where it reads
    it as the row reader does, and hands the rest to the row reader; either
    way it returns the series of the reference rules (row_reference) or
    names the line they name."""

    @pytest.mark.parametrize("body, loadtxt", [
        pytest.param("0,1.5,2.5\n1_000,1.5,2.5\n", False, id="underscore_timestamp"),
        pytest.param("0,1.5,2.5\n+5,1.5,2.5\n", True, id="plus_sign_timestamp"),
        pytest.param("0,1.5,2.5\n 5 ,1.5,2.5\n", True, id="padded_timestamp"),
        pytest.param("0,1.5,2.5\n5.0,1.5,2.5\n", False, id="float_timestamp"),
        pytest.param("0,1.5,2.5\n1e3,1.5,2.5\n", False, id="exponent_timestamp"),
        pytest.param("0,1.5,2.5\n5,nan,2.5\n", False, id="nan_demand"),
        pytest.param("0,1.5,2.5\n5,1.5,inf\n", False, id="inf_demand"),
        pytest.param("0,1.5,2.5\n5,1e400,2.5\n", False, id="overflowing_demand"),
        pytest.param("0,1.5,2.5\n5,-1.5,2.5\n", False, id="negative_demand"),
        pytest.param('0,"1.5",2.5\n5,1.5,2.5\n', True, id="quoted_cell"),
        pytest.param("0,1.5,2.5\n\n5,1.5,2.5\n", True, id="blank_row"),
        pytest.param("0,1.5,2.5\n   \n5,1.5,2.5\n", False, id="whitespace_only_row"),
        pytest.param("0,1.5,2.5\r\n\r\n5,1.5,2.5\r\n", True, id="crlf"),
        pytest.param("0,1.5,2.5\r5,1.5,2.5\r", True, id="bare_cr"),
        pytest.param("0,\t1.5,2.5\n5,1.5,2.5\n", False, id="tab"),
        pytest.param("0,1.5,2.5\n5,1.5,2.5,\n", False, id="wide_row"),
        # np.loadtxt reads one row, and read_series_csv refuses the file
        pytest.param("0,1.5,2.5\n", True, id="one_data_row"),
        pytest.param("", False, id="header_only"),
        pytest.param("0,1.5,2.5\n5,1.5,2.5\n11,1.5,2.5\n", False, id="unequal_gap"),
        pytest.param("5,1.5,2.5\n0,1.5,2.5\n-5,1.5,2.5\n", False, id="falling_timestamps"),
        pytest.param(f"{2 ** 63 - 3601},1.5,2.5\n{2 ** 63 - 1},1.5,2.5\n", True, id="int64_max"),
        pytest.param(f"{2 ** 63 - 1},1.5,2.5\n{2 ** 63},1.5,2.5\n", False, id="past_int64_max"),
        # each gap wraps to 2**63 - 1 in int64, though the second step falls
        pytest.param(f"{2 ** 63 - 1},1.5,2.5\n-2,1.5,2.5\n{2 ** 63 - 3},1.5,2.5\n", False,
                     id="gap_that_wraps"),
        pytest.param(f"{-(2 ** 63)},1.5,2.5\n{2 ** 63 - 1},1.5,2.5\n", False, id="gap_past_int64"),
        # the first bad row in file order is named, whatever breaks it
        pytest.param("0,1.5,2.5\n5,-1.5,2.5\n10,abc,2.5\n", False, id="rule_fault_before_a_conversion_fault"),
        pytest.param("0,1.5,2.5\n5,abc,2.5\n11,1.5,2.5\n", False, id="conversion_fault_before_a_rule_fault"),
    ])
    def test_same_outcome_as_the_row_reader(self, tmp_path, body, loadtxt):
        path = tmp_path / "series.csv"
        path.write_text(f"{SERIES_HEADER}\n{body}", encoding="utf-8", newline="")
        assert (loadtxt_pass(path) is not None) == loadtxt
        assert series_outcome(read_series_csv, path) == series_outcome(series_rows, path)

    @pytest.mark.parametrize("header, loadtxt", [
        pytest.param(" timestamp , d_a,d_b ", True, id="padded_header"),
        pytest.param('"timestamp",d_a,d_b', False, id="quoted_header"),
        pytest.param("time,d_a,d_b", False, id="wrong_header"),
    ])
    def test_header(self, tmp_path, header, loadtxt):
        path = tmp_path / "series.csv"
        path.write_text(f"{header}\n0,1.5,2.5\n5,1.5,2.5\n", encoding="utf-8")
        assert (loadtxt_pass(path) is not None) == loadtxt
        assert series_outcome(read_series_csv, path) == series_outcome(series_rows, path)

    def test_undecodable_bytes_named_by_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(f"{SERIES_HEADER}\n0,1.5,2.5\n5,\xff,2.5\n".encode("latin-1"))
        assert series_outcome(read_series_csv, path) == ("error", f"{path}:3")
        assert series_outcome(read_series_csv, path) == series_outcome(series_rows, path)
        # past the text layer's first 8 KiB decode chunk too
        rows = [f"{3600 * i},1.5,2.5" for i in range(1000)]
        rows[900] = "3240000,\xff,2.5"
        path = tmp_path / "badutf.csv"
        path.write_bytes(f"{SERIES_HEADER}\n" .encode() + "\n".join(rows).encode("latin-1") + b"\n")
        with pytest.raises(ValueError) as info:
            read_series_csv(path)
        assert str(info.value) == f"{path}:902: not UTF-8 text"

    def test_fixture_takes_the_loadtxt_pass(self, hourly_fixture_path):
        assert loadtxt_pass(hourly_fixture_path) is not None
        assert series_outcome(read_series_csv, hourly_fixture_path) == series_outcome(
            series_rows, hourly_fixture_path)

    def test_quoted_fixture_reads_as_the_plain_one(self, hourly_fixture_path):
        quoted = hourly_fixture_path.with_name("lte_hourly_quoted.csv")
        assert loadtxt_pass(quoted) is not None
        assert series_outcome(read_series_csv, quoted) == series_outcome(read_series_csv, hourly_fixture_path)

    @pytest.mark.parametrize("body, message", [
        pytest.param("0,1.5,2.5\n5,1.5,2.5\n11,1.5,2.5\n16,1.5,2.5\n", "timestamp gap 6 != 5",
                     id="unequal_gap"),
        pytest.param("0,1.5,2.5\n5,1.5,2.5\n3,1.5,2.5\n8,1.5,2.5\n",
                     "timestamps must increase, got 3 after 5", id="falling_timestamp"),
    ])
    def test_bad_step_across_a_pass_boundary_names_its_line(self, tmp_path, monkeypatch, body, message):
        # the byte pass reads chunks of 20 bytes, which end inside rows
        monkeypatch.setattr(domain, "_CHUNK_BYTES", 20)
        path = tmp_path / "series.csv"
        path.write_text(f"{SERIES_HEADER}\n{body}", encoding="utf-8")
        assert loadtxt_pass(path) is None
        with pytest.raises(ValueError) as info:
            read_series_csv(path)
        assert str(info.value) == f"{path}:4: {message}"
        assert series_outcome(series_rows, path) == ("error", f"{path}:4")

    def test_passes_join_into_the_row_readers_series(self, tmp_path, monkeypatch, small_series):
        monkeypatch.setattr(domain, "_CHUNK_BYTES", 32)
        path = tmp_path / "series.csv"
        write_series_csv(small_series, path)
        assert loadtxt_pass(path) is not None
        assert series_outcome(read_series_csv, path) == series_outcome(series_rows, path)

    def test_header_past_the_first_chunk_takes_the_row_reader(self, tmp_path, monkeypatch):
        # the byte pass reads the first line within its first chunk only
        monkeypatch.setattr(domain, "_CHUNK_BYTES", len(SERIES_HEADER) + 1)
        path = tmp_path / "series.csv"
        path.write_text(f"{SERIES_HEADER}\n0,1.5,2.5\n5,1.5,2.5\n", encoding="utf-8")
        assert loadtxt_pass(path) is not None
        path.write_text(f"{SERIES_HEADER}  \n0,1.5,2.5\n5,1.5,2.5\n", encoding="utf-8")
        assert loadtxt_pass(path) is None
        assert series_outcome(read_series_csv, path) == series_outcome(series_rows, path)

    def test_compressed_suffixes_cover_numpys(self):
        # np.loadtxt opens a path through numpy's DataSource, which picks a
        # decompressor by these suffixes; a file named so takes the row reader
        assert set(np.lib._datasource._file_openers.keys()) - {None} <= set(domain._COMPRESSED)

    def test_columns_are_contiguous(self, tmp_path, small_series):
        path = tmp_path / "series.csv"
        write_series_csv(small_series, path)
        assert loadtxt_pass(path) is not None
        back = read_series_csv(path)
        assert all(col.flags.c_contiguous for col in (back.timestamps, back.d_a, back.d_b))


# every byte a text cell may hold on the np.loadtxt route, unquoted:
# printable ASCII but the quote, which may start a quoted cell (the
# differential tests draw those), and the comma, which ends the cell
TEXT_BYTES = "".join(chr(b) for b in range(0x20, 0x7F) if chr(b) not in '",')


class TestTextWidening:
    """The np.loadtxt route reads a text column as bytes and widens them to
    str; for every byte it may hold, at every width it reads, padded with
    spaces, that gives the dtype and bytes of the row reader's str."""

    @pytest.mark.parametrize("dtype, rule, column, row", [
        pytest.param(ingest._DCI_DTYPE, ingest._out_of_range, "dci_format",
                     "512,3,4660,25,16,{},1674000000000", id="dci_format"),
        pytest.param(results._SWEEP_DTYPE, results._no_rule, "agent",
                     "0.5,20.0,{},0.1,-0.2,0.9,0.3", id="agent"),
    ])
    def test_loadtxt_route_reads_as_the_row_reader(self, tmp_path, dtype, rule, column, row):
        # a cell of `limit` bytes or more takes the row reader
        limit = np.dtype(dict(dtype)[column]).itemsize
        for width in range(1, limit):
            # each value `width` bytes, starting at every byte in turn, and
            # padded with up to the column's width in spaces
            values = [(TEXT_BYTES * 2)[i:i + width] for i in range(len(TEXT_BYTES))]
            cells = [" " * (i % (limit - width)) + value for i, value in enumerate(values)]
            cells = [cell.ljust(min(limit - 1, len(cell) + i % 3)) for i, cell in enumerate(cells)]
            header = ",".join(name for name, _ in dtype)
            path = tmp_path / f"width{width}.csv"
            path.write_text("\n".join([header] + [row.format(cell) for cell in cells]) + "\n")
            table = loadtxt_route(path, dtype, rule)
            assert table is not None
            with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
                rows = domain._row_table(fh, path, dtype, rule, None)
            assert (table.dtype, table.tobytes()) == (rows.dtype, rows.tobytes())


def _timestamp_text(value):
    """Integer text as a series might hold it: plain, or a nonnegative
    value signed, padded or zero-led; both readers parse all of these."""
    return st.sampled_from(["{}", "+{}", " {}", "{} ", "00{}"]).map(
        lambda form: form.format(value) if value >= 0 else str(value))


def _demand_text(value):
    """A demand as text: repr, as write_series_csv writes it, or another
    decimal or exponent form."""
    return st.sampled_from(["{!r}", "{:.17g}", "{:.3f}", "{:e}", "{:.25f}", " {!r} ", "{:.0f}."]).map(
        lambda form: form.format(value))


# what breaks a cell, a row or the file: every way the two readers could
# part, and plain errors
bad_cells = st.sampled_from([
    "1_000", "5.0", "1e3", '"7"', "\t7", "7\x00", "\x1c7", "7\x1f", "", "  ", "0x10", "0x1p3",
    "١", "+-7", "1 2", str(2 ** 63), str(-(2 ** 63) - 1), "9" * 30, ".5", "5.", "+.5e-3",
    # a comma inside quotes, doubled quotes, a quote inside the cell, text
    # after the closing quote, an unterminated quote, a quoted line break,
    # a quoted blank and a quoted padded number
    '"1,5"', '"7"""', '7"', '"7"5', '"7', '"7\n"', '"\r\n7"', '""', '" 7 "',
])
# demands that both readers parse, and the row reader refuses or keeps
odd_demands = st.sampled_from([
    "nan", "NaN", "inf", "-inf", "infinity", "1e400", "-1", "-0.0", "1e-400", "4.9e-324", "1e308",
])
bad_rows = st.sampled_from([
    "", "   ", "\t", ",", "1,2", "1,2,3,4", SERIES_HEADER, '"1",2,3', "\x00", "\x0c",
    '""', '"1,2",3', '1,"2\n3",4',
])
headers = st.one_of(st.just(SERIES_HEADER), st.sampled_from([
    " timestamp , d_a ,d_b ", '"timestamp",d_a,d_b', "timestamp,d_a", "", "\ufefftimestamp,d_a,d_b",
]))
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def series_files(draw):
    """Bytes of a series CSV: a header and evenly spaced rows, then a few
    edits that swap a cell or a demand, shift a timestamp or add a row, and
    now and then bytes that are not UTF-8."""
    # mostly series that fit int64, and now and then one that crosses its ends
    start = draw(st.sampled_from([-(2 ** 63), 0, 0, 0, 2 ** 63 - 10 ** 5]).flatmap(
        lambda low: st.integers(low, low + 10 ** 5)))
    gap = draw(st.one_of(st.sampled_from([1, 60, 3600, 2 ** 40]), st.integers(-5, 2 ** 64)))
    # negative, NaN and infinite demands come from the edits below
    demands = draw(st.sampled_from([st.floats(0, 1e6), st.floats(min_value=0, allow_infinity=False)]))
    rows = []
    for i in range(draw(st.integers(0, 8))):
        cells = [draw(_timestamp_text(start + i * gap))]
        cells += [draw(demands.flatmap(_demand_text)) for _ in range(2)]
        rows.append(",".join(cells))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        kind = draw(st.sampled_from(["cell", "demand", "shift", "row"])) if rows else "row"
        if kind == "row":
            rows.insert(draw(st.integers(0, len(rows))), draw(bad_rows))
            continue
        k = draw(st.integers(0, len(rows) - 1))
        cells = rows[k].split(",")
        # a bad row added above may have fewer than three cells
        last = len(cells) - 1
        if kind == "shift":
            cells[0] = str(start + k * gap + draw(st.integers(-2, 2)))
        elif kind == "demand":
            cells[min(draw(st.integers(1, 2)), last)] = draw(odd_demands)
        else:
            cells[min(draw(st.integers(0, 2)), last)] = draw(bad_cells)
        rows[k] = ",".join(cells)
    end = draw(line_ends)
    data = (end.join([draw(headers)] + rows) + draw(st.sampled_from([end, ""]))).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        data += b"0,\xff,1" + end.encode()
    return data


class TestSeriesDifferential:
    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(series_files())
    def test_read_matches_the_row_reader(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            path.write_bytes(data)
            assert series_outcome(read_series_csv, path) == series_outcome(series_rows, path)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(series_files())
    def test_read_in_chunks_of_32_bytes_matches_the_row_reader(self, data):
        # 32 bytes hold any header the files draw, so the byte pass reads on
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(domain, "_CHUNK_BYTES", 32):
            path = Path(tmp) / "series.csv"
            path.write_bytes(data)
            assert series_outcome(read_series_csv, path) == series_outcome(series_rows, path)
