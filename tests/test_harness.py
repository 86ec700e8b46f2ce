"""Config parsing, sweep orchestration, result emission, and the CLI."""

import dataclasses
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import adapshare
from adapshare.agents import AgentConfig, eval_timesteps, load_agent
from adapshare.domain import AgentKind, EnvConfig, ExperimentConfig, write_series_csv
from adapshare.harness.cli import main
from adapshare.harness.config import (
    COERCERS,
    SWEEP_KEYS,
    ConfigFileError,
    build_experiment,
    coerce_overrides,
    parse_config_file,
)
from adapshare.harness.results import (
    CURVE_HEADER,
    DETAIL_HEADER,
    SWEEP_HEADER,
    emit_results,
    read_sweep_csv,
    replot,
    svg_line_chart,
    sweep_row,
    write_detail_csv,
)
from adapshare.harness.sweep import SweepSpec, cell_seed, run_cell, run_sweep
from adapshare.ingest import DCI_HEADER
from adapshare.metrics import build_report
from conftest import grants


class TestConfigFile:
    def test_parses_comments_types_and_lists(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "\n"
            "seed = 7\n"
            "env.n_r = 60\n"
            "env.zeta = 0.3\n"
            "agent.hidden_dims = 32, 16\n"
            "agent_kinds = td3, opt_base\n"
            "zeta_values = 0.1,0.5\n"
        )
        mapping = parse_config_file(path)
        assert mapping["seed"] == 7
        assert mapping["env.n_r"] == 60.0
        assert mapping["agent.hidden_dims"] == (32, 16)
        assert mapping["agent_kinds"] == (AgentKind.TD3, AgentKind.OPT_BASE)
        assert mapping["zeta_values"] == (0.1, 0.5)

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nnot a line\n")
        with pytest.raises(ConfigFileError, match=":2"):
            parse_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("env.pool = 20\n")
        with pytest.raises(ConfigFileError, match="unknown config key"):
            parse_config_file(path)

    @pytest.mark.parametrize("key", ["agent.gamma", "agent.td3_target_noise", "agent.td3_noise_clip",
                                     "agent.tau", "agent.pretrain_steps"])
    def test_retired_agent_keys_rejected(self, tmp_path, key):
        # the critic regresses on the reward, so no discount, target noise
        # or target rate; and no supervised warm start
        path = tmp_path / "old.cfg"
        path.write_text(f"env.n_r = 20\n{key} = 0.5\n")
        with pytest.raises(ConfigFileError, match=f"old.cfg:2: unknown config key '{key}'"):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("env.n_r = twenty\n")
        with pytest.raises(ConfigFileError, match="bad value"):
            parse_config_file(path)

    @pytest.mark.parametrize("key,value", [("agent.actor_lr", "nan"), ("agent.explore_sigma", "inf"),
                                           ("env.zeta", "-inf"), ("zeta_values", "0.5,nan")])
    def test_non_finite_value_names_line(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"env.n_r = 20\n{key} = {value}\n")
        with pytest.raises(ConfigFileError, match=f"run.cfg:2: bad value for {key}: must be a finite"):
            parse_config_file(path)

    def test_key_table_is_pinned(self):
        # derived from the dataclass annotations; a field whose annotation
        # has no parser, or a parser that changes, shows here
        finite = ["eval_split", "env.n_r", "env.zeta", "env.eta", "env.d_min", "env.capacity_norm",
                  "agent.actor_lr", "agent.critic_lr", "agent.explore_sigma",
                  "agent.sigma_decay"]
        ints = ["seed", "train_steps", "env.window_n", "agent.batch_size", "agent.buffer_capacity",
                "agent.td3_policy_delay", "agent.warmup_steps"]
        expected = {
            **dict.fromkeys(finite, "_finite"),
            **dict.fromkeys(ints, "int"),
            "agent_kind": "_kind",
            "agent.hidden_dims": "_int_list",
            "n_r_values": "_float_list",
            "zeta_values": "_float_list",
            "agent_kinds": "_kind_list",
        }
        assert len(expected) == 22
        assert {key: parser.__name__ for key, parser in COERCERS.items()} == expected
        assert set(SWEEP_KEYS) == {"n_r_values", "zeta_values", "agent_kinds"}

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```\n# experiment.cfg\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "experiment.cfg"
        path.write_text(block)
        mapping = parse_config_file(path)
        assert mapping["agent_kinds"] == (AgentKind.TD3, AgentKind.OPT_ORACLE, AgentKind.OPT_BASE)
        single = {key: value for key, value in mapping.items() if key not in SWEEP_KEYS}
        cfg = build_experiment(single)
        assert (cfg.seed, cfg.env.n_r, cfg.agent.hidden_dims) == (42, 60.0, (64, 64))

    def test_config_loads_without_the_agents(self):
        # the settings live in domain, so parsing them needs no networks
        src = str(Path(adapshare.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "import adapshare.domain, adapshare.harness.config; "
            "print('adapshare.agents' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_every_exported_name_resolves(self):
        # the exports load lazily, so a stale entry would fail only on first use
        missing = [name for name in adapshare.__all__ if not hasattr(adapshare, name)]
        assert missing == []

    def test_coerce_overrides(self):
        out = coerce_overrides({"env.zeta": "0.4", "seed": 3, "agent_kind": "ddpg"})
        assert out == {"env.zeta": 0.4, "seed": 3, "agent_kind": AgentKind.DDPG}
        with pytest.raises(ConfigFileError):
            coerce_overrides({"nope": "1"})


class TestBuildExperiment:
    def test_full_mapping(self):
        cfg = build_experiment(
            {
                "env.n_r": 60.0,
                "env.zeta": 0.2,
                "seed": 5,
                "train_steps": 100,
                "agent.batch_size": 16,
                "agent_kind": AgentKind.DDPG,
            }
        )
        assert cfg.env.n_r == 60.0
        assert cfg.env.zeta == 0.2
        assert cfg.seed == 5
        assert cfg.agent.batch_size == 16
        assert cfg.agent_kind == AgentKind.DDPG

    def test_requires_pool_size(self):
        with pytest.raises(ConfigFileError, match="env.n_r"):
            build_experiment({"seed": 1})

    def test_sweep_keys_rejected(self):
        with pytest.raises(ConfigFileError, match="sweep-only"):
            build_experiment({"env.n_r": 20.0, "zeta_values": (0.1,)})



def solver_spec(train_steps=0, **kw):
    base = ExperimentConfig(
        env=EnvConfig(n_r=20.0, zeta=0.5, window_n=1),
        train_steps=train_steps,
        seed=5,
    )
    defaults = dict(
        base=base,
        n_r_values=(20.0, 60.0),
        zeta_values=(0.3, 0.7),
        agent_kinds=(AgentKind.OPT_ORACLE, AgentKind.OPT_BASE),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweep:
    def test_cell_seed_stable_and_distinct(self):
        s = cell_seed(42, 20.0, 3, AgentKind.TD3)
        assert s == cell_seed(42, 20.0, 3, "td3")
        others = {
            cell_seed(42, 20.0, 3, AgentKind.DDPG),
            cell_seed(42, 60.0, 3, AgentKind.TD3),
            cell_seed(42, 20.0, 4, AgentKind.TD3),
            cell_seed(43, 20.0, 3, AgentKind.TD3),
        }
        assert s not in others
        assert len(others) == 4

    def test_spec_validation_and_coercion(self):
        spec = solver_spec(agent_kinds=("opt_oracle",), n_r_values=(20,))
        assert spec.agent_kinds == (AgentKind.OPT_ORACLE,)
        assert spec.n_r_values == (20.0,)
        with pytest.raises(ValueError):
            solver_spec(n_r_values=())
        with pytest.raises(ValueError):
            solver_spec(n_r_values=(0.0,))
        with pytest.raises(ValueError):
            solver_spec(zeta_values=(1.2,))

    def test_bool_pool_size_refused_naming_the_list(self):
        with pytest.raises(ValueError, match="^n_r_values must be valid env.n_r values, got True: "
                                             "n_r must be a finite number"):
            solver_spec(n_r_values=(True,))

    @pytest.mark.parametrize(
        "key,values",
        [("n_r_values", (float("nan"),)), ("n_r_values", (20.0, float("inf"))), ("n_r_values", ("60",)),
         ("n_r_values", (-20.0,)), ("zeta_values", (0.5, float("nan"))), ("zeta_values", ("0.5",)),
         ("zeta_values", (-0.1,))],
    )
    def test_bad_list_entry_rejected_naming_the_list(self, key, values):
        # refused at construction, before any cell of the grid runs
        with pytest.raises(ValueError, match=f"^{key} must be"):
            solver_spec(**{key: values})

    @pytest.mark.parametrize(
        "key,values,reason",
        [("n_r_values", (20.0, 200.0), r"capacity_norm \(100.0\) must cover the pool size \(200.0\)"),
         ("n_r_values", (20.0, -1.0), "n_r must be positive"),
         ("zeta_values", (0.5, 1.5), r"zeta must lie in \[0, 1\]")],
        ids=["n_r_above_capacity_norm", "negative_n_r", "zeta_above_one"],
    )
    def test_entry_refused_by_env_config_names_the_list(self, key, values, reason):
        # every entry meets the EnvConfig rules its cells would meet
        with pytest.raises(ValueError, match=f"^{key} must be valid env.*got {values[1]!r}: {reason}"):
            solver_spec(**{key: values})

    def test_bad_agent_kind_rejected_naming_the_list(self):
        with pytest.raises(ValueError, match="^agent_kinds must be one of .*got 'bogus'"):
            solver_spec(agent_kinds=("opt_oracle", "bogus"))

    @pytest.mark.parametrize(
        "key,values,shown",
        [("zeta_values", (0.12341, 0.12342), "z0.1234"),
         ("zeta_values", (0.5, 0.5), "z0.5"),
         ("n_r_values", (20.0, 20.0000001), "nr20_")],
    )
    def test_colliding_result_file_names_rejected(self, key, values, shown):
        # two cells would write one detail file; refused before any cell runs
        with pytest.raises(ValueError, match=shown) as info:
            solver_spec(**{key: values})
        assert all(repr(v) in str(info.value) for v in values)

    def test_grid_covers_all_cells(self, small_series):
        spec = solver_spec()
        rows = run_sweep(spec, small_series)
        assert len(rows) == 8
        combos = {(r.n_r, r.zeta, r.agent_kind) for r in rows}
        assert len(combos) == 8
        for row in rows:
            assert row.curve is None
            assert row.report.per_step.shape == (len(eval_timesteps(small_series, spec.base)), 6)

    def test_progress_callback(self, small_series):
        seen = []
        spec = solver_spec(n_r_values=(20.0,), zeta_values=(0.5,))
        run_sweep(spec, small_series, progress=lambda d, t, r: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]

    def test_single_cell_matches_full_grid(self, small_series):
        """Any cell rerun in isolation reproduces its row from the grid."""
        spec = solver_spec()
        rows = run_sweep(spec, small_series)
        lone = run_cell(small_series, spec, 60.0, 1, AgentKind.OPT_ORACLE)
        twin = next(
            r
            for r in rows
            if (r.n_r, r.zeta, r.agent_kind) == (60.0, 0.7, AgentKind.OPT_ORACLE)
        )
        assert lone.seed == twin.seed
        assert lone.report == twin.report
        assert np.array_equal(lone.report.per_step, twin.report.per_step)

    def test_trainable_cell_records_curve(self, constant_series):
        base = ExperimentConfig(
            env=EnvConfig(n_r=20.0, window_n=1),
            train_steps=30,
            seed=2,
            agent=AgentConfig(batch_size=8, warmup_steps=5, hidden_dims=(4,)),
        )
        spec = SweepSpec(
            base=base, n_r_values=(20.0,), zeta_values=(0.5,), agent_kinds=(AgentKind.TD3,)
        )
        rows = run_sweep(spec, constant_series)
        assert rows[0].curve is not None
        assert len(rows[0].curve) == 30


class TestResults:
    def test_emit_inventory_and_metadata(self, small_series, tmp_path):
        rows = run_sweep(solver_spec(), small_series)
        out = tmp_path / "out"
        written = emit_results(rows, out)
        names = {Path(p).name for p in written}
        assert "sweep.csv" in names
        assert "run_metadata.json" in names
        detail_files = [n for n in names if n.startswith("detail_")]
        assert len(detail_files) == 8
        # two zetas per pool: the per-pool zeta charts exist, no curves
        assert "surplus_nr20.svg" in names
        assert "fairness_nr60.svg" in names
        assert not any(n.startswith("curve_") for n in names)
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["cells"] == 8
        assert set(meta["files"]) == names - {"run_metadata.json"}
        # what each cell and the emission cost, in table order
        assert len(meta["cell_seconds"]) == 8
        assert all(isinstance(v, float) and v > 0.0 for v in meta["cell_seconds"])
        assert isinstance(meta["emit_seconds"], float) and meta["emit_seconds"] > 0.0

    def test_emit_refuses_colliding_cells_before_writing(self, small_series, tmp_path):
        rows = run_sweep(solver_spec(zeta_values=(0.3,)), small_series)
        twin = dataclasses.replace(rows[0], zeta=0.30001)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"0\.3\) and .*0\.30001\)"):
            emit_results(rows + [twin], out)
        assert not out.exists()

    def test_sweep_csv_round_trips(self, small_series, tmp_path):
        rows = run_sweep(solver_spec(), small_series)
        emit_results(rows, tmp_path)
        parsed = read_sweep_csv(tmp_path / "sweep.csv")
        assert len(parsed) == 8
        n_r, zeta, agent, s_a, s_b, fairness = parsed[0]
        assert (n_r, zeta) == (rows[0].n_r, rows[0].zeta)
        assert agent == rows[0].agent_kind.value
        assert s_a == rows[0].report.s_a
        assert fairness == rows[0].report.fairness

    def test_rerun_is_byte_identical(self, small_series, tmp_path):
        spec = solver_spec()
        dir_1, dir_2 = tmp_path / "one", tmp_path / "two"
        emit_results(run_sweep(spec, small_series), dir_1)
        emit_results(run_sweep(spec, small_series), dir_2)
        csvs = sorted(p.name for p in dir_1.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (dir_1 / name).read_bytes() == (dir_2 / name).read_bytes()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path)

    def test_svg_is_valid_xml_with_one_polyline_per_series(self):
        doc = svg_line_chart(
            [("one", [0, 1, 2], [0.0, 0.5, 0.2]), ("two", [0, 1, 2], [1.0, 0.8, 0.9])],
            title="demo",
            x_label="x",
            y_label="y",
        )
        root = ET.fromstring(doc)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 2
        texts = [t.text for t in root.findall(f".//{ns}text")]
        assert "demo" in texts

    def test_replot_rebuilds_charts(self, small_series, tmp_path):
        rows = run_sweep(solver_spec(), small_series)
        emit_results(rows, tmp_path)
        svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
        for name in svgs:
            (tmp_path / name).unlink()
        replot(tmp_path)
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == svgs


class TestReadBack:
    @pytest.mark.parametrize("row,message", [
        ("0.5,20.0,td3,0.1", "expected 7 fields, got 4"),
        ("0.5,20.0,td3,0.1,0.2,abc,0.3", "could not convert"),
    ], ids=["short_row", "bad_float"])
    def test_bad_sweep_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "sweep.csv"
        path.write_text(f"{SWEEP_HEADER}\n0.5,20.0,td3,0.1,0.2,0.9,0.3\n{row}\n")
        with pytest.raises(ValueError, match=f"sweep.csv:3: {message}"):
            read_sweep_csv(path)

    @pytest.mark.parametrize("row,message", [
        ("1", "expected 2 fields, got 1"),
        ("1,-0.x", "could not convert"),
        ("one,-0.2", "invalid literal"),
    ], ids=["short_row", "bad_float", "bad_step"])
    def test_bad_curve_row_names_its_line(self, tmp_path, row, message):
        (tmp_path / "sweep.csv").write_text(f"{SWEEP_HEADER}\n0.5,20.0,td3,0.1,0.2,0.9,0.3\n")
        curve = tmp_path / "curve_td3_nr20_z0.5.csv"
        curve.write_text(f"{CURVE_HEADER}\n0,-0.1\n{row}\n")
        with pytest.raises(ValueError, match=f"{curve.name}:3: {message}"):
            replot(str(tmp_path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_plot_refuses_a_non_finite_sweep_cell(self, tmp_path, capsys, cell):
        (tmp_path / "sweep.csv").write_text(f"{SWEEP_HEADER}\n0.5,20.0,td3,{cell},0.2,0.9,0.3\n")
        assert run_cli("plot", "--dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'sweep.csv'}:2: must be a finite number, got '{cell}'" in err
        assert not list(tmp_path.glob("*.svg"))

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_plot_refuses_a_non_finite_curve_value(self, tmp_path, capsys, cell):
        (tmp_path / "sweep.csv").write_text(f"{SWEEP_HEADER}\n0.5,20.0,td3,0.1,0.2,0.9,0.3\n")
        curve = tmp_path / "curve_td3_nr20_z0.5.csv"
        curve.write_text(f"{CURVE_HEADER}\n0,-0.1\n1,{cell}\n")
        assert run_cli("plot", "--dir", tmp_path) == 2
        assert f"error: {curve}:3: must be a finite number, got '{cell}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.svg"))

    def test_plot_on_truncated_sweep_csv_is_rc2(self, tmp_path, capsys):
        (tmp_path / "sweep.csv").write_text(f"{SWEEP_HEADER}\n0.5,20.0,td3,0.1\n")
        assert run_cli("plot", "--dir", tmp_path) == 2
        assert "sweep.csv:2: expected 7 fields, got 4" in capsys.readouterr().err


class TestCsvOutput:
    def test_sweep_header_and_row_shape(self):
        assert SWEEP_HEADER == "zeta,n_r,agent,s_a,s_b,fairness,mean_j"
        report = build_report(grants([(5.0, 5.0)]), [(5.0, 5.0)], zeta=0.5)
        row = sweep_row(0.5, 20.0, "td3", report)
        cells = row.split(",")
        assert len(cells) == 7
        assert cells[2] == "td3"
        assert float(cells[0]) == 0.5 and float(cells[1]) == 20.0
        assert float(cells[3]) == report.s_a

    def test_sweep_row_accepts_kind_enum(self):
        report = build_report(grants([(5.0, 5.0)]), [(5.0, 5.0)], zeta=0.5)
        row = sweep_row(0.1, 60.0, AgentKind.OPT_BASE, report)
        assert row.split(",")[2] == "opt_base"

    def test_rows_roundtrip_through_float(self):
        # repr floats must parse back to the exact same values
        report = build_report(
            grants([(1.0 / 3.0, 2.0 / 7.0)]), [(0.123456789, 9.87)], zeta=1.0 / 3.0
        )
        cells = sweep_row(1.0 / 3.0, 20.0, "ddpg", report).split(",")
        assert float(cells[0]) == 1.0 / 3.0
        assert float(cells[6]) == report.mean_j

    def test_detail_csv(self, tmp_path):
        allocs = grants([(1.5, 2.5), (1.0 / 3.0, 2.0 / 7.0)])
        report = build_report(
            allocs, [(1.0, 2.0), (0.123456789, 9.87)], zeta=0.5, timestamps=[7, 8]
        )
        path = tmp_path / "detail.csv"
        write_detail_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == DETAIL_HEADER
        assert lines[1].startswith("7.0,1.5,2.5,1.0,2.0,")
        # every repr float reads back to the matrix's exact bits
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        assert rows == report.per_step.tolist()


@pytest.fixture
def constant_csv(tmp_path, constant_series):
    path = tmp_path / "constant.csv"
    write_series_csv(constant_series, path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestCliIngest:
    def test_end_to_end(self, dci_fixture_path, tmp_path, capsys):
        out = tmp_path / "demand.csv"
        rc = run_cli(
            "ingest", "--dci-a", dci_fixture_path, "--dci-b", dci_fixture_path,
            "--out", out,
        )
        assert rc == 0
        text = out.read_text().splitlines()
        assert text[0] == "timestamp,d_a,d_b"
        rows = [line.split(",") for line in text[1:]]
        # hand-computed hourly means of the format-2B rows
        assert [float(r[1]) for r in rows] == [20.0, 8.0]
        assert [float(r[2]) for r in rows] == [20.0, 8.0]
        assert capsys.readouterr().out.splitlines()[:2] == [
            "network A: 8 rows, 6 data transmissions, 2 windows of 3600s (0 empty)",
            "network B: 8 rows, 6 data transmissions, 2 windows of 3600s (0 empty)",
        ]

    def test_summary_counts_empty_windows(self, tmp_path, capsys):
        # two rows 19 years apart resample into windows that are nearly all empty
        trace = tmp_path / "far.csv"
        trace.write_text(f"{DCI_HEADER}\n1,0,4660,10,16,2B,0\n1,0,4660,10,16,2B,1674000000000\n")
        rc = run_cli("ingest", "--dci-a", trace, "--dci-b", trace, "--out", tmp_path / "o.csv")
        assert rc == 0
        assert "2 rows, 2 data transmissions, 465001 windows of 3600s (464999 empty)" in capsys.readouterr().out

    @pytest.mark.parametrize("rows", [["513,5,4662,99,8,1A,1674000000500"], []], ids=["other_format", "no_rows"])
    def test_no_rows_of_the_format_names_flag_and_file(self, dci_fixture_path, tmp_path, capsys, rows):
        dci_b = tmp_path / "b.csv"
        dci_b.write_text("\n".join([DCI_HEADER] + rows) + "\n")
        out = tmp_path / "o.csv"
        rc = run_cli("ingest", "--dci-a", dci_fixture_path, "--dci-b", dci_b, "--out", out)
        assert rc == 2
        assert f"error: --dci-b {dci_b}: no rows of DCI format 2B" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_rc2(self, tmp_path, capsys):
        rc = run_cli(
            "ingest", "--dci-a", tmp_path / "no.csv", "--dci-b", tmp_path / "no.csv",
            "--out", tmp_path / "o.csv",
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        ("12,12,4661,9,18,2B,1674003600123", "subframe out of range: 12"),
        ("12,3,4661,9,18,2B,-5", "timestamp must be a nonnegative int64"),
        ("12,3,4661,9,18,2B,99999999999999999999", "timestamp must be a nonnegative int64"),
        ("12,3,4661,9,18,2B", "expected 7 fields, got 6"),
    ], ids=["subframe", "negative_ts", "huge_ts", "short"])
    def test_bad_row_in_b_names_b_and_its_line(self, dci_fixture_path, tmp_path, capsys, row, message):
        # the fixture with its last row (line 9) swapped for `row`
        dci_b = tmp_path / "b.csv"
        lines = Path(dci_fixture_path).read_text().splitlines()
        dci_b.write_text("\n".join(lines[:-1] + [row]) + "\n")
        out = tmp_path / "o.csv"
        rc = run_cli("ingest", "--dci-a", dci_fixture_path, "--dci-b", dci_b, "--out", out)
        assert rc == 2
        assert f"error: {dci_b}:9: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_traces_over_different_hours_name_flags_files_and_spans(self, dci_fixture_path, tmp_path, capsys):
        far = tmp_path / "far.csv"
        far.write_text(f"{DCI_HEADER}\n1,0,4660,10,16,2B,0\n1,0,4660,10,16,2B,1674000000000\n")
        out = tmp_path / "o.csv"
        rc = run_cli("ingest", "--dci-a", dci_fixture_path, "--dci-b", far, "--out", out)
        assert rc == 2
        assert (
            "error: the traces do not line up (--dci-b is longer): "
            f"--dci-a {dci_fixture_path} covers 2 windows, t = 1674000000 to 1674003600 s; "
            f"--dci-b {far} covers 465001 windows, t = 0 to 1674000000 s"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_equal_lengths_over_different_hours_keep_the_reason(self, dci_fixture_path, tmp_path, capsys):
        early = tmp_path / "early.csv"
        early.write_text(f"{DCI_HEADER}\n1,0,4660,10,16,2B,0\n1,0,4660,10,16,2B,3600000\n")
        out = tmp_path / "o.csv"
        rc = run_cli("ingest", "--dci-a", dci_fixture_path, "--dci-b", early, "--out", out)
        assert rc == 2
        assert (
            "error: the traces do not line up (timestamps are not aligned): "
            f"--dci-a {dci_fixture_path} covers 2 windows, t = 1674000000 to 1674003600 s; "
            f"--dci-b {early} covers 2 windows, t = 0 to 3600 s"
        ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("granularity", ["0", "-5"])
    def test_non_positive_granularity_is_rc2(self, dci_fixture_path, tmp_path, capsys, granularity):
        out = tmp_path / "o.csv"
        rc = run_cli(
            "ingest", "--dci-a", dci_fixture_path, "--dci-b", dci_fixture_path,
            "--granularity", granularity, "--out", out,
        )
        assert rc == 2
        expected = f"--granularity must be a positive number of seconds, got {granularity}"
        assert expected in capsys.readouterr().err
        assert not out.exists()


class TestCliSynth:
    def test_deterministic_given_seed(self, hourly_fixture_path, tmp_path, capsys):
        out_1 = tmp_path / "one.csv"
        out_2 = tmp_path / "two.csv"
        for out in (out_1, out_2):
            rc = run_cli(
                "synth", "--ref", hourly_fixture_path, "--length", "100",
                "--seed", "5", "--out", out,
            )
            assert rc == 0
        assert out_1.read_bytes() == out_2.read_bytes()
        assert "ks_a=" in capsys.readouterr().out

    @pytest.mark.parametrize("granularity", ["0", "-5"])
    def test_non_positive_granularity_is_rc2(self, hourly_fixture_path, tmp_path, capsys, granularity):
        # 0 once fell back to the reference's spacing without a word
        out = tmp_path / "x.csv"
        rc = run_cli(
            "synth", "--ref", hourly_fixture_path, "--length", "5",
            "--granularity", granularity, "--out", out,
        )
        assert rc == 2
        expected = f"--granularity must be a positive number of seconds, got {granularity}"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_synth_seed_flag_is_parsed_like_the_seed_key(self, hourly_fixture_path, tmp_path, capsys):
        rc = run_cli("synth", "--ref", hourly_fixture_path, "--length", "5", "--seed", "x",
                     "--out", tmp_path / "x.csv")
        assert rc == 2
        assert "error: bad value for seed: " in capsys.readouterr().err

    def test_two_sided_ref_needs_side(self, tmp_path, constant_csv, capsys):
        rc = run_cli("synth", "--ref", constant_csv, "--out", tmp_path / "x.csv")
        assert rc == 2
        assert "--side" in capsys.readouterr().err

    def test_bad_env_seed_is_rc2(self, hourly_fixture_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAPSHARE_SEED", "ten")
        rc = run_cli(
            "synth", "--ref", hourly_fixture_path, "--length", "50", "--out", tmp_path / "x.csv"
        )
        assert rc == 2
        assert "ADAPSHARE_SEED must be an integer: 'ten'" in capsys.readouterr().err


class TestCliTrainEval:
    def train_args(self, data, tmp_path, *extra):
        return (
            "train", "--data", data, "--n-r", "20", "--steps", "40",
            "--set", "agent.warmup_steps=10", "--set", "agent.batch_size=8",
            "--set", "agent.hidden_dims=8", "--seed", "3",
            "--out", tmp_path / "agent.json", *extra,
        )

    def test_train_writes_checkpoint_and_curve(self, constant_csv, tmp_path, capsys):
        rc = run_cli(
            *self.train_args(constant_csv, tmp_path, "--curve-out", tmp_path / "curve.csv")
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trained td3 for 40 steps" in out
        assert "opt_oracle:" in out
        agent, cfg = load_agent(tmp_path / "agent.json")
        assert cfg.train_steps == 40 and cfg.seed == 3
        curve_lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve_lines[0] == CURVE_HEADER
        assert len(curve_lines) == 41

    def test_train_rejects_solver_kind(self, constant_csv, tmp_path, capsys):
        rc = run_cli(
            "train", "--data", constant_csv, "--n-r", "20", "--agent", "opt_oracle",
            "--steps", "1",
        )
        assert rc == 2
        assert "ddpg or td3" in capsys.readouterr().err

    def test_eval_checkpoint_with_env_override(self, constant_csv, tmp_path, capsys):
        assert run_cli(*self.train_args(constant_csv, tmp_path)) == 0
        capsys.readouterr()
        out_csv = tmp_path / "row.csv"
        rc = run_cli(
            "eval", "--data", constant_csv, "--checkpoint", tmp_path / "agent.json",
            "--n-r", "60", "--out", out_csv, "--detail-out", tmp_path / "detail.csv",
        )
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        cells = lines[1].split(",")
        assert float(cells[1]) == 60.0
        assert cells[2] == "td3"
        assert (tmp_path / "detail.csv").exists()

    def test_eval_checkpoint_rejects_keys_it_fixes(self, constant_csv, tmp_path, capsys):
        assert run_cli(*self.train_args(constant_csv, tmp_path)) == 0
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("env.zeta = 0.4\ntrain_steps = 5\n")
        capsys.readouterr()
        rc = run_cli(
            "eval", "--data", constant_csv, "--checkpoint", tmp_path / "agent.json",
            "--seed", "9", "--steps", "7", "--config", cfg_file,
            "--set", "eval_split=0.5", "--set", "agent.actor_lr=5",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "agent.actor_lr, eval_split, seed, train_steps" in err
        assert "env.zeta" not in err

    @pytest.mark.parametrize("key,value", [("env.window_n", "4"), ("env.capacity_norm", "1000")])
    def test_eval_checkpoint_rejects_observation_keys(
        self, constant_csv, tmp_path, capsys, key, value
    ):
        # the policy was trained on observations of this width and scale
        assert run_cli(*self.train_args(constant_csv, tmp_path)) == 0
        capsys.readouterr()
        rc = run_cli(
            "eval", "--data", constant_csv, "--checkpoint", tmp_path / "agent.json",
            "--set", f"{key}={value}",
        )
        assert rc == 2
        assert f"--checkpoint fixes {key};" in capsys.readouterr().err

    def test_eval_checkpoint_ignores_env_seed(self, constant_csv, tmp_path, capsys, monkeypatch):
        assert run_cli(*self.train_args(constant_csv, tmp_path)) == 0
        eval_args = ("eval", "--data", constant_csv, "--checkpoint", tmp_path / "agent.json")
        capsys.readouterr()
        assert run_cli(*eval_args) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("ADAPSHARE_SEED", "9")
        assert run_cli(*eval_args) == 0
        assert capsys.readouterr().out == plain

    def test_eval_solver_without_checkpoint(self, constant_csv, capsys):
        rc = run_cli(
            "eval", "--data", constant_csv, "--agent", "opt_oracle", "--n-r", "20"
        )
        assert rc == 0
        assert "opt_oracle: mean_j=0.000000" in capsys.readouterr().out

    def test_eval_solver_on_empty_split_is_rc2(self, constant_csv, capsys):
        rc = run_cli("eval", "--data", constant_csv, "--agent", "opt_oracle", "--n-r", "20",
                     "--set", "eval_split=0.0001")
        assert rc == 2
        assert "error: evaluation split is empty: it would start at step 60 of a 60-step" in (
            capsys.readouterr().err
        )

    def test_eval_agent_is_parsed_like_config_kinds(self, constant_csv, capsys):
        rc = run_cli("eval", "--data", constant_csv, "--agent", "OPT_BASE", "--n-r", "20")
        assert rc == 0
        assert "opt_base: mean_j=" in capsys.readouterr().out
        rc = run_cli("eval", "--data", constant_csv, "--agent", "bogus", "--n-r", "20")
        assert rc == 2
        assert "error: --agent must be one of ddpg, td3, opt_oracle, opt_base, got 'bogus'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_eval_agent_refuses_a_configured_agent_kind(self, constant_csv, tmp_path, capsys, source):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("agent_kind = td3\n")
        extra = ("--set", "agent_kind=td3") if source == "set" else ("--config", cfg_file)
        rc = run_cli("eval", "--data", constant_csv, "--agent", "opt_base", "--n-r", "20", *extra)
        assert rc == 2
        assert "agent_kind is chosen by eval --agent" in capsys.readouterr().err

    def test_eval_rejects_rl_kind_by_name(self, constant_csv, capsys):
        rc = run_cli("eval", "--data", constant_csv, "--agent", "td3", "--n-r", "20")
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_eval_needs_exactly_one_source(self, constant_csv, tmp_path, capsys):
        rc = run_cli("eval", "--data", constant_csv, "--n-r", "20")
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err


class TestCliPrecedence:
    def test_seed_resolution_order(self, constant_csv, tmp_path, capsys, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 1\nenv.n_r = 20\ntrain_steps = 2\n")
        base = ("train", "--data", constant_csv, "--config", cfg_file)

        assert run_cli(*base) == 0
        assert "seed=1" in capsys.readouterr().out

        monkeypatch.setenv("ADAPSHARE_SEED", "9")
        assert run_cli(*base) == 0
        assert "seed=9" in capsys.readouterr().out

        assert run_cli(*base, "--seed", "4") == 0
        assert "seed=4" in capsys.readouterr().out

        assert run_cli(*base, "--seed", "4", "--set", "seed=6") == 0
        assert "seed=6" in capsys.readouterr().out

    def test_set_overrides_config_zeta(self, constant_csv, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("env.n_r = 20\nenv.zeta = 0.3\ntrain_steps = 2\n")
        rc = run_cli(
            "train", "--data", constant_csv, "--config", cfg_file,
            "--set", "env.zeta=0.8",
        )
        assert rc == 0
        assert "zeta=0.8" in capsys.readouterr().out

    def test_set_overrides_sweep_list_flags(self, constant_csv, tmp_path):
        out_dir = tmp_path / "grid"
        rc = run_cli(
            "sweep", "--data", constant_csv, "--out-dir", out_dir,
            "--n-r-values", "20", "--zeta-values", "0.3", "--agents", "opt_oracle",
            "--set", "n_r_values=60", "--set", "zeta_values=0.7",
            "--set", "agent_kinds=opt_base",
        )
        assert rc == 0
        rows = read_sweep_csv(out_dir / "sweep.csv")
        assert [row[:3] for row in rows] == [(60.0, 0.7, "opt_base")]

    def test_bad_env_seed_is_rc2(self, constant_csv, capsys, monkeypatch):
        monkeypatch.setenv("ADAPSHARE_SEED", "ten")
        rc = run_cli("train", "--data", constant_csv, "--n-r", "20", "--steps", "1")
        assert rc == 2
        assert "ADAPSHARE_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,key",
        [
            (("train", "--n-r", "20", "--set", "seed=ten"), "seed"),
            (("train", "--n-r", "20", "--set", "agent.hidden_dims="), "agent.hidden_dims"),
            (("sweep", "--out-dir", "grid", "--n-r-values", "20,x"), "n_r_values"),
            (("train", "--n-r", "20", "--seed", "x"), "seed"),
            (("train", "--n-r", "wide"), "env.n_r"),
            (("train", "--n-r", "20", "--zeta", "nan"), "env.zeta"),
            (("train", "--n-r", "20", "--steps", "1.5"), "train_steps"),
            (("train", "--n-r", "20", "--agent", "bogus"), "agent_kind"),
            (("sweep", "--out-dir", "grid", "--agents", "td3,bogus"), "agent_kinds"),
        ],
        ids=["set_seed", "set_empty_list", "sweep_list_flag", "seed_flag", "n_r_flag", "zeta_flag",
             "steps_flag", "agent_flag", "agents_flag"],
    )
    def test_bad_value_names_its_key(self, constant_csv, tmp_path, capsys, monkeypatch, args, key):
        monkeypatch.chdir(tmp_path)
        rc = run_cli(*args, "--data", constant_csv)
        assert rc == 2
        assert f"error: bad value for {key}: " in capsys.readouterr().err


class TestCliSweepPlot:
    def sweep_args(self, data, out_dir):
        return (
            "sweep", "--data", data, "--out-dir", out_dir,
            "--agents", "opt_oracle,opt_base",
            "--zeta-values", "0.3,0.7", "--n-r-values", "20",
        )

    def test_sweep_writes_grid(self, constant_csv, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        rc = run_cli(*self.sweep_args(constant_csv, out_dir))
        assert rc == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 5
        out = capsys.readouterr().out
        assert "[4/4]" in out

    def test_sweep_refuses_a_configured_agent_kind(self, constant_csv, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        rc = run_cli(*self.sweep_args(constant_csv, out_dir), "--set", "agent_kind=td3")
        assert rc == 2
        assert "agent_kind is chosen by sweep's agent_kinds" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_refuses_a_pool_above_capacity_norm_before_any_cell(self, constant_csv, tmp_path, capsys):
        # refused naming the list, before the n_r = 20 cells run
        out_dir = tmp_path / "grid"
        rc = run_cli(
            "sweep", "--data", constant_csv, "--out-dir", out_dir,
            "--agents", "opt_oracle", "--n-r-values", "20,200",
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert "[1/" not in out
        assert err.startswith("error: n_r_values must be valid env.n_r values, got 200.0: capacity_norm")
        assert not out_dir.exists()

    @pytest.mark.parametrize("values", ["200", "0,20"])
    def test_sweep_refuses_a_bad_first_pool_size_naming_the_list(self, constant_csv, tmp_path, capsys, values):
        # the first entry is checked like the rest, though no env.n_r is set
        out_dir = tmp_path / "grid"
        rc = run_cli(
            "sweep", "--data", constant_csv, "--out-dir", out_dir,
            "--agents", "opt_oracle", "--n-r-values", values,
        )
        assert rc == 2
        first = float(values.split(",")[0])
        assert capsys.readouterr().err.startswith(f"error: n_r_values must be valid env.n_r values, got {first!r}: ")
        assert not out_dir.exists()

    def test_sweep_blames_a_bad_setting_not_the_pool_sizes(self, constant_csv, tmp_path, capsys):
        rc = run_cli(
            "sweep", "--data", constant_csv, "--out-dir", tmp_path / "grid",
            "--agents", "opt_oracle", "--n-r-values", "20", "--set", "env.eta=-1",
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: eta must be nonnegative")

    def test_sweep_refuses_colliding_zetas_before_writing(self, constant_csv, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        rc = run_cli(
            "sweep", "--data", constant_csv, "--out-dir", out_dir,
            "--agents", "opt_oracle", "--zeta-values", "0.12341,0.12342", "--n-r-values", "20",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "0.12341" in err and "0.12342" in err and "detail_opt_oracle_nr20_z0.1234.csv" in err
        assert not out_dir.exists()

    def test_sweep_rerun_byte_identical(self, constant_csv, tmp_path):
        dir_1, dir_2 = tmp_path / "one", tmp_path / "two"
        assert run_cli(*self.sweep_args(constant_csv, dir_1)) == 0
        assert run_cli(*self.sweep_args(constant_csv, dir_2)) == 0
        names = sorted(p.name for p in dir_1.glob("*.csv"))
        assert names
        for name in names:
            assert (dir_1 / name).read_bytes() == (dir_2 / name).read_bytes()

    def test_plot_rebuilds_charts(self, constant_csv, tmp_path):
        out_dir = tmp_path / "grid"
        assert run_cli(*self.sweep_args(constant_csv, out_dir)) == 0
        svgs = sorted(p.name for p in out_dir.glob("*.svg"))
        assert svgs
        for name in svgs:
            (out_dir / name).unlink()
        assert run_cli("plot", "--dir", out_dir) == 0
        assert sorted(p.name for p in out_dir.glob("*.svg")) == svgs
