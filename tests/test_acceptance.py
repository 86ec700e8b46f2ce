"""End-to-end acceptance gate.

Ten checks covering the whole package: solver equivalence, gradient
correctness, trained-agent quality against the oracle, starvation and
over-provisioning behavior, fairness, metric conventions, ingestion and
synthesis fidelity, and byte-level determinism. Each test prints one
PASS/FAIL line with the measured numbers.
"""

import time

import numpy as np
import pytest

from adapshare import (
    AgentKind,
    EnvConfig,
    ExperimentConfig,
    build_report,
    eval_timesteps,
    greedy_policy,
    ks_distance,
    nn,
    solve_opt,
    train,
)
from adapshare.harness.sweep import SweepSpec, run_sweep
from adapshare.harness.results import emit_results
from adapshare.ingest import filter_data_transmissions, parse_dci_csv, resample_mean
from conftest import grants
from oracle_reference import grid_solve


def _verdict(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _evaluate(agent, series, cfg):
    allocs = greedy_policy(agent, series, cfg)
    steps = eval_timesteps(series, cfg)
    demands = [series.demand(t) for t in steps]
    report = build_report(allocs, demands, cfg.env.zeta, cfg.env.d_min)
    mins = np.array([[a.n_a, a.n_b] for a in allocs]).min(axis=0)
    return report, mins


def _train_and_evaluate(kind, series, n_r, zeta, steps, seed):
    cfg = ExperimentConfig(
        env=EnvConfig(n_r=n_r, zeta=zeta), seed=seed, train_steps=steps
    )
    start = time.perf_counter()
    agent, _result = train(kind, series, cfg)
    report, mins = _evaluate(agent, series, cfg)
    elapsed = time.perf_counter() - start
    oracle_report, _ = _evaluate(AgentKind.OPT_ORACLE, series, cfg)
    return report, oracle_report, mins, elapsed


def test_closed_form_allocator_matches_grid_search():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    worst_alloc = 0.0
    worst_j = 0.0
    for _ in range(200):
        demand = tuple(rng.uniform(0.5, 50.0, 2))
        zeta = float(rng.uniform(0.0, 1.0))
        n_r = float(rng.choice([20.0, 60.0, 100.0]))
        closed = solve_opt(demand, zeta, n_r)
        grid = grid_solve(demand, zeta, n_r, step=0.01)
        worst_alloc = max(
            worst_alloc,
            abs(closed.allocation.n_a - grid.allocation.n_a),
            abs(closed.allocation.n_b - grid.allocation.n_b),
        )
        worst_j = max(worst_j, abs(closed.j_value - grid.j_value))
    elapsed = time.perf_counter() - start
    ok = worst_alloc <= 0.05 and worst_j <= 1e-4 and elapsed < 10.0
    _verdict(
        "closed form vs 0.01-step grid (200 instances)",
        ok,
        f"worst alloc diff {worst_alloc:.4f} PRB (<= 0.05), "
        f"worst J diff {worst_j:.2e} (<= 1e-4), {elapsed:.1f}s (< 10s)",
    )


def test_backprop_matches_finite_differences():
    activations = ["relu", "tanh", "sigmoid", "identity"]
    suite_rng = np.random.default_rng(0)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n_hidden = int(suite_rng.integers(0, 3))
        dims = [int(suite_rng.integers(1, 17)) for _ in range(n_hidden + 2)]
        acts = [activations[int(suite_rng.integers(0, 4))] for _ in range(len(dims) - 1)]
        net = nn.Mlp(dims, acts, np.random.default_rng(int(suite_rng.integers(0, 2 ** 31))))
        x = suite_rng.normal(0.0, 1.0, dims[0])
        upstream = suite_rng.normal(0.0, 1.0, dims[-1])
        _out, cache = nn.forward_cache(net, x[None])
        grad, grad_x = nn.backward(net, cache, upstream[None])
        grad_w, grad_b = nn.layer_views(net.dims, grad)
        analytic = np.concatenate([g.ravel() for g in grad_w + grad_b + [grad_x[0]]])
        numeric = np.empty_like(analytic)
        k = 0
        for arr in net.weights + net.biases:
            flat = arr.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                f_plus = float(nn.forward(net, x) @ upstream)
                flat[j] = orig - h
                f_minus = float(nn.forward(net, x) @ upstream)
                flat[j] = orig
                numeric[k] = (f_plus - f_minus) / (2 * h)
                k += 1
        for j in range(x.size):
            orig = x[j]
            x[j] = orig + h
            f_plus = float(nn.forward(net, x) @ upstream)
            x[j] = orig - h
            f_minus = float(nn.forward(net, x) @ upstream)
            x[j] = orig
            numeric[k] = (f_plus - f_minus) / (2 * h)
            k += 1
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    ok = worst < 1e-4
    _verdict(
        "backward pass vs central differences (100 random nets)",
        ok,
        f"max relative error {worst:.3e} (< 1e-4)",
    )


@pytest.fixture(scope="module")
def oracle_gap_runs(synth_series):
    runs = {}
    for kind in (AgentKind.DDPG, AgentKind.TD3):
        report, oracle_report, _mins, elapsed = _train_and_evaluate(
            kind, synth_series, n_r=60.0, zeta=0.5, steps=20000, seed=1
        )
        runs[kind.value] = (report, oracle_report, elapsed)
    return runs


def test_trained_agents_close_oracle_gap(oracle_gap_runs):
    details = []
    ok = True
    for kind, (report, oracle_report, elapsed) in oracle_gap_runs.items():
        gap = report.mean_j - oracle_report.mean_j
        ok = ok and gap <= 0.05 and elapsed < 300.0
        details.append(f"{kind} gap {gap:.4f} in {elapsed:.0f}s")
    _verdict(
        "eval mean J within 0.05 of oracle (n_r=60, zeta=0.5, 20000 steps)",
        ok,
        "; ".join(details) + " (each gap <= 0.05, each < 300s)",
    )


@pytest.fixture(scope="module")
def priority_sweep_runs(synth_series):
    """TD3 trained per priority weight on the tight 20-PRB pool."""
    runs = {}
    for zeta_index in range(1, 10):
        zeta = round(0.1 * zeta_index, 1)
        report, oracle_report, mins, _elapsed = _train_and_evaluate(
            AgentKind.TD3, synth_series, n_r=20.0, zeta=zeta, steps=8000, seed=2
        )
        runs[zeta] = (report, oracle_report, float(mins.min()))
    return runs


def test_trained_td3_avoids_starvation_across_weights(priority_sweep_runs):
    worst_zeta, worst_min = min(
        ((zeta, entry[2]) for zeta, entry in priority_sweep_runs.items()),
        key=lambda item: item[1],
    )
    ok = all(entry[2] > 0.5 for entry in priority_sweep_runs.values())
    _verdict(
        "minimum per-network allocation (n_r=20, zeta 0.1..0.9)",
        ok,
        f"worst min {worst_min:.3f} PRB at zeta={worst_zeta} (> 0.5 required in all 9 cells)",
    )


def test_td3_beats_static_overprovisioning(synth_series):
    cfg = ExperimentConfig(
        env=EnvConfig(n_r=100.0, zeta=0.5), seed=2, train_steps=12000
    )
    base_report, _ = _evaluate(AgentKind.OPT_BASE, synth_series, cfg)
    report, _oracle, _mins, _elapsed = _train_and_evaluate(
        AgentKind.TD3, synth_series, n_r=100.0, zeta=0.5, steps=12000, seed=2
    )
    ok = (
        base_report.s_a > 0.0
        and base_report.s_b > 0.0
        and abs(report.s_a) < base_report.s_a
        and abs(report.s_b) < base_report.s_b
    )
    _verdict(
        "surplus vs max-demand baseline (n_r=100)",
        ok,
        f"baseline s_a {base_report.s_a:.4f} s_b {base_report.s_b:.4f} (both > 0); "
        f"td3 |s_a| {abs(report.s_a):.4f} |s_b| {abs(report.s_b):.4f} (strictly smaller)",
    )


def test_td3_fairness_tracks_oracle(priority_sweep_runs):
    report, oracle_report, _min = priority_sweep_runs[0.5]
    ok = report.fairness >= oracle_report.fairness - 0.05 and report.fairness >= 0.9
    _verdict(
        "Jain fairness at zeta=0.5, n_r=20",
        ok,
        f"td3 {report.fairness:.4f} vs oracle {oracle_report.fairness:.4f} "
        f"(need >= {oracle_report.fairness - 0.05:.4f} and >= 0.9)",
    )


def test_metric_conventions_exact():
    demands = [(5.0, 5.0), (4.0, 6.0), (3.0, 7.0)]
    starved = build_report(grants([(0.0, 0.0)] * 3), demands, 0.5)
    s_a, s_b = starved.s_a, starved.s_b
    equal = build_report(grants([(3.0, 3.0), (7.0, 7.0)]), demands[:2], 0.5).fairness
    one_sided_a = build_report(grants([(6.0, 0.0)]), demands[:1], 0.5).fairness
    one_sided_b = build_report(grants([(0.0, 4.0)]), demands[:1], 0.5).fairness
    ok = (
        abs(s_a - (-1.0)) <= 1e-12
        and abs(s_b - (-1.0)) <= 1e-12
        and abs(equal - 1.0) <= 1e-12
        and abs(one_sided_a - 0.5) <= 1e-12
        and abs(one_sided_b - 0.5) <= 1e-12
    )
    _verdict(
        "metric conventions",
        ok,
        f"all-zero surplus ({s_a:g}, {s_b:g}) = (-1, -1); Jain equal {equal:g} = 1, "
        f"one-sided {one_sided_a:g}/{one_sided_b:g} = 0.5 (exact to 1e-12)",
    )


def test_ingestion_reproduces_hand_counts(dci_fixture_path):
    records = parse_dci_csv(dci_fixture_path)
    data = filter_data_transmissions(records)
    series = resample_mean(data, 3600, side_tag="a")
    only_2b = all(r.dci_format == "2B" for r in data)
    # hour 1: (10+5) + 20 + 25 over 3 ms-slots; hour 2: 7 + 9 over 2
    means_exact = series.d_a.tolist() == [20.0, 8.0]
    ok = len(records) == 8 and len(data) == 6 and only_2b and means_exact
    _verdict(
        "trace ingestion",
        ok,
        f"{len(records)} rows -> {len(data)} format-2B rows, "
        f"hourly means {series.d_a.tolist()} == [20.0, 8.0] exactly",
    )


def test_synthetic_demand_matches_reference_distribution(synth_series, ref_series):
    ks_a = ks_distance(synth_series.d_a, ref_series.d_a)
    ks_b = ks_distance(synth_series.d_b, ref_series.d_a)
    ok = ks_a <= 0.1 and ks_b <= 0.1
    _verdict(
        "synthetic vs reference distribution (length 860, default seeds)",
        ok,
        f"ks_a {ks_a:.4f}, ks_b {ks_b:.4f} (both <= 0.1)",
    )


def test_sweep_cell_rerun_byte_identical(synth_series, tmp_path):
    spec = SweepSpec(
        base=ExperimentConfig(
            env=EnvConfig(n_r=20.0, zeta=0.5), seed=7, train_steps=400
        ),
        n_r_values=(20.0,),
        zeta_values=(0.5,),
        agent_kinds=(AgentKind.TD3, AgentKind.OPT_ORACLE),
    )
    dir_1, dir_2 = tmp_path / "one", tmp_path / "two"
    emit_results(run_sweep(spec, synth_series), dir_1)
    emit_results(run_sweep(spec, synth_series), dir_2)
    names = sorted(p.name for p in dir_1.glob("*.csv"))
    identical = [
        name
        for name in names
        if (dir_1 / name).read_bytes() == (dir_2 / name).read_bytes()
    ]
    ok = bool(names) and identical == names
    _verdict(
        "sweep cell rerun determinism",
        ok,
        f"{len(identical)}/{len(names)} result CSVs byte-identical "
        f"(incl. trained-agent detail and curve files)",
    )
