"""
Training DDPG and TD3 against the allocation oracle
===================================================

Trains both agent flavors for a few thousand steps on a synthetic
demand series, then scores them on the held-out tail against the
per-step oracle and the quasi-static baseline. A few seconds per agent
on one core; bump train_steps for tighter gaps.
"""

from pathlib import Path

from adapshare import (
    AgentKind,
    EnvConfig,
    ExperimentConfig,
    evaluate,
    read_series_csv,
    train,
)
from adapshare.domain import DemandSeries
from adapshare.synthgen import fit, generate

repo = Path(__file__).resolve().parents[1]
ref = read_series_csv(repo / "fixtures" / "lte_hourly.csv")
stats = fit(ref, side="a")
gen_a = generate(stats, length=400, seed=42, side="a")
gen_b = generate(stats, length=400, seed=43, side="b")
series = DemandSeries(gen_a.timestamps, gen_a.d_a, gen_b.d_b, 3600)


cfg = ExperimentConfig(
    env=EnvConfig(n_r=60.0, zeta=0.5),
    seed=1,
    train_steps=6000,
)

for kind in (AgentKind.DDPG, AgentKind.TD3):
    agent, result = train(kind, series, cfg)
    # the curve is the window-100 moving average of per-step rewards
    print(f"{kind.value}: avg reward {result.curve[100]:+.4f} at step 100 "
          f"-> {result.curve[-1]:+.4f} at step {cfg.train_steps}")
    report = evaluate(agent, series, cfg)
    print(f"  eval: mean_j={report.mean_j:.4f} s_a={report.s_a:+.4f} "
          f"s_b={report.s_b:+.4f} fairness={report.fairness:.4f}")

# reference points: per-step oracle and the max-demand static split
for kind in (AgentKind.OPT_ORACLE, AgentKind.OPT_BASE):
    report = evaluate(kind, series, cfg)
    print(f"{kind.value}: mean_j={report.mean_j:.4f} s_a={report.s_a:+.4f} "
          f"s_b={report.s_b:+.4f} fairness={report.fairness:.4f}")
