"""Contextual-bandit laboratory for two-network spectrum sharing.

Ingest per-transmission control-channel captures into demand series,
synthesize longer traces with matching marginals and autocorrelation,
train DDPG/TD3 agents against the allocation objective, and compare
them with the closed-form oracle and a peak-provisioning baseline.
"""

from .domain import (
    AgentKind,
    Allocation,
    DemandSeries,
    EnvConfig,
    ExperimentConfig,
    clamp_demand,
    read_series_csv,
    write_series_csv,
)
from .env import (
    Observation,
    RawAction,
    StepResult,
    objective_j,
    observe,
    project_action,
    reward,
    step,
)
from .oracle import OracleSolution, grid_solve, solve_opt, solve_opt_array, solve_opt_base
from .synthgen import DemandStats, fit, generate, ks_distance
from .agents import (
    AgentConfig,
    DdpgAgent,
    ReplayBuffer,
    Td3Agent,
    eval_timesteps,
    evaluate,
    greedy_policy,
    load_agent,
    make_agent,
    save_agent,
    train,
)
from .metrics import (
    EvalReport,
    build_report,
    jain_fairness,
    mean_objective,
    moving_average,
    surplus_deficit,
)
from .seeding import derive_seed, rng_for

__version__ = "0.1.0"
