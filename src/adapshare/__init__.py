"""Contextual-bandit laboratory for two-network spectrum sharing.

Ingest per-transmission control-channel captures into demand series,
synthesize longer traces with matching marginals and autocorrelation,
train DDPG/TD3 agents against the allocation objective, and compare
them with the closed-form oracle and a peak-provisioning baseline.

The names below load their module on first use, so importing one
module (adapshare.domain, say) does not import the others.
"""

import importlib

_EXPORTS = {
    "domain": ("AgentConfig", "AgentKind", "Allocation", "DemandSeries", "EnvConfig",
               "ExperimentConfig", "clamp_demand", "read_series_csv", "write_series_csv"),
    "env": ("Observation", "RawAction", "StepResult", "objective_j", "observe",
            "project_action", "reward", "step"),
    "oracle": ("OracleSolution", "grid_solve", "solve_opt", "solve_opt_array", "solve_opt_base"),
    "synthgen": ("DemandStats", "fit", "generate", "ks_distance"),
    "agents": ("DdpgAgent", "ReplayBuffer", "Td3Agent", "eval_timesteps", "evaluate",
               "greedy_policy", "load_agent", "make_agent", "save_agent", "train"),
    "metrics": ("EvalReport", "build_report", "moving_average"),
    "seeding": ("derive_seed", "rng_for"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
