"""The (pool size x priority weight x agent) evaluation sweep.

Every cell is seeded independently from (base seed, n_r, zeta index,
agent kind), so any subset of cells reproduces exactly the same rows
as the full grid.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from ..agents import TRAINABLE, evaluate, train
from ..domain import AgentKind, ExperimentConfig, as_agent_kind
from ..metrics import EvalReport
from ..seeding import derive_seed
from .results import check_cell_stubs

DEFAULT_N_R = (20.0, 60.0, 100.0)
DEFAULT_ZETAS = tuple(round(0.1 * k, 1) for k in range(11))
DEFAULT_AGENTS = (AgentKind.DDPG, AgentKind.TD3, AgentKind.OPT_ORACLE, AgentKind.OPT_BASE)


@dataclass(frozen=True)
class SweepSpec:
    base: ExperimentConfig
    n_r_values: tuple = DEFAULT_N_R
    zeta_values: tuple = DEFAULT_ZETAS
    agent_kinds: tuple = DEFAULT_AGENTS

    def __post_init__(self):
        if not self.n_r_values or not self.zeta_values or not self.agent_kinds:
            raise ValueError("sweep lists must be nonempty")
        # each entry goes through the EnvConfig rules its cells will meet,
        # so that a bad entry fails before any cell runs
        for name, key in (("n_r_values", "n_r"), ("zeta_values", "zeta")):
            for value in getattr(self, name):
                try:
                    self.base.with_env(**{key: value})
                except ValueError as exc:
                    raise ValueError(
                        f"{name} must be valid env.{key} values, got {value!r}: {exc}"
                    ) from exc
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        kinds = tuple(as_agent_kind(k, "agent_kinds") for k in self.agent_kinds)
        object.__setattr__(self, "agent_kinds", kinds)
        check_cell_stubs((k.value, n, z) for k in kinds for n in self.n_r_values for z in self.zeta_values)


@dataclass
class SweepRow:
    """One evaluated cell; curve is None for the solver baselines, and
    seconds is run_cell's wall time in run_sweep."""

    n_r: float
    zeta: float
    agent_kind: AgentKind
    seed: int
    report: EvalReport
    curve: np.ndarray = None
    seconds: float = None


def cell_seed(base_seed, n_r, zeta_index, agent_kind):
    """Stable per-cell seed; depends on the zeta position, not its float repr."""
    return derive_seed(base_seed, "cell", n_r, zeta_index, AgentKind(agent_kind).value)


def run_cell(series, spec, n_r, zeta_index, agent_kind):
    zeta = spec.zeta_values[zeta_index]
    seed = cell_seed(spec.base.seed, n_r, zeta_index, agent_kind)
    cfg = replace(
        spec.base,
        env=replace(spec.base.env, n_r=n_r, zeta=zeta),
        agent_kind=agent_kind,
        seed=seed,
    )
    curve = None
    if agent_kind in TRAINABLE:
        agent, result = train(agent_kind, series, cfg)
        curve = result.curve
    else:
        agent = agent_kind
    report = evaluate(agent, series, cfg)
    return SweepRow(n_r=n_r, zeta=zeta, agent_kind=agent_kind, seed=seed, report=report, curve=curve)


def run_sweep(spec, series, progress=None):
    """Evaluate every (n_r, zeta, agent) cell; returns the row table.

    progress, if given, is called with (done, total, row) after each cell.
    """
    rows = []
    total = len(spec.n_r_values) * len(spec.zeta_values) * len(spec.agent_kinds)
    for n_r in spec.n_r_values:
        for zeta_index in range(len(spec.zeta_values)):
            for kind in spec.agent_kinds:
                started = time.perf_counter()
                row = run_cell(series, spec, n_r, zeta_index, kind)
                row.seconds = time.perf_counter() - started
                rows.append(row)
                if progress is not None:
                    progress(len(rows), total, row)
    return rows
