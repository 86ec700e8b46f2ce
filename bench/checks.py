"""Output checks. Each returns a list of failure messages; empty means
the output is correct. Kept free of timing so tests can feed them
tampered outputs."""

import hashlib
import json
import math

import numpy as np

from adapshare import env as env_mod
from adapshare.env import Observation

FEASIBILITY_SLACK = 1e-9


def allocations(allocs, rewards, n_r):
    """Training output: grants finite, nonnegative and within the pool;
    rewards finite and never positive."""
    grants = np.array([[a.n_a, a.n_b] for a in allocs], dtype=float)
    problems = []
    if not np.isfinite(grants).all():
        problems.append("non-finite allocation")
    elif (grants < 0).any() or (grants.sum(axis=1) > n_r + FEASIBILITY_SLACK).any():
        problems.append("allocation outside the feasible pool")
    rewards = np.asarray(rewards, dtype=float)
    if not np.isfinite(rewards).all() or (rewards > 0).any():
        problems.append("reward not finite or above zero")
    return problems


def sweep_table(table):
    """Every cell's mean J is finite, and the exact allocator never loses
    to the pinned baseline in a cell."""
    mean_j = {(row.n_r, row.zeta, row.agent_kind.value): row.report.mean_j for row in table}
    problems = [f"cell n_r={n_r:g} zeta={zeta:g} {kind}: mean J {value!r}"
                for (n_r, zeta, kind), value in mean_j.items() if not math.isfinite(value)]
    for (n_r, zeta, kind), value in mean_j.items():
        if kind != "opt_oracle":
            continue
        base = mean_j.get((n_r, zeta, "opt_base"))
        if base is None or not value <= base:
            problems.append(f"cell n_r={n_r:g} zeta={zeta:g}: oracle J {value!r} vs base {base!r}")
    return problems


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_reply(agent, experiment, line):
    """The allocation the service must return for a request line, from
    the library calls the service is built on; None for a line it must
    reject."""
    try:
        payload = json.loads(line)
        history = np.asarray(payload["demand_history"], dtype=float)
        n_r = float(payload["n_r"])
        zeta = float(payload["zeta"])
    except (ValueError, TypeError, KeyError):
        return None
    env = experiment.env
    if (
        history.ndim != 2
        or history.shape[0] < env.window_n + 1
        or history.shape[1] != 2
        or not np.isfinite(history).all()
        or (history < 0).any()
        or not math.isfinite(n_r)
        or n_r <= 0
        or not 0.0 <= zeta <= 1.0
    ):
        return None
    pairs = history[: env.window_n + 1]
    raw = agent.act(Observation(pairs=pairs / env.capacity_norm), explore=False)
    alloc = env_mod.project_action(raw, n_r)
    current = (float(pairs[0, 0]), float(pairs[0, 1]))
    j = env_mod.objective_j(alloc, current, zeta, env.d_min)
    return {"n_a": alloc.n_a, "n_b": alloc.n_b, "j_estimate": j}


def reply(expected, raw_reply):
    """A reply line matches exactly, or is an error object where the
    request was malformed. Returns True when correct."""
    if raw_reply is None:
        return False
    try:
        got = json.loads(raw_reply)
    except ValueError:
        return False
    if not isinstance(got, dict):
        return False
    if expected is None:
        return set(got) == {"error"}
    return got == expected


def series_equal(series, timestamps, d_a, d_b):
    """Exact equality of a demand series with reference columns."""
    return (
        len(series) == len(timestamps)
        and np.array_equal(series.timestamps, timestamps)
        and np.array_equal(series.d_a, d_a)
        and np.array_equal(series.d_b, d_b)
    )
