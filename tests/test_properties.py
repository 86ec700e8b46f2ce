"""Property tests: the array solver, the flat parameter vector, Adam,
agent checkpoints.

Each property runs on inputs hypothesis draws, with a fixed derandomized
search so that a run is reproducible.
"""

import os
import struct
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adapshare import nn
from adapshare.agents import AgentConfig, load_agent, make_agent, save_agent
from adapshare.domain import AgentKind, EnvConfig, ExperimentConfig
from adapshare.env import FEASIBILITY_SLACK
from adapshare.oracle import grid_solve, solve_opt, solve_opt_array

SETTINGS = settings(deadline=None, derandomize=True, max_examples=150)

D_MIN = 0.1
zetas = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
pools = st.one_of(st.sampled_from([20.0, 60.0, 100.0]), st.floats(0.5, 200.0))
# plain demands, demands at or below the d_min floor, and exact zeros
demands = st.one_of(
    st.floats(0.0, 150.0),
    st.floats(0.0, D_MIN),
    st.sampled_from([0.0, D_MIN, 5.0]),
)


def _bits(x):
    return struct.pack("<d", float(x))


@SETTINGS
@given(st.lists(st.tuples(demands, demands), min_size=1, max_size=30), zetas, pools)
def test_array_solver_matches_scalar_bits(pairs, zeta, n_r):
    d_a, d_b = (np.array(col) for col in zip(*pairs))
    n_a, n_b = solve_opt_array(d_a, d_b, zeta, n_r, D_MIN)
    for i, pair in enumerate(pairs):
        sol = solve_opt(pair, zeta, n_r, D_MIN)
        assert _bits(n_a[i]) == _bits(sol.allocation.n_a)
        assert _bits(n_b[i]) == _bits(sol.allocation.n_b)


@SETTINGS
@given(st.lists(st.tuples(demands, demands), min_size=1, max_size=4), zetas, pools)
def test_array_solver_feasible_and_never_worse_than_grid(pairs, zeta, n_r):
    d_a, d_b = (np.array(col) for col in zip(*pairs))
    n_a, n_b = solve_opt_array(d_a, d_b, zeta, n_r, D_MIN)
    assert np.all(n_a >= 0.0) and np.all(n_b >= 0.0)
    assert np.all(n_a + n_b <= n_r + FEASIBILITY_SLACK)
    for i, pair in enumerate(pairs):
        closed = solve_opt(pair, zeta, n_r, D_MIN).j_value
        grid = grid_solve(pair, zeta, n_r, D_MIN).j_value
        assert closed <= grid + 1e-9 * max(1.0, grid)


layer_dims = st.lists(st.integers(1, 6), min_size=2, max_size=4)


def _net(dims, seed):
    acts = ["relu"] * (len(dims) - 2) + ["identity"]
    return nn.Mlp(dims, acts, rng=np.random.default_rng(seed))


def _grads(net, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 1.0, p.shape) for p in net.params()]


@SETTINGS
@given(layer_dims, st.integers(0, 2**16), st.integers(1, 6), st.floats(1e-4, 0.5))
def test_adam_on_flat_vector_matches_per_array(dims, seed, steps, lr):
    per_array = _net(dims, seed)
    flat = per_array.clone()
    state_a = nn.AdamState(per_array.params(), lr)
    state_f = nn.AdamState([flat.flat], lr)
    for k in range(steps):
        grads = _grads(per_array, seed + k)
        nn.adam_step(state_a, per_array.params(), grads)
        nn.adam_step(state_f, [flat.flat], [np.concatenate([g.ravel() for g in grads])])
    assert flat.flat.tobytes() == per_array.flat.tobytes()


def _views_of_flat(net):
    params = net.params()
    if sum(p.size for p in params) != net.flat.size:
        return False
    marker = np.arange(net.flat.size, dtype=float)
    net.flat[:] = marker
    return np.array_equal(np.concatenate([p.ravel() for p in params]), marker)


@SETTINGS
@given(layer_dims, st.integers(0, 2**16))
def test_weights_stay_views_after_clone_and_load(dims, seed):
    net = _net(dims, seed)
    dup = net.clone()
    loaded = nn.mlp_from_dict(nn.mlp_to_dict(net))
    assert dup.flat.tobytes() == net.flat.tobytes() == loaded.flat.tobytes()
    assert not np.shares_memory(dup.flat, net.flat)
    for copy in (net, dup, loaded):
        assert copy.flat.flags.c_contiguous and copy.flat.dtype == np.float64
        assert _views_of_flat(copy)


def test_loaded_agent_networks_are_flat_views():
    agent = make_agent(AgentKind.TD3, obs_dim=10, seed=5)
    experiment = ExperimentConfig(env=EnvConfig(n_r=60.0), seed=5, train_steps=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "agent.json")
        save_agent(agent, experiment, path)
        loaded, _ = load_agent(path)
    nets = [loaded.actor, loaded.target_actor, loaded.critic, loaded.target_critic]
    assert loaded.actor_opt.first_moment[0].shape == loaded.actor.flat.shape
    for net in nets:
        assert _views_of_flat(net)


NETS = ("actor", "critic", "target_actor", "target_critic")


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    st.sampled_from([AgentKind.DDPG, AgentKind.TD3]),
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
    st.integers(0, 3),
    st.integers(0, 2**16),
    st.floats(0.0, 1.0),
)
def test_checkpoint_round_trips_exactly(kind, hidden, window_n, seed, sigma):
    experiment = ExperimentConfig(
        env=EnvConfig(n_r=20.0, window_n=window_n),
        agent_kind=kind,
        agent=AgentConfig(hidden_dims=hidden),
        seed=seed,
        train_steps=0,
    )
    agent = make_agent(kind, obs_dim=2 * (window_n + 1), config=experiment.agent, seed=seed)
    agent.explore_sigma = sigma
    # targets that differ from their online networks, as after training
    rng = np.random.default_rng(seed)
    for name in ("target_actor", "target_critic"):
        getattr(agent, name).flat[:] = rng.normal(size=getattr(agent, name).flat.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "agent.json")
        save_agent(agent, experiment, path)
        loaded, got = load_agent(path)
    assert got == experiment
    assert loaded.kind == kind and loaded.explore_sigma == sigma
    for name in NETS:
        assert getattr(loaded, name).dims == getattr(agent, name).dims
        assert getattr(loaded, name).flat.tobytes() == getattr(agent, name).flat.tobytes()
