"""Property tests: the array solver and its distance from the exact
optimum, the flat parameter vector, Adam, agent checkpoints, the
training step's bit-for-bit rewrites (sigmoid, backward, up-front
draws), action projection, Jain fairness, the config-file and series-CSV
round trips, the detail CSV's text, and the refusal of a malformed row
in every CSV the package reads.

Each property runs on inputs hypothesis draws, with a fixed derandomized
search so that a run is reproducible; the exact-optimum bounds run on
samples a seeded numpy Generator draws.
"""

import dataclasses
import math
import os
import struct
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapshare import nn
from adapshare.agents import AgentConfig, load_agent, make_agent, save_agent, train
from adapshare.domain import (
    AgentKind,
    Allocation,
    DemandSeries,
    EnvConfig,
    ExperimentConfig,
    SERIES_HEADER,
    clamp_demand,
    read_series_csv,
    write_series_csv,
)
from adapshare.env import objective_j, project_action
from adapshare.harness.config import COERCERS, SWEEP_KEYS, build_experiment, parse_config_file
from adapshare.harness.results import (
    CURVE_HEADER,
    DETAIL_HEADER,
    SWEEP_HEADER,
    emit_results,
    read_sweep_csv,
    replot,
    write_detail_csv,
)
from adapshare.ingest import DCI_HEADER, parse_dci_csv
from adapshare.harness.sweep import SweepRow
from adapshare.metrics import EvalReport, build_report
from adapshare.oracle import solve_opt, solve_opt_array
from conftest import grants
from oracle_reference import exact_j, exact_solve, grid_solve

SETTINGS = settings(deadline=None, derandomize=True, max_examples=150)

D_MIN = 0.1
# float rounding a grant pair may add over its pool
FEASIBILITY_SLACK = 1e-9
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


# 1e-300 to 1e300, spread evenly over the exponents
magnitudes = st.tuples(st.floats(1.0, 9.99), st.integers(-300, 299)).map(lambda p: p[0] * 10.0 ** p[1])


@SETTINGS
@given(st.lists(st.tuples(magnitudes, magnitudes), min_size=1, max_size=8), zetas, magnitudes,
       st.one_of(st.just(D_MIN), magnitudes))
def test_array_solver_grants_stay_in_the_pool_at_any_magnitude(pairs, zeta, n_r, d_min):
    d_a, d_b = (np.array(col) for col in zip(*pairs))
    n_a, n_b = solve_opt_array(d_a, d_b, zeta, n_r, d_min)
    assert np.all(np.isfinite(n_a)) and np.all(np.isfinite(n_b))
    assert np.all(n_a >= 0.0) and np.all(n_b >= 0.0)
    assert np.all(n_a + n_b <= n_r * (1.0 + FEASIBILITY_SLACK))
    for i, pair in enumerate(pairs):
        sol = solve_opt(pair, zeta, n_r, d_min)
        assert (_bits(n_a[i]), _bits(n_b[i])) == (_bits(sol.allocation.n_a), _bits(sol.allocation.n_b))


@settings(deadline=None, derandomize=True, max_examples=400)
@given(magnitudes, magnitudes, zetas, magnitudes, st.one_of(st.just(D_MIN), magnitudes))
def test_oracle_grant_no_worse_than_serving_one_network_first_at_any_magnitude(d_a, d_b, zeta, n_r, d_min):
    # the oracle once starved a network whose grant the rounding of n_r - x*,
    # or terms of x* below the normal range, took away, and its J then
    # exceeded that of one of the grants below. Rounding may put it above
    # them by 1e-9 of their J, or by 1e-12 where J is about 0.
    sol = solve_opt((d_a, d_b), zeta, n_r, d_min)
    assert 0.0 <= sol.j_value <= 1.0 + 1e-12
    a, b = clamp_demand(d_a, d_min), clamp_demand(d_b, d_min)
    for grant in ((min(a, n_r), n_r - min(a, n_r)), (n_r - min(b, n_r), min(b, n_r))):
        j = objective_j(Allocation(*grant), (d_a, d_b), zeta, d_min)
        # at zeta 0 or 1, an overflowing term of the unweighted network makes J NaN
        assert sol.j_value <= j * (1.0 + 1e-9) + 1e-12 or math.isnan(j)


def _ordinary_binding_rows():
    # the paper's pools, zeta 0.1-0.9, demands U[0.1, 2 n_r]; binding rows only
    rng = np.random.default_rng(14)
    rows = []
    for n_r in (20.0, 60.0, 100.0):
        for zeta in rng.uniform(0.1, 0.9, 20):
            d = rng.uniform(0.1, 2.0 * n_r, (58, 2))
            rows += [(a, b, float(zeta), n_r) for a, b in d[d.sum(axis=1) > n_r].tolist()]
    return rows


def _extreme_binding_rows():
    # pools 2^-300 to 2^300, one demand below 2^-20 n_r and the other near
    # or above the pool: rows where x* is not trusted
    rng = np.random.default_rng(15)
    rows = []
    while len(rows) < 1000:
        n_r = float(rng.uniform(1.0, 2.0)) * 2.0 ** int(rng.integers(-300, 301))
        small = n_r * 2.0 ** -20 * 2.0 ** -float(rng.uniform(0.0, 30.0))
        large = n_r * float(rng.uniform(0.999999, 2.0))
        zeta = float(rng.uniform(0.1, 0.9))
        if small + large > n_r:
            rows.append((small, large, zeta, n_r) if rng.integers(2) else (large, small, zeta, n_r))
    return rows


def _ulps(grant, exact):
    return float(abs(Fraction(grant) - exact) / Fraction(math.ulp(float(exact))))


# (rows, d_min, bound on |J - J*| / J*, bound on a grant's error in ulps of
# the exact grant): each bound is the worst row of these derandomized
# samples under the oracle as it is, rounded up; they bound the code, and
# do not move with it
EXACT_REFERENCE_BOUNDS = {
    "ordinary": (_ordinary_binding_rows, 0.1, 2e-14, 320.0),
    "extreme": (_extreme_binding_rows, 2.0 ** -1000, 3.6e-13, 0.5),
}


@pytest.mark.parametrize("rows", sorted(EXACT_REFERENCE_BOUNDS))
def test_oracle_grant_close_to_the_exact_optimum(rows):
    make_rows, d_min, j_bound, ulp_bound = EXACT_REFERENCE_BOUNDS[rows]
    worst_j = worst_ulps = 0.0
    for a, b, zeta, n_r in make_rows():
        n_a, n_b = solve_opt_array(np.array([a]), np.array([b]), zeta, n_r, d_min)
        exact_a, exact_b, exact = exact_solve(a, b, zeta, n_r)
        j_err = float(abs(exact_j(n_a[0], n_b[0], a, b, zeta) - exact) / exact)
        ulps = max(_ulps(n_a[0], exact_a), _ulps(n_b[0], exact_b))
        assert j_err <= j_bound and ulps <= ulp_bound, (a, b, zeta, n_r, j_err, ulps)
        worst_j, worst_ulps = max(worst_j, j_err), max(worst_ulps, ulps)
    # the sample reaches near its bounds, so it still tests what they bound
    assert worst_j > j_bound / 4 and worst_ulps > ulp_bound / 4


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
    # adam_step on the one flat vector against Adam written out here for
    # each layer's arrays, with nn.adam_step's ops in its order
    per_array = _net(dims, seed)
    flat = per_array.clone()
    state_f = nn.AdamState([flat.flat], lr)
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in per_array.params()]
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    for t in range(1, steps + 1):
        grads = _grads(per_array, seed + t - 1)
        for p, g, (m, v) in zip(per_array.params(), grads, moments):
            m[...] = m * b1 + (1.0 - b1) * g
            v[...] = v * b2 + (1.0 - b2) * g * g
            p -= m / (1.0 - b1 ** t) * lr / (np.sqrt(v / (1.0 - b2 ** t)) + nn.ADAM_EPS)
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
    loaded = _net(dims, seed + 1)
    nn.load_params(loaded, nn.mlp_to_dict(net))
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
    assert loaded.actor_opt.first_moment.shape == loaded.actor.flat.shape
    for net in nets:
        assert _views_of_flat(net)




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
    # networks that differ from make_agent's, as after training
    rng = np.random.default_rng(seed)
    for net in (agent.actor, agent.critic):
        net.flat[:] = rng.normal(size=net.flat.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "agent.json")
        save_agent(agent, experiment, path)
        loaded, got = load_agent(path)
    assert got == experiment
    assert loaded.kind == kind and loaded.explore_sigma == sigma
    for name in ("actor", "critic"):
        assert getattr(loaded, name).dims == getattr(agent, name).dims
        assert getattr(loaded, name).flat.tobytes() == getattr(agent, name).flat.tobytes()


# ---------------------------------------------------------------- training step, bit for bit


def _two_branch_sigmoid(z):
    # the masked form nn._sigmoid replaced
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, np.inf, -np.inf]


@SETTINGS
@given(st.lists(st.floats(allow_nan=False), max_size=40))
def test_sigmoid_matches_two_branch_bits(values):
    z = np.array(SIGMOID_EDGES + values)
    assert nn._sigmoid(z).tobytes() == _two_branch_sigmoid(z).tobytes()


# each activation's derivative as it was computed from the pre-activation
_DERIVATIVE_OF_PRE = {
    "relu": lambda z: (z > 0).astype(float),
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
    "sigmoid": lambda z: _two_branch_sigmoid(z) * (1.0 - _two_branch_sigmoid(z)),
    "identity": np.ones_like,
}


def _full_backward_from_pre(net, cache, up):
    pre, post = cache
    grad_w, grad_b, d = [None] * len(net.weights), [None] * len(net.weights), up
    for layer in range(len(net.weights) - 1, -1, -1):
        dz = d * _DERIVATIVE_OF_PRE[net.activations[layer]](pre[layer])
        grad_w[layer] = dz.T @ post[layer]
        grad_b[layer] = dz.sum(axis=0)
        d = dz @ net.weights[layer]
    return grad_w, grad_b, d


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(
    layer_dims,
    st.lists(st.sampled_from(list(nn.ACTIVATIONS)), min_size=3, max_size=3),
    st.integers(1, 9),
    st.integers(0, 2**16),
)
def test_backward_skips_keep_the_bits_of_the_full_pass(dims, acts, rows, seed):
    rng = np.random.default_rng(seed)
    net = nn.Mlp(dims, acts[: len(dims) - 1], rng=rng)
    x = rng.normal(0.0, 2.0, (rows, dims[0]))
    up = rng.normal(0.0, 1.0, (rows, dims[-1]))
    _, cache = nn.forward_cache(net, x)
    full, full_x = nn.backward(net, cache, up)
    full_w, full_b = nn.layer_views(net.dims, full)
    ref_w, ref_b, ref_x = _full_backward_from_pre(net, cache, up)
    assert all(_same(a, b) for a, b in zip(full_w + full_b, ref_w + ref_b))
    assert _same(full_x, ref_x)
    only_x = nn.backward(net, cache, up, params=False)
    assert only_x[0] is None and _same(only_x[1], full_x)
    no_x = nn.backward(net, cache, up, inputs=False)
    assert no_x[1] is None and _same(no_x[0], full)


@SETTINGS
@given(st.integers(0, 2**32), st.integers(0, 50), st.integers(1, 10**6), st.integers(0, 300))
def test_integer_draws_up_front_match_scalar_draws(seed, lo, span, n):
    whole = np.random.default_rng(seed).integers(lo, lo + span, n)
    scalar = np.random.default_rng(seed)
    assert whole.tolist() == [int(scalar.integers(lo, lo + span)) for _ in range(n)]


@SETTINGS
@given(st.integers(0, 2**32), st.floats(0.0, 5.0), st.floats(0.5, 1.0), st.integers(0, 300))
def test_noise_drawn_up_front_matches_per_step_normals(seed, sigma0, decay, n):
    # row i of one (n, 2) draw, scaled by the running sigma, has the bits
    # of the i-th per-step normal(0, sigma_i, 2) draw, which numpy forms as
    # 0.0 + sigma_i * z; that sum only turns a -0.0 into +0.0, and adding
    # either zero to an actor output in [0, 1] gives the same action
    whole = np.random.default_rng(seed).standard_normal((n, 2))
    per_step = np.random.default_rng(seed)
    sigma = sigma0
    for i in range(n):
        assert _same(0.0 + whole[i] * sigma, per_step.normal(0.0, sigma, 2))
        sigma *= decay


@settings(deadline=None, derandomize=True, max_examples=25)
@given(st.floats(0.0, 2.0), st.floats(0.9, 1.0), st.integers(0, 60), st.integers(0, 2**16))
def test_train_final_sigma_is_the_per_step_product(sigma0, decay, steps, seed):
    t = np.arange(12)
    series = DemandSeries(t * 3600, np.full(12, 5.0), np.full(12, 4.0), 3600)
    cfg = ExperimentConfig(
        env=EnvConfig(n_r=20.0, window_n=1),
        seed=seed,
        train_steps=steps,
        agent=AgentConfig(hidden_dims=(2,), explore_sigma=sigma0, sigma_decay=decay,
                          warmup_steps=steps),
    )
    agent, _ = train(AgentKind.DDPG, series, cfg)
    sigma = sigma0
    for _ in range(steps):
        sigma *= decay
    assert _bits(agent.explore_sigma) == _bits(sigma)


# ---------------------------------------------------------------- projection and fairness

unit = st.floats(0.0, 1.0)


@SETTINGS
@given(unit, unit, pools)
def test_projection_feasible_and_keeps_the_ratio_it_rescales(u_a, u_b, n_r):
    alloc = project_action((u_a, u_b), n_r)
    assert alloc.n_a >= 0.0 and alloc.n_b >= 0.0
    assert alloc.n_a + alloc.n_b <= n_r + FEASIBILITY_SLACK
    if u_a * n_r + u_b * n_r > n_r:
        # rescaled radially: n_a : n_b == u_a : u_b
        assert alloc.n_a * u_b == pytest.approx(alloc.n_b * u_a, rel=1e-12, abs=1e-300)
    else:
        assert (alloc.n_a, alloc.n_b) == (u_a * n_r, u_b * n_r)


# plain grants, grants whose squares underflow or overflow, and exact zeros
grant_values = st.one_of(
    st.floats(0.0, 1e6),
    st.floats(1e-300, 1e-150),
    st.floats(1e150, 1e300),
    st.sampled_from([1e-200, 5e-324, 1e200, 1.7e308]),
    st.just(0.0),
)


@SETTINGS
@given(st.lists(st.tuples(grant_values, grant_values), min_size=1, max_size=30))
def test_jain_fairness_lies_between_half_and_one(pairs):
    # the grants double as demands, so that J stays finite at any scale
    report = build_report(grants(pairs), pairs, 0.5)
    assert 0.5 <= report.fairness <= 1.0
    assert report.zero_alloc_steps == sum(a == b == 0.0 for a, b in pairs)
    if all(a == b == 0.0 for a, b in pairs):
        assert report.fairness == 1.0


# ---------------------------------------------------------------- file round trips


def _positive(upper):
    return st.floats(0.0, upper, exclude_min=True)


@st.composite
def experiment_configs(draw):
    capacity_norm = draw(_positive(1e6))
    env = EnvConfig(
        n_r=draw(st.floats(0.0, capacity_norm, exclude_min=True)),
        zeta=draw(st.floats(0.0, 1.0)),
        eta=draw(st.floats(0.0, 1e6)),
        window_n=draw(st.integers(0, 48)),
        d_min=draw(_positive(1e3)),
        capacity_norm=capacity_norm,
    )
    agent = AgentConfig(
        actor_lr=draw(_positive(1.0)),
        critic_lr=draw(_positive(1.0)),
        batch_size=draw(st.integers(1, 1024)),
        buffer_capacity=draw(st.integers(1, 10**6)),
        explore_sigma=draw(st.floats(0.0, 10.0)),
        sigma_decay=draw(_positive(1.0)),
        td3_policy_delay=draw(st.integers(1, 8)),
        warmup_steps=draw(st.integers(0, 10**5)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 512), min_size=1, max_size=4))),
    )
    return ExperimentConfig(
        env=env,
        agent_kind=draw(st.sampled_from(list(AgentKind))),
        agent=agent,
        seed=draw(st.integers(0, 2**63)),
        train_steps=draw(st.integers(0, 10**7)),
        eval_split=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )


def _config_text(value):
    if isinstance(value, AgentKind):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return repr(value)


@SETTINGS
@given(experiment_configs())
def test_config_file_round_trip(cfg):
    sections = {"": cfg, "env": cfg.env, "agent": cfg.agent}
    lines = []
    for key in COERCERS:
        if key not in SWEEP_KEYS:
            section, _, name = key.rpartition(".")
            lines.append(f"{key} = {_config_text(getattr(sections[section], name))}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        back = build_experiment(parse_config_file(path))
    assert back == cfg
    for obj in (back, back.env, back.agent):
        for field in dataclasses.fields(obj):
            if field.type in (int, "int"):
                assert type(getattr(obj, field.name)) is int, field.name


# exact zeros, subnormals, plain demands and demands near 1e300
series_demands = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, 1e4),
    st.floats(1e299, 1e301),
)


@SETTINGS
@given(
    st.integers(-(2**40), 2**40),
    st.integers(1, 86_400 * 7),
    st.lists(st.tuples(series_demands, series_demands), min_size=2, max_size=30),
)
def test_series_csv_round_trip_is_bit_exact(start, granularity, pairs):
    d_a, d_b = (np.array(col) for col in zip(*pairs))
    series = DemandSeries(start + granularity * np.arange(len(pairs)), d_a, d_b, granularity)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        write_series_csv(series, path)
        back = read_series_csv(path)
    assert back.granularity == granularity
    for name in ("timestamps", "d_a", "d_b"):
        assert _same(getattr(back, name), getattr(series, name)), name


# ---------------------------------------------------------------- detail CSV text

# signed zeros, subnormals, values near 1e300, plain values, NaN and inf
detail_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e299, 1e301),
    st.floats(),
)


@st.composite
def detail_columns(draw, n):
    """A column of n floats: varying, all one value, or one value with its
    sign flipped on some rows (so 0.0 and -0.0 mixed)."""
    kind = draw(st.sampled_from(["varying", "constant", "signs"]))
    if kind == "varying":
        return draw(st.lists(detail_floats, min_size=n, max_size=n))
    value = draw(detail_floats)
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if kind == "signs" else [False] * n
    return [-value if flip else value for flip in flips]


@st.composite
def grants_like(draw, demand):
    """A grant column equal to its demand on some rows, the demand with
    its sign flipped (so -0.0 against 0.0) on others, else anything."""
    other = draw(detail_columns(len(demand)))
    picks = draw(st.lists(st.sampled_from("dso"), min_size=len(demand), max_size=len(demand)))
    return [d if k == "d" else -d if k == "s" else o for d, o, k in zip(demand, other, picks)]


@st.composite
def detail_cells(draw, split):
    """A per_step matrix over the split (t, d_a, d_b)."""
    t, d_a, d_b = split
    n_a, n_b = draw(grants_like(d_a)), draw(grants_like(d_b))
    j = draw(detail_columns(len(t)))
    return np.array([t, n_a, n_b, d_a, d_b, j], dtype=float).T


@st.composite
def splits(draw, n=None):
    n = draw(st.integers(1, 12)) if n is None else n
    return tuple(draw(detail_columns(n)) for _ in range(3))


def _report(per_step):
    return EvalReport(s_a=0.0, s_b=0.0, fairness=1.0, mean_j=0.0, zero_alloc_steps=0, per_step=per_step)


def _per_row_text(per_step):
    """The detail CSV as a per-row repr formatter writes it."""
    rows = ["%r,%r,%r,%r,%r,%r" % tuple(row) for row in per_step.tolist()]
    return ("\n".join([DETAIL_HEADER, *rows]) + "\n").encode()


@SETTINGS
@given(splits().flatmap(detail_cells))
def test_detail_csv_is_the_per_row_repr_text(per_step):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "detail.csv")
        write_detail_csv(_report(per_step), path)
        with open(path, "rb") as fh:
            assert fh.read() == _per_row_text(per_step)


@st.composite
def two_split_tables(draw):
    """Cells over two splits of one length; each of the second split's
    columns is the first's, the first's with signs flipped, or new."""
    first = draw(splits())
    n = len(first[0])
    second = tuple(
        draw(st.sampled_from([col, [-v for v in col], draw(detail_columns(n))])) for col in first
    )
    return [draw(detail_cells(split)) for split in (first, first, second, second)]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(two_split_tables())
def test_emit_results_detail_files_are_the_per_row_repr_text(matrices):
    table = [
        SweepRow(n_r=20.0, zeta=zeta, agent_kind=AgentKind.OPT_ORACLE, seed=0, report=_report(m))
        for zeta, m in zip((0.2, 0.4, 0.6, 0.8), matrices)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        emit_results(table, tmp)
        for zeta, per_step in zip((0.2, 0.4, 0.6, 0.8), matrices):
            with open(os.path.join(tmp, f"detail_opt_oracle_nr20_z{zeta}.csv"), "rb") as fh:
                assert fh.read() == _per_row_text(per_step), zeta


# ---------------------------------------------------------------- malformed rows


def _replot_curve(path):
    """Replot the directory of a curve_td3_nr20_z0.5.csv, whose sweep.csv
    names that one cell."""
    out_dir = os.path.dirname(path)
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"{SWEEP_HEADER}\n0.5,20.0,td3,0.1,0.2,0.9,0.3\n")
    replot(out_dir)


# name -> (file name, header, valid row i, numeric column indices, reader)
ROW_FORMATS = {
    "series": ("series.csv", SERIES_HEADER, lambda i: f"{3600 * i},{0.5 * i!r},1.25",
               (0, 1, 2), read_series_csv),
    "dci": ("dci.csv", DCI_HEADER, lambda i: f"{i % 1024},{i % 10},17,{i},3,2B,{1000 * i}",
            (0, 1, 2, 3, 4, 6), parse_dci_csv),
    "sweep": ("sweep.csv", SWEEP_HEADER, lambda i: f"{i / 10!r},20.0,td3,0.1,-0.2,0.9,0.3",
              (0, 1, 3, 4, 5, 6), read_sweep_csv),
    "curve": ("curve_td3_nr20_z0.5.csv", CURVE_HEADER, lambda i: f"{i},{-0.5 * i!r}",
              (0, 1), _replot_curve),
}
# texts no numeric column of any format accepts
BAD_CELLS = ("", "x", "nan", "inf", "-inf", "1e999", "0x1f", "1.5.2")


@SETTINGS
@given(st.sampled_from(sorted(ROW_FORMATS)), st.integers(1, 12), st.data())
def test_a_malformed_row_is_refused_naming_its_line(name, n, data):
    """One numeric cell of one data row is replaced by a bad text, or the
    row loses or gains a cell; blank rows may sit anywhere in the body.
    Reading the file raises a ValueError that starts with path:line."""
    file_name, header, make_row, numeric, read = ROW_FORMATS[name]
    rows = [make_row(i) for i in range(n)]
    bad = data.draw(st.integers(0, n - 1), label="bad row")
    cells = rows[bad].split(",")
    how = data.draw(st.sampled_from(["cell", "short", "long"]), label="how")
    if how == "cell":
        cells[data.draw(st.sampled_from(numeric))] = data.draw(st.sampled_from(BAD_CELLS))
    elif how == "short":
        cells.pop()
    else:
        cells.append("1")
    rows[bad] = ",".join(cells)
    lines = [header] + rows
    blanks = data.draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from(["", " ", "\t "])),
                                max_size=4), label="blank rows")
    for pos, blank in sorted(blanks, reverse=True):
        lines.insert(1 + pos, blank)
    line = lines.index(rows[bad]) + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, file_name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read(path)
    assert str(info.value).startswith(f"{path}:{line}: "), str(info.value)
