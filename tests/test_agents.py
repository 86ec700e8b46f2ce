"""Replay buffer, update math, training loop, policies, checkpoints."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapshare import agents as agents_mod
from adapshare import nn
from adapshare.agents import (
    AgentConfig,
    ConfigError,
    DdpgAgent,
    InsufficientData,
    ReplayBuffer,
    Td3Agent,
    eval_timesteps,
    greedy_policy,
    load_agent,
    make_agent,
    save_agent,
    train,
    train_split_end,
)
from adapshare.domain import AgentKind, Allocation, DemandSeries, EnvConfig, ExperimentConfig
from adapshare.env import Observation, observe, project_action, step
from adapshare.metrics import build_report, moving_average
from adapshare.oracle import solve_opt
from adapshare.seeding import rng_for


def obs_of(*pairs):
    return Observation(np.array(pairs, dtype=float))


def add(buf, reward=-0.5, u=(0.3, 0.4), pairs=((0.1, 0.2), (0.3, 0.4))):
    buf.add(obs_of(*pairs).vector(), tuple(u), reward)


def batch_of(n, reward=-0.5, u=(0.3, 0.4), pairs=((0.1, 0.2), (0.3, 0.4))):
    """([obs | u_a u_b] rows, rewards) holding n copies of one interaction,
    the form ReplayBuffer.sample returns and update takes."""
    row = np.concatenate([obs_of(*pairs).vector(), u])
    return np.tile(row, (n, 1)), np.full(n, reward)


def params_snapshot(net):
    return [p.copy() for p in net.params()]


def params_equal(net, snapshot):
    return all(np.array_equal(p, s) for p, s in zip(net.params(), snapshot))


def critic_loss(agent, obs_act, rew):
    """Mean squared error of the critic against the reward, from nn.forward_cache."""
    q, _ = nn.forward_cache(agent.critic, obs_act)
    return float(np.mean((q[:, 0] - rew) ** 2))


def mean_q(agent, obs):
    """Mean critic value of the actor's own actions."""
    mu, _ = nn.forward_cache(agent.actor, obs)
    return float(np.mean(nn.forward_cache(agent.critic, np.concatenate([obs, mu], axis=1))[0]))


class TestAgentConfig:
    def test_defaults_valid(self):
        cfg = AgentConfig()
        assert cfg.hidden_dims == (64, 64)

    def test_hidden_dims_coerced_to_ints(self):
        cfg = AgentConfig(hidden_dims=[32.0, 16])
        assert cfg.hidden_dims == (32, 16)
        assert all(isinstance(h, int) for h in cfg.hidden_dims)

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(actor_lr=0.0)
        with pytest.raises(ValueError, match="^warmup_steps must be nonnegative"):
            AgentConfig(warmup_steps=-1)
        with pytest.raises(ValueError):
            AgentConfig(batch_size=0)
        with pytest.raises(ValueError):
            AgentConfig(explore_sigma=-0.1)
        with pytest.raises(ValueError):
            AgentConfig(sigma_decay=0.0)
        with pytest.raises(ValueError):
            AgentConfig(td3_policy_delay=0)
        with pytest.raises(ValueError):
            AgentConfig(hidden_dims=())

    @pytest.mark.parametrize(
        "field,value",
        [("actor_lr", float("nan")), ("critic_lr", float("inf")), ("explore_sigma", float("nan")),
         ("sigma_decay", float("nan")), ("actor_lr", float("-inf")), ("actor_lr", 10 ** 400)],
    )
    def test_non_finite_float_named(self, field, value):
        # a NaN rate or scale would otherwise surface only as a NaN action
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            AgentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("batch_size", 2.5), ("warmup_steps", float("nan")), ("buffer_capacity", float("inf")),
         ("td3_policy_delay", 1.5), ("warmup_steps", "3"), ("batch_size", 10 ** 400),
         ("warmup_steps", -10 ** 400)],
    )
    def test_non_integral_count_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            AgentConfig(**{field: value})

    def test_integral_float_counts_become_ints(self):
        cfg = AgentConfig(batch_size=32.0, warmup_steps=np.int64(7))
        assert (cfg.batch_size, cfg.warmup_steps) == (32, 7)
        assert isinstance(cfg.batch_size, int) and isinstance(cfg.warmup_steps, int)

    @pytest.mark.parametrize(
        "field,value,kind",
        [("batch_size", True, "an integer"), ("warmup_steps", False, "an integer"),
         ("actor_lr", True, "a finite number")],
    )
    def test_bool_field_named(self, field, value, kind):
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {value}$"):
            AgentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("actor_lr", 0.0), ("critic_lr", -1e-3), ("batch_size", 0), ("buffer_capacity", -5)],
    )
    def test_non_positive_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive, got {value}$"):
            AgentConfig(**{field: value})

    @pytest.mark.parametrize("dims", [(2.5,), (float("nan"),), (8, 0), (True,), (8, False), (8, 10 ** 400)])
    def test_bad_hidden_width_named(self, dims):
        with pytest.raises(ValueError, match="hidden_dims must be positive widths"):
            AgentConfig(hidden_dims=dims)


class TestReplayBuffer:
    def test_roundtrip(self):
        buf = ReplayBuffer(4)
        add(buf, reward=-0.25, u=(0.6, 0.1), pairs=((0.1, 0.2), (0.3, 0.4)))
        obs_act, rews = buf.sample(np.array([0]))
        np.testing.assert_array_equal(obs_act, [[0.1, 0.2, 0.3, 0.4, 0.6, 0.1]])
        np.testing.assert_array_equal(rews, [-0.25])

    def test_fifo_overwrite(self):
        buf = ReplayBuffer(3)
        for k in range(4):
            add(buf, reward=-float(k))
        assert buf.size == 3
        stored = set(buf.sample(np.arange(3))[1].tolist())
        assert stored == {-1.0, -2.0, -3.0}

    def test_sample_shapes_and_membership(self):
        buf = ReplayBuffer(8)
        for k in range(5):
            add(buf, reward=-float(k))
        obs_act, rews = buf.sample(np.random.default_rng(0).integers(0, buf.size, 4))
        assert obs_act.shape == (4, 6)
        assert rews.shape == (4,)
        assert set(rews).issubset({-0.0, -1.0, -2.0, -3.0, -4.0})

    def test_sample_underfull_rejected(self):
        buf = ReplayBuffer(8)
        with pytest.raises(InsufficientData, match="^buffer is empty$"):
            buf.sample(np.array([0]))
        add(buf)
        # an index at the fill level reads no row, though the ring has room for it
        with pytest.raises(InsufficientData, match="^buffer holds 1 rows: "):
            buf.sample(np.array([0, 1]))
        # nor does a negative one, which numpy would count back from the fill level
        add(buf)
        add(buf)
        with pytest.raises(InsufficientData, match="^buffer holds 3 rows: index -1 is negative$"):
            buf.sample(np.array([0, -1]))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)


class TestAct:
    def test_range_and_determinism_without_noise(self):
        agent = make_agent(AgentKind.TD3, obs_dim=4, seed=1)
        obs = obs_of((0.2, 0.3), (0.1, 0.4))
        a1 = agent.act(obs)
        a2 = agent.act(obs)
        assert a1 == a2
        # a pair of Python floats, not numpy scalars, so the reply JSON keeps its text
        assert len(a1) == 2 and all(type(u) is float and 0.0 <= u <= 1.0 for u in a1)

    def test_zero_sigma_explore_equals_greedy(self):
        agent = make_agent(AgentKind.DDPG, obs_dim=4, config=AgentConfig(explore_sigma=0.0), seed=1)
        obs = obs_of((0.2, 0.3), (0.1, 0.4))
        assert agent.act(obs, explore=True) == agent.act(obs, explore=False)

    def test_explore_streams_reproducible_across_agents(self):
        obs = obs_of((0.2, 0.3), (0.1, 0.4))
        a = make_agent(AgentKind.TD3, obs_dim=4, seed=9)
        b = make_agent(AgentKind.TD3, obs_dim=4, seed=9)
        seq_a = [a.act(obs, explore=True) for _ in range(5)]
        seq_b = [b.act(obs, explore=True) for _ in range(5)]
        assert seq_a == seq_b

    @pytest.mark.parametrize("mu,noise", [
        ((0.5, 0.25), (0.7, -0.3)),
        ((0.0, 1.0), (-0.0, 0.0)),
        ((-0.0, 0.0), (-0.0, -0.0)),
        ((0.5, 0.5), (float("nan"), -float("inf"))),
        ((float("nan"), 1.0), (0.0, float("inf"))),
    ], ids=["inside-and-clipped", "zeros", "negative-zero", "nan-and-inf-noise", "nan-actor"])
    def test_clip_has_np_clip_bits(self, monkeypatch, mu, noise):
        # action clips on Python floats; the bits are np.clip's, -0.0 and NaN included
        agent = make_agent(AgentKind.DDPG, obs_dim=4, seed=1)
        monkeypatch.setattr(nn, "forward", lambda net, x: np.array(mu))
        expected = np.clip(np.array(mu) + np.array(noise), 0.0, 1.0)
        assert bits(agent.action(np.zeros(4), list(noise))).tolist() == bits(expected).tolist()

    def test_explore_stays_in_unit_box(self):
        agent = make_agent(AgentKind.TD3, obs_dim=4, config=AgentConfig(explore_sigma=5.0), seed=2)
        obs = obs_of((0.2, 0.3), (0.1, 0.4))
        for _ in range(50):
            a = agent.act(obs, explore=True)
            assert all(0.0 <= u <= 1.0 for u in a)


def zero_params(net):
    for arr in net.params():
        arr[:] = 0.0


class TestCriticTargets:
    def test_gamma_zero_target_is_reward(self):
        # the critic regresses on the reward itself: whatever the target
        # networks hold, one update leaves the same critic bits, and that
        # critic sits closer to the reward than the zero one it started as
        batch = (np.zeros((2, 6)), np.array([-1.0, -2.0]))
        critics = []
        for fill in (None, 3.0):
            agent = make_agent(AgentKind.TD3, obs_dim=4, config=AgentConfig(batch_size=2), seed=0)
            zero_params(agent.critic)
            if fill is not None:
                agent.target_critic.flat[:] = fill
                agent.target_actor.flat[:] = fill
            assert critic_loss(agent, *batch) == (1.0 + 4.0) / 2
            agent.update(*batch)
            assert critic_loss(agent, *batch) < (1.0 + 4.0) / 2
            critics.append(agent.critic.flat.copy())
        assert critics[0].tobytes() == critics[1].tobytes()


class TestUpdateMath:
    def test_zero_critic_zero_reward_is_a_fixed_point(self):
        cfg = AgentConfig(batch_size=4, hidden_dims=(3,))
        agent = make_agent(AgentKind.DDPG, obs_dim=4, config=cfg, seed=0)
        zero_params(agent.critic)
        zero_params(agent.target_critic)
        actor_before = params_snapshot(agent.actor)
        batch = batch_of(4, reward=0.0)
        agent.update(*batch)
        # target == prediction == 0 everywhere, so nothing can move
        assert critic_loss(agent, *batch) == 0.0
        assert all(np.all(p == 0) for p in agent.critic.params())
        assert params_equal(agent.actor, actor_before)

    def test_actor_climbs_a_crafted_critic(self):
        # critic computes Q = -|u_a - 0.5| exactly: relu pair for |.|,
        # weights fixed, so the policy gradient must pull u_a to 0.5
        # while u_b (zero gradient) stays bit-identical
        cfg = AgentConfig(batch_size=8, hidden_dims=(2,), actor_lr=0.05)
        agent = make_agent(AgentKind.DDPG, obs_dim=2, config=cfg, seed=0)
        critic = agent.critic
        critic.weights[0][:] = [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, -1.0, 0.0]]
        critic.biases[0][:] = [-0.5, 0.5]
        critic.weights[1][:] = [[-1.0, -1.0]]
        critic.biases[1][:] = [0.0]
        actor = agent.actor
        for arr in actor.params():
            arr[:] = 0.0
        actor.biases[-1][:] = [2.0, -1.0]

        obs = np.random.default_rng(4).uniform(0.0, 1.0, (8, 2))
        first_q = mean_q(agent, obs)
        expected_u_a = 1.0 / (1.0 + np.exp(-2.0))
        assert first_q == pytest.approx(-(expected_u_a - 0.5), abs=1e-9)
        for _ in range(150):
            agent._update_actor(obs)
        mu = nn.forward(actor, obs[0])
        assert abs(mu[0] - 0.5) < 0.05
        assert mean_q(agent, obs) > first_q
        assert actor.biases[-1][1] == -1.0

    def test_update_requires_full_batch(self, constant_series):
        # no warm-up: training still waits until the buffer holds a batch
        cfg = ExperimentConfig(
            env=EnvConfig(n_r=20.0, window_n=2),
            seed=3,
            train_steps=40,
            agent=AgentConfig(batch_size=16, warmup_steps=0, hidden_dims=(8,)),
        )
        for kind in (AgentKind.DDPG, AgentKind.TD3):
            agent, _ = train(kind, constant_series, cfg)
            assert agent.update_count == 40 - 15

    def test_critic_loss_decreases_on_repeated_batch(self):
        cfg = AgentConfig(batch_size=8, hidden_dims=(16,), critic_lr=1e-2)
        agent = make_agent(AgentKind.DDPG, obs_dim=4, config=cfg, seed=3)
        rng = np.random.default_rng(6)
        obs = rng.uniform(0.0, 1.0, (8, 4))
        obs_act = np.concatenate([obs, rng.uniform(0.0, 1.0, (8, 2))], axis=1)
        rews = -rng.uniform(0.0, 1.0, 8)
        losses = []
        for _ in range(100):
            losses.append(critic_loss(agent, obs_act, rews))
            agent.update(obs_act, rews)
        assert losses[-1] < losses[0] * 0.1
        drops = sum(b <= a for a, b in zip(losses, losses[1:]))
        assert drops >= 90


class TestTd3Mechanics:
    def test_delay_gate_blocks_actor(self):
        cfg = AgentConfig(batch_size=4, td3_policy_delay=2)
        agent = make_agent(AgentKind.TD3, obs_dim=4, config=cfg, seed=0)
        agent.update(*batch_of(4))
        actor_before = params_snapshot(agent.actor)
        critic_before = params_snapshot(agent.critic)
        target_before = params_snapshot(agent.target_critic)
        agent.update(*batch_of(4))
        assert agent.update_count == 2
        assert params_equal(agent.actor, actor_before)
        assert params_equal(agent.target_critic, target_before)
        assert not params_equal(agent.critic, critic_before)

    def test_gate_open_on_multiples_of_delay(self):
        # the gate counts the critic updates made before this one
        cfg = AgentConfig(batch_size=4, td3_policy_delay=3)
        agent = make_agent(AgentKind.TD3, obs_dim=4, config=cfg, seed=0)
        moved = []
        for _ in range(7):
            actor_before = params_snapshot(agent.actor)
            agent.update(*batch_of(4))
            moved.append(not params_equal(agent.actor, actor_before))
        assert moved == [True, False, False, True, False, False, True]

    def test_matches_ddpg_on_shared_path(self):
        # same seed, gamma 0: critic 1 and the actor see identical math,
        # so one update leaves them bit-identical across the two agents
        cfg = AgentConfig(batch_size=4, hidden_dims=(8,))
        ddpg = make_agent(AgentKind.DDPG, obs_dim=4, config=cfg, seed=5)
        td3 = make_agent(AgentKind.TD3, obs_dim=4, config=cfg, seed=5)
        rng = np.random.default_rng(7)
        obs_act = rng.uniform(0.0, 1.0, (4, 6))
        rews = -rng.uniform(0.0, 1.0, 4)
        ddpg.update(obs_act, rews)
        td3.update(obs_act, rews)
        for d_arr, t_arr in zip(ddpg.critic.params(), td3.critic.params()):
            np.testing.assert_array_equal(d_arr, t_arr)
        for d_arr, t_arr in zip(ddpg.actor.params(), td3.actor.params()):
            np.testing.assert_array_equal(d_arr, t_arr)

    def test_delay_one_is_ddpg_bit_for_bit(self, constant_series):
        # one update for both kinds; DDPG's policy delay is 1
        assert Td3Agent.update is DdpgAgent.update
        cfg = ExperimentConfig(
            env=EnvConfig(n_r=20.0, window_n=2),
            seed=6,
            train_steps=60,
            agent=AgentConfig(batch_size=8, warmup_steps=10, hidden_dims=(8,), td3_policy_delay=1),
        )
        (ddpg, d_res), (td3, t_res) = (train(kind, constant_series, cfg)
                                       for kind in (AgentKind.DDPG, AgentKind.TD3))
        assert (ddpg.policy_delay, td3.policy_delay) == (1, 1)
        assert d_res.rewards.tobytes() == t_res.rewards.tobytes()
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert getattr(ddpg, name).flat.tobytes() == getattr(td3, name).flat.tobytes()


class TestMakeAgent:
    def test_kinds_and_strings(self):
        assert isinstance(make_agent("ddpg", obs_dim=4), DdpgAgent)
        assert isinstance(make_agent(AgentKind.TD3, obs_dim=4), Td3Agent)

    def test_solver_kinds_rejected(self):
        with pytest.raises(ValueError):
            make_agent(AgentKind.OPT_ORACLE, obs_dim=4)
        with pytest.raises(ValueError):
            make_agent("opt_base", obs_dim=4)

    def test_network_shapes(self):
        agent = make_agent("td3", obs_dim=10, config=AgentConfig(hidden_dims=(32, 16)))
        assert agent.actor.dims == [10, 32, 16, 2]
        assert agent.critic.dims == [12, 32, 16, 1]
        assert agent.actor.activations == ["relu", "relu", "sigmoid"]
        assert agent.critic.activations == ["relu", "relu", "identity"]


class TestSplits:
    def test_split_end_rounds(self):
        assert train_split_end(860, 0.25) == 645
        assert train_split_end(100, 0.25) == 75
        assert train_split_end(10, 0.33) == 7

    def test_eval_timesteps_respect_window(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=20.0, window_n=8), eval_split=0.25)
        ts = eval_timesteps(small_series, cfg)
        assert list(ts) == [8, 9]

    @pytest.mark.parametrize("policy", [AgentKind.OPT_ORACLE, AgentKind.OPT_BASE, "trained"])
    @pytest.mark.parametrize("window_n,eval_split", [(1, 0.0001), (10, 0.25)],
                             ids=["tiny_split", "long_window"])
    def test_empty_evaluation_split_refused(self, small_series, policy, window_n, eval_split):
        # the check train makes, so that no policy is scored on zero steps
        cfg = ExperimentConfig(env=EnvConfig(n_r=20.0, window_n=window_n), eval_split=eval_split)
        if policy == "trained":
            policy = make_agent(AgentKind.TD3, obs_dim=2 * (window_n + 1), seed=1)
        with pytest.raises(ConfigError, match="^evaluation split is empty: .* step 10 of a 10-step"):
            agents_mod.evaluate(policy, small_series, cfg)


def reference_train(kind, series, cfg):
    """train() as a per-step loop: observe, an exploring act, env.step,
    a replay batch drawn for each update as it runs, then the exploration
    scale's decay; the timesteps are drawn up front from the same stream.
    Kept so that train's semantics stay pinned whatever shape its loop
    takes."""
    env, agent_cfg = cfg.env, cfg.agent
    agent = make_agent(kind, obs_dim=2 * (env.window_n + 1), config=agent_cfg, seed=cfg.seed)
    buffer = ReplayBuffer(agent_cfg.buffer_capacity)
    split_end = train_split_end(len(series), cfg.eval_split)
    ts = rng_for(cfg.seed, "tsample").integers(env.window_n, split_end, cfg.train_steps)
    rewards = []
    for i, t in enumerate(ts.tolist()):
        obs = observe(series, t, env)
        raw = agent.act(obs, explore=True)
        r = step(series, t, raw, env)
        buffer.add(obs.vector(), raw, r)
        rewards.append(r)
        if i >= agent_cfg.warmup_steps and buffer.size >= agent_cfg.batch_size:
            agent.update(*buffer.sample(agent.batch_rng.integers(0, buffer.size, agent_cfg.batch_size)))
        agent.explore_sigma *= agent_cfg.sigma_decay
    return agent, np.array(rewards)


class TestTrainMatchesReferenceLoop:
    """train() draws the replay batches ahead, a block of updates per call,
    bounded by the buffer's fill at each updating step; the draws here
    reach that bound's edges, and the examples pin each one: a ring that
    wraps, updates that start as soon as a batch fits (warmup below
    batch_size - 1), and a buffer smaller than a batch, which never
    updates."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(
        seed=st.integers(0, 2**31 - 1),
        window_n=st.integers(0, 5),
        kind=st.sampled_from([AgentKind.DDPG, AgentKind.TD3]),
        delay=st.integers(1, 3),
        batch_size=st.integers(1, 12),
        warmup=st.integers(0, 20),
        capacity=st.sampled_from([1, 5, 8, 11, 30, 60, 1000]),
    )
    @example(seed=5, window_n=2, kind=AgentKind.TD3, delay=2, batch_size=8, warmup=12, capacity=20)
    @example(seed=5, window_n=2, kind=AgentKind.TD3, delay=2, batch_size=8, warmup=0, capacity=60)
    @example(seed=5, window_n=2, kind=AgentKind.TD3, delay=2, batch_size=8, warmup=12, capacity=7)
    def test_bit_for_bit(self, seed, window_n, kind, delay, batch_size, warmup, capacity):
        rng = np.random.default_rng(seed)
        n = 40
        steps = 60
        series = DemandSeries(np.arange(n) * 3600, rng.uniform(0, 30, n), rng.uniform(0, 30, n), 3600)
        cfg = ExperimentConfig(
            env=EnvConfig(n_r=20.0, zeta=float(rng.uniform()), window_n=window_n),
            seed=seed,
            train_steps=steps,
            agent=AgentConfig(batch_size=batch_size, warmup_steps=warmup, buffer_capacity=capacity,
                              hidden_dims=(8, 4), explore_sigma=0.3, sigma_decay=0.99,
                              td3_policy_delay=delay),
        )
        agent, result = train(kind, series, cfg)
        ref, ref_rewards = reference_train(kind, series, cfg)
        assert bits(result.rewards).tolist() == bits(ref_rewards).tolist()
        assert bits(agent.actor.flat).tolist() == bits(ref.actor.flat).tolist()
        assert bits(agent.critic.flat).tolist() == bits(ref.critic.flat).tolist()
        assert agent.explore_sigma == ref.explore_sigma
        # the batch stream stands where the per-update draws leave it
        assert agent.batch_rng.bit_generator.state == ref.batch_rng.bit_generator.state
        updates = steps - max(warmup, batch_size - 1) if capacity >= batch_size else 0
        assert agent.update_count == ref.update_count == updates


    @pytest.mark.parametrize("block", [1, 3, 7, agents_mod.REPLAY_BLOCK])
    def test_blocked_draws_match_per_update_draws(self, monkeypatch, block):
        # replay_batches draws a block of updates per call; whatever the
        # block, the indices and the stream's final state are one call's per update
        monkeypatch.setattr(agents_mod, "REPLAY_BLOCK", block)
        fills = np.minimum(np.arange(5, 40), 30)
        drawn, ref = rng_for(4, "batch"), rng_for(4, "batch")
        batches = list(agents_mod.replay_batches(drawn, fills, 6))
        assert [b.tolist() for b in batches] == [ref.integers(0, f, 6).tolist() for f in fills.tolist()]
        assert drawn.bit_generator.state == ref.bit_generator.state


class TestTrain:
    def small_cfg(self, seed=3, steps=120, **agent_kw):
        defaults = dict(batch_size=16, warmup_steps=50, hidden_dims=(8,))
        defaults.update(agent_kw)
        return ExperimentConfig(
            env=EnvConfig(n_r=20.0, zeta=0.5, window_n=2),
            seed=seed,
            train_steps=steps,
            eval_split=0.25,
            agent=AgentConfig(**defaults),
        )

    def test_mechanics(self, constant_series):
        cfg = self.small_cfg()
        agent, result = train(AgentKind.TD3, constant_series, cfg)
        assert result.rewards.shape == (120,)
        assert np.all(result.rewards <= 0.0)
        np.testing.assert_allclose(result.curve, moving_average(result.rewards, 100))
        # updates run once the warmup passes (buffer already holds >= batch)
        assert agent.update_count == 120 - 50

    def test_deterministic_given_seed(self, constant_series):
        cfg = self.small_cfg()
        agent1, res1 = train(AgentKind.TD3, constant_series, cfg)
        agent2, res2 = train(AgentKind.TD3, constant_series, cfg)
        np.testing.assert_array_equal(res1.rewards, res2.rewards)
        for a, b in zip(agent1.actor.params(), agent2.actor.params()):
            np.testing.assert_array_equal(a, b)

    def test_zero_steps_returns_fresh_agent(self, constant_series):
        cfg = self.small_cfg(steps=0)
        reference = make_agent(AgentKind.TD3, obs_dim=6, config=cfg.agent, seed=cfg.seed)
        agent, result = train(AgentKind.TD3, constant_series, cfg)
        assert result.rewards.size == 0
        assert result.curve.size == 0
        assert agent.update_count == 0
        for a, b in zip(agent.actor.params(), reference.actor.params()):
            np.testing.assert_array_equal(a, b)

    def test_window_swallowing_training_split_rejected(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=20.0, window_n=9), train_steps=10)
        with pytest.raises(ConfigError):
            train(AgentKind.TD3, small_series, cfg)

    def test_learns_constant_demand(self, constant_series):
        cfg = self.small_cfg(
            steps=2000,
            batch_size=32,
            warmup_steps=100,
            hidden_dims=(32,),
            actor_lr=5e-3,
            critic_lr=2e-3,
            sigma_decay=0.999,
        )
        for kind in (AgentKind.TD3, AgentKind.DDPG):
            agent, _ = train(kind, constant_series, cfg)
            allocs = greedy_policy(agent, constant_series, cfg)
            demands = [constant_series.demand(t) for t in eval_timesteps(constant_series, cfg)]
            report = build_report(allocs, demands, cfg.env.zeta)
            assert report.mean_j < 0.15


class TestBenchmarkSeams:
    """The calls a training run and an evaluation make, which the
    benchmark counts and times: one env step per training step, one
    replay sample per update, two Polyak updates per actor update, and
    per-row observe/act in the greedy evaluation."""

    def counting(self, monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    @pytest.mark.parametrize("kind,delay", [(AgentKind.DDPG, 1), (AgentKind.TD3, 2), (AgentKind.TD3, 3)])
    def test_train_calls_per_step(self, monkeypatch, constant_series, kind, delay):
        steps = self.counting(monkeypatch, agents_mod, "step")
        soft = self.counting(monkeypatch, nn, "soft_update")
        samples = self.counting(monkeypatch, ReplayBuffer, "sample")
        cfg = ExperimentConfig(
            env=EnvConfig(n_r=20.0, window_n=2),
            seed=4,
            train_steps=90,
            agent=AgentConfig(batch_size=8, warmup_steps=30, hidden_dims=(8,), td3_policy_delay=delay),
        )
        agent, _ = train(kind, constant_series, cfg)
        assert len(steps) == 90
        assert agent.update_count == len(samples) == 90 - 30
        actor_updates = -(-agent.update_count // delay)
        assert len(soft) == 2 * actor_updates

    def test_greedy_policy_observes_and_acts_per_row(self, monkeypatch, constant_series):
        cfg = ExperimentConfig(
            env=EnvConfig(n_r=20.0, window_n=2),
            seed=4,
            train_steps=20,
            agent=AgentConfig(batch_size=8, warmup_steps=10, hidden_dims=(8,)),
        )
        agent, _ = train(AgentKind.TD3, constant_series, cfg)
        observed = self.counting(monkeypatch, agents_mod, "observe")
        acted = self.counting(monkeypatch, DdpgAgent, "act")
        allocs = greedy_policy(agent, constant_series, cfg)
        assert len(allocs) == len(observed) == len(acted) == len(eval_timesteps(constant_series, cfg))


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


class TestGreedyPolicy:
    def test_oracle_kind_matches_per_step_solver(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=6.0, zeta=0.3, window_n=1), eval_split=0.25)
        grants = greedy_policy(AgentKind.OPT_ORACLE, small_series, cfg)
        expected = [solve_opt(small_series.demand(t), 0.3, 6.0).allocation
                    for t in eval_timesteps(small_series, cfg)]
        assert isinstance(grants, np.recarray)
        assert grants.dtype.names == ("n_a", "n_b")
        assert bits(grants.n_a).tolist() == bits([a.n_a for a in expected]).tolist()
        assert bits(grants.n_b).tolist() == bits([a.n_b for a in expected]).tolist()

    def test_base_kind_pins_training_maxima(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=6.0, zeta=0.5, window_n=1), eval_split=0.25)
        grants = greedy_policy(AgentKind.OPT_BASE, small_series, cfg)
        split_end = train_split_end(len(small_series), 0.25)
        max_demand = (
            float(small_series.d_a[:split_end].max()),
            float(small_series.d_b[:split_end].max()),
        )
        expected = solve_opt(max_demand, 0.5, 6.0).allocation
        steps = len(eval_timesteps(small_series, cfg))
        assert bits(grants.n_a).tolist() == bits([expected.n_a] * steps).tolist()
        assert bits(grants.n_b).tolist() == bits([expected.n_b] * steps).tolist()

    def test_base_kind_needs_a_training_prefix(self):
        # one step, all of it held out: no demand maxima to solve against
        series = DemandSeries([0], [3.0], [2.0], 3600)
        cfg = ExperimentConfig(env=EnvConfig(n_r=6.0, window_n=0), eval_split=0.6)
        assert eval_timesteps(series, cfg) == range(0, 1)
        with pytest.raises(ConfigError, match="^no training prefix to take demand maxima from$"):
            greedy_policy(AgentKind.OPT_BASE, series, cfg)

    def test_trained_agent_columns_match_per_step_projection(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=6.0, window_n=1), train_steps=0)
        agent = make_agent(AgentKind.TD3, obs_dim=4, seed=5)
        grants = greedy_policy(agent, small_series, cfg)
        expected = [project_action(agent.act(observe(small_series, t, cfg.env), explore=False), 6.0)
                    for t in eval_timesteps(small_series, cfg)]
        assert bits(grants.n_a).tolist() == bits([a.n_a for a in expected]).tolist()
        assert bits(grants.n_b).tolist() == bits([a.n_b for a in expected]).tolist()

    @pytest.mark.parametrize("kind", [AgentKind.OPT_ORACLE, AgentKind.OPT_BASE])
    def test_solver_kinds_build_at_most_one_allocation(self, monkeypatch, kind):
        # a per-step Allocation cost an oracle cell ten times its solve
        built = []
        original = Allocation.__post_init__

        def counting(alloc):
            built.append(1)
            original(alloc)

        monkeypatch.setattr(Allocation, "__post_init__", counting)
        rng = np.random.default_rng(9)
        n = 10_000  # the second half, 5,000 steps, is evaluated
        series = DemandSeries(np.arange(n) * 3600.0, rng.uniform(0, 40, n), rng.uniform(0, 40, n), 3600.0)
        cfg = ExperimentConfig(env=EnvConfig(n_r=60.0), eval_split=0.5)
        grants = greedy_policy(kind, series, cfg)
        assert len(grants) == 5000
        assert len(built) <= 1

    def test_rl_kind_string_rejected(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=6.0, window_n=1))
        with pytest.raises(ValueError):
            greedy_policy(AgentKind.TD3, small_series, cfg)

    def test_trained_agent_allocations_feasible(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=6.0, window_n=1), train_steps=0)
        agent = make_agent(AgentKind.TD3, obs_dim=4, seed=2)
        allocs = greedy_policy(agent, small_series, cfg)
        assert len(allocs) == len(list(eval_timesteps(small_series, cfg)))
        for alloc in allocs:
            assert alloc.n_a + alloc.n_b <= 6.0 + 1e-9


class TestCheckpoints:
    def test_roundtrip_preserves_behavior(self, tmp_path):
        cfg = ExperimentConfig(
            env=EnvConfig(n_r=20.0, zeta=0.7, window_n=2),
            agent_kind=AgentKind.TD3,
            agent=AgentConfig(hidden_dims=(8,), explore_sigma=0.1),
            seed=11,
            train_steps=0,
        )
        agent = make_agent(cfg.agent_kind, obs_dim=6, config=cfg.agent, seed=cfg.seed)
        agent.explore_sigma = 0.05
        path = tmp_path / "agent.json"
        save_agent(agent, cfg, path)
        loaded, experiment = load_agent(path)
        assert experiment == cfg
        assert loaded.kind == AgentKind.TD3
        assert loaded.explore_sigma == 0.05
        for a, b in zip(loaded.actor.params(), agent.actor.params()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.critic.params(), agent.critic.params()):
            np.testing.assert_array_equal(a, b)
        obs = obs_of((0.2, 0.3), (0.1, 0.4), (0.0, 0.5))
        assert loaded.act(obs) == agent.act(obs)

    def test_format_checked(self, tmp_path):
        cfg = ExperimentConfig(env=EnvConfig(n_r=20.0, window_n=1), train_steps=0)
        agent = make_agent("ddpg", obs_dim=4, config=cfg.agent, seed=0)
        path = tmp_path / "agent.json"
        save_agent(agent, cfg, path)
        payload = json.loads(path.read_text())
        payload["format"] = "other"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_agent(bad)


V1_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "agent_v1.json"
V2_FIXTURE = V1_FIXTURE.with_name("agent_v2.json")


def checkpoint_file(tmp_path):
    cfg = ExperimentConfig(env=EnvConfig(n_r=20.0, window_n=1), train_steps=0)
    path = tmp_path / "agent.json"
    save_agent(make_agent("td3", obs_dim=4, config=cfg.agent, seed=0), cfg, path)
    return path


class TestCheckpointErrors:
    def test_truncated_file_names_path(self, tmp_path):
        path = checkpoint_file(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="agent.json: not a JSON checkpoint"):
            load_agent(path)

    @pytest.mark.parametrize("data", [b"[" * 50_000, b'{"seed": ' + b"9" * 5_000 + b"}", b"\xff{}"],
                             ids=["deep", "digits", "not_utf8"])
    def test_unreadable_json_names_path(self, tmp_path, data):
        # json.loads raises RecursionError and a plain ValueError on the first
        # two, and reading the third raises UnicodeDecodeError
        path = tmp_path / "agent.json"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="agent.json: not a JSON checkpoint"):
            load_agent(path)

    @pytest.mark.parametrize(
        "field,value",
        [("actor", None), ("critic", None), ("env", None), ("seed", None),
         ("actor", [1, 2]), ("explore_sigma", "high"), ("agent_config", {"hidden_dims": "x"}),
         ("explore_sigma", True), ("seed", True)],
        ids=["no_actor", "no_critic", "no_env", "no_seed", "list_actor", "str_sigma", "bad_config",
             "bool_sigma", "bool_seed"],
    )
    def test_missing_or_ill_typed_field_named(self, tmp_path, field, value):
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"agent.json: .*'{field}'"):
            load_agent(path)

    def test_bool_config_value_named(self, tmp_path):
        # JSON true would otherwise load as a batch of 1
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        payload["agent_config"]["batch_size"] = True
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="agent.json: bad checkpoint 'agent_config': "
                                             "batch_size must be an integer, got True$"):
            load_agent(path)

    def test_bad_network_named(self, tmp_path):
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        del payload["critic"]["dims"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="bad checkpoint 'critic'"):
            load_agent(path)

    @pytest.mark.parametrize("name,part", [("actor", "weights"), ("actor", "biases"),
                                           ("critic", "weights"), ("critic", "biases")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_named(self, tmp_path, name, part, value):
        # a NaN actor would answer every service request with a NaN action
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        last = payload[name][part][-1]
        (last[0] if part == "weights" else last)[0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"agent.json: bad checkpoint '{name}': .*not finite"):
            load_agent(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1, 10 ** 400])
    def test_bad_explore_sigma_named(self, tmp_path, value):
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        payload["explore_sigma"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="agent.json: checkpoint 'explore_sigma' must be a finite number >= 0$"):
            load_agent(path)

    @pytest.mark.parametrize("key", ["tau", "pretrain_steps"])
    def test_v3_with_retired_config_key_refused(self, tmp_path, key):
        # only v1 and v2 files may carry the retired keys
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        payload["agent_config"][key] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"agent.json: bad checkpoint 'agent_config': .*{key}"):
            load_agent(path)

    @pytest.mark.parametrize("field,value", [("window_n", 4), ("hidden_dims", [8])])
    def test_networks_must_fit_the_config(self, tmp_path, field, value):
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        section = "env" if field == "window_n" else "agent_config"
        payload[section][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="agent.json: bad checkpoint 'actor': dims .* do not fit"):
            load_agent(path)

    @pytest.mark.parametrize("name,part", [("actor", "weights"), ("critic", "biases")])
    def test_int_past_float_range_named(self, tmp_path, name, part):
        # float() cannot hold a 401-digit JSON integer
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        last = payload[name][part][-1]
        (last[0] if part == "weights" else last)[0] = 10 ** 400
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"agent.json: bad checkpoint '{name}': int too large"):
            load_agent(path)

    @pytest.mark.parametrize("section,field,label", [
        (None, "seed", "seed/train_steps/eval_split"), ("env", "window_n", "env"),
        ("agent_config", "batch_size", "agent_config"),
    ])
    def test_setting_past_float_range_named(self, tmp_path, section, field, label):
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        (payload[section] if section else payload)[field] = 10 ** 400
        path.write_text(json.dumps(payload))
        message = f"agent.json: bad checkpoint '{label}': {field} must be an integer"
        with pytest.raises(ValueError, match=message):
            load_agent(path)

    def test_extra_trailing_layer_refused(self, tmp_path):
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        payload["actor"]["weights"].append([[0.0]])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="agent.json: bad checkpoint 'actor': 3 layers need"):
            load_agent(path)


def assert_net_is(net, stored):
    assert [w.tolist() for w in net.weights] == stored["weights"]
    assert [b.tolist() for b in net.biases] == stored["biases"]
    # the loaded vector is the stored layers in Mlp.flat's order
    as_stored = np.empty(net.flat.size)
    weights, biases = nn.layer_views(net.dims, as_stored)
    for view, layer in zip(weights + biases, stored["weights"] + stored["biases"]):
        view[...] = layer
    assert net.flat.tobytes() == as_stored.tobytes()


def stored_critic(payload):
    # v1 stored TD3's twin critics; the first one is the critic
    return payload["critics"][0] if payload["version"] == 1 else payload["critic"]


class TestV1Checkpoint:
    def test_loads_critic_one_and_drops_retired_keys(self):
        payload = json.loads(V1_FIXTURE.read_text())
        assert payload["version"] == 1
        assert {"gamma", "tau", "pretrain_steps"} <= payload["agent_config"].keys()
        agent, experiment = load_agent(V1_FIXTURE)
        assert agent.kind == AgentKind.TD3
        assert experiment.agent.hidden_dims == tuple(payload["agent_config"]["hidden_dims"])
        assert_net_is(agent.actor, payload["actor"])
        assert_net_is(agent.critic, payload["critics"][0])

    def test_demo_checkpoint_is_v3_with_the_v1_networks(self):
        # demo 06 retrains the agent fixtures/agent_v1.json holds and
        # rewrites demos/out/service_agent.json in the current version
        v1 = json.loads(V1_FIXTURE.read_text())
        v3 = json.loads((V1_FIXTURE.parent.parent / "demos" / "out" / "service_agent.json").read_text())
        assert v3["version"] == 3
        assert v3["actor"] == v1["actor"] and v3["critic"] == v1["critics"][0]
        assert not {"target_actor", "target_critic"} & v3.keys()
        assert not {"tau", "pretrain_steps"} & v3["agent_config"].keys()

    def test_empty_critics_refused(self, tmp_path):
        payload = json.loads(V1_FIXTURE.read_text())
        payload["critics"] = []
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"agent\.json: checkpoint 'critics' is empty$"):
            load_agent(path)

    def test_nonzero_gamma_rejected(self, tmp_path):
        payload = json.loads(V1_FIXTURE.read_text())
        payload["agent_config"]["gamma"] = 0.5
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="agent_config.gamma"):
            load_agent(path)


class TestOldCheckpoints:
    @pytest.mark.parametrize("fixture", [V1_FIXTURE, V2_FIXTURE], ids=["v1", "v2"])
    def test_loads_the_stored_actor_and_critic(self, fixture):
        payload = json.loads(fixture.read_text())
        agent, experiment = load_agent(fixture)
        assert agent.explore_sigma == payload["explore_sigma"]
        assert experiment.env == EnvConfig(**payload["env"])
        assert_net_is(agent.actor, payload["actor"])
        assert_net_is(agent.critic, stored_critic(payload))
        # the stored targets are not read; the loaded ones are make_agent's
        fresh = make_agent(agent.kind, obs_dim=agent.obs_dim, config=experiment.agent)
        assert agent.target_actor.flat.tobytes() == fresh.target_actor.flat.tobytes()

    @pytest.mark.parametrize("version", [0, 4, "3", None, True, 1.0, 2.0, 3.0],
                             ids=["0", "4", "text", "missing", "true", "1.0", "2.0", "3.0"])
    def test_unknown_version_refused(self, tmp_path, version):
        payload = json.loads(V2_FIXTURE.read_text())
        payload.pop("version")
        if version is not None:
            payload["version"] = version
        path = tmp_path / "agent.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"agent\.json: unsupported checkpoint version {re.escape(repr(version))}$"):
            load_agent(path)

    @pytest.mark.parametrize("fixture", [V1_FIXTURE, V2_FIXTURE], ids=["v1", "v2"])
    def test_round_trips_through_v3(self, tmp_path, fixture):
        agent, experiment = load_agent(fixture)
        path = tmp_path / "v3.json"
        save_agent(agent, experiment, path)
        assert json.loads(path.read_text())["version"] == 3
        again, experiment3 = load_agent(path)
        assert experiment3 == experiment
        obs = obs_of((0.05, 0.05), (0.05, 0.05), (0.05, 0.05))
        assert again.act(obs) == agent.act(obs)
        assert again.actor.flat.tobytes() == agent.actor.flat.tobytes()
        assert again.critic.flat.tobytes() == agent.critic.flat.tobytes()
