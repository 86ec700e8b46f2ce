"""Replay buffer, update math, training loop, policies, checkpoints."""

import json
from pathlib import Path

import numpy as np
import pytest

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
from adapshare.domain import AgentKind, EnvConfig, ExperimentConfig
from adapshare.env import Observation, RawAction, observe
from adapshare.metrics import build_report, moving_average
from adapshare.oracle import solve_opt


def obs_of(*pairs):
    return Observation(np.array(pairs, dtype=float))


def add(buf, reward=-0.5, u=(0.3, 0.4), pairs=((0.1, 0.2), (0.3, 0.4))):
    buf.add(obs_of(*pairs).vector(), RawAction(*u), reward)


def batch_of(n, reward=-0.5, u=(0.3, 0.4), pairs=((0.1, 0.2), (0.3, 0.4))):
    """(obs, act, rew) arrays holding n copies of one interaction."""
    obs = np.tile(obs_of(*pairs).vector(), (n, 1))
    return obs, np.tile(u, (n, 1)), np.full(n, reward)


def params_snapshot(net):
    return [p.copy() for p in net.params()]


def params_equal(net, snapshot):
    return all(np.array_equal(p, s) for p, s in zip(net.params(), snapshot))


def critic_loss(agent, obs, act, rew):
    """Mean squared error of the critic against the reward, from nn.forward."""
    q = nn.forward(agent.critic, np.concatenate([obs, act], axis=1))
    return float(np.mean((q[:, 0] - rew) ** 2))


def mean_q(agent, obs):
    """Mean critic value of the actor's own actions."""
    mu = nn.forward(agent.actor, obs)
    return float(np.mean(nn.forward(agent.critic, np.concatenate([obs, mu], axis=1))))


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
        with pytest.raises(ValueError):
            AgentConfig(tau=0.0)
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


class TestReplayBuffer:
    def test_roundtrip(self):
        buf = ReplayBuffer(4)
        add(buf, reward=-0.25, u=(0.6, 0.1), pairs=((0.1, 0.2), (0.3, 0.4)))
        obs, acts, rews = buf.sample(np.random.default_rng(0), 1)
        np.testing.assert_array_equal(obs, [[0.1, 0.2, 0.3, 0.4]])
        np.testing.assert_array_equal(acts, [[0.6, 0.1]])
        np.testing.assert_array_equal(rews, [-0.25])

    def test_fifo_overwrite(self):
        buf = ReplayBuffer(3)
        for k in range(4):
            add(buf, reward=-float(k))
        assert buf.size == 3
        rng = np.random.default_rng(0)
        stored = {r for _ in range(50) for r in buf.sample(rng, 3)[2]}
        assert stored == {-1.0, -2.0, -3.0}

    def test_sample_shapes_and_membership(self):
        buf = ReplayBuffer(8)
        for k in range(5):
            add(buf, reward=-float(k))
        obs, acts, rews = buf.sample(np.random.default_rng(0), 4)
        assert obs.shape == (4, 4)
        assert acts.shape == (4, 2)
        assert rews.shape == (4,)
        assert set(rews).issubset({-0.0, -1.0, -2.0, -3.0, -4.0})

    def test_sample_underfull_rejected(self):
        buf = ReplayBuffer(8)
        add(buf)
        with pytest.raises(InsufficientData):
            buf.sample(np.random.default_rng(0), 2)

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
        assert 0.0 <= a1.u_a <= 1.0 and 0.0 <= a1.u_b <= 1.0

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

    def test_explore_stays_in_unit_box(self):
        agent = make_agent(AgentKind.TD3, obs_dim=4, config=AgentConfig(explore_sigma=5.0), seed=2)
        obs = obs_of((0.2, 0.3), (0.1, 0.4))
        for _ in range(50):
            a = agent.act(obs, explore=True)
            assert 0.0 <= a.u_a <= 1.0 and 0.0 <= a.u_b <= 1.0


def zero_params(net):
    for arr in net.params():
        arr[:] = 0.0


class TestCriticTargets:
    def test_gamma_zero_target_is_reward(self):
        # the critic regresses on the reward itself: whatever the target
        # networks hold, one update leaves the same critic bits, and that
        # critic sits closer to the reward than the zero one it started as
        batch = (np.zeros((2, 4)), np.zeros((2, 2)), np.array([-1.0, -2.0]))
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
        acts = rng.uniform(0.0, 1.0, (8, 2))
        rews = -rng.uniform(0.0, 1.0, 8)
        losses = []
        for _ in range(100):
            losses.append(critic_loss(agent, obs, acts, rews))
            agent.update(obs, acts, rews)
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
        obs = rng.uniform(0.0, 1.0, (4, 4))
        acts = rng.uniform(0.0, 1.0, (4, 2))
        rews = -rng.uniform(0.0, 1.0, 4)
        ddpg.update(obs, acts, rews)
        td3.update(obs, acts, rews)
        for d_arr, t_arr in zip(ddpg.critic.params(), td3.critic.params()):
            np.testing.assert_array_equal(d_arr, t_arr)
        for d_arr, t_arr in zip(ddpg.actor.params(), td3.actor.params()):
            np.testing.assert_array_equal(d_arr, t_arr)


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

    def test_pretrain_warm_starts_at_oracle_action(self, constant_series):
        cfg = self.small_cfg(
            steps=0, pretrain_steps=150, actor_lr=0.02, hidden_dims=(16,)
        )
        agent, _ = train(AgentKind.TD3, constant_series, cfg)
        obs = observe(constant_series, 50, cfg.env)
        mu = nn.forward(agent.actor, obs.vector())
        # oracle grants the demand (5, 5) out of pool 20 -> action 0.25
        assert mu == pytest.approx([0.25, 0.25], abs=0.05)
        for a, b in zip(agent.actor.params(), agent.target_actor.params()):
            np.testing.assert_array_equal(a, b)


class TestGreedyPolicy:
    def test_oracle_kind_matches_per_step_solver(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=6.0, zeta=0.3, window_n=1), eval_split=0.25)
        allocs = greedy_policy(AgentKind.OPT_ORACLE, small_series, cfg)
        ts = list(eval_timesteps(small_series, cfg))
        assert len(allocs) == len(ts)
        for alloc, t in zip(allocs, ts):
            expected = solve_opt(small_series.demand(t), 0.3, 6.0).allocation
            assert alloc == expected

    def test_base_kind_pins_training_maxima(self, small_series):
        cfg = ExperimentConfig(env=EnvConfig(n_r=6.0, zeta=0.5, window_n=1), eval_split=0.25)
        allocs = greedy_policy(AgentKind.OPT_BASE, small_series, cfg)
        assert len(set(allocs)) == 1
        split_end = train_split_end(len(small_series), 0.25)
        max_demand = (
            float(small_series.d_a[:split_end].max()),
            float(small_series.d_b[:split_end].max()),
        )
        expected = solve_opt(max_demand, 0.5, 6.0).allocation
        assert allocs[0] == expected

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

    @pytest.mark.parametrize(
        "field,value",
        [("actor", None), ("critic", None), ("env", None), ("seed", None),
         ("actor", [1, 2]), ("explore_sigma", "high"), ("agent_config", {"hidden_dims": "x"})],
        ids=["no_actor", "no_critic", "no_env", "no_seed", "list_actor", "str_sigma", "bad_config"],
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

    def test_bad_network_named(self, tmp_path):
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        del payload["target_critic"]["dims"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="bad checkpoint 'target_critic'"):
            load_agent(path)


    @pytest.mark.parametrize("field,value", [("window_n", 4), ("hidden_dims", [8])])
    def test_networks_must_fit_the_config(self, tmp_path, field, value):
        path = checkpoint_file(tmp_path)
        payload = json.loads(path.read_text())
        section = "env" if field == "window_n" else "agent_config"
        payload[section][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="agent.json: checkpoint 'actor' has dims"):
            load_agent(path)


class TestV1Checkpoint:
    def test_loads_critic_one_and_drops_retired_keys(self):
        payload = json.loads(V1_FIXTURE.read_text())
        assert payload["version"] == 1
        agent, experiment = load_agent(V1_FIXTURE)
        assert agent.kind == AgentKind.TD3
        assert experiment.agent.hidden_dims == tuple(payload["agent_config"]["hidden_dims"])
        for net, key in ((agent.actor, "actor"), (agent.critic, "critics"),
                         (agent.target_actor, "target_actor"), (agent.target_critic, "target_critics")):
            stored = payload[key][0] if key.endswith("s") else payload[key]
            assert [w.tolist() for w in net.weights] == stored["weights"]
            assert [b.tolist() for b in net.biases] == stored["biases"]

    def test_acts_like_its_v2_round_trip(self, tmp_path):
        agent, experiment = load_agent(V1_FIXTURE)
        path = tmp_path / "v2.json"
        save_agent(agent, experiment, path)
        assert json.loads(path.read_text())["version"] == 2
        again, experiment2 = load_agent(path)
        assert experiment2 == experiment
        obs = obs_of((0.05, 0.05), (0.05, 0.05), (0.05, 0.05))
        assert again.act(obs) == agent.act(obs)
        assert again.actor.flat.tobytes() == agent.actor.flat.tobytes()

    def test_demo_checkpoint_is_v2_with_the_v1_networks(self):
        # demos/out/service_agent.json was v1 until demo 06 rewrote it as v2
        v1 = json.loads(V1_FIXTURE.read_text())
        v2 = json.loads((V1_FIXTURE.parent.parent / "demos" / "out" / "service_agent.json").read_text())
        assert v2["version"] == 2
        assert v2["actor"] == v1["actor"] and v2["target_actor"] == v1["target_actor"]
        assert v2["critic"] == v1["critics"][0]
        assert v2["target_critic"] == v1["target_critics"][0]

    def test_nonzero_gamma_rejected(self, tmp_path):
        payload = json.loads(V1_FIXTURE.read_text())
        payload["agent_config"]["gamma"] = 0.5
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="agent_config.gamma"):
            load_agent(path)
