"""DDPG and TD3 agents over the spectrum-sharing bandit.

Both agents learn a deterministic actor mapping the demand-history
observation to a raw action in [0,1]^2. Episodes are length 1, so the
critic target is simply the reward when gamma is 0 (the default); the
bootstrap machinery stays wired for nonzero gamma but contributes
nothing otherwise. TD3 adds twin critics, target-action smoothing, and
a delayed actor.
"""

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nn
from .domain import AgentKind, Allocation, EnvConfig, ExperimentConfig
from .env import Observation, RawAction, observe, project_action, step
from .metrics import moving_average
# solve_opt is not called here, but bench/phases.py times the sweep's
# solver calls through agents.solve_opt and agents.solve_opt_base
from .oracle import solve_opt, solve_opt_array, solve_opt_base  # noqa: F401
from .seeding import rng_for


class InsufficientData(ValueError):
    """Asked to sample or update before the buffer holds a full batch."""


class ConfigError(ValueError):
    """Series/config combination leaves no usable train or eval steps."""


@dataclass(frozen=True)
class Transition:
    """One stored interaction; no successor state, episodes are length 1."""

    obs: Observation
    raw_action: RawAction
    reward: float

    def __post_init__(self):
        if self.reward > 0:
            raise ValueError(f"reward must be <= 0, got {self.reward}")


@dataclass(frozen=True)
class AgentConfig:
    """Learning hyperparameters; every field may be overridden per run."""

    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    gamma: float = 0.0
    tau: float = 0.005
    batch_size: int = 64
    buffer_capacity: int = 50_000
    explore_sigma: float = 0.2
    sigma_decay: float = 0.9995
    td3_policy_delay: int = 2
    td3_target_noise: float = 0.1
    td3_noise_clip: float = 0.3
    warmup_steps: int = 500
    hidden_dims: tuple = (64, 64)
    pretrain_steps: int = 0

    def __post_init__(self):
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.batch_size < 1 or self.buffer_capacity < 1:
            raise ValueError("batch_size and buffer_capacity must be positive")
        if self.explore_sigma < 0 or self.td3_target_noise < 0 or self.td3_noise_clip < 0:
            raise ValueError("noise scales must be nonnegative")
        if not 0.0 < self.sigma_decay <= 1.0:
            raise ValueError(f"sigma_decay must lie in (0, 1], got {self.sigma_decay}")
        if self.td3_policy_delay < 1:
            raise ValueError("td3_policy_delay must be a positive integer")
        if self.warmup_steps < 0 or self.pretrain_steps < 0:
            raise ValueError("step counts must be nonnegative")
        if len(self.hidden_dims) == 0 or any(int(h) < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive widths, got {self.hidden_dims}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))


class ReplayBuffer:
    """Fixed-capacity FIFO ring; stores the fields of each Transition."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.size = 0
        self.cursor = 0
        self._obs = None
        self._act = None
        self._rew = None

    def add(self, transition):
        vec = transition.obs.vector()
        if self._obs is None:
            self._obs = np.zeros((self.capacity, vec.size))
            self._act = np.zeros((self.capacity, 2))
            self._rew = np.zeros(self.capacity)
        self._obs[self.cursor] = vec
        self._act[self.cursor] = (transition.raw_action.u_a, transition.raw_action.u_b)
        self._rew[self.cursor] = transition.reward
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def get(self, i):
        """Reconstruct the i-th stored Transition (0 <= i < size)."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} outside filled region of size {self.size}")
        pairs = self._obs[i].reshape(-1, 2)
        return Transition(
            obs=Observation(pairs=pairs.copy()),
            raw_action=RawAction(u_a=float(self._act[i, 0]), u_b=float(self._act[i, 1])),
            reward=float(self._rew[i]),
        )

    def sample(self, rng, batch_size):
        """Uniform with-replacement sample from the filled region."""
        if self.size < batch_size:
            raise InsufficientData(f"buffer holds {self.size} < batch of {batch_size}")
        idx = rng.integers(0, self.size, batch_size)
        return self._obs[idx], self._act[idx], self._rew[idx]


@dataclass
class UpdateReport:
    """Losses from one gradient step; critic2/actor fields stay None when unused."""

    critic_loss: float
    critic2_loss: float = None
    actor_objective: float = None


def _stack_transitions(transitions):
    obs = np.stack([tr.obs.vector() for tr in transitions])
    act = np.array([(tr.raw_action.u_a, tr.raw_action.u_b) for tr in transitions])
    rew = np.array([tr.reward for tr in transitions])
    return obs, act, rew


class DdpgAgent:
    """Deterministic policy gradient with a single critic."""

    kind = AgentKind.DDPG
    n_critics = 1

    def __init__(self, obs_dim, config=None, seed=0):
        self.config = config if config is not None else AgentConfig()
        self.obs_dim = int(obs_dim)
        cfg = self.config
        hidden = list(cfg.hidden_dims)
        actor_dims = [self.obs_dim] + hidden + [2]
        critic_dims = [self.obs_dim + 2] + hidden + [1]
        acts_hidden = ["relu"] * len(hidden)
        self.actor = nn.Mlp(actor_dims, acts_hidden + ["sigmoid"], rng_for(seed, "init", "actor"))
        self.critics = [
            nn.Mlp(critic_dims, acts_hidden + ["identity"], rng_for(seed, "init", f"critic{i + 1}"))
            for i in range(self.n_critics)
        ]
        self.target_actor = self.actor.clone()
        self.target_critics = [c.clone() for c in self.critics]
        self.actor_opt = nn.AdamState([self.actor.flat], cfg.actor_lr)
        self.critic_opts = [nn.AdamState([c.flat], cfg.critic_lr) for c in self.critics]
        self.explore_rng = rng_for(seed, "explore")
        self.batch_rng = rng_for(seed, "batch")
        self.target_noise_rng = rng_for(seed, "target_noise")
        self.explore_sigma = cfg.explore_sigma
        self.update_count = 0

    def act(self, obs, explore=False):
        mu = nn.forward(self.actor, obs.vector())
        if explore:
            mu = np.clip(mu + self.explore_rng.normal(0.0, self.explore_sigma, 2), 0.0, 1.0)
        return RawAction(u_a=float(mu[0]), u_b=float(mu[1]))

    def _critic_targets(self, obs, rew):
        cfg = self.config
        if cfg.gamma == 0.0:
            return rew[:, None]
        # vestigial bootstrap: the bandit has no successor state, so the
        # stored context stands in for it when gamma is forced above zero
        next_act = nn.forward(self.target_actor, obs)
        if self.n_critics > 1 and cfg.td3_target_noise > 0:
            noise = self.target_noise_rng.normal(0.0, cfg.td3_target_noise, next_act.shape)
            np.clip(noise, -cfg.td3_noise_clip, cfg.td3_noise_clip, out=noise)
            next_act = np.clip(next_act + noise, 0.0, 1.0)
        nx = np.concatenate([obs, next_act], axis=1)
        q_next = nn.forward(self.target_critics[0], nx)
        for tc in self.target_critics[1:]:
            q_next = np.minimum(q_next, nn.forward(tc, nx))
        return rew[:, None] + cfg.gamma * q_next

    def _update_critics(self, obs, act, rew):
        y = self._critic_targets(obs, rew)
        x = np.concatenate([obs, act], axis=1)
        batch = obs.shape[0]
        losses = []
        for critic, opt in zip(self.critics, self.critic_opts):
            q, cache = nn.forward_cache(critic, x)
            err = q - y
            losses.append(float(np.mean(err ** 2)))
            grad_w, grad_b, _ = nn.backward(critic, cache, (2.0 / batch) * err)
            nn.adam_step(opt, [critic.flat], [nn.flatten_layers(grad_w, grad_b)])
        return losses

    def _update_actor(self, obs):
        batch = obs.shape[0]
        mu, actor_cache = nn.forward_cache(self.actor, obs)
        x = np.concatenate([obs, mu], axis=1)
        q, critic_cache = nn.forward_cache(self.critics[0], x)
        # ascend mean Q: backprop -1/B through critic 1 into the action slice
        _, _, dx = nn.backward(self.critics[0], critic_cache, np.full((batch, 1), -1.0 / batch))
        grad_w, grad_b, _ = nn.backward(self.actor, actor_cache, dx[:, self.obs_dim:])
        nn.adam_step(self.actor_opt, [self.actor.flat], [nn.flatten_layers(grad_w, grad_b)])
        return float(np.mean(q))

    def _soft_update_targets(self):
        tau = self.config.tau
        nn.soft_update(self.target_actor, self.actor, tau)
        for target, online in zip(self.target_critics, self.critics):
            nn.soft_update(target, online, tau)

    def update(self, obs, act, rew, step_index=None):
        if step_index is None:
            step_index = self.update_count
        losses = self._update_critics(obs, act, rew)
        actor_objective = self._update_actor(obs)
        self._soft_update_targets()
        self.update_count += 1
        return UpdateReport(critic_loss=losses[0], actor_objective=actor_objective)


class Td3Agent(DdpgAgent):
    """Twin critics, smoothed targets, delayed actor."""

    kind = AgentKind.TD3
    n_critics = 2

    def update(self, obs, act, rew, step_index=None):
        if step_index is None:
            step_index = self.update_count
        losses = self._update_critics(obs, act, rew)
        actor_objective = None
        if step_index % self.config.td3_policy_delay == 0:
            actor_objective = self._update_actor(obs)
            self._soft_update_targets()
        self.update_count += 1
        return UpdateReport(
            critic_loss=losses[0], critic2_loss=losses[1], actor_objective=actor_objective
        )


def act(agent, obs, explore=False):
    """Actor output as a RawAction; Gaussian noise then clip when exploring."""
    return agent.act(obs, explore)


def update_ddpg(agent, transitions):
    """One DDPG gradient step on an explicit batch of Transitions."""
    if len(transitions) < agent.config.batch_size:
        raise InsufficientData(
            f"batch of {len(transitions)} < configured {agent.config.batch_size}"
        )
    return agent.update(*_stack_transitions(transitions))


def update_td3(agent, transitions, step_index):
    """One TD3 gradient step; the actor moves only when the delay gate opens."""
    if len(transitions) < agent.config.batch_size:
        raise InsufficientData(
            f"batch of {len(transitions)} < configured {agent.config.batch_size}"
        )
    obs, a, r = _stack_transitions(transitions)
    return agent.update(obs, a, r, step_index=step_index)


_AGENT_CLASSES = {AgentKind.DDPG: DdpgAgent, AgentKind.TD3: Td3Agent}


def make_agent(kind, obs_dim, config=None, seed=0):
    kind = AgentKind(kind)
    if kind not in _AGENT_CLASSES:
        raise ValueError(f"{kind.value} is a solver, not a trainable agent")
    return _AGENT_CLASSES[kind](obs_dim, config=config, seed=seed)


def train_split_end(length, eval_split):
    """First index of the held-out tail; training uses [0, split_end)."""
    return int(round(length * (1.0 - eval_split)))


def eval_timesteps(series, cfg):
    start = max(train_split_end(len(series.timestamps), cfg.eval_split), cfg.env.window_n)
    return range(start, len(series.timestamps))


@dataclass
class TrainResult:
    """Reward trace and its window-100 moving average."""

    rewards: np.ndarray
    curve: np.ndarray
    update_reports: list = field(default_factory=list)


def _pretrain_actor(agent, series, cfg, split_end):
    """Optional supervised warm start: regress the actor onto oracle actions."""
    env = cfg.env
    rng = rng_for(cfg.seed, "pretrain")
    batch = agent.config.batch_size
    for _ in range(agent.config.pretrain_steps):
        ts = rng.integers(env.window_n, split_end, batch)
        obs = np.stack([observe(series, int(t), env).vector() for t in ts])
        n_a, n_b = solve_opt_array(series.d_a[ts], series.d_b[ts], env.zeta, env.n_r, env.d_min)
        targets = np.stack([n_a / env.n_r, n_b / env.n_r], axis=1)
        mu, cache = nn.forward_cache(agent.actor, obs)
        grad_w, grad_b, _ = nn.backward(agent.actor, cache, (2.0 / batch) * (mu - targets))
        nn.adam_step(agent.actor_opt, [agent.actor.flat], [nn.flatten_layers(grad_w, grad_b)])
    agent.target_actor = agent.actor.clone()


def train(agent_kind, series, cfg):
    """Train an agent on the leading split of the series.

    Each step draws a uniformly random training timestep, acts with
    exploration, stores the transition, and after warmup performs one
    gradient update. Deterministic given cfg.seed.
    """
    env = cfg.env
    n = len(series.timestamps)
    split_end = train_split_end(n, cfg.eval_split)
    if split_end <= env.window_n:
        raise ConfigError(
            f"training split [0, {split_end}) leaves no timestep with a "
            f"{env.window_n}-step history"
        )
    if max(split_end, env.window_n) >= n:
        raise ConfigError("evaluation split is empty")

    agent = make_agent(agent_kind, obs_dim=2 * (env.window_n + 1), config=cfg.agent, seed=cfg.seed)
    if agent.config.pretrain_steps > 0:
        _pretrain_actor(agent, series, cfg, split_end)
    buffer = ReplayBuffer(agent.config.buffer_capacity)
    t_rng = rng_for(cfg.seed, "tsample")
    warmup = agent.config.warmup_steps
    batch_size = agent.config.batch_size

    rewards = np.empty(cfg.train_steps)
    reports = []
    for i in range(cfg.train_steps):
        t = int(t_rng.integers(env.window_n, split_end))
        obs = observe(series, t, env)
        raw = agent.act(obs, explore=True)
        result = step(series, t, raw, env)
        buffer.add(Transition(obs=obs, raw_action=raw, reward=result.reward))
        rewards[i] = result.reward
        agent.explore_sigma *= agent.config.sigma_decay
        if i >= warmup and buffer.size >= batch_size:
            ob, ac, rw = buffer.sample(agent.batch_rng, batch_size)
            reports.append(agent.update(ob, ac, rw))
    curve = moving_average(rewards, 100) if cfg.train_steps > 0 else np.array([])
    return agent, TrainResult(rewards=rewards, curve=curve, update_reports=reports)


def greedy_policy(agent, series, cfg):
    """Feasible allocations over the evaluation split, no exploration.

    `agent` may be a trained agent, which acts one observation at a time,
    or one of the solver kinds: OPT_ORACLE solves the closed form over
    the evaluation split's demand columns in one array pass, and
    OPT_BASE solves once against the training prefix's demand maxima
    and repeats that allocation on every step. Returns one Allocation
    per evaluation step.
    """
    env = cfg.env
    steps = eval_timesteps(series, cfg)
    if isinstance(agent, (str, AgentKind)):
        kind = AgentKind(agent)
        if kind == AgentKind.OPT_ORACLE:
            n_a, n_b = solve_opt_array(
                series.d_a[steps.start:], series.d_b[steps.start:], env.zeta, env.n_r, env.d_min
            )
            return [Allocation(a, b) for a, b in zip(n_a.tolist(), n_b.tolist())]
        if kind == AgentKind.OPT_BASE:
            split_end = train_split_end(len(series.timestamps), cfg.eval_split)
            if split_end < 1:
                raise ConfigError("no training prefix to take demand maxima from")
            max_demand = (
                float(series.d_a[:split_end].max()),
                float(series.d_b[:split_end].max()),
            )
            alloc = solve_opt_base(max_demand, env.zeta, env.n_r, env.d_min).allocation
            return [alloc] * len(steps)
        raise ValueError(f"{kind.value} must be passed as a trained agent")
    allocs = []
    for t in steps:
        raw = agent.act(observe(series, t, env), explore=False)
        allocs.append(project_action(raw, env.n_r))
    return allocs


AGENT_FORMAT = "adapshare-agent"
AGENT_VERSION = 1


def _config_to_dict(cfg):
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def save_agent(agent, experiment, path):
    """Checkpoint the agent with enough context to rebuild and serve it."""
    payload = {
        "format": AGENT_FORMAT,
        "version": AGENT_VERSION,
        "agent_kind": agent.kind.value,
        "explore_sigma": agent.explore_sigma,
        "env": _config_to_dict(experiment.env),
        "agent_config": _config_to_dict(agent.config),
        "seed": experiment.seed,
        "train_steps": experiment.train_steps,
        "eval_split": experiment.eval_split,
        "actor": nn.mlp_to_dict(agent.actor),
        "critics": [nn.mlp_to_dict(c) for c in agent.critics],
        "target_actor": nn.mlp_to_dict(agent.target_actor),
        "target_critics": [nn.mlp_to_dict(c) for c in agent.target_critics],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_agent(path):
    """Rebuild (agent, ExperimentConfig) from a checkpoint file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != AGENT_FORMAT:
        raise ValueError(f"not an agent checkpoint: format={payload.get('format')!r}")
    if payload.get("version") != AGENT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    agent_cfg = dict(payload["agent_config"])
    agent_cfg["hidden_dims"] = tuple(agent_cfg["hidden_dims"])
    config = AgentConfig(**agent_cfg)
    env = EnvConfig(**payload["env"])
    experiment = ExperimentConfig(
        env=env,
        agent_kind=AgentKind(payload["agent_kind"]),
        agent=config,
        seed=payload["seed"],
        train_steps=payload["train_steps"],
        eval_split=payload["eval_split"],
    )
    agent = make_agent(payload["agent_kind"], obs_dim=2 * (env.window_n + 1), config=config)
    agent.explore_sigma = payload["explore_sigma"]
    agent.actor = nn.mlp_from_dict(payload["actor"])
    agent.critics = [nn.mlp_from_dict(c) for c in payload["critics"]]
    agent.target_actor = nn.mlp_from_dict(payload["target_actor"])
    agent.target_critics = [nn.mlp_from_dict(c) for c in payload["target_critics"]]
    agent.actor_opt = nn.AdamState([agent.actor.flat], config.actor_lr)
    agent.critic_opts = [nn.AdamState([c.flat], config.critic_lr) for c in agent.critics]
    return agent, experiment
