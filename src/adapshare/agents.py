"""DDPG and TD3 agents over the spectrum-sharing bandit.

Both agents learn a deterministic actor mapping the demand-history
observation to a raw action in [0,1]^2. Each allocation is a one-step
contextual bandit whose reward is -(1 + eta) J, so the critic regresses
on the reward itself: there is no successor state to bootstrap from.
TD3 is DDPG whose actor moves only on every td3_policy_delay-th update
(Fujimoto et al. 2018, arXiv:1802.09477). The target networks are
Polyak-averaged copies that nothing reads, and checkpoints omit them.
TRAINABLE names the kinds train() takes. The hyperparameters are
domain.AgentConfig, kept with the other settings so that parsing them
imports no networks; it is importable from here too.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .domain import AgentConfig, AgentKind, EnvConfig, ExperimentConfig
from .env import RawAction, observation_rows, observe, project_action, step
from .metrics import build_report, moving_average
# solve_opt is not called here, but bench/phases.py times the sweep's
# solver calls through agents.solve_opt and agents.solve_opt_base
from .oracle import solve_opt, solve_opt_array, solve_opt_base  # noqa: F401
from .seeding import rng_for


class InsufficientData(ValueError):
    """Asked to sample a batch larger than the buffer holds."""


class ConfigError(ValueError):
    """Series/config combination leaves no usable train or eval steps."""


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions, one [obs | u_a u_b | reward]
    row each."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.size = 0
        self.cursor = 0
        self._rows = None

    def add(self, obs_vec, raw, reward):
        if self._rows is None:
            self._rows = np.zeros((self.capacity, obs_vec.size + 3))
        row = self._rows[self.cursor]
        row[:-3] = obs_vec
        row[-3:] = (raw.u_a, raw.u_b, reward)
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, batch_size):
        """Uniform with-replacement sample from the filled region, gathered
        once: returns ([obs | u_a u_b] rows, rewards), both views of the
        gather."""
        if self.size < batch_size:
            raise InsufficientData(f"buffer holds {self.size} < batch of {batch_size}")
        rows = self._rows[rng.integers(0, self.size, batch_size)]
        return rows[:, :-1], rows[:, -1]


# Polyak rate of the target networks; no output reads the targets
TAU = 0.005


class DdpgAgent:
    """Deterministic policy gradient with a single critic."""

    kind = AgentKind.DDPG

    def __init__(self, obs_dim, config=None, seed=0):
        self.config = config if config is not None else AgentConfig()
        self.obs_dim = int(obs_dim)
        cfg = self.config
        hidden = list(cfg.hidden_dims)
        actor_dims = [self.obs_dim] + hidden + [2]
        critic_dims = [self.obs_dim + 2] + hidden + [1]
        acts_hidden = ["relu"] * len(hidden)
        self.actor = nn.Mlp(actor_dims, acts_hidden + ["sigmoid"], rng_for(seed, "init", "actor"))
        # "critic1" names the stream TD3's first twin critic drew from,
        # so every seed keeps its initial weights
        self.critic = nn.Mlp(critic_dims, acts_hidden + ["identity"], rng_for(seed, "init", "critic1"))
        self.target_actor = self.actor.clone()
        self.target_critic = self.critic.clone()
        self.actor_opt = nn.AdamState([self.actor.flat], cfg.actor_lr)
        self.critic_opt = nn.AdamState([self.critic.flat], cfg.critic_lr)
        self.explore_rng = rng_for(seed, "explore")
        self.batch_rng = rng_for(seed, "batch")
        self.explore_sigma = cfg.explore_sigma
        self.policy_delay = cfg.td3_policy_delay if self.kind == AgentKind.TD3 else 1
        self.update_count = 0

    def act(self, obs, explore=False):
        """The actor's action for an Observation; with explore, perturbed
        by one N(0, explore_sigma^2) draw per component."""
        noise = self.explore_rng.standard_normal(2) * self.explore_sigma if explore else None
        return self._action(obs.vector(), noise)

    def _action(self, obs_vec, noise=None):
        """The raw action for an observation vector, with optional
        exploration noise added and clipped to the unit box."""
        mu = nn.forward(self.actor, obs_vec)
        if noise is not None:
            mu = np.clip(mu + noise, 0.0, 1.0)
        return RawAction(u_a=float(mu[0]), u_b=float(mu[1]))

    def _update_critic(self, obs_act, rew):
        """One mean-squared-error step of Q(obs, act) towards the reward."""
        q, cache = nn.forward_cache(self.critic, obs_act)
        err = q - rew[:, None]
        grad, _ = nn.backward(self.critic, cache, (2.0 / obs_act.shape[0]) * err, inputs=False)
        nn.adam_step(self.critic_opt, [self.critic.flat], [grad])

    def _update_actor(self, obs):
        batch = obs.shape[0]
        mu, actor_cache = nn.forward_cache(self.actor, obs)
        x = np.concatenate([obs, mu], axis=1)
        _, critic_cache = nn.forward_cache(self.critic, x)
        # ascend mean Q: backprop -1/B through the critic into the action slice
        _, dx = nn.backward(self.critic, critic_cache, np.full((batch, 1), -1.0 / batch), params=False)
        grad, _ = nn.backward(self.actor, actor_cache, dx[:, self.obs_dim:], inputs=False)
        nn.adam_step(self.actor_opt, [self.actor.flat], [grad])

    def update(self, obs_act, rew):
        """One step on a batch of [obs | u_a u_b] rows and their rewards."""
        self._update_critic(obs_act, rew)
        if self.update_count % self.policy_delay == 0:
            self._update_actor(obs_act[:, :self.obs_dim])
            nn.soft_update(self.target_actor, self.actor, TAU)
            nn.soft_update(self.target_critic, self.critic, TAU)
        self.update_count += 1


class Td3Agent(DdpgAgent):
    """DDPG whose actor and targets move only on every td3_policy_delay-th update."""

    kind = AgentKind.TD3
    # DDPG's own function, bound here too: bench/spans.py traces Td3Agent.__dict__["update"]
    update = DdpgAgent.update


_AGENT_CLASSES = {AgentKind.DDPG: DdpgAgent, AgentKind.TD3: Td3Agent}
# the kinds train() takes; the rest are solvers that greedy_policy runs
TRAINABLE = tuple(_AGENT_CLASSES)


def make_agent(kind, obs_dim, config=None, seed=0):
    kind = AgentKind(kind)
    if kind not in _AGENT_CLASSES:
        raise ValueError(f"{kind.value} is a solver, not a trainable agent")
    return _AGENT_CLASSES[kind](obs_dim, config=config, seed=seed)


def train_split_end(length, eval_split):
    """First index of the held-out tail; training uses [0, split_end)."""
    return int(round(length * (1.0 - eval_split)))


def eval_timesteps(series, cfg):
    """The held-out timesteps; a ConfigError if there are none."""
    n = len(series.timestamps)
    start = max(train_split_end(n, cfg.eval_split), cfg.env.window_n)
    if start >= n:
        raise ConfigError(
            f"evaluation split is empty: it would start at step {start} of a "
            f"{n}-step series (eval_split {cfg.eval_split}, env.window_n {cfg.env.window_n})"
        )
    return range(start, n)


@dataclass
class TrainResult:
    """Reward trace and its window-100 moving average."""

    rewards: np.ndarray
    curve: np.ndarray


def train(agent_kind, series, cfg):
    """Train an agent on the leading split of the series.

    Each step draws a uniformly random training timestep, acts with
    exploration, stores the transition, and after warmup performs one
    gradient update. The timesteps and the exploration noise are drawn
    up front, with the bits per-step draws would give; the exploration
    scale decays by sigma_decay after every step. Deterministic given
    cfg.seed.
    """
    env = cfg.env
    n = len(series.timestamps)
    split_end = train_split_end(n, cfg.eval_split)
    if split_end <= env.window_n:
        raise ConfigError(
            f"training split [0, {split_end}) leaves no timestep with a "
            f"{env.window_n}-step history"
        )
    eval_timesteps(series, cfg)

    agent = make_agent(agent_kind, obs_dim=2 * (env.window_n + 1), config=cfg.agent, seed=cfg.seed)
    obs_rows = observation_rows(series, split_end, env)
    buffer = ReplayBuffer(agent.config.buffer_capacity)
    warmup = agent.config.warmup_steps
    batch_size = agent.config.batch_size

    steps = cfg.train_steps
    ts = rng_for(cfg.seed, "tsample").integers(env.window_n, split_end, steps)
    # sigmas[i] is the scale at step i, the running product of the decay
    sigmas = np.full(steps + 1, agent.config.sigma_decay)
    sigmas[0] = agent.explore_sigma
    np.multiply.accumulate(sigmas, out=sigmas)
    noise = agent.explore_rng.standard_normal((steps, 2))
    noise *= sigmas[:-1, None]
    rewards = np.empty(steps)
    for i, t in enumerate(ts.tolist()):
        obs_vec = obs_rows[t - env.window_n]
        raw = agent._action(obs_vec, noise[i])
        r = step(series, t, raw, env).reward
        buffer.add(obs_vec, raw, r)
        rewards[i] = r
        if i >= warmup and buffer.size >= batch_size:
            agent.update(*buffer.sample(agent.batch_rng, batch_size))
    agent.explore_sigma = float(sigmas[-1])
    curve = moving_average(rewards, 100) if steps > 0 else np.array([])
    return agent, TrainResult(rewards=rewards, curve=curve)


def _grants(n_a, n_b):
    """The grant record array of two float64 columns."""
    return np.rec.fromarrays((n_a, n_b), names="n_a,n_b")


def greedy_policy(agent, series, cfg):
    """Feasible grants over the evaluation split, no exploration.

    `agent` may be a trained agent, which acts one observation at a time,
    or one of the solver kinds: OPT_ORACLE solves the closed form over
    the evaluation split's demand columns in one array pass, and
    OPT_BASE solves once against the training prefix's demand maxima
    and repeats that allocation on every step. Returns a grant record
    array: float64 fields n_a and n_b, one row per evaluation step.
    """
    env = cfg.env
    steps = eval_timesteps(series, cfg)
    if isinstance(agent, (str, AgentKind)):
        kind = AgentKind(agent)
        if kind == AgentKind.OPT_ORACLE:
            return _grants(*solve_opt_array(
                series.d_a[steps.start:], series.d_b[steps.start:], env.zeta, env.n_r, env.d_min
            ))
        if kind == AgentKind.OPT_BASE:
            split_end = train_split_end(len(series.timestamps), cfg.eval_split)
            if split_end < 1:
                raise ConfigError("no training prefix to take demand maxima from")
            max_demand = (
                float(series.d_a[:split_end].max()),
                float(series.d_b[:split_end].max()),
            )
            alloc = solve_opt_base(max_demand, env.zeta, env.n_r, env.d_min).allocation
            return _grants(np.full(len(steps), alloc.n_a), np.full(len(steps), alloc.n_b))
        raise ValueError(f"{kind.value} must be passed as a trained agent")
    n_a = np.empty(len(steps))
    n_b = np.empty(len(steps))
    for i, t in enumerate(steps):
        alloc = project_action(agent.act(observe(series, t, env), explore=False), env.n_r)
        n_a[i], n_b[i] = alloc.n_a, alloc.n_b
    return _grants(n_a, n_b)


def evaluate(policy, series, cfg):
    """Score `policy` on the held-out tail of `series`.

    `policy` is anything greedy_policy takes. Its grant record array is
    scored against the tail's demands, and the report's per_step matrix
    carries the tail's timestamps.
    """
    grants = greedy_policy(policy, series, cfg)
    start = eval_timesteps(series, cfg).start
    return build_report(
        grants,
        np.column_stack((series.d_a[start:], series.d_b[start:])),
        cfg.env.zeta,
        cfg.env.d_min,
        timestamps=series.timestamps[start:],
    )


AGENT_FORMAT = "adapshare-agent"
AGENT_VERSION = 3
# AgentConfig fields that v1 and v2 checkpoints stored and that are
# gone; a v1 file whose gamma is not 0 trained a different objective
_RETIRED_CONFIG = ("gamma", "td3_target_noise", "td3_noise_clip", "tau", "pretrain_steps")


def _config_to_dict(cfg):
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def save_agent(agent, experiment, path):
    """Checkpoint the actor and critic with enough context to rebuild and serve them."""
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
        "critic": nn.mlp_to_dict(agent.critic),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _field(payload, name, kind, path):
    """payload[name] if present and a `kind`, not a bool; the error names field and file."""
    if name not in payload:
        raise ValueError(f"{path}: checkpoint has no {name!r}")
    value = payload[name]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{path}: checkpoint {name!r} is a {type(value).__name__}")
    return value


def _upgrade(payload, version, path):
    """A v1 or v2 payload in v3 form: retired config keys dropped, v1's first critic kept."""
    agent_cfg = dict(_field(payload, "agent_config", dict, path))
    gamma = agent_cfg.get("gamma", 0.0)
    if gamma != 0:
        raise ValueError(
            f"{path}: agent_config.gamma is {gamma!r}; only gamma 0 checkpoints can be loaded"
        )
    for key in _RETIRED_CONFIG:
        agent_cfg.pop(key, None)
    out = dict(payload, agent_config=agent_cfg)
    if version == 1:
        critics = _field(payload, "critics", list, path)
        if not critics:
            raise ValueError(f"{path}: checkpoint 'critics' is empty")
        out["critic"] = critics[0]
    return out


def _build(name, path, make, *args, **kwargs):
    """make(*args, **kwargs), any failure raised as a ValueError naming field and file."""
    try:
        return make(*args, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint {name!r}: {exc}") from exc


def load_agent(path):
    """Rebuild (agent, ExperimentConfig) from a v3, v2 or v1 checkpoint file.
    Its target networks are the copies make_agent built; nothing reads them."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != AGENT_FORMAT:
        raise ValueError(f"{path}: not an agent checkpoint")
    version = payload.get("version")
    if version in (1, 2):
        payload = _upgrade(payload, version, path)
    elif version != AGENT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    config = _build("agent_config", path, AgentConfig, **_field(payload, "agent_config", dict, path))
    env = _build("env", path, EnvConfig, **_field(payload, "env", dict, path))
    kind = _build("agent_kind", path, AgentKind, _field(payload, "agent_kind", str, path))
    experiment = _build(
        "train_steps/eval_split", path, ExperimentConfig, env=env, agent_kind=kind, agent=config,
        seed=_field(payload, "seed", int, path),
        train_steps=_field(payload, "train_steps", int, path),
        eval_split=_field(payload, "eval_split", (int, float), path),
    )
    agent = _build("agent_kind", path, make_agent, kind, obs_dim=2 * (env.window_n + 1), config=config)
    agent.explore_sigma = _field(payload, "explore_sigma", (int, float), path)
    if not 0 <= agent.explore_sigma < np.inf:
        raise ValueError(f"{path}: checkpoint 'explore_sigma' must be a finite number >= 0")
    for name in ("actor", "critic"):
        net = _build(name, path, nn.mlp_from_dict, _field(payload, name, dict, path))
        # make_agent built each network in the shape env and agent_config imply
        fresh = getattr(agent, name)
        if (net.dims, net.activations) != (fresh.dims, fresh.activations):
            raise ValueError(
                f"{path}: checkpoint {name!r} has dims {net.dims} and activations "
                f"{net.activations}; env and agent_config imply {fresh.dims}, {fresh.activations}"
            )
        setattr(agent, name, net)
    agent.actor_opt = nn.AdamState([agent.actor.flat], config.actor_lr)
    agent.critic_opt = nn.AdamState([agent.critic.flat], config.critic_lr)
    return agent, experiment
