"""Key=value config files mirroring the run-config dataclasses.

One assignment per line, `#` lines are comments. Nested fields use
dotted names (`env.n_r = 60`, `agent.actor_lr = 1e-4`); list-valued
sweep fields take comma-separated values (`n_r_values = 20,60,100`).
Callers overlay sources in precedence order (defaults < file <
ADAPSHARE_SEED < CLI flags) before building the dataclasses.
"""

from ..domain import AgentKind, EnvConfig, ExperimentConfig
from ..agents import AgentConfig


class ConfigFileError(ValueError):
    """Unparseable line or unknown key in a config file."""


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_list(text):
    return tuple(int(part.strip()) for part in text.split(","))


def _float_list(text):
    return tuple(float(part.strip()) for part in text.split(","))


def _kind(text):
    return AgentKind(text.strip().lower())


def _kind_list(text):
    return tuple(_kind(part) for part in text.split(","))


# every assignable key with its parser; grouped by the dataclass it feeds
COERCERS = {
    "seed": int,
    "train_steps": int,
    "eval_split": float,
    "agent_kind": _kind,
    "env.n_r": float,
    "env.zeta": float,
    "env.eta": float,
    "env.window_n": int,
    "env.d_min": float,
    "env.capacity_norm": float,
    "agent.actor_lr": float,
    "agent.critic_lr": float,
    "agent.tau": float,
    "agent.batch_size": int,
    "agent.buffer_capacity": int,
    "agent.explore_sigma": float,
    "agent.sigma_decay": float,
    "agent.td3_policy_delay": int,
    "agent.warmup_steps": int,
    "agent.hidden_dims": _int_list,
    "agent.pretrain_steps": int,
    "n_r_values": _float_list,
    "zeta_values": _float_list,
    "agent_kinds": _kind_list,
}


def parse_config_file(path):
    """Read a key=value file into a coerced mapping."""
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigFileError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in COERCERS:
                raise ConfigFileError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                mapping[key] = COERCERS[key](value)
            except (ValueError, TypeError) as exc:
                raise ConfigFileError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return mapping


def coerce_overrides(raw):
    """Coerce a {key: string} mapping of CLI-style overrides."""
    out = {}
    for key, value in raw.items():
        if key not in COERCERS:
            raise ConfigFileError(f"unknown config key {key!r}")
        out[key] = COERCERS[key](value) if isinstance(value, str) else value
    return out


def _split_mapping(mapping):
    env_kv, agent_kv, top_kv, sweep_kv = {}, {}, {}, {}
    for key, value in mapping.items():
        if key.startswith("env."):
            env_kv[key[len("env."):]] = value
        elif key.startswith("agent."):
            agent_kv[key[len("agent."):]] = value
        elif key in ("n_r_values", "zeta_values", "agent_kinds"):
            sweep_kv[key] = value
        else:
            top_kv[key] = value
    return env_kv, agent_kv, top_kv, sweep_kv


def build_experiment(mapping):
    """Construct an ExperimentConfig from a coerced mapping.

    env.n_r is the one field without a default and must be present.
    """
    env_kv, agent_kv, top_kv, sweep_kv = _split_mapping(mapping)
    if sweep_kv:
        raise ConfigFileError(f"sweep-only keys in a single-run config: {sorted(sweep_kv)}")
    if "n_r" not in env_kv:
        raise ConfigFileError("env.n_r is required (no default pool size)")
    env = EnvConfig(**env_kv)
    agent = AgentConfig(**agent_kv)
    return ExperimentConfig(env=env, agent=agent, **top_kv)

