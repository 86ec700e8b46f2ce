"""Key=value config files mirroring the run-config dataclasses.

One assignment per line, `#` lines are comments. Nested fields use
dotted names (`env.n_r = 60`, `agent.actor_lr = 1e-4`); list-valued
sweep fields take comma-separated values (`n_r_values = 20,60,100`).
Callers overlay sources in precedence order (defaults < file <
ADAPSHARE_SEED < CLI flags) before building the dataclasses.

The key table is derived: one key per field of ExperimentConfig,
EnvConfig (`env.`) and AgentConfig (`agent.`), parsed by its annotation,
plus the three sweep lists.
"""

import math
from dataclasses import fields

from ..domain import AgentKind, EnvConfig, ExperimentConfig, _type_name
from ..agents import AgentConfig


class ConfigFileError(ValueError):
    """Unparseable line or unknown key in a config file."""


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text.strip()!r}")
    return value


def _int_list(text):
    return tuple(int(part.strip()) for part in text.split(","))


def _float_list(text):
    return tuple(_finite(part) for part in text.split(","))


def _kind(text):
    return AgentKind(text.strip().lower())


def _kind_list(text):
    return tuple(_kind(part) for part in text.split(","))


_PARSERS = {"float": _finite, "int": int, "tuple": _int_list, "AgentKind": _kind}
SWEEP_KEYS = {"n_r_values": _float_list, "zeta_values": _float_list, "agent_kinds": _kind_list}

# every assignable key with its parser; ExperimentConfig's env and agent
# fields are the env. and agent. sections, not keys
COERCERS = {
    prefix + field.name: _PARSERS[_type_name(field)]
    for prefix, cls in (("", ExperimentConfig), ("env.", EnvConfig), ("agent.", AgentConfig))
    for field in fields(cls)
    if field.name not in ("env", "agent")
} | SWEEP_KEYS


def _coerce(key, value):
    """value parsed for key if it is a string; the error names the key."""
    if key not in COERCERS:
        raise ConfigFileError(f"unknown config key {key!r}")
    try:
        return COERCERS[key](value) if isinstance(value, str) else value
    except (ValueError, TypeError) as exc:
        raise ConfigFileError(f"bad value for {key}: {exc}") from exc


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
            try:
                mapping[key] = _coerce(key, value.strip())
            except ConfigFileError as exc:
                raise ConfigFileError(f"{path}:{lineno}: {exc}") from exc
    return mapping


def coerce_overrides(raw):
    """Coerce a {key: string} mapping of CLI-style overrides."""
    return {key: _coerce(key, value) for key, value in raw.items()}


def build_experiment(mapping):
    """Construct an ExperimentConfig from a coerced mapping.

    env.n_r is the one field without a default and must be present.
    """
    sweep_keys = sorted(key for key in mapping if key in SWEEP_KEYS)
    if sweep_keys:
        raise ConfigFileError(f"sweep-only keys in a single-run config: {sweep_keys}")
    if "env.n_r" not in mapping:
        raise ConfigFileError("env.n_r is required (no default pool size)")
    sections = {"": {}, "env": {}, "agent": {}}
    for key, value in mapping.items():
        section, _, name = key.rpartition(".")
        sections[section][name] = value
    top, env, agent = sections.values()
    return ExperimentConfig(env=EnvConfig(**env), agent=AgentConfig(**agent), **top)
