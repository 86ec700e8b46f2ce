"""Core value types shared across the package: demand series, allocations,
and the run configuration (EnvConfig, AgentConfig and ExperimentConfig,
each checking its fields by their annotations); and the one CSV row
reader every input file goes through (read_csv_rows), which names
path:line in each error it raises.

All types here are immutable after construction and safe to share between
parallel workers. Demands and allocations are continuous nonnegative reals
measured in PRB; integer rounding is a display concern, never done in the
math.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np


def _is_number(value) -> bool:
    """A finite real that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_integral(value) -> bool:
    return _is_number(value) and int(value) == value


def positive_int(value, name) -> int:
    """value as an int if it is a whole number above 0 and not a bool;
    otherwise a ValueError names `name`."""
    if not _is_integral(value) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


class AgentKind(str, Enum):
    """Allocation policy families understood by the harness."""

    DDPG = "ddpg"
    TD3 = "td3"
    OPT_ORACLE = "opt_oracle"
    OPT_BASE = "opt_base"


def as_agent_kind(value, name):
    """value as an AgentKind; a ValueError names `name` if it is none."""
    try:
        return AgentKind(value)
    except ValueError:
        kinds = ", ".join(k.value for k in AgentKind)
        raise ValueError(f"{name} must be one of {kinds}, got {value!r}") from None


def _check_fields(config) -> None:
    """Check a config dataclass's float, int and AgentKind fields by their
    annotations, naming the field; ints and kinds are stored canonically.
    A bool is refused as a float or an int."""
    for f in fields(config):
        name, value, kind = f.name, getattr(config, f.name), f.type
        if kind == "float":
            if not _is_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        elif kind == "int":
            if not _is_integral(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(config, name, int(value))
        elif kind == "AgentKind":
            object.__setattr__(config, name, as_agent_kind(value, name))


class DemandSeries:
    """Uniformly spaced time series of per-network PRB demand.

    Stored as parallel numpy arrays; consecutive timestamps must differ by
    exactly `granularity` seconds.
    """

    def __init__(self, timestamps, d_a, d_b, granularity: int):
        ts = np.asarray(timestamps, dtype=np.int64)
        da = np.asarray(d_a, dtype=np.float64)
        db = np.asarray(d_b, dtype=np.float64)
        if not (len(ts) == len(da) == len(db)):
            raise ValueError("timestamps, d_a, d_b must have equal length")
        if len(ts) < 1:
            raise ValueError("a demand series needs at least one sample")
        granularity = positive_int(granularity, "granularity")
        if len(ts) > 1:
            gaps = np.diff(ts)
            if not np.all(gaps == granularity):
                bad = int(np.argmax(gaps != granularity))
                raise ValueError(
                    f"non-uniform spacing at index {bad + 1}: gap {gaps[bad]} != {granularity}"
                )
        for name, col in (("d_a", da), ("d_b", db)):
            ok = np.isfinite(col) & (col >= 0)
            if not ok.all():
                bad = int(np.argmin(ok))
                raise ValueError(f"{name}[{bad}] must be a finite nonnegative demand, got {col[bad]}")
        self.timestamps = ts
        self.d_a = da
        self.d_b = db
        self.granularity = granularity
        for arr in (self.timestamps, self.d_a, self.d_b):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.timestamps)

    def demand(self, i: int) -> tuple[float, float]:
        """The (d_a, d_b) pair at step i."""
        return float(self.d_a[i]), float(self.d_b[i])

    def populated_side(self) -> str | None:
        """"a" or "b" if only that column carries demand, else None."""
        a_used = bool(np.any(self.d_a != 0))
        b_used = bool(np.any(self.d_b != 0))
        if a_used and b_used:
            return None
        if b_used:
            return "b"
        return "a"

    def column(self, side: str) -> np.ndarray:
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")
        return self.d_a if side == "a" else self.d_b


def clamp_demand(d: float, d_min: float) -> float:
    """Floor a demand at d_min so fractional-error denominators stay positive.

    A NaN or infinite demand has no meaningful floor and is rejected.
    """
    if not math.isfinite(d):
        raise ValueError(f"demand must be finite, got {d}")
    return d if d > d_min else d_min


def clamp_demands(d, d_min: float, name: str) -> np.ndarray:
    """clamp_demand over a whole column, element for element the same bits.

    `name` labels the column in the error a non-finite entry raises.
    """
    d = np.asarray(d, dtype=np.float64)
    if not np.isfinite(d).all():
        raise ValueError(f"{name} must be finite, got {d[~np.isfinite(d)][0]}")
    return np.where(d > d_min, d, d_min)


@dataclass(frozen=True)
class Allocation:
    """A PRB grant pair. Pool feasibility (n_a + n_b <= n_r) is enforced by
    the constructors that know the pool size: action projection and the
    exact solvers."""

    n_a: float
    n_b: float

    def __post_init__(self):
        # NaN fails both comparisons; an infinite grant passes, as only a
        # caller that knows the pool size can bound it (bench/test_smoke.py
        # builds one to test the benchmark's allocation check)
        if not (self.n_a >= 0 and self.n_b >= 0):
            raise ValueError(f"grants must be nonnegative numbers, got ({self.n_a}, {self.n_b})")


@dataclass(frozen=True)
class EnvConfig:
    """Environment parameters.

    zeta weighs network A's squared fractional error against B's; eta scales
    the penalty on the objective (reward = -(1 + eta) * J, so eta rescales
    but never reorders actions); window_n is the number of past demand pairs
    observed in addition to the current one; capacity_norm divides raw
    demands into observation features.
    """

    n_r: float
    zeta: float = 0.5
    eta: float = 0.0
    window_n: int = 4
    d_min: float = 0.1
    capacity_norm: float = 100.0

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must lie in [0, 1], got {self.zeta}")
        if self.n_r <= 0:
            raise ValueError(f"n_r must be positive, got {self.n_r}")
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if self.window_n < 0:
            raise ValueError(f"window_n must be a nonnegative integer, got {self.window_n!r}")
        if self.d_min <= 0:
            raise ValueError(f"d_min must be positive, got {self.d_min}")
        if self.capacity_norm < self.n_r:
            raise ValueError(
                f"capacity_norm ({self.capacity_norm}) must cover the pool size ({self.n_r})"
            )


@dataclass(frozen=True)
class AgentConfig:
    """Learning hyperparameters; every field may be overridden per run."""

    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 50_000
    explore_sigma: float = 0.2
    sigma_decay: float = 0.9995
    td3_policy_delay: int = 2
    warmup_steps: int = 500
    hidden_dims: tuple = (64, 64)

    def __post_init__(self):
        _check_fields(self)
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size < 1 or self.buffer_capacity < 1:
            raise ValueError("batch_size and buffer_capacity must be positive")
        if self.explore_sigma < 0:
            raise ValueError(f"explore_sigma must be nonnegative, got {self.explore_sigma}")
        if not 0.0 < self.sigma_decay <= 1.0:
            raise ValueError(f"sigma_decay must lie in (0, 1], got {self.sigma_decay}")
        if self.td3_policy_delay < 1:
            raise ValueError("td3_policy_delay must be a positive integer")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be nonnegative, got {self.warmup_steps}")
        if len(self.hidden_dims) == 0 or not all(_is_integral(h) and h >= 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive widths, got {self.hidden_dims}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one training/evaluation run depends on."""

    env: EnvConfig
    agent_kind: AgentKind = AgentKind.TD3
    agent: AgentConfig = field(default_factory=AgentConfig)
    seed: int = 42
    train_steps: int = 20000
    eval_split: float = 0.25

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 < self.eval_split < 1.0:
            raise ValueError(f"eval_split must lie in (0, 1), got {self.eval_split}")
        if self.train_steps < 0:
            raise ValueError(f"train_steps must be nonnegative, got {self.train_steps}")

    def with_env(self, **changes) -> ExperimentConfig:
        return replace(self, env=replace(self.env, **changes))


SERIES_HEADER = "timestamp,d_a,d_b"


def write_series_csv(series: DemandSeries, path) -> None:
    """Write the canonical demand CSV: header timestamp,d_a,d_b, LF endings."""
    lines = [SERIES_HEADER]
    for i in range(len(series)):
        lines.append(f"{int(series.timestamps[i])},{float(series.d_a[i])!r},{float(series.d_b[i])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv_rows(lines, header: str, parse, path) -> list:
    """parse(cells) for each data row of CSV `lines` under `header`, in
    file order; blank rows are skipped. A wrong header, a row of the wrong
    width, or a ValueError from parse raises a ValueError naming path:line."""
    reader = csv.reader(lines)
    names = header.split(",")
    width = len(names)
    rows = []
    try:
        found = next(reader, None)
        if found is None or [cell.strip() for cell in found] != names:
            raise ValueError(f"expected header {header!r}, got {','.join(found or [])!r}")
        for cells in reader:
            if len(cells) != width:
                if len(cells) <= 1 and not "".join(cells).strip():
                    continue
                raise ValueError(f"expected {width} fields, got {len(cells)}")
            rows.append(parse(cells))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}:{reader.line_num or 1}: {exc}") from exc
    return rows


def read_series_csv(path, granularity: int | None = None) -> DemandSeries:
    """Read the canonical demand CSV. Granularity is inferred from the first
    timestamp gap unless given; single-sample files need it explicitly."""
    if granularity is not None:
        granularity = positive_int(granularity, "granularity")
    ts = []

    def row(cells):
        nonlocal granularity
        t, a, b = int(cells[0]), float(cells[1]), float(cells[2])
        # NaN fails every comparison
        if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
            raise ValueError(f"demands must be finite and nonnegative, got {a}, {b}")
        if ts:
            gap = t - ts[-1]
            if gap != granularity:
                if gap <= 0:
                    raise ValueError(f"timestamps must increase, got {t} after {ts[-1]}")
                if granularity is not None:
                    raise ValueError(f"timestamp gap {gap} != {granularity}")
                granularity = gap
        ts.append(t)
        return a, b

    with open(path, newline="", encoding="utf-8") as fh:
        demands = read_csv_rows(fh, SERIES_HEADER, row, path)
    if not demands:
        raise ValueError(f"{path}: no data rows")
    if granularity is None:
        raise ValueError(f"{path}: cannot infer granularity from fewer than 2 rows")
    d_a, d_b = zip(*demands)
    return DemandSeries(ts, d_a, d_b, granularity)
