"""Core value types shared across the package: demand series, allocations,
and run configuration.

All types here are immutable after construction and safe to share between
parallel workers. Demands and allocations are continuous nonnegative reals
measured in PRB; integer rounding is a display concern, never done in the
math.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoids a domain <-> agents import cycle
    from .agents import AgentConfig


def _is_integral(value) -> bool:
    return isinstance(value, numbers.Real) and math.isfinite(value) and int(value) == value


class AgentKind(str, Enum):
    """Allocation policy families understood by the harness."""

    DDPG = "ddpg"
    TD3 = "td3"
    OPT_ORACLE = "opt_oracle"
    OPT_BASE = "opt_base"


def _type_name(field) -> str:
    """A dataclass field's annotation by name, deferred (a string) or not."""
    return field.type if isinstance(field.type, str) else field.type.__name__


def _check_fields(config) -> None:
    """Check a config dataclass's float, int and AgentKind fields by their
    annotations, naming the field; ints and kinds are stored canonically."""
    for field in fields(config):
        name, value, kind = field.name, getattr(config, field.name), _type_name(field)
        if kind == "float":
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        elif kind == "int":
            if not _is_integral(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(config, name, int(value))
        elif kind == "AgentKind":
            try:
                object.__setattr__(config, name, AgentKind(value))
            except ValueError:
                kinds = ", ".join(k.value for k in AgentKind)
                raise ValueError(f"{name} must be one of {kinds}, got {value!r}") from None


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
        if granularity <= 0 or int(granularity) != granularity:
            raise ValueError(f"granularity must be a positive integer, got {granularity}")
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
        self.granularity = int(granularity)
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
class ExperimentConfig:
    """Everything one training/evaluation run depends on."""

    env: EnvConfig
    agent_kind: AgentKind = AgentKind.TD3
    agent: "AgentConfig | None" = None
    seed: int = 42
    train_steps: int = 20000
    eval_split: float = 0.25

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 < self.eval_split < 1.0:
            raise ValueError(f"eval_split must lie in (0, 1), got {self.eval_split}")
        if self.train_steps < 0:
            raise ValueError(f"train_steps must be nonnegative, got {self.train_steps}")
        if self.agent is None:
            from .agents import AgentConfig

            object.__setattr__(self, "agent", AgentConfig())

    def with_env(self, **changes) -> "ExperimentConfig":
        return replace(self, env=replace(self.env, **changes))


SERIES_HEADER = "timestamp,d_a,d_b"


def write_series_csv(series: DemandSeries, path) -> None:
    """Write the canonical demand CSV: header timestamp,d_a,d_b, LF endings."""
    lines = [SERIES_HEADER]
    for i in range(len(series)):
        lines.append(f"{int(series.timestamps[i])},{float(series.d_a[i])!r},{float(series.d_b[i])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_series_csv(path, granularity: int | None = None) -> DemandSeries:
    """Read the canonical demand CSV. Granularity is inferred from the first
    timestamp gap unless given; single-sample files need it explicitly."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"demand series file not found: {p}")
    lines = p.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != SERIES_HEADER:
        raise ValueError(f"{p}: expected header {SERIES_HEADER!r}, got {lines[0]!r}" if lines else f"{p}: empty file")
    ts, da, db = [], [], []
    for k, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise ValueError(f"{p}:{k}: expected 3 fields, got {len(cells)}")
        try:
            t, a, b = int(cells[0]), float(cells[1]), float(cells[2])
        except ValueError as exc:
            raise ValueError(f"{p}:{k}: {exc}") from exc
        if not (math.isfinite(a) and math.isfinite(b) and a >= 0 and b >= 0):
            raise ValueError(f"{p}:{k}: demands must be finite and nonnegative, got {a}, {b}")
        if ts:
            if t <= ts[-1]:
                raise ValueError(f"{p}:{k}: timestamps must increase, got {t} after {ts[-1]}")
            if granularity is None:
                granularity = t - ts[0]
            elif t - ts[-1] != granularity:
                raise ValueError(f"{p}:{k}: timestamp gap {t - ts[-1]} != {granularity}")
        ts.append(t)
        da.append(a)
        db.append(b)
    if granularity is None:
        raise ValueError(f"{p}: cannot infer granularity from fewer than 2 rows")
    return DemandSeries(ts, da, db, granularity)
