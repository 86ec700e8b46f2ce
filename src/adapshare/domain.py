"""Core value types shared across the package: demand series, allocations,
and the run configuration (EnvConfig, AgentConfig and ExperimentConfig,
each checking its fields by their annotations); the one CSV row reader
every input file goes through (read_csv_rows), which names path:line in
each error it raises, and the np.loadtxt passes (loadtxt_passes) that may
read a file in its place; and the one JSON reader (load_json).

All types here are immutable after construction and safe to share between
parallel workers. Demands and allocations are continuous nonnegative reals
measured in PRB; integer rounding is a display concern, never done in the
math.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _is_number(value) -> bool:
    """A real in float range, not a bool: NaN, inf and an int past float range fail."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


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
        if granularity > INT64_MAX:
            raise ValueError(f"granularity must fit int64, got {granularity}")
        # np.diff wraps past int64, so the order is compared on the
        # timestamps themselves; a rising step's wrapped gap then equals
        # the granularity only if its true gap does
        steady = (ts[1:] > ts[:-1]) & (np.diff(ts) == granularity)
        if not steady.all():
            bad = int(np.argmin(steady)) + 1
            before, after = int(ts[bad - 1]), int(ts[bad])
            if after <= before:
                raise ValueError(f"timestamps must increase at index {bad}: {after} after {before}")
            raise ValueError(f"non-uniform spacing at index {bad}: gap {after - before} != {granularity}")
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
        for name in ("actor_lr", "critic_lr", "batch_size", "buffer_capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
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


def load_json(text):
    """json.loads(text); every refusal is a ValueError, also for input
    nested past the recursion limit, where json.loads raises RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _is_header(cells, header: str) -> bool:
    """Whether `cells`, stripped, are the names in `header`."""
    return [cell.strip() for cell in cells] == header.split(",")


def read_csv_rows(lines, header: str, parse, path) -> list:
    """parse(cells) for each data row of CSV `lines` under `header`, in
    file order; blank rows are skipped. A wrong header, a row of the wrong
    width, or a ValueError from parse raises a ValueError naming path:line."""
    reader = csv.reader(lines)
    width = len(header.split(","))
    rows = []
    try:
        found = next(reader, None)
        if found is None or not _is_header(found, header):
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


# what np.loadtxt parses as the csv module, int() and float() do: printable
# ASCII except the quote, and line ends
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\r\n"
# lines per np.loadtxt pass: a file is parsed as it is read, in passes that
# stay small in memory
_CHUNK_LINES = 512


def _plain(lines: list[str]) -> bool:
    """Whether `lines` hold only _PLAIN_BYTES."""
    text = "".join(lines)
    return text.isascii() and not text.encode("ascii").translate(None, _PLAIN_BYTES)


def loadtxt_passes(lines, header: str, dtype, check) -> list[np.ndarray] | None:
    """The data rows of CSV `lines` under `header` as np.loadtxt tables of
    `dtype`, one per pass of _CHUNK_LINES lines, or None when the row reader
    (read_csv_rows) must read the file instead, from the top: a header whose
    stripped cells do not match, a byte outside _PLAIN_BYTES (quotes, NUL,
    tabs and other control characters, non-ASCII text, bytes that are not
    UTF-8), any np.loadtxt error or warning (a row of the wrong width, a
    whitespace-only row, a pass or file without data rows, an integer that
    is not a plain int64 such as 1_000 or 1.0), or a pass whose table
    check(table) refuses. No line is kept past its pass."""
    lines = iter(lines)
    tables = []
    try:
        first = next(lines, None)
        if first is None or not _is_header(first.split(","), header) or not _plain([first]):
            return None
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            if not _plain(chunk):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(chunk, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            if not check(table):
                return None
            tables.append(table)
    # a UnicodeDecodeError is a ValueError
    except (ValueError, Warning):
        return None
    return tables or None


_SERIES_DTYPE = [("timestamp", np.int64), ("d_a", np.float64), ("d_b", np.float64)]


def read_series_csv(path) -> DemandSeries:
    """Read the canonical demand CSV. Granularity is inferred from the first
    timestamp gap, so a file needs at least two rows.

    The file is parsed as it is read, in np.loadtxt passes
    (_loadtxt_series). The row reader (_series_rows) reads it instead, from
    the top, when those passes could read it otherwise or would refuse it;
    its series and its path:line errors are the only ones.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        series = _loadtxt_series(fh)
    return series if series is not None else _series_rows(path)


def _loadtxt_series(lines) -> DemandSeries | None:
    """The series in `lines` from loadtxt_passes, or None when the row
    reader must read them: the passes decline, there are fewer than two
    rows, or DemandSeries refuses the columns."""
    tables = loadtxt_passes(lines, SERIES_HEADER, _SERIES_DTYPE, lambda table: True)
    if tables is None:
        return None
    ts, d_a, d_b = (np.concatenate([table[name] for table in tables]) for name, _ in _SERIES_DTYPE)
    if len(ts) < 2:
        return None
    try:
        # Python ints: the first gap may overflow int64
        return DemandSeries(ts, d_a, d_b, int(ts[1]) - int(ts[0]))
    except ValueError:
        return None


def _series_rows(path) -> DemandSeries:
    """read_series_csv through the row reader, one row at a time."""
    granularity = None
    ts = []

    def row(cells):
        nonlocal granularity
        t, a, b = int(cells[0]), float(cells[1]), float(cells[2])
        if not INT64_MIN <= t <= INT64_MAX:
            raise ValueError(f"timestamp must fit int64, got {t}")
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
                if gap > INT64_MAX:
                    raise ValueError(f"timestamp gap {gap} does not fit int64")
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
