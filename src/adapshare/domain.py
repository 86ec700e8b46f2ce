"""Core value types shared across the package: demand series, allocations,
and the run configuration (EnvConfig, AgentConfig and ExperimentConfig,
each checking its fields by their annotations); the one CSV table reader
every input file goes through (read_table), which parses a file in
one np.loadtxt call or row by row, names path:line in each error it raises,
and checks each format's rules (a rule function per format, such as the
series rules DemandSeries also holds) once for both; and the one JSON
reader (load_json).

All types here are immutable after construction and safe to share between
parallel workers. Demands and allocations are continuous nonnegative reals
measured in PRB; integer rounding is a display concern, never done in the
math.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import os
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
        fault = _series_fault(ts, da, db, granularity)
        if fault is not None:
            raise ValueError(f"at index {fault[0]}: {fault[1]}")
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


def check_objective(zeta, d_min) -> None:
    """Refuse a zeta outside [0, 1] or a d_min not positive and finite (NaN included)."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta}")
    if not 0.0 < d_min < math.inf:
        raise ValueError(f"d_min must be positive and finite, got {d_min}")


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


def _is_header(cells, dtype) -> bool:
    """Whether `cells`, stripped, are the column names of `dtype`."""
    return [cell.strip() for cell in cells] == [name for name, _ in dtype]


def first_fault(checks):
    """(index, message) of the earliest bad row among `checks`, pairs of a
    boolean mask of bad rows and a function that words row i's fault; on
    one row the earlier check is named. None if no mask holds a row."""
    faults = [(int(bad.argmax()), word) for bad, word in checks if bad.any()]
    if not faults:
        return None
    i, word = min(faults, key=lambda fault: fault[0])
    return i, word(i)


def worded(text, col):
    """A first_fault wording: `text` with row i's value of `col`."""
    return lambda i: text.format(col[i])


def _series_fault(ts, d_a, d_b, granularity: int):
    """first_fault of a demand series' rules: every demand finite and
    nonnegative, every timestamp above the one before by `granularity`, a
    Python int that need not fit int64 (read_series_csv infers it)."""
    # np.diff wraps past int64, so the order is compared on the timestamps
    # themselves; a rising step's wrapped gap then equals a granularity in
    # (0, INT64_MAX] only if its true gap does, and it never equals 0
    step = granularity if 0 < granularity <= INT64_MAX else 0
    steady = (ts[1:] > ts[:-1]) & (np.diff(ts) == step)

    def step_fault(i):
        before, after = int(ts[i - 1]), int(ts[i])
        if after <= before:
            return f"timestamps must increase, got {after} after {before}"
        if granularity > INT64_MAX:
            return f"timestamp gap {granularity} does not fit int64"
        return f"timestamp gap {after - before} != {granularity}"

    # NaN fails every comparison
    demands = [(~((col >= 0) & (col < np.inf)),
                worded(name + " must be a finite nonnegative demand, got {}", col))
               for name, col in (("d_a", d_a), ("d_b", d_b))]
    return first_fault(demands + [(np.concatenate(([False], ~steady)), step_fault)])


def read_table(path, opener, dtype, rule) -> np.ndarray:
    """The data rows of the CSV file at `path`, in file order, as one
    structured array of `dtype`'s columns: int64, float64 and text
    ("S<width>"), which comes back as str as wide as its longest value.
    The file's header is the column names, joined by commas.
    `opener` opens the file, as Path(path).open does; rule(table) is the
    format's own check, first_fault of its rows. A byte pass over the file
    and one np.loadtxt call that reads it from its path (_loadtxt_table)
    parse it, quotes too; on any doubt or fault the row reader (_row_table)
    reads it through `opener` from the top and names path:line of the
    first bad row. Both end in _checked."""
    parsed = _loadtxt_table(path, dtype)
    if parsed is not None:
        table, fault = _checked(parsed, dtype, rule)
        if fault is None:
            return table
    # the row reader names the line; a fault found in the parsed table lies
    # in the rows up to it, which the row reader reads alike, so it stops there
    with opener(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        return _row_table(fh, path, dtype, rule, None if parsed is None else fault[0] + 1)


def _checked(table, dtype, rule):
    """`table`'s columns (a structured array's or a dict's) as one table,
    text as str (the row reader's as it is: its width counts a trailing NUL),
    and its first fault: a float that is not finite or rule's fault, on the
    earliest row (rule's if both are on one row)."""
    columns = [(name, _as_str(table[name]) if table[name].dtype.kind == "S" else table[name])
               for name, _ in dtype]
    table = np.empty(len(columns[0][1]), [(name, col.dtype) for name, col in columns])
    for name, col in columns:
        table[name] = col
    finite = first_fault([(~np.isfinite(table[name]),
                           worded(name + " must be a finite number, got {}", table[name]))
                          for name in table.dtype.names if table.dtype[name].kind == "f"])
    faults = [fault for fault in (rule(table), finite) if fault is not None]
    return table, min(faults, key=lambda fault: fault[0], default=None)


def _as_str(col) -> np.ndarray:
    """np.loadtxt's text column `col` as "U<width>" of its longest value (at
    least 1). Its bytes, stripped, are ASCII (_PLAIN_BYTES): each is widened
    to its code point first, as numpy casts bytes to str value by value."""
    col = np.strings.strip(col).view(np.uint8).astype(np.uint32).view(f"U{col.itemsize}")
    return col.astype(f"U{int(np.strings.str_len(col).max(initial=1))}")


# what np.loadtxt, quoting with '"', parses as csv, int() and float() do: printable ASCII, line ends
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\r\n"
# bytes per read of the byte pass; 128 KiB read and checked faster than 1 MiB
_CHUNK_BYTES = 1 << 17
# suffixes numpy's DataSource, which opens np.loadtxt's path, decompresses
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _loadtxt_table(path, dtype) -> np.ndarray | None:
    """The data rows of the CSV file at `path` as one np.loadtxt table, or
    None when the row reader must read it. A byte pass reads the file
    _CHUNK_BYTES at a time, up to the first chunk with a byte outside
    _PLAIN_BYTES; np.loadtxt then reads it from its path if it is a regular
    file (a pipe could not be read again) without a _COMPRESSED suffix,
    whose first line, within the first chunk, is dtype's header, and that
    does not hold both a '"' and a CR (np.loadtxt reads universal newlines,
    so a quoted CR would come back a LF). None too if np.loadtxt errs or
    warns (no data rows), the file changed since the byte pass, or a text
    value fills its width (np.loadtxt would cut one longer)."""
    if not os.path.isfile(path) or os.path.splitext(path)[1] in _COMPRESSED:
        return None
    identity = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")
    try:
        with open(path, "rb") as fh:
            seen, chunk = os.fstat(fh.fileno()), fh.read(_CHUNK_BYTES)
            header = chunk.split(b"\n", 1)[0].split(b"\r", 1)[0].decode("latin-1")
            if len(header) == _CHUNK_BYTES or not _is_header(header.split(","), dtype):
                return None
            quote = cr = False
            while chunk and not chunk.translate(None, _PLAIN_BYTES):
                quote, cr = quote or b'"' in chunk, cr or b"\r" in chunk
                chunk = fh.read(_CHUNK_BYTES)
        if chunk or quote and cr:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # absolute, so that numpy's DataSource never reads it as a URL
            table = np.loadtxt(os.path.join(os.getcwd(), path), dtype=dtype, delimiter=",", quotechar='"',
                               comments=None, skiprows=1, ndmin=1, encoding="ascii")
        if identity(os.stat(path)) != identity(seen):
            return None
    except (OSError, ValueError, Warning):
        return None
    texts = [table[name] for name in table.dtype.names if table.dtype[name].kind == "S"]
    return None if any((np.strings.str_len(col) >= col.itemsize).any() for col in texts) else table


def _row_table(lines, path, dtype, rule, stop) -> np.ndarray:
    """read_table's table of CSV `lines`, read and converted one row at a
    time up to `stop` rows (None: all), blank rows skipped. A ValueError
    names path:line of the first bad row: a line that is not UTF-8, a wrong
    header or width, a cell that does not convert (or an int64 that does not
    fit), or a fault of _checked, which checks the rows before it."""
    reader = csv.reader(lines)
    kinds = [np.dtype(spec).kind for _, spec in dtype]
    convert = [{"i": int, "f": float, "S": str.strip}[kind] for kind in kinds]
    ints = [(i, name) for i, ((name, _), kind) in enumerate(zip(dtype, kinds)) if kind == "i"]
    rows, line_nums, error = [], [], None
    try:
        found = next(reader, None) or []
        _utf8(found)
        if not _is_header(found, dtype):
            header = ",".join(name for name, _ in dtype)
            raise ValueError(f"expected header {header!r}, got {','.join(found)!r}")
        for cells in reader:
            if not "".join(cells).isascii():
                _utf8(cells)
            if len(cells) != len(dtype):
                if len(cells) <= 1 and not "".join(cells).strip():
                    continue
                raise ValueError(f"expected {len(dtype)} fields, got {len(cells)}")
            # a tuple, which the garbage collector stops tracking
            row = tuple([conv(cell) for conv, cell in zip(convert, cells)])
            for i, name in ints:
                if not INT64_MIN <= row[i] <= INT64_MAX:
                    raise ValueError(f"{name} must fit int64, got {row[i]}")
            rows.append(row)
            line_nums.append(reader.line_num)
            if len(rows) == stop:
                break
    except (ValueError, csv.Error) as exc:
        error = reader.line_num or 1, exc
    columns = list(zip(*rows)) or [()] * len(dtype)
    table, fault = _checked({name: np.array(col, dtype=str if kind == "S" else spec)
                             for col, (name, spec), kind in zip(columns, dtype, kinds)}, dtype, rule)
    if fault is not None:
        raise ValueError(f"{path}:{line_nums[fault[0]]}: {fault[1]}")
    if error is not None:
        raise ValueError(f"{path}:{error[0]}: {error[1]}") from error[1]
    return table


def _utf8(cells) -> None:
    """Refuse cells that hold bytes that are not UTF-8 (as lone surrogates)."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("not UTF-8 text") from None


_SERIES_DTYPE = [("timestamp", np.int64), ("d_a", np.float64), ("d_b", np.float64)]


def read_series_csv(path) -> DemandSeries:
    """Read the canonical demand CSV through read_table. Granularity is
    inferred from the first timestamp gap, so a file needs two rows."""
    table = read_table(path, Path(path).open, _SERIES_DTYPE, _series_rule)
    if len(table) < 2:
        raise ValueError(f"{path}: no data rows" if len(table) == 0
                         else f"{path}: cannot infer granularity from fewer than 2 rows")
    ts, d_a, d_b = (np.ascontiguousarray(table[name]) for name, _ in _SERIES_DTYPE)
    return DemandSeries(ts, d_a, d_b, int(ts[1]) - int(ts[0]))


def _series_rule(table):
    ts = table["timestamp"]
    # Python ints: the first gap may not fit int64
    return _series_fault(ts, table["d_a"], table["d_b"], int(ts[1]) - int(ts[0]) if len(ts) > 1 else 1)
