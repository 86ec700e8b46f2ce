"""Control-channel trace ingestion: parse DCI-style CSV logs, keep the rows
that carry data grants, and resample per-millisecond PRB totals onto a
coarser uniform grid.

Pipeline: parse_dci_csv -> filter_data_transmissions -> resample_mean, then
merge_series pairs two one-sided results into a single (d_a, d_b) series.
A trace is one numpy record array with the DCI_HEADER columns, read through
domain.read_table: a byte pass, then one np.loadtxt call on the file's path,
quotes too. Its one rule is each value's range (_out_of_range); a row that
breaks it or does not parse is refused with its path:line by the row reader.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .domain import INT64_MAX, DemandSeries, first_fault, positive_int, read_table, worded

DCI_HEADER = "sfn,subframe,rnti,prb_count,mcs,dci_format,timestamp"

# DCI format tag that marks data transmissions in the traces we consume
DATA_DCI_FORMAT = "2B"

SFN_MAX, SUBFRAME_MAX = 1023, 9
# dci_format is 8 bytes wide for np.loadtxt (width costs time per row); 8 bytes or more take the row reader
_DCI_DTYPE = [(name, "S8" if name == "dci_format" else np.int64) for name in DCI_HEADER.split(",")]
# each range checked, in the order a row's faults are named; prb_count and
# timestamp have no upper bound below int64's own
_RANGES = (
    ("sfn", SFN_MAX, "sfn out of range: {}"),
    ("subframe", SUBFRAME_MAX, "subframe out of range: {}"),
    ("prb_count", INT64_MAX, "prb_count must be a nonnegative int64: {}"),
    ("timestamp", INT64_MAX, "timestamp must be a nonnegative int64 of milliseconds: {}"),
)


class AlignmentMismatch(ValueError):
    """Two series cannot be merged: spacing or timestamps disagree."""


def parse_dci_csv(path) -> np.recarray:
    """Parse a DCI trace CSV into one record array, in file order: int64
    columns, and `dci_format` as text as wide as its longest value.

    A malformed row raises a ValueError naming path:line rather than being
    skipped silently.
    """
    return read_table(path, Path(path).open, _DCI_DTYPE, _out_of_range).view(np.recarray)


def _out_of_range(table: np.ndarray):
    """first_fault of the trace's ranges, or None; as uint64 a negative int64 is above every top."""
    return first_fault([(table[name].view(np.uint64) > top, worded(text, table[name]))
                        for name, top, text in _RANGES])


def filter_data_transmissions(records: np.recarray, dci_format: str = DATA_DCI_FORMAT) -> np.recarray:
    """Keep only records with the given DCI format, order preserved; np.compress copies whole records."""
    return np.compress(records.dci_format == dci_format, records)


def millisecond_totals(records: np.recarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum prb_count over records sharing a millisecond timestamp.

    All grants in a subframe count toward network-level usage, regardless
    of RNTI. Returns (timestamps_ms, totals) sorted ascending.
    """
    uniq, inverse = np.unique(records.timestamp, return_inverse=True)
    return uniq, np.bincount(inverse, weights=records.prb_count.astype(np.float64), minlength=len(uniq))


def resample_mean(records: np.recarray, granularity_s: int, side_tag: str = "a") -> DemandSeries:
    """Average per-millisecond PRB totals into epoch-aligned windows of
    `granularity_s` seconds.

    Window k covers [k*G, (k+1)*G) milliseconds with G = granularity_s*1000;
    the output step's demand is the arithmetic mean of the totals falling in
    the window. Windows inside the covered span with no totals yield 0, so
    the output spacing stays uniform. Only the `side_tag` column is
    populated.
    """
    granularity_s = positive_int(granularity_s, "granularity_s")
    if granularity_s > INT64_MAX // 1000:
        raise ValueError(f"granularity_s must be at most {INT64_MAX // 1000} seconds, as its milliseconds "
                         f"must fit int64, got {granularity_s}")
    if side_tag not in ("a", "b"):
        raise ValueError(f"side_tag must be 'a' or 'b', got {side_tag!r}")
    if len(records) == 0:
        raise ValueError("cannot resample an empty record array")
    ts_ms, totals = millisecond_totals(records)
    window_ms = granularity_s * 1000
    windows = ts_ms // window_ms
    k0, k1 = int(windows[0]), int(windows[-1])
    n_windows = k1 - k0 + 1
    offsets = windows - k0
    sums = np.bincount(offsets, weights=totals, minlength=n_windows)
    counts = np.bincount(offsets, minlength=n_windows)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    out_ts = (np.arange(k0, k1 + 1, dtype=np.int64)) * granularity_s
    columns = means, np.zeros_like(means)
    return DemandSeries(out_ts, *(columns if side_tag == "a" else columns[::-1]), granularity_s)


def merge_series(a: DemandSeries, b: DemandSeries) -> DemandSeries:
    """Pair two aligned series into one: a's populated column becomes d_a,
    b's becomes d_b. The result shares its inputs' read-only arrays."""
    if a.granularity != b.granularity:
        raise AlignmentMismatch(f"granularity mismatch: {a.granularity} vs {b.granularity}")
    if len(a) != len(b):
        raise AlignmentMismatch(f"length mismatch: {len(a)} vs {len(b)}")
    if not np.array_equal(a.timestamps, b.timestamps):
        raise AlignmentMismatch("timestamps are not aligned")
    col_a = a.column(a.populated_side() or "a")
    col_b = b.column(b.populated_side() or "b")
    return DemandSeries(a.timestamps, col_a, col_b, a.granularity)
