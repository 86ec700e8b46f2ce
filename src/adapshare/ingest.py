"""Control-channel trace ingestion: parse DCI-style CSV logs, keep the rows
that carry data grants, and resample per-millisecond PRB totals onto a
coarser uniform grid.

Pipeline: parse_dci_csv -> filter_data_transmissions -> resample_mean, then
merge_series pairs two one-sided results into a single (d_a, d_b) series.
A trace is one numpy record array with the DCI_HEADER columns; a row that
does not parse or holds a value out of range is refused with its path:line.

parse_dci_csv parses the file as it reads it, through domain.loadtxt_passes,
which states when the row reader (domain.read_csv_rows) takes the file
instead. A trace adds two rules of its own: a dci_format value of
_FORMAT_WIDTH or more characters (np.loadtxt cuts it short without a word)
and a value out of range. The records, and the path:line errors, are the
row reader's.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .domain import INT64_MAX, INT64_MIN, DemandSeries, loadtxt_passes, positive_int, read_csv_rows

DCI_HEADER = "sfn,subframe,rnti,prb_count,mcs,dci_format,timestamp"

# DCI format tag that marks data transmissions in the traces we consume
DATA_DCI_FORMAT = "2B"

SFN_MAX, SUBFRAME_MAX = 1023, 9
# dci_format's width in bytes in an np.loadtxt pass; np.loadtxt cuts a
# longer value short, and the width costs time and memory per row, so keep
# it small. A pass reads only ASCII, so bytes hold the text as it is.
_FORMAT_WIDTH = 8
_TABLE_DTYPE = [(name, f"S{_FORMAT_WIDTH}" if name == "dci_format" else np.int64)
                for name in DCI_HEADER.split(",")]


class AlignmentMismatch(ValueError):
    """Two series cannot be merged: spacing or timestamps disagree."""


def _dci_row(cells) -> tuple:
    """One trace row in DCI_HEADER order; a ValueError names the value
    out of range. Every integer must fit int64."""
    sfn, subframe, rnti, prb_count, mcs = map(int, cells[:5])
    timestamp = int(cells[6])
    if not 0 <= sfn <= SFN_MAX:
        raise ValueError(f"sfn out of range: {sfn}")
    if not 0 <= subframe <= SUBFRAME_MAX:
        raise ValueError(f"subframe out of range: {subframe}")
    if not 0 <= prb_count <= INT64_MAX:
        raise ValueError(f"prb_count must be a nonnegative int64: {prb_count}")
    if not 0 <= timestamp <= INT64_MAX:
        raise ValueError(f"timestamp must be a nonnegative int64 of milliseconds: {timestamp}")
    if not (INT64_MIN <= rnti <= INT64_MAX and INT64_MIN <= mcs <= INT64_MAX):
        raise ValueError(f"rnti and mcs must fit int64, got {rnti}, {mcs}")
    return sfn, subframe, rnti, prb_count, mcs, cells[5].strip(), timestamp


def parse_dci_csv(path) -> np.recarray:
    """Parse a DCI trace CSV into one record array, in file order: int64
    columns, and `dci_format` as text as wide as its longest value.

    A malformed row raises a ValueError naming path:line rather than being
    skipped silently.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        records = _whole_file(fh)
    if records is not None:
        return records
    # from the top: the row reader names the line of a bad row or of bytes
    # that are not UTF-8
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = read_csv_rows(fh, DCI_HEADER, _dci_row, path)
    names = DCI_HEADER.split(",")
    columns = list(zip(*rows)) or [()] * len(names)
    return np.rec.fromarrays(
        [np.array(col, dtype=str if name == "dci_format" else np.int64)
         for name, col in zip(names, columns)],
        names=names,
    )


def _whole_file(lines: Iterable[str]) -> np.recarray | None:
    """parse_dci_csv's records from loadtxt_passes over `lines`, or None
    when the row reader must read them (see the module docstring)."""
    tables = loadtxt_passes(lines, DCI_HEADER, _TABLE_DTYPE, _in_range)
    if tables is None:
        return None
    # as the row reader: dci_format stripped, as text as wide as its
    # longest value
    width = 1
    for table in tables:
        table["dci_format"] = np.strings.strip(table["dci_format"])
        width = max(width, int(np.strings.str_len(table["dci_format"]).max(initial=0)))
    dtype = [(name, f"U{width}" if name == "dci_format" else np.int64) for name in DCI_HEADER.split(",")]
    return np.concatenate(tables, dtype=dtype, casting="unsafe").view(np.recarray)


def _in_range(table: np.ndarray) -> bool:
    """Whether every value of an np.loadtxt pass is in range, and every
    dci_format value shorter than _FORMAT_WIDTH."""
    # prb_count and timestamp have no upper bound below int64's own
    return not (
        (np.strings.str_len(table["dci_format"]) >= _FORMAT_WIDTH).any()
        or (table["sfn"] > SFN_MAX).any()
        or (table["subframe"] > SUBFRAME_MAX).any()
        or any((table[name] < 0).any() for name in ("sfn", "subframe", "prb_count", "timestamp"))
    )


def filter_data_transmissions(records: np.recarray, dci_format: str = DATA_DCI_FORMAT) -> np.recarray:
    """Keep only records with the given DCI format, order preserved."""
    return records[records.dci_format == dci_format]


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
    b's becomes d_b."""
    if a.granularity != b.granularity:
        raise AlignmentMismatch(f"granularity mismatch: {a.granularity} vs {b.granularity}")
    if len(a) != len(b):
        raise AlignmentMismatch(f"length mismatch: {len(a)} vs {len(b)}")
    if not np.array_equal(a.timestamps, b.timestamps):
        raise AlignmentMismatch("timestamps are not aligned")
    col_a = a.column(a.populated_side() or "a")
    col_b = b.column(b.populated_side() or "b")
    return DemandSeries(a.timestamps.copy(), col_a.copy(), col_b.copy(), a.granularity)
