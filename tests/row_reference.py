"""The row-wise rules the CSV readers held before they shared
domain.read_table, kept as the reference that reader is checked against:
the row loop (header, width and blank rows, path:line), the DCI row
(`dci_row`) and the series row (`series_rows`), one row at a time, each
with its own conversions and checks. The loop's one newer rule names the
line of bytes that are not UTF-8, which it reads with surrogateescape.

Messages are compared by where they point (`where`): read_table words some
faults otherwise, and tests of their own pin those texts.
"""

import csv
import math

import numpy as np

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
SFN_MAX, SUBFRAME_MAX = 1023, 9
DCI_HEADER = "sfn,subframe,rnti,prb_count,mcs,dci_format,timestamp"
SERIES_HEADER = "timestamp,d_a,d_b"


def read_rows(path, header, parse):
    """parse(cells) for each data row of the CSV file at `path` under
    `header`, in file order; blank rows are skipped. A ValueError names
    path:line."""
    width = len(header.split(","))
    rows = []
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found is not None:
                _utf8(found)
            if found is None or [cell.strip() for cell in found] != header.split(","):
                raise ValueError(f"expected header {header!r}, got {','.join(found or [])!r}")
            for cells in reader:
                _utf8(cells)
                if len(cells) != width:
                    if len(cells) <= 1 and not "".join(cells).strip():
                        continue
                    raise ValueError(f"expected {width} fields, got {len(cells)}")
                rows.append(parse(cells))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num or 1}: {exc}") from exc
    return rows


def _utf8(cells):
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError("not UTF-8 text") from None


def dci_row(cells):
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


def dci_records(path):
    """The trace at `path` as parse_dci_csv's record array: int64 columns,
    and dci_format as text as wide as its longest value."""
    rows = read_rows(path, DCI_HEADER, dci_row)
    names = DCI_HEADER.split(",")
    columns = list(zip(*rows)) or [()] * len(names)
    return np.rec.fromarrays(
        [np.array(col, dtype=str if name == "dci_format" else np.int64) for name, col in zip(names, columns)],
        names=names,
    )


def series_rows(path):
    """The series at `path` as (timestamps, d_a, d_b, granularity), read one
    row at a time; a row that breaks a rule names its path:line."""
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

    demands = read_rows(path, SERIES_HEADER, row)
    if not demands:
        raise ValueError(f"{path}: no data rows")
    if granularity is None:
        raise ValueError(f"{path}: cannot infer granularity from fewer than 2 rows")
    d_a, d_b = zip(*demands)
    return np.array(ts, np.int64), np.array(d_a), np.array(d_b), granularity


def where(exc, path):
    """The path:line a reader's ValueError starts with, or path: for a
    fault of the whole file."""
    text = str(exc)
    assert text.startswith(f"{path}:"), text
    line = text[len(str(path)) + 1:].split(":", 1)[0]
    return f"{path}:{line}" if line.isdigit() else f"{path}:"
