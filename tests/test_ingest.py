import contextlib
import io
import os
import tempfile
import urllib.request
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapshare import domain, ingest
from adapshare.domain import DemandSeries
from adapshare.ingest import (
    DCI_HEADER,
    AlignmentMismatch,
    filter_data_transmissions,
    merge_series,
    millisecond_totals,
    parse_dci_csv,
    resample_mean,
)
from conftest import loadtxt_route
from row_reference import dci_records, where

HEADER = DCI_HEADER + "\n"
COLUMNS = DCI_HEADER.split(",")


def trace(*rows):
    """A record array shaped like parse_dci_csv's, from (prb_count,
    timestamp_ms) or (prb_count, timestamp_ms, dci_format) rows."""
    prb, ts, fmt = zip(*(row + ("2B",) * (3 - len(row)) for row in rows)) if rows else ((), (), ())
    n = len(rows)
    return np.rec.fromarrays(
        [
            np.ones(n, np.int64), np.zeros(n, np.int64), np.full(n, 0x1234, np.int64),
            np.array(prb, np.int64), np.full(n, 16, np.int64), np.array(fmt, dtype=str),
            np.array(ts, np.int64),
        ],
        names=COLUMNS,
    )


class TestParse:
    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(HEADER + "512,3,4660,25,16,2B,1674000000000\n")
        records = parse_dci_csv(path)
        assert isinstance(records, np.recarray)
        assert list(records.dtype.names) == COLUMNS
        assert len(records) == 1
        r = records[0]
        assert (r.sfn, r.subframe, r.rnti) == (512, 3, 4660)
        assert r.prb_count == 25
        assert r.dci_format == "2B"
        assert r.timestamp == 1674000000000
        assert records.timestamp.dtype == np.int64

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER)
        records = parse_dci_csv(path)
        assert len(records) == 0
        assert list(records.dtype.names) == COLUMNS

    def test_long_format_kept_whole(self, tmp_path):
        path = tmp_path / "long.csv"
        name = "Format2B_with_a_long_vendor_suffix"
        path.write_text(HEADER + f"1,0,1,5,1,{name},0\n2,0,1,7,1,1A,1\n")
        records = parse_dci_csv(path)
        assert records.dci_format.tolist() == [name, "1A"]
        assert len(filter_data_transmissions(records, name)) == 1

    def test_blank_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(HEADER + "1,0,1,5,1,2B,0\n\n   \n1,0,1,-5,1,2B,0\n")
        with pytest.raises(ValueError, match=r"gaps\.csv:5: prb_count"):
            parse_dci_csv(path)

    def test_subframe_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "512,12,4660,25,16,2B,1674000000000\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: subframe out of range: 12"):
            parse_dci_csv(path)

    def test_sfn_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "1024,0,4660,25,16,2B,1674000000000\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: sfn out of range: 1024"):
            parse_dci_csv(path)

    def test_negative_prb(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "512,0,4660,-3,16,2B,1674000000000\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: prb_count must be a nonnegative int64"):
            parse_dci_csv(path)

    @pytest.mark.parametrize("timestamp", ["-5", "9223372036854775808", "99999999999999999999"])
    def test_timestamp_outside_int64_ms(self, tmp_path, timestamp):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "512,0,4660,3,16,2B,1674000000000\n"
                        f"512,0,4660,3,16,2B,{timestamp}\n")
        # a negative one breaks the range; a larger one the conversion, which
        # names every int64 column alike
        message = ("timestamp must be a nonnegative int64 of milliseconds: " if timestamp == "-5"
                   else "timestamp must fit int64, got ")
        with pytest.raises(ValueError, match=rf"bad\.csv:3: {message}{timestamp}$"):
            parse_dci_csv(path)

    @pytest.mark.parametrize("row", ["1,0,99999999999999999999,3,16,2B,0", "1,0,1,3,-9223372036854775809,2B,0"])
    def test_rnti_and_mcs_must_fit_int64(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + row + "\n")
        name, value = ("rnti", row.split(",")[2]) if len(row.split(",")[2]) > 1 else ("mcs", row.split(",")[4])
        with pytest.raises(ValueError, match=rf"bad\.csv:2: {name} must fit int64, got {value}$"):
            parse_dci_csv(path)

    def test_sfn_past_int64_named_by_the_conversion(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + f"{2 ** 63},0,1,3,16,2B,0\n")
        with pytest.raises(ValueError, match=rf"bad\.csv:2: sfn must fit int64, got {2 ** 63}$"):
            parse_dci_csv(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "512,0,4660,ten,16,2B,1674000000000\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: invalid literal"):
            parse_dci_csv(path)

    def test_wrong_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "512,0,4660,10,16,2B\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: expected 7 fields, got 6"):
            parse_dci_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1: expected header"):
            parse_dci_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_dci_csv(tmp_path / "absent.csv")


def outcome(parse, path):
    """("records", dtype, bytes) of what parse makes of path, or ("error",
    path:line) for the ValueError it raises."""
    try:
        records = parse(path)
    except ValueError as exc:
        return "error", where(exc, path)
    return "records", records.dtype, records.tobytes()


def whole_file_pass(path):
    return loadtxt_route(path, ingest._DCI_DTYPE, ingest._out_of_range)


def loadtxt_records(path):
    return whole_file_pass(path).view(np.recarray)


PLAIN_ROW = "512,3,4660,25,16,2B,1674000000000"


def counting_opener(path, lines_read):
    """An opener of `path` for domain.read_table that appends to
    `lines_read` a count of the lines each opening hands out."""

    def counting(fh):
        for line in fh:
            lines_read[-1] += 1
            yield line

    @contextlib.contextmanager
    def counted(**kwargs):
        lines_read.append(0)
        with open(path, **kwargs) as fh:
            yield counting(fh)

    return counted


def counting_binary_open(bytes_read):
    """An open for domain.read_table's byte pass that appends to
    `bytes_read` a count of the bytes each opening hands out."""

    class Counted(io.BufferedReader):
        def read(self, size=-1):
            data = super().read(size)
            bytes_read[-1] += len(data)
            return data

    def counted(file, mode):
        bytes_read.append(0)
        return Counted(io.FileIO(file, mode))

    return counted


class TestWholeFilePass:
    """parse_dci_csv parses a file in one np.loadtxt call where it reads it
    as the row reader does, and hands the rest to the row reader; either
    way it returns the records of the reference rules (row_reference) or
    names the line they name."""

    @pytest.mark.parametrize("body, whole_file", [
        pytest.param(PLAIN_ROW.replace("2B", '"2B"'), True, id="quoted_field"),
        pytest.param(PLAIN_ROW.replace("2B", "2\x00B"), False, id="nul_byte"),
        # numpy's str drops a trailing NUL, but the column is as wide as the str
        pytest.param(PLAIN_ROW.replace("2B", "2B\x00"), False, id="trailing_nul"),
        pytest.param(PLAIN_ROW.replace("2B", " 2B "), True, id="padded_format"),
        pytest.param(PLAIN_ROW.replace("2B", "Format2B_vendor"), False, id="over_long_format"),
        pytest.param(PLAIN_ROW.replace("2B", "abcdefgh"), False, id="format_at_the_width"),
        pytest.param(PLAIN_ROW.replace("25", "1_000"), False, id="underscore"),
        pytest.param(PLAIN_ROW.replace("25", "+5"), True, id="plus_sign"),
        pytest.param(PLAIN_ROW.replace("25", "25\x1c"), False, id="separator_after_a_number"),
        pytest.param("", False, id="header_only"),
        pytest.param(f"{PLAIN_ROW}\r\n\r\n{PLAIN_ROW}\r\n", True, id="crlf"),
        # np.loadtxt reads the file with universal newlines: a quoted CR
        # would come back as a LF, so a file with a quote and a CR takes the
        # row reader
        pytest.param(PLAIN_ROW.replace("2B", '"2\rB"'), False, id="quoted_cr"),
        pytest.param(PLAIN_ROW.replace("2B", '"2\r\nB"'), False, id="quoted_crlf"),
        pytest.param(PLAIN_ROW.replace("2B", '"2\nB"'), True, id="quoted_lf"),
        pytest.param(f"{PLAIN_ROW}\r\n" + PLAIN_ROW.replace("2B", '"2B"') + "\r", False, id="quoted_cell_and_crlf"),
        pytest.param(f"{PLAIN_ROW}\n   \n{PLAIN_ROW}\n", False, id="whitespace_only_row"),
        pytest.param("\n".join([PLAIN_ROW] * 5 + [PLAIN_ROW.replace("512", "1024", 1), PLAIN_ROW]),
                     False, id="sfn_out_of_range_on_line_7"),
        # the first bad row in file order is named, whatever breaks it
        pytest.param("\n".join([PLAIN_ROW, PLAIN_ROW.replace("512", "1024", 1), PLAIN_ROW.replace("25", "ten")]),
                     False, id="range_fault_before_a_conversion_fault"),
        pytest.param("\n".join([PLAIN_ROW, PLAIN_ROW.replace("25", "ten"), PLAIN_ROW.replace("512", "1024", 1)]),
                     False, id="conversion_fault_before_a_range_fault"),
    ])
    def test_same_outcome_as_the_row_reader(self, tmp_path, body, whole_file):
        path = tmp_path / "trace.csv"
        path.write_bytes((HEADER + body + ("\n" if body else "")).encode("utf-8"))
        assert (whole_file_pass(path) is not None) == whole_file
        assert outcome(parse_dci_csv, path) == outcome(dci_records, path)

    def test_undecodable_bytes_named_by_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(HEADER.encode() + PLAIN_ROW.encode() + b"\n" + b"1,0,1,5,1,\xff,0\n")
        assert outcome(parse_dci_csv, path) == ("error", f"{path}:3")
        assert outcome(parse_dci_csv, path) == outcome(dci_records, path)
        # past the text layer's first 8 KiB decode chunk too
        rows = [PLAIN_ROW] * 1000
        rows[900] = PLAIN_ROW.replace("2B", "2\xff")
        path = tmp_path / "baddci.csv"
        path.write_bytes(HEADER.encode() + "\n".join(rows).encode("latin-1") + b"\n")
        with pytest.raises(ValueError) as info:
            parse_dci_csv(path)
        assert str(info.value) == f"{path}:902: not UTF-8 text"

    def test_fixture_takes_the_whole_file_pass(self, dci_fixture_path):
        assert outcome(loadtxt_records, dci_fixture_path) == outcome(dci_records, dci_fixture_path)

    def test_quoted_fixture_reads_as_the_plain_one(self, dci_fixture_path):
        quoted = dci_fixture_path.with_name("dci_small_quoted.csv")
        assert whole_file_pass(quoted) is not None
        assert outcome(parse_dci_csv, quoted) == outcome(parse_dci_csv, dci_fixture_path)

    def test_slices_join_into_the_row_readers_records(self, tmp_path, monkeypatch):
        # the byte pass reads the 12 rows in chunks of 64 bytes
        monkeypatch.setattr(domain, "_CHUNK_BYTES", 64)
        rows = [PLAIN_ROW.replace("2B", fmt) for fmt in ["2B", " 1A", "0", "abcdefg", "", "2B "] * 2]
        path = tmp_path / "trace.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        assert outcome(loadtxt_records, path) == outcome(dci_records, path)
        assert outcome(parse_dci_csv, path) == outcome(dci_records, path)

    def test_row_reader_stops_at_the_fault_the_passes_found(self, tmp_path, monkeypatch):
        rows = [PLAIN_ROW] * 3000
        rows[8] = PLAIN_ROW.replace("512", "1024", 1)
        path = tmp_path / "trace.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        lines_read, bytes_read = [], []  # per opening of the file
        monkeypatch.setattr(domain, "open", counting_binary_open(bytes_read), raising=False)
        with pytest.raises(ValueError) as info:
            domain.read_table(path, counting_opener(path, lines_read), ingest._DCI_DTYPE, ingest._out_of_range)
        assert str(info.value) == f"{path}:10: sfn out of range: 1024"
        # the byte pass read every byte and np.loadtxt the file from its
        # path; through the opener, the row reader read the header and 9 rows
        assert bytes_read == [path.stat().st_size]
        assert lines_read == [10]

    def test_row_reader_stops_within_a_block_of_a_bad_cell(self, tmp_path):
        # the byte pass admits the quotes, and np.loadtxt reads them and
        # declines at the bad cell; the row reader converts each row as it
        # reads it, so it hands out the header and two rows only
        rows = [PLAIN_ROW.replace("2B", '"2B"')] * 3000
        rows[1] = rows[1].replace("25", "ten")
        path = tmp_path / "trace.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        lines_read = []  # per opening of the file
        with pytest.raises(ValueError) as info:
            domain.read_table(path, counting_opener(path, lines_read), ingest._DCI_DTYPE, ingest._out_of_range)
        assert str(info.value) == f"{path}:3: invalid literal for int() with base 10: 'ten'"
        assert lines_read == [3]

    @pytest.mark.parametrize("cell, message, row_reader_lines", [
        pytest.param("1024\t", "sfn out of range: 1024", 5001, id="tab"),
        pytest.param("x", "invalid literal for int() with base 10: 'x'", 2000, id="unparsable_int"),
    ])
    def test_loadtxt_call_declines_within_a_block_of_the_bad_line(self, tmp_path, monkeypatch, cell, message,
                                                                  row_reader_lines):
        # the tab ends the byte pass at the chunk that holds it, and the row
        # reader refuses its sfn once it has read every row, as a range is a
        # rule of the whole table; np.loadtxt refuses the int itself, after
        # the byte pass read the whole file, and the row reader stops there
        monkeypatch.setattr(domain, "_CHUNK_BYTES", 4096)
        rows = [PLAIN_ROW] * 5000
        rows[1998] = PLAIN_ROW.replace("512", cell, 1)  # line 2,000
        path = tmp_path / "trace.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        lines_read, bytes_read = [], []  # per opening of the file
        monkeypatch.setattr(domain, "open", counting_binary_open(bytes_read), raising=False)
        with pytest.raises(ValueError) as info:
            domain.read_table(path, counting_opener(path, lines_read), ingest._DCI_DTYPE, ingest._out_of_range)
        assert str(info.value) == f"{path}:2000: {message}"
        data = path.read_bytes()
        assert bytes_read == [(data.index(b"\t") // 4096 + 1) * 4096 if "\t" in cell else len(data)]
        assert lines_read == [row_reader_lines]

    def test_bad_row_in_a_later_slice_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(domain, "_CHUNK_BYTES", 64)
        rows = [PLAIN_ROW] * 5 + [PLAIN_ROW.replace("512", "1024", 1), PLAIN_ROW]
        path = tmp_path / "trace.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        assert whole_file_pass(path) is None
        with pytest.raises(ValueError) as info:
            parse_dci_csv(path)
        assert str(info.value) == f"{path}:7: sfn out of range: 1024"

    @pytest.mark.parametrize("name, text, whole_file", [
        pytest.param("trace.csv", f"{DCI_HEADER}\r{PLAIN_ROW}\r{PLAIN_ROW}\r", True, id="lone_cr"),
        pytest.param("trace.csv", f"{HEADER}{PLAIN_ROW}\n{PLAIN_ROW}", True, id="no_final_newline"),
        # numpy's DataSource would decompress a file by its suffix
        pytest.param("trace.csv.gz", f"{HEADER}{PLAIN_ROW}\n", False, id="plain_text_named_gz"),
        pytest.param("trace.csv.bz2", f"{HEADER}{PLAIN_ROW}\n", False, id="plain_text_named_bz2"),
        pytest.param("trace.csv.xz", f"{HEADER}{PLAIN_ROW}\n", False, id="plain_text_named_xz"),
        pytest.param("trace.csv.lzma", f"{HEADER}{PLAIN_ROW}\n", False, id="plain_text_named_lzma"),
    ])
    def test_line_ends_quotes_and_names(self, tmp_path, name, text, whole_file):
        path = tmp_path / name
        path.write_bytes(text.encode("ascii"))
        assert (whole_file_pass(path) is not None) == whole_file
        assert outcome(parse_dci_csv, path) == outcome(dci_records, path)

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="names a pipe by /dev/fd")
    def test_pipe_takes_the_row_reader(self):
        # a shell's process substitution names a pipe, which np.loadtxt
        # could not read again after the byte pass
        read, write = os.pipe()
        try:
            os.write(write, (HEADER + PLAIN_ROW + "\n").encode())
            os.close(write)
            records = parse_dci_csv(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert records.prb_count.tolist() == [25]

    def test_url_shaped_path_is_read_as_a_local_file(self, tmp_path, monkeypatch):
        # numpy's DataSource fetches a str path with a scheme and a netloc,
        # even where a local file of that name exists; np.loadtxt is given
        # the path made absolute, which has neither
        def fetch(*args, **kwargs):
            raise AssertionError("fetched")

        monkeypatch.setattr(urllib.request, "urlopen", fetch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "example.com").mkdir(parents=True)
        (tmp_path / "http:" / "example.com" / "trace.csv").write_text(HEADER + PLAIN_ROW + "\n")
        url = "http://example.com/trace.csv"
        with pytest.raises(AssertionError, match="fetched"):
            np.loadtxt(url, dtype=ingest._DCI_DTYPE, delimiter=",", skiprows=1)
        assert whole_file_pass(url) is not None
        assert outcome(parse_dci_csv, url) == outcome(dci_records, url)

    def test_file_rewritten_between_the_reads_takes_the_row_reader(self, tmp_path, monkeypatch):
        # the byte pass reads a plain file, which is rewritten with a quoted
        # CR before np.loadtxt reads it; the file's size and time changed,
        # so the row reader reads it again, and keeps the CR
        path = tmp_path / "trace.csv"
        path.write_text(HEADER + PLAIN_ROW + "\n")
        loadtxt = np.loadtxt

        def rewritten_first(*args, **kwargs):
            path.write_text(HEADER + PLAIN_ROW.replace("2B", '"2\rB"') + "\n", newline="")
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", rewritten_first)
        records = parse_dci_csv(path)
        monkeypatch.undo()
        assert records.dci_format.tolist() == ["2\rB"]
        assert outcome(lambda _: records, path) == outcome(dci_records, path)


def _number(ints):
    """Integer text as a trace might hold it: plain, or a nonnegative value
    signed, padded or zero-led; both readers parse all of these alike."""
    return st.tuples(ints, st.sampled_from(["{}", "+{}", " {}", "{} ", "00{}"])).map(
        lambda pair: pair[1].format(pair[0]) if pair[0] >= 0 else str(pair[0]))


dci_rows = st.tuples(
    _number(st.integers(0, 1023)),
    _number(st.integers(0, 9)),
    _number(st.integers(-(2 ** 63), 2 ** 63 - 1)),
    _number(st.integers(0, 2 ** 63 - 1)),
    _number(st.integers(-(2 ** 63), 2 ** 63 - 1)),
    st.sampled_from(["2B", "1A", "0", " 2B ", "", "abcdefg"]),
    _number(st.integers(0, 2 ** 63 - 1)),
).map(",".join)

# what breaks a number, a format, a row or the file: every way the two
# readers could part, and plain errors
bad_numbers = st.one_of(
    st.sampled_from(["-1", "1024", "10", str(2 ** 63), str(-(2 ** 63) - 1), "9" * 30]),
    st.sampled_from(["1_000", "1.0", "0x10", "1e3", "\u0661\u0662", "ten", "", "  ", "+-7"]),
    st.sampled_from(['"7"', "7\x00", "\x1c7", "7\x1f", "7\t", "\x0c7"]),
    # a comma inside quotes, doubled quotes, a quote inside the cell, text
    # after the closing quote, an unterminated quote, a quoted line break,
    # a quoted padded number and a quoted blank
    st.sampled_from(['"1,5"', '"7"""', '7"', '"7"0', '"7', '"7\n"', '"\r\n7"', '" 7 "', '""']),
)
bad_formats = st.sampled_from([
    '"2B"', "2\x00B", "\x1c2B", "2B\x1f", "\t2B", "\u00fc", "abcdefgh", "Format2B_vendor", " 2B,",
    '"2,B"', '"2""B"', '2"B', '"2B"x', '"2B', '"2\nB"', '" 2B "', '""',
])
bad_rows = st.sampled_from([
    "", "   ", "\t", "\x0c", ",,,,,,", "1,2", DCI_HEADER, '"1",0,1,1,1,2B,1', "\x00", "1,0,1,1,1,2B,1,",
    '""', '"1,0",1,1,1,2B,1', '1,0,1,1,1,"2B\n1A",1',
])
headers = st.one_of(st.just(DCI_HEADER), st.sampled_from([
    " sfn , subframe ,rnti,prb_count,mcs,dci_format,timestamp ",
    '"sfn",subframe,rnti,prb_count,mcs,dci_format,timestamp', "sfn,subframe,rnti,prb_count,mcs,format,timestamp",
    "", "\x00" + DCI_HEADER,
]))
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def dci_files(draw):
    """Bytes of a DCI trace: a header and valid rows, then a few edits that
    swap a number or a format or add a row, and now and then bytes that are
    not UTF-8."""
    rows = draw(st.lists(dci_rows, max_size=8))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        kind = draw(st.sampled_from(["number", "format", "row"])) if rows else "row"
        if kind == "row":
            rows.insert(draw(st.integers(0, len(rows))), draw(bad_rows))
            continue
        k = draw(st.integers(0, len(rows) - 1))
        cells = rows[k].split(",")
        if kind == "format" and len(cells) == len(COLUMNS):
            cells[COLUMNS.index("dci_format")] = draw(bad_formats)
        else:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(bad_numbers)
        rows[k] = ",".join(cells)
    end = draw(line_ends)
    text = end.join([draw(headers)] + rows) + draw(st.sampled_from([end, ""]))
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        data += b"1,0,1,5,1,\xff,0" + end.encode()
    return data


class TestDifferential:
    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(dci_files())
    def test_parse_matches_the_row_reader(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            path.write_bytes(data)
            assert outcome(parse_dci_csv, path) == outcome(dci_records, path)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(dci_files())
    def test_parse_in_chunks_of_64_bytes_matches_the_row_reader(self, data):
        # 64 bytes hold any header the files draw, so the byte pass reads on
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(domain, "_CHUNK_BYTES", 64):
            path = Path(tmp) / "trace.csv"
            path.write_bytes(data)
            assert outcome(parse_dci_csv, path) == outcome(dci_records, path)


class TestFilter:
    def test_keeps_matching_format(self):
        records = trace((1, 0, "2B"), (2, 1, "1A"), (3, 2, "2B"))
        kept = filter_data_transmissions(records, "2B")
        assert kept.prb_count.tolist() == [1, 3]
        assert isinstance(kept, np.recarray)

    def test_default_format_is_2b(self):
        records = trace((1, 0, "2B"), (2, 1, "0"))
        assert filter_data_transmissions(records).prb_count.tolist() == [1]

    def test_empty_input(self):
        assert len(filter_data_transmissions(trace(), "2B")) == 0

    def test_no_matches(self):
        assert len(filter_data_transmissions(trace((1, 0, "1A")), "2B")) == 0


class TestResample:
    def test_mean_of_two(self):
        series = resample_mean(trace((10, 0), (20, 1)), 3600)
        assert len(series.timestamps) == 1
        assert series.d_a[0] == 15.0

    def test_single_total(self):
        series = resample_mean(trace((7, 0)), 3600)
        assert series.d_a[0] == 7.0

    def test_side_tag_fills_that_column(self):
        series = resample_mean(trace((7, 0)), 3600, side_tag="b")
        assert (series.d_a[0], series.d_b[0]) == (0.0, 7.0)
        with pytest.raises(ValueError, match="^side_tag must be 'a' or 'b', got 'c'$"):
            resample_mean(trace((7, 0)), 3600, side_tag="c")

    def test_same_millisecond_sums(self):
        # two grants in one subframe form a single 30-PRB total
        series = resample_mean(trace((10, 5), (20, 5)), 3600)
        assert series.d_a[0] == 30.0

    def test_fixture_hand_computed(self, dci_fixture_path):
        data = filter_data_transmissions(parse_dci_csv(dci_fixture_path))
        series = resample_mean(data, 3600)
        # hour 1 totals: 15 (two grants at the same ms), 20, 25 -> mean 20
        # hour 2 totals: 7, 9 -> mean 8
        assert series.d_a.tolist() == [20.0, 8.0]
        assert series.timestamps.tolist() == [1674000000, 1674003600]

    def test_fixture_unfiltered_differs(self, dci_fixture_path):
        everything = parse_dci_csv(dci_fixture_path)
        series = resample_mean(everything, 3600)
        assert series.d_a.tolist() == [39.75, 33.0]

    def test_empty_interior_window_is_zero(self):
        # totals in hour 0 and hour 2, nothing in hour 1
        series = resample_mean(trace((10, 0), (30, 2 * 3600 * 1000)), 3600)
        assert series.d_a.tolist() == [10.0, 0.0, 30.0]

    def test_side_tag(self):
        series = resample_mean(trace((10, 0)), 3600, side_tag="b")
        assert series.d_b[0] == 10.0
        assert series.d_a[0] == 0.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            resample_mean(trace(), 3600)

    @pytest.mark.parametrize("granularity", [float("nan"), "3600", True, 0, -60, 2.5])
    def test_granularity_must_be_a_positive_integer(self, granularity):
        with pytest.raises(ValueError, match=r"granularity_s must be a positive integer, got "):
            resample_mean(trace((10, 0)), granularity)

    @pytest.mark.parametrize("granularity", [9223372036854776, 10**17])
    def test_granularity_whose_milliseconds_pass_int64_refused(self, granularity):
        # 10**17 once raised numpy's bare "Python int too large to convert to C long"
        with pytest.raises(ValueError, match=r"^granularity_s must be at most 9223372036854775 seconds, "
                                             rf"as its milliseconds must fit int64, got {granularity}$"):
            resample_mean(trace((10, 0)), granularity)

    def test_largest_granularity_whose_milliseconds_fit_int64(self):
        series = resample_mean(trace((10, 0)), 9223372036854775)
        assert series.d_a.tolist() == [10.0]

    def test_integral_granularity_of_another_type(self):
        series = resample_mean(trace((10, 0)), np.int64(60))
        assert series.granularity == 60 and type(series.granularity) is int
        assert resample_mean(trace((10, 0)), 60.0).granularity == 60

    def test_native_granularity_identity(self):
        # totals exactly one second apart with 1 s windows pass through
        records = trace((4, 0), (9, 1000), (2, 2000))
        series = resample_mean(records, 1)
        assert series.d_a.tolist() == [4.0, 9.0, 2.0]

    def test_mass_conservation(self):
        rng = np.random.default_rng(11)
        ts = np.sort(rng.integers(0, 10 * 3600 * 1000, 200))
        records = trace(*zip(rng.integers(0, 50, 200).tolist(), ts.tolist()))
        uniq, totals = millisecond_totals(records)
        series = resample_mean(records, 3600)
        window = uniq // (3600 * 1000)
        window -= window.min()
        counts = np.bincount(window, minlength=len(series.timestamps))
        recovered = float(np.sum(series.d_a * counts))
        assert recovered == pytest.approx(float(totals.sum()), rel=1e-12)

    def test_filter_commutes_with_restriction(self):
        records = trace((5, 0, "2B"), (9, 1, "1A"), (4, 2, "2B"))
        via_filter = resample_mean(filter_data_transmissions(records, "2B"), 3600)
        via_restriction = resample_mean(trace((5, 0, "2B"), (4, 2, "2B")), 3600)
        assert np.array_equal(via_filter.d_a, via_restriction.d_a)


def _reference_totals(records):
    """millisecond_totals written as an np.add.at scatter-add."""
    uniq, inverse = np.unique(records.timestamp, return_inverse=True)
    totals = np.zeros(len(uniq))
    np.add.at(totals, inverse, records.prb_count.astype(np.float64))
    return uniq, totals


def _reference_means(records, granularity_s):
    """resample_mean's window means, its sums and counts scatter-added."""
    ts_ms, totals = _reference_totals(records)
    offsets = ts_ms // (granularity_s * 1000) - ts_ms[0] // (granularity_s * 1000)
    sums = np.zeros(offsets[-1] + 1)
    counts = np.zeros(offsets[-1] + 1, dtype=np.int64)
    np.add.at(sums, offsets, totals)
    np.add.at(counts, offsets, 1)
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


# 41 millisecond stamps 1.25 s apart, so draws repeat stamps, leave
# one-second windows empty, and fit one 60-second window
grant_rows = st.lists(
    st.tuples(st.integers(0, 2 ** 60), st.integers(0, 40).map(lambda k: 1_674_000_000_000 + 1250 * k)),
    min_size=1, max_size=60,
)


class TestScatterSums:
    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(grant_rows, st.sampled_from([1, 2, 5, 60]))
    def test_bits_match_the_add_at_reference(self, rows, granularity_s):
        records = trace(*rows)
        uniq, totals = millisecond_totals(records)
        want_uniq, want_totals = _reference_totals(records)
        assert uniq.tobytes() == want_uniq.tobytes()
        assert totals.view(np.uint64).tolist() == want_totals.view(np.uint64).tolist()
        means = resample_mean(records, granularity_s).d_a
        want_means = _reference_means(records, granularity_s)
        assert means.view(np.uint64).tolist() == want_means.view(np.uint64).tolist()


class TestMerge:
    def test_pairs_columns(self):
        a = resample_mean(trace((5, 0)), 3600, side_tag="a")
        b = resample_mean(trace((7, 0)), 3600, side_tag="b")
        merged = merge_series(a, b)
        assert merged.d_a.tolist() == [5.0]
        assert merged.d_b.tolist() == [7.0]

    def test_length_mismatch(self):
        a = resample_mean(trace((5, 0), (5, 3600 * 1000)), 3600, side_tag="a")
        b = resample_mean(trace((7, 0)), 3600, side_tag="b")
        with pytest.raises(AlignmentMismatch):
            merge_series(a, b)

    def test_granularity_mismatch(self):
        a = resample_mean(trace((5, 0)), 3600, side_tag="a")
        b = resample_mean(trace((7, 0)), 60, side_tag="b")
        with pytest.raises(AlignmentMismatch):
            merge_series(a, b)

    def test_timestamp_mismatch(self):
        a = resample_mean(trace((5, 0)), 3600, side_tag="a")
        b = resample_mean(trace((7, 3600 * 1000)), 3600, side_tag="b")
        with pytest.raises(AlignmentMismatch):
            merge_series(a, b)

    def test_identical_sides(self):
        a = resample_mean(trace((5, 0)), 3600, side_tag="a")
        b = resample_mean(trace((5, 0)), 3600, side_tag="b")
        merged = merge_series(a, b)
        assert merged.d_a[0] == merged.d_b[0] == 5.0
        assert isinstance(merged, DemandSeries)
