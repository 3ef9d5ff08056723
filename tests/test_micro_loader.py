"""The columnar micro loader against the row-wise reference loader.

Generated micro CSVs mix valid rows with every kind of defect the loader
checks for; for each file both loaders must return the same households,
strata and bit-identical expenditure matrix, or raise the same
ValidationError message. Files are written by ``csv.writer`` and also joined
quote-free with ``\\n`` or ``\\r\\n`` line ends, so both the direct reader and
its csv fallback run, with chunks small enough that files cross chunk
boundaries. Quote-free files whose only blank rows are lines of commas and
ASCII whitespace must stay on the direct reader.
"""

import contextlib
import csv
import json
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import micro_oracle
from indexaudit import dataio
from indexaudit.errors import ValidationError
from indexaudit.survey import HouseholdPanel

# str.strip removes the tab, \x0b, \x1c and \xa0 padding; csv keeps \x0b,
# \x1c and \x85 inside a cell, where str.splitlines would split
IDS = ["h1", "h2", "h3", " h2 ", "h\x0b6", "\x1ch1\x1c", "\xa0h2", "h\x857"] * 2 + [
    "h,4", 'h"5']
GROUPS = ["a", "b", "c", " b ", "zz", "", "\ta", "b\xa0", "a\x0bb"]
# valid amounts are listed several times so most files get past the checks;
# float accepts underscores, non-ASCII digits and spelled-out infinity
AMOUNTS = ["1.0", "2.5", "0", "0.1", "7e-320", "1e308", " 3 ", "-0.0", "1_0",
           "1_000", "\u0661\u0662", "\t4\t", "\x1c5\xa0"] * 4 + [
    "-1", "x", "", "nan", "inf", "-inf", "infinity", "1\r2"]
STRATA = ["", " ", "r1", "r2", "r,3", "r\x0b1"]
GROUP_LABELS = [None, None, ("a", "b", "c"), ("c", "a", "b"), ("a", "b"), ("a",),
                ("a", "b", "c", " b ", "zz", "", "unused")]
# how a generated file is written: by csv.writer, or joined at commas with
# these line ends; and the reader's chunk size in characters
LAYOUTS = ["csv", "\n", "\r\n", "\n", "\r\n"]
CHUNKS = [1, 24, 1 << 21]
# chunk sizes for files of short lines: a line a chunk, about two lines,
# about five, and the whole file in one chunk
LINE_CHUNKS = [1, 12, 40, 1 << 21]
OVERSIZED = "y" * (csv.field_size_limit() + 1)


# lines the csv module reads as blank rows: empty, commas only, and ASCII or
# other whitespace with or without commas
BLANK_LINES = ["", ",", ",,", ",,,,,", " ", "\t, ,\x0b", "\x1c,\x0c", "\u3000",
               "\xa0,\x85"]


def plain(cells):
    """The cells the direct split reads as they are written: no quote,
    comma or carriage return."""
    return [cell for cell in cells if not set(cell) & set('",\r')]


@st.composite
def micro_files(draw, plain_rows=False):
    """A header and data rows; unless ``plain_rows``, with quoted cells and
    now and then a blank or ragged row, or else a field too long or bytes
    that are not UTF-8 in one cell."""
    pick = plain if plain_rows else list
    columns = ["household_id", "group", "expenditure"]
    if draw(st.booleans()):
        columns.append("stratum")
    header = draw(st.permutations(columns))
    # a few households and groups per file make repeated cells and stratum
    # conflicts likely
    cells = {
        "household_id": st.sampled_from(draw(st.lists(
            st.sampled_from(pick(IDS)), min_size=1, max_size=4, unique=True))),
        "group": st.sampled_from(draw(st.lists(
            st.sampled_from(GROUPS), min_size=1, max_size=4, unique=True))),
        "expenditure": st.sampled_from(pick(AMOUNTS)),
        "stratum": st.sampled_from(draw(st.lists(
            st.sampled_from(pick(STRATA)), min_size=1, max_size=2, unique=True))),
    }
    data_row = st.fixed_dictionaries({c: cells[c] for c in header}).map(
        lambda row: [row[c] for c in header])
    rows = draw(st.lists(data_row, min_size=1, max_size=16))
    if plain_rows:
        return header, rows
    # blank rows: empty, whitespace-only and comma-only
    blank_row = st.lists(st.sampled_from(["", " ", "\t", "\xa0"]), max_size=5)
    ragged_row = data_row.flatmap(lambda row: st.sampled_from(
        [row[:-1], row + ["1.0"], row + [""]]))
    # now and then a blank or ragged row somewhere
    for position, row in draw(st.lists(st.tuples(
            st.integers(0, len(rows)), st.one_of(blank_row, blank_row, ragged_row)),
            max_size=draw(st.sampled_from([0, 0, 1, 2])))):
        rows.insert(position, row)
    # at most one kind of read defect: the loader names a ragged row once it
    # has read the file, the reference where it meets it; joined at commas,
    # a row with a comma or a carriage return in a cell is ragged too
    defect = draw(st.sampled_from([None, None, None, OVERSIZED, "\udcff"]))
    if defect and all(not "".join(row).strip() or len(row) == len(header)
                      and not set("".join(row)) & set(",\r") for row in rows):
        row = draw(st.sampled_from([row for row in rows if len(row) == len(header)]))
        row[draw(st.integers(0, len(header) - 1))] = defect
    return header, rows


def outcome(load, path, labels):
    try:
        ids, strata, matrix = load(path, labels)
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", ids, strata, matrix.shape, matrix.tobytes()


def load_panel(path, labels):
    panel = dataio.load_households(path, labels)
    return panel.household_ids, panel.strata, panel.expenditures


def write_rows(path, header, rows, layout):
    if layout == "csv":
        with path.open("w", newline="", encoding="utf-8", errors="surrogateescape") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        text = "".join(",".join(row) + layout for row in [header, *rows])
        path.write_bytes(text.encode("utf-8", "surrogateescape"))


def at_line_chunks(*files):
    """Each (micro, labels) file as an explicit example, joined with line
    feeds, at every size of ``LINE_CHUNKS``."""
    def decorate(test):
        for micro, labels in files:
            for chunk in LINE_CHUNKS:
                test = example(micro=micro, labels=labels, layout="\n", chunk=chunk)(test)
        return test
    return decorate


HEADER = ["household_id", "group", "expenditure"]


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(micro_files(), st.sampled_from(GROUP_LABELS), st.sampled_from(LAYOUTS),
       st.sampled_from(CHUNKS))
# the loader's panel grows as households, and with no labels groups, first
# appear: households first seen in a late chunk; with no labels, a new group
# after a growth, in a chunk with no new household; a cell's amounts summed
# across a growth, in an order that changes the sum; a cell's sum that
# overflows to inf, which the panel rejects
@at_line_chunks(
    ((HEADER, [["h1", "a", "0.1"], ["h1", "b", "1.0"], ["h1", "a", "2.5"], ["h1", "b", "0"],
               ["h2", "a", "0.3"], ["h3", "b", "7e-320"], ["h2", "b", "1.0"]]), ("a", "b")),
    ((HEADER, [["h1", "a", "1.0"], ["h2", "a", "2.5"], ["h3", "a", "0.1"], ["h1", "b", "0.2"],
               ["h2", "c", "1.0"], ["h4", "b", "3"]]), None),
    ((HEADER, [["h1", "a", "0.1"], ["h1", "b", "1.0"], ["h2", "a", "1.0"], ["h1", "a", "0.2"],
               ["h3", "b", "1.0"], ["h1", "a", "0.3"], ["h2", "a", "0.5"]]), None),
    ((HEADER, [["h1", "a", "1.0"], ["h1", "b", "1.0"], ["h2", "a", "1e308"], ["h3", "b", "1"],
               ["h2", "a", "1e308"], ["h4", "b", "1.0"], ["h2", "b", "1.0"]]), ("a", "b")),
)
# three amounts of one cell whose sum depends on the order they are added in:
# (0.1 + 0.2) + 0.3 is 0.6000000000000001, (0.3 + 0.2) + 0.1 is 0.6; among
# other rows, first and last in the file
@example(micro=(["household_id", "group", "expenditure"],
                [["h1", "a", "0.1"], ["h1", "b", "1.0"], ["h1", "a", "0.2"],
                 ["h1", "a", "0.3"]]),
         labels=None, layout="\n", chunk=1 << 21)
@example(micro=(["household_id", "group", "expenditure"],
                [["h1", "a", "0.1"], ["h1", "a", "0.2"], ["h1", "a", "0.3"],
                 ["h2", "b", "1.0"], ["h2", "b", "1.0"], ["h2", "b", "1.0"]]),
         labels=None, layout="\n", chunk=1 << 21)
@example(micro=(["household_id", "group", "expenditure"],
                [["h2", "b", "1.0"], ["h2", "b", "1.0"], ["h1", "a", "0.3"],
                 ["h1", "a", "0.2"], ["h1", "a", "0.1"], ["h2", "b", "1.0"]]),
         labels=None, layout="\n", chunk=1 << 21)
def test_columnar_loader_matches_row_wise_reference(tmp_path, micro, labels, layout,
                                                    chunk):
    header, rows = micro
    path = tmp_path / "micro.csv"
    write_rows(path, header, rows, layout)
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk):
        assert outcome(load_panel, path, labels) == outcome(
            micro_oracle.load_households, path, labels)


def write_with_blank_lines(path, header, rows, blank_lines, last, line_end):
    """Write ``rows`` joined at commas, with each (position, line) of
    ``blank_lines`` among them and ``last`` as the file's last line."""
    lines = [",".join(row) for row in rows]
    for position, line in blank_lines:
        lines.insert(position, line)
    text = "".join(line + line_end for line in [",".join(header), *lines, last])
    path.write_bytes(text.encode("utf-8"))


blank_lines = st.lists(st.tuples(st.integers(0, 16), st.sampled_from(BLANK_LINES)),
                       max_size=4)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(micro_files(plain_rows=True), blank_lines, st.sampled_from(BLANK_LINES),
       st.sampled_from(GROUP_LABELS), st.sampled_from(["\n", "\r\n"]),
       st.sampled_from(CHUNKS))
# a blank row beside a row whose first cell is empty, which is kept
@example(micro=(["group", "household_id", "expenditure"], [["", "h1", "1.0"]]), blanks=[],
         last=",,", labels=None, line_end="\n", chunk=1 << 21)
def test_blank_lines_stay_on_the_direct_split(tmp_path, micro, blanks, last, labels,
                                              line_end, chunk):
    header, rows = micro
    path = tmp_path / "micro.csv"
    write_with_blank_lines(path, header, rows, blanks, last, line_end)
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), \
            mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        got = outcome(load_panel, path, labels)
    assert not reader.called
    assert got == outcome(micro_oracle.load_households, path, labels)


@pytest.mark.parametrize("kind", ["file", "fifo"])
@pytest.mark.parametrize("quoted", [True, False])
@pytest.mark.parametrize("chunk", LINE_CHUNKS)
@pytest.mark.parametrize("text, message", [
    # a field past the csv module's limit, wherever it is
    (f"h1,a,1\n{OVERSIZED},a,1\n", ":3: field larger than field limit"),
    (f"h1,a,1\nh1,zz,1\nh2,b,{OVERSIZED}\n", ":4: field larger than field limit"),
    # bytes that are not UTF-8 come before any cell check
    ("h1,zz,1\nh1,a,\udcff\n", ": not UTF-8 text: invalid start byte"),
    # a blank line is a blank row only where the csv module can read it
    (f"h1,a,1\n\n{' ' * len(OVERSIZED)}\n", ":4: field larger than field limit"),
    # a read error comes before a ragged row on an earlier line
    (f"h1,a\nh1,a,1\n{OVERSIZED},a,1\n", ":4: field larger than field limit"),
])
def test_read_errors_are_data_errors_on_both_paths(tmp_path, text, message, quoted,
                                                   chunk, kind):
    if kind == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    # a quote sends the whole file to the csv path
    header = ('"household_id"' if quoted else "household_id") + ",group,expenditure\n"
    data = (header + text).encode("utf-8", "surrogateescape")
    with source(tmp_path, data, kind) as path, \
            mock.patch.object(dataio, "_CHUNK_CHARS", chunk):
        with pytest.raises(ValidationError) as caught:
            dataio.load_households(path, ["a", "b"])
    assert str(caught.value).startswith(str(path))
    assert message in str(caught.value)


@contextlib.contextmanager
def source(tmp_path, data, kind):
    """The path of a regular file, or of a named pipe a thread writes into,
    that holds ``data``."""
    path = tmp_path / "data.csv"
    if kind == "file":
        path.write_bytes(data)
        yield path
        return
    os.mkfifo(path)

    def write():
        # the reader may stop at an error before the end of the data
        with contextlib.suppress(BrokenPipeError), path.open("wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()


def csv_error_before_bytes_that_are_not_utf8(header, row, rows_before, rows_after=3000):
    """A file whose over-long field comes ``rows_after`` rows before bytes
    that are not UTF-8; those are in the field's chunk, so the direct split
    cannot decode it, and the csv module, reading by line, meets the field
    first, also where the bytes follow within 8 KiB."""
    text = (header + row.format("h1") * rows_before + row.format(OVERSIZED)
            + row.format("h1") * rows_after + row.format("\udcff"))
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("kind", ["file", "fifo"])
# the field and the bytes that are not UTF-8 in one chunk, or apart
@pytest.mark.parametrize("chunk", [1 << 10, 1 << 14, 1 << 18])
@pytest.mark.parametrize("rows_before, rows_after, line", [
    (1, 3000, 3), (40_000, 3000, 40_002),
    # the bytes that are not UTF-8 follow the field within 8 KiB
    (1, 0, 3), (12_000, 700, 12_002)])
def test_a_csv_error_before_bytes_that_are_not_utf8_is_named_first(
        tmp_path, rows_before, rows_after, line, chunk, kind):
    if kind == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    data = csv_error_before_bytes_that_are_not_utf8("household_id,group,expenditure\n",
                                                    "{},a,1\n", rows_before, rows_after)
    with source(tmp_path, data, kind) as path, \
            mock.patch.object(dataio, "_CHUNK_CHARS", chunk), \
            pytest.raises(ValidationError) as caught:
        dataio.load_households(path, ["a", "b"])
    assert str(caught.value) == f"{path}:{line}: field larger than field limit (131072)"


def counting_reader(log):
    """``csv.reader``, which appends a line ``null`` to ``log`` and then each
    line it reads, as JSON."""
    csv_reader = csv.reader

    def record(line):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")

    def reader(source):
        record(None)
        return csv_reader(record(line) or line for line in source)

    return reader


def reads(log):
    """The number of ``csv.reader`` calls ``log`` holds, and the lines read."""
    lines = list(map(json.loads, log.read_text(encoding="utf-8").splitlines()))
    return lines.count(None), [line for line in lines if line is not None]


@pytest.mark.parametrize("chunk", [1, 24, 60, 1 << 21])
@pytest.mark.parametrize("quoted", [39, 20])
def test_each_row_of_a_file_is_read_once(tmp_path, quoted, chunk):
    # the one quote is in the last chunk, a middle one or the only one: every
    # chunk before it is split directly, and the csv module reads on from its
    # chunk to the end of the file
    rows = [f"h{i},{'ab'[i % 2]},{i}\n" for i in range(40)]
    rows[quoted] = f'"h{quoted}",{"ab"[quoted % 2]},{quoted}\n'
    path, log = tmp_path / "micro.csv", tmp_path / "reads.jsonl"
    path.write_text("household_id,group,expenditure\n" + "".join(rows), encoding="utf-8")
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), \
            mock.patch.object(csv, "reader", side_effect=counting_reader(log)):
        panel = dataio.load_households(path, ["a", "b"])
    calls, read = reads(log)
    assert calls == 1
    # a chunk is ``chunk`` characters and the rest of a line, and every row
    # from h10 on is at least 9 characters: at most chunk // 9 + 1 lines
    assert 1 <= len(read) - (39 - quoted) <= chunk // 9 + 1
    assert "".join(rows).endswith("".join(read))
    assert panel.household_ids == tuple(f"h{i}" for i in range(40))
    assert panel.expenditures.tolist() == [[i * (1 - i % 2), i * (i % 2)] for i in range(40)]


@pytest.mark.parametrize("last, message", [
    (f"{OVERSIZED},a,1\n", ":60004: field larger than field limit (131072)"),
    ('"h1",a\n', ":60004: expected 3 fields, got 2"),
    ("\udcff,a,1\n", ": not UTF-8 text: invalid start byte"),
], ids=["over-long", "ragged", "not-utf8"])
@pytest.mark.parametrize("chunk", [1 << 12, 1 << 16, 1 << 18, 1 << 21])
def test_a_read_error_later_in_the_file_comes_before_an_earlier_check_failure(
        tmp_path, last, message, chunk):
    # an unknown group on line 2, then rows enough for the last line to fall
    # in a later chunk, or, at the largest chunk, in the only one
    text = ("household_id,group,expenditure\nh1,zz,1\n" + "h1,a,1\n" * 60_001 + last)
    path = tmp_path / "micro.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), \
            pytest.raises(ValidationError) as caught:
        dataio.load_households(path, ["a", "b"])
    assert str(caught.value) == f"{path}{message}"


@pytest.mark.parametrize("text, message", [
    # the lowest line wins, whichever check finds it
    ("h1,zz,-1\nh1,a,x\n", ":2: unknown group 'zz'"),
    ("h1,a,1\nh1,a,x\nh1,zz,1\n", ":3: column 'expenditure' is not a number: 'x'"),
    ("h1,a,-1\nh1,zz,1\n", ":2: negative expenditure for household 'h1'"),
    # on one line, unknown group before non-number before negative
    ("h1,zz,x\n", ":2: unknown group 'zz'"),
    ("h1,a,-x\n", ":2: column 'expenditure' is not a number: '-x'"),
    # a ragged row anywhere is found before any cell is checked
    ("h1,zz,1\nh1,a\n", ":3: expected 3 fields, got 2"),
    # also where a long and a short row have the right number of commas in all
    ("h1,a,1,1\nh1,a\n", ":2: expected 3 fields, got 4"),
    ("h1,a\nh1,a,1,1\n", ":2: expected 3 fields, got 2"),
    # non-finite sums name the first household in file order
    ("h1,a,1\nh2,a,inf\nh3,b,nan\n", "household 'h2': expenditures must be finite"),
    ("h1,a,1e308\nh1,a,1e308\n", "household 'h1': expenditures must be finite"),
    # blank and all-whitespace rows are skipped
    ("\n , ,\t\n", "micro.csv: no data rows"),
    ("\n\n,,,,\n", "micro.csv: no data rows"),
    ("h1,zz,1\n\nh1,a,x\n", ":2: unknown group 'zz'"),
    ("\n\nh1,a,x\n", ":4: column 'expenditure' is not a number: 'x'"),
    # a row is numbered by the line it starts on, after a quoted line break too
    ('"h\n1",a,1\nh2,zz,1\n', ":4: unknown group 'zz'"),
    ('"h\r\n1",a,1\nh2,a\n', ":4: expected 3 fields, got 2"),
])
@pytest.mark.parametrize("chunk", LINE_CHUNKS)
# a sum that overflows is a data error and no warning
@pytest.mark.filterwarnings("error")
def test_loader_error_precedence(tmp_path, text, message, chunk):
    path = tmp_path / "micro.csv"
    path.write_text("household_id,group,expenditure\n" + text, encoding="utf-8")
    for load in (dataio.load_households, micro_oracle.load_households):
        with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), \
                pytest.raises(ValidationError) as caught:
            load(path, ["a", "b"])
        assert message in str(caught.value)


@pytest.mark.parametrize("chunk", LINE_CHUNKS)
def test_stratum_conflict_names_both_strata(tmp_path, chunk):
    path = tmp_path / "micro.csv"
    path.write_text("household_id,group,expenditure,stratum\n"
                    "h1,a,1,\nh2,a,1,r1\nh1,b,-1,r2\n", encoding="utf-8")
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), pytest.raises(
            ValidationError, match=r":4: negative expenditure for household 'h1'"):
        dataio.load_households(path, ["a", "b"])
    path.write_text("household_id,group,expenditure,stratum\n"
                    "h1,a,1,\nh2,a,1,r1\nh1,b,1,r2\n", encoding="utf-8")
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), pytest.raises(
            ValidationError,
            match=r":4: household 'h1' appears under two strata \(None and 'r2'\)"):
        dataio.load_households(path, ["a", "b"])


# ten rows of h1 to h5 and then h6, each under its own stratum; each case
# changes the rows at some of the positions, so that a conflict, or another
# failure, falls on one line or on several, and, at each chunk size, within
# a chunk or across chunks
STRATA_ROWS = [f"h{i % 5 + 1},{'ab'[i % 2]},{i},r{i % 5 + 1}\n" for i in range(10)]


@pytest.mark.parametrize("changed, message", [
    # h1 first under r1 on line 2, under r9 on line 10
    ({8: "h1,a,1,r9\n"}, ":10: household 'h1' appears under two strata ('r1' and 'r9')"),
    # h1's row on line 9 agrees; the one on line 11 does not
    ({7: "h1,a,1,r1\n", 9: "h1,b,1,r9\n"},
     ":11: household 'h1' appears under two strata ('r1' and 'r9')"),
    # two households conflict: the lower line is named, not the household
    # seen first
    ({8: "h2,a,1,\n", 9: "h1,a,1,r9\n"},
     ":10: household 'h2' appears under two strata ('r2' and None)"),
    # a failure of another check on a lower line comes first
    ({7: "h3,a,-1,r3\n", 8: "h1,a,1,r9\n"}, ":9: negative expenditure for household 'h3'"),
    # on one line, a negative amount comes before the conflict
    ({8: "h1,a,-1,r9\n"}, ":10: negative expenditure for household 'h1'"),
])
@pytest.mark.parametrize("chunk", LINE_CHUNKS)
def test_a_stratum_conflict_is_found_on_its_line(tmp_path, changed, message, chunk):
    rows = [changed.get(i, row) for i, row in enumerate(STRATA_ROWS)]
    path = tmp_path / "micro.csv"
    path.write_text("household_id,group,expenditure,stratum\n" + "".join(rows),
                    encoding="utf-8")
    for load in (dataio.load_households, micro_oracle.load_households):
        with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), \
                pytest.raises(ValidationError) as caught:
            load(path, ["a", "b"])
        assert str(caught.value) == f"{path}{message}"


def test_the_loader_holds_the_panel_and_a_few_chunks(tmp_path):
    # 2,500 households in 80 groups, each cell once: 200,000 rows and a 1.6
    # MB panel. The traced peak is the panel grown by doubling, its copy in
    # HouseholdPanel and its checks, about 3.5 panels at most, and a few
    # chunks of 16 KiB of text (~0.2 MB each), not three numbers a row kept
    # to the end of the file (3 panels more)
    groups = [f"g{j}" for j in range(80)]
    panel = HouseholdPanel([f"h{i}" for i in range(2500)],
                           np.random.default_rng(6).uniform(1.0, 100.0, (2500, 80)))
    panel_bytes = panel.expenditures.nbytes
    path = tmp_path / "micro.csv"
    dataio.write_households(path, panel, groups)
    with mock.patch.object(dataio, "_CHUNK_CHARS", 1 << 14):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = dataio.load_households(path, groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert loaded.expenditures.tobytes() == panel.expenditures.tobytes()
    assert peak - before <= 4 * panel_bytes + 2 ** 20


def no_fork():
    raise AssertionError("a process was forked")


@pytest.mark.parametrize("kind", ["file", "fifo"])
def test_a_survey_sized_file_is_read_in_this_process(tmp_path, monkeypatch, kind):
    if kind == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    # 60,000 rows, as many as a survey of 1,500 households in 40 groups holds
    data = ("household_id,group,expenditure,stratum\n"
            + "".join(STRATA_ROWS) * 6000).encode("utf-8")
    reference = tmp_path / "reference.csv"
    reference.write_bytes(data)
    want = outcome(micro_oracle.load_households, reference, ["a", "b"])
    assert want[0] == "ok"
    monkeypatch.setattr(os, "fork", no_fork)
    with source(tmp_path, data, kind) as path:
        assert outcome(load_panel, path, ["a", "b"]) == want
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
