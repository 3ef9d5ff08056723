"""The columnar micro loader against the row-wise reference loader.

Generated micro CSVs mix valid rows with every kind of defect the loader
checks for; for each file both loaders must return the same households,
strata and bit-identical expenditure matrix, or raise the same
ValidationError message. Files are written by ``csv.writer`` and also joined
quote-free with ``\\n`` or ``\\r\\n`` line ends, so both the direct reader and
its csv fallback run, with chunks small enough that files cross chunk
boundaries. Quote-free files whose only blank rows are lines of commas and
ASCII whitespace must stay on the direct reader. The loader is also forced
to read each file in two to four byte ranges, so that ranges meet inside
repeated cells, stratum conflicts and the chunk the csv module reads on from.
"""

import contextlib
import csv
import os
import signal
import sys
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import micro_oracle
from indexaudit import dataio
from indexaudit.errors import ValidationError, WorkerFailure

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
    now and then a blank or ragged row."""
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
    return header, rows


def forced_parts(parts):
    """Make the loader read any regular file in ``parts`` byte ranges, or
    one per line where it has fewer lines."""
    patches = contextlib.ExitStack()
    patches.enter_context(mock.patch.object(dataio, "_BYTES_PER_PART", 1))
    patches.enter_context(mock.patch.object(os, "sched_getaffinity",
                                            lambda pid: set(range(parts))))
    return patches


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
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        text = "".join(",".join(row) + layout for row in [header, *rows])
        path.write_bytes(text.encode("utf-8"))


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(micro_files(), st.sampled_from(GROUP_LABELS), st.sampled_from(LAYOUTS),
       st.sampled_from(CHUNKS), st.integers(1, 4))
# three amounts of one cell whose sum depends on the order they are added in:
# (0.1 + 0.2) + 0.3 is 0.6000000000000001, (0.3 + 0.2) + 0.1 is 0.6; in one
# part, then in the first of two, then across two
@example(micro=(["household_id", "group", "expenditure"],
                [["h1", "a", "0.1"], ["h1", "b", "1.0"], ["h1", "a", "0.2"],
                 ["h1", "a", "0.3"]]),
         labels=None, layout="\n", chunk=1 << 21, parts=1)
@example(micro=(["household_id", "group", "expenditure"],
                [["h1", "a", "0.1"], ["h1", "a", "0.2"], ["h1", "a", "0.3"],
                 ["h2", "b", "1.0"], ["h2", "b", "1.0"], ["h2", "b", "1.0"]]),
         labels=None, layout="\n", chunk=1 << 21, parts=2)
@example(micro=(["household_id", "group", "expenditure"],
                [["h2", "b", "1.0"], ["h2", "b", "1.0"], ["h1", "a", "0.3"],
                 ["h1", "a", "0.2"], ["h1", "a", "0.1"], ["h2", "b", "1.0"]]),
         labels=None, layout="\n", chunk=1 << 21, parts=2)
def test_columnar_loader_matches_row_wise_reference(tmp_path, micro, labels, layout,
                                                    chunk, parts):
    header, rows = micro
    path = tmp_path / "micro.csv"
    write_rows(path, header, rows, layout)
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), forced_parts(parts):
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
       st.sampled_from(CHUNKS), st.integers(1, 4))
def test_blank_lines_stay_on_the_direct_split(tmp_path, micro, blanks, last, labels,
                                              line_end, chunk, parts):
    header, rows = micro
    path = tmp_path / "micro.csv"
    write_with_blank_lines(path, header, rows, blanks, last, line_end)
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), forced_parts(parts), \
            mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        got = outcome(load_panel, path, labels)
    assert not reader.called
    assert got == outcome(micro_oracle.load_households, path, labels)


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("quoted", [True, False])
@pytest.mark.parametrize("chunk", [1, 1 << 21])
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
                                                   chunk, parts):
    # a quote sends the whole file to the csv path
    header = ('"household_id"' if quoted else "household_id") + ",group,expenditure\n"
    path = tmp_path / "micro.csv"
    path.write_bytes((header + text).encode("utf-8", "surrogateescape"))
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), forced_parts(parts):
        with pytest.raises(ValidationError) as caught:
            dataio.load_households(path, ["a", "b"])
    assert str(caught.value).startswith(str(path))
    assert message in str(caught.value)


@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize("rows_before, line", [(1, 3), (40_000, 40_002)])
def test_a_csv_error_before_bytes_that_are_not_utf8_is_named_first(tmp_path, rows_before,
                                                                  line, parts):
    # the bytes are in the over-long field's chunk, so the direct split cannot
    # decode it; the csv module, reading by line, meets the field first
    path = tmp_path / "micro.csv"
    text = ("household_id,group,expenditure\n" + "h1,a,1\n" * rows_before
            + f"{OVERSIZED},a,1\n" + "h1,a,1\n" * 3000 + "h1,a,\udcff\n")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with forced_parts(parts), pytest.raises(ValidationError) as caught:
        dataio.load_households(path, ["a", "b"])
    assert str(caught.value) == f"{path}:{line}: field larger than field limit (131072)"


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_each_row_of_a_file_is_read_once(tmp_path, parts):
    # the one quote is in the last chunk: every chunk before it is split
    # directly, and the csv module reads on from the last one
    rows = [f"h{i},{'ab'[i % 2]},{i}\n" for i in range(40)]
    rows[-1] = '"h39",b,39\n'
    path = tmp_path / "micro.csv"
    path.write_text("household_id,group,expenditure\n" + "".join(rows), encoding="utf-8")
    read, csv_reader = [], csv.reader

    def reader(source):
        return csv_reader(read.append(line) or line for line in source)

    with mock.patch.object(dataio, "_CHUNK_CHARS", 24), forced_parts(parts), \
            mock.patch.object(csv, "reader", side_effect=reader) as called:
        panel = dataio.load_households(path, ["a", "b"])
    assert called.call_count == 1
    # a chunk is 24 characters and the rest of a line: at most three lines
    assert 1 <= len(read) <= 3 and "".join(rows).endswith("".join(read))
    assert panel.household_ids == tuple(f"h{i}" for i in range(40))
    assert panel.expenditures.tolist() == [[i * (1 - i % 2), i * (i % 2)] for i in range(40)]


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
@pytest.mark.parametrize("parts", [1, 2, 3, 4])
# a sum that overflows is a data error and no warning
@pytest.mark.filterwarnings("error")
def test_loader_error_precedence(tmp_path, text, message, parts):
    path = tmp_path / "micro.csv"
    path.write_text("household_id,group,expenditure\n" + text, encoding="utf-8")
    for load in (dataio.load_households, micro_oracle.load_households):
        with forced_parts(parts), pytest.raises(ValidationError) as caught:
            load(path, ["a", "b"])
        assert message in str(caught.value)


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_stratum_conflict_names_both_strata(tmp_path, parts):
    path = tmp_path / "micro.csv"
    path.write_text("household_id,group,expenditure,stratum\n"
                    "h1,a,1,\nh2,a,1,r1\nh1,b,-1,r2\n", encoding="utf-8")
    with forced_parts(parts), pytest.raises(
            ValidationError, match=r":4: negative expenditure for household 'h1'"):
        dataio.load_households(path, ["a", "b"])
    path.write_text("household_id,group,expenditure,stratum\n"
                    "h1,a,1,\nh2,a,1,r1\nh1,b,1,r2\n", encoding="utf-8")
    with forced_parts(parts), pytest.raises(
            ValidationError,
            match=r":4: household 'h1' appears under two strata \(None and 'r2'\)"):
        dataio.load_households(path, ["a", "b"])


# ten rows of h1 to h5 and then h6, each under its own stratum; each case
# changes the rows at some of the positions, so that at forced part counts a
# conflict falls within a range or across ranges
STRATA_ROWS = [f"h{i % 5 + 1},{'ab'[i % 2]},{i},r{i % 5 + 1}\n" for i in range(10)]


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("changed, message", [
    # h1 first under r1 on line 2, under r9 first in a later range
    ({8: "h1,a,1,r9\n"}, ":10: household 'h1' appears under two strata ('r1' and 'r9')"),
    # a later range's first row of h1 agrees; its second does not
    ({7: "h1,a,1,r1\n", 9: "h1,b,1,r9\n"},
     ":11: household 'h1' appears under two strata ('r1' and 'r9')"),
    # two households conflict in a later range: the lower line is named,
    # not the household seen first
    ({8: "h2,a,1,\n", 9: "h1,a,1,r9\n"},
     ":10: household 'h2' appears under two strata ('r2' and None)"),
    # a failure of another check on a lower line comes first
    ({7: "h3,a,-1,r3\n", 8: "h1,a,1,r9\n"}, ":9: negative expenditure for household 'h3'"),
    # on one line, a negative amount comes before the conflict
    ({8: "h1,a,-1,r9\n"}, ":10: negative expenditure for household 'h1'"),
])
def test_a_stratum_conflict_across_ranges_is_found_where_one_reader_finds_it(
        tmp_path, parts, changed, message):
    rows = [changed.get(i, row) for i, row in enumerate(STRATA_ROWS)]
    path = tmp_path / "micro.csv"
    path.write_text("household_id,group,expenditure,stratum\n" + "".join(rows),
                    encoding="utf-8")
    for load in (dataio.load_households, micro_oracle.load_households):
        with forced_parts(parts), pytest.raises(ValidationError) as caught:
            load(path, ["a", "b"])
        assert str(caught.value) == f"{path}{message}"


def fork_calls(monkeypatch):
    """The part counts the loader forks for, from now on."""
    calls, fork = [], dataio._fork_parts

    def recorded(parts, *args, **kwargs):
        calls.append(parts)
        return fork(parts, *args, **kwargs)

    monkeypatch.setattr(dataio, "_fork_parts", recorded)
    return calls


def strata_file(tmp_path):
    path = tmp_path / "micro.csv"
    path.write_text("household_id,group,expenditure,stratum\n" + "".join(STRATA_ROWS),
                    encoding="utf-8")
    return path


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits the loader")
def test_only_a_regular_file_of_a_single_threaded_linux_process_is_read_in_parts(
        tmp_path, monkeypatch):
    calls = fork_calls(monkeypatch)
    path = strata_file(tmp_path)
    want = micro_oracle.load_households(path, ["a", "b"])
    with forced_parts(3):
        assert load_panel(path, ["a", "b"])[1] == want[1]
        assert calls == [3]
        # a pipe
        read, write = os.pipe()
        with os.fdopen(write, "wb") as pipe:
            pipe.write(path.read_bytes())
        with os.fdopen(read, "rb"):
            assert outcome(load_panel, f"/dev/fd/{read}", ["a", "b"]) == outcome(
                micro_oracle.load_households, path, ["a", "b"])
        # a caller with another thread
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(10,))
        waiter.start()
        try:
            assert load_panel(path, ["a", "b"])[1] == want[1]
        finally:
            release.set()
            waiter.join(10)
        # another platform
        with mock.patch.object(dataio.sys, "platform", "darwin"):
            assert load_panel(path, ["a", "b"])[1] == want[1]
    assert calls == [3]


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits the loader")
@pytest.mark.parametrize("how, what", [("raise", "exited with code 1"),
                                       ("kill", "was killed by signal 9")])
def test_a_reader_process_that_fails_is_a_worker_failure(tmp_path, monkeypatch, how, what):
    loader, read = os.getpid(), dataio._read_range

    def read_or_fail(*args):
        if os.getpid() != loader:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("a reader process fails")
        return read(*args)

    monkeypatch.setattr(dataio, "_read_range", read_or_fail)
    path = strata_file(tmp_path)
    with forced_parts(3), pytest.raises(WorkerFailure) as caught:
        dataio.load_households(path, ["a", "b"])
    assert str(caught.value) == f"a reader process for {path} {what}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
