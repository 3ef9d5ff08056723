"""The columnar price loader against the row-wise reference loader.

Generated panels are mostly rectangular, then lose cells, gain duplicate
cells (some with a non-number), blank rows and quoted labels; for each file
both loaders must return the same labels and bit-identical values, or raise
the same ValidationError message. Quote-free panels with blank lines of
commas and ASCII whitespace must stay on the direct reader.
"""

import csv
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import price_oracle
from indexaudit import dataio
from indexaudit.errors import ValidationError
from test_micro_loader import (BLANK_LINES, CHUNKS, LAYOUTS, blank_lines, counting_reader,
                               csv_error_before_bytes_that_are_not_utf8, plain, reads,
                               source, write_rows, write_with_blank_lines)

# labels with a comma or a quote are quoted by csv.writer
PERIODS = ["t0", "t1", "t2", " t1 ", "t3", "\x1ct6"] * 2 + ["t,4", 't"5']
GROUPS = ["a", "b", "c", "b ", "\xa0d"] * 2 + ["g,1", 'g"2']
VALUES = ["100.0", "101.5", " 99 ", "98.25", "1_00", "١٠٠", "1e2"] * 3 + [
    "x", "", "nan", "-1", "0", "inf"]


@st.composite
def price_files(draw, plain_rows=False):
    """A header and data rows; unless ``plain_rows``, labels may be quoted."""
    pick = plain if plain_rows else list
    header = draw(st.permutations(["period", "group", "index"]))
    periods = draw(st.lists(st.sampled_from(pick(PERIODS)), min_size=1, max_size=4,
                            unique=True))
    groups = draw(st.lists(st.sampled_from(pick(GROUPS)), min_size=1, max_size=3,
                           unique=True))
    cells = [{"period": p, "group": g, "index": draw(st.sampled_from(VALUES))}
             for p in periods for g in groups]
    cells = draw(st.permutations(cells))
    # drop a cell now and then, and repeat some with a new index
    if len(cells) > 1 and draw(st.booleans()):
        del cells[draw(st.integers(0, len(cells) - 1))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        cell = dict(draw(st.sampled_from(cells)), index=draw(st.sampled_from(VALUES)))
        cells.insert(draw(st.integers(0, len(cells))), cell)
    rows = [[cell[column] for column in header] for cell in cells]
    for _ in range(draw(st.sampled_from([0, 0, 1]))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from([[], ["", "", ""], [" ", "\t", ""]])))
    return header, rows


def outcome(load, path):
    try:
        prices = load(path)
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", prices.group_labels, prices.period_labels, prices.values.tobytes()


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(price_files(), st.sampled_from(LAYOUTS), st.sampled_from(CHUNKS))
def test_columnar_prices_match_row_wise_reference(tmp_path, prices, layout, chunk):
    header, rows = prices
    path = tmp_path / "prices.csv"
    write_rows(path, header, rows, layout)
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk):
        assert outcome(dataio.load_prices, path) == outcome(price_oracle.load_prices, path)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(price_files(plain_rows=True), blank_lines, st.sampled_from(BLANK_LINES),
       st.sampled_from(["\n", "\r\n"]), st.sampled_from(CHUNKS))
def test_blank_lines_stay_on_the_direct_split(tmp_path, prices, blanks, last, line_end,
                                              chunk):
    header, rows = prices
    path = tmp_path / "prices.csv"
    write_with_blank_lines(path, header, rows, blanks, last, line_end)
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk), mock.patch.object(
            csv, "reader", wraps=csv.reader) as reader:
        got = outcome(dataio.load_prices, path)
    assert not reader.called
    assert got == outcome(price_oracle.load_prices, path)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("text, message", [
    # on one line a duplicate cell comes before a non-number
    ("x,a,1\nx,b,2\nx,a,oops\n", ":4: duplicate cell for group 'a', period 'x'"),
    # otherwise the lowest line wins
    ("x,a,oops\nx,b,2\nx,a,1\n", ":2: column 'index' is not a number: 'oops'"),
    ("x,a,1\nx,a,2\nx,b,oops\n", ":3: duplicate cell for group 'a', period 'x'"),
    # missing cells are counted after every line is read; the first is
    # the first in group order, then period order
    ("x,a,1\ny,b,2\n", "not rectangular; 2 missing cell(s), first is group 'a', "
                       "period 'y'"),
])
def test_price_error_precedence(tmp_path, text, message, chunk):
    path = tmp_path / "prices.csv"
    path.write_text("period,group,index\n" + text, encoding="utf-8")
    for load in (dataio.load_prices, price_oracle.load_prices):
        with mock.patch.object(dataio, "_CHUNK_CHARS", chunk):
            with pytest.raises(ValidationError) as caught:
                load(path)
        assert message in str(caught.value)


@pytest.mark.parametrize("kind", ["file", "fifo"])
@pytest.mark.parametrize("rows_after", [3000, 0])
def test_a_csv_error_before_bytes_that_are_not_utf8_is_named_first(tmp_path, kind,
                                                                  rows_after):
    if kind == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    data = csv_error_before_bytes_that_are_not_utf8("period,group,index\n", "t,{},1\n", 0,
                                                    rows_after)
    with source(tmp_path, data, kind) as path, pytest.raises(ValidationError) as caught:
        dataio.load_prices(path)
    assert str(caught.value) == f"{path}:2: field larger than field limit (131072)"


def test_each_row_of_a_file_is_read_once(tmp_path):
    # the one quote is in the last chunk: every chunk before it is split
    # directly, and the csv module reads on from the last one
    rows = [f"t{i // 2},{'ab'[i % 2]},{i + 1}\n" for i in range(40)]
    rows[-1] = '"t19",b,40\n'
    path, log = tmp_path / "prices.csv", tmp_path / "reads.jsonl"
    path.write_text("period,group,index\n" + "".join(rows), encoding="utf-8")
    with mock.patch.object(dataio, "_CHUNK_CHARS", 24), \
            mock.patch.object(csv, "reader", side_effect=counting_reader(log)):
        prices = dataio.load_prices(path)
    calls, read = reads(log)
    assert calls == 1
    # a chunk is 24 bytes and the rest of a line: at most three lines
    assert 1 <= len(read) <= 3 and "".join(rows).endswith("".join(read))
    assert prices.period_labels == tuple(f"t{i}" for i in range(20))
    assert prices.values.tolist() == [list(range(1, 41, 2)), list(range(2, 41, 2))]
