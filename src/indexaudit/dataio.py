"""CSV schemas for panels, weights, micro data, and weight estimates.

All files are plain UTF-8 CSV with a header row; a leading byte-order mark
is skipped. Long (tidy) layouts throughout:

* prices: ``period,group,index`` - every period/group cell exactly once.
* weights: ``source,group,weight`` - one weight vector per source label.
* households: ``household_id,group,expenditure`` plus an optional ``stratum``
  column; repeated (household, group) rows are summed, as diary data arrives
  in purchases.
* weight estimate: ``kind,row_group,col_group,value`` where kind is
  ``weight`` (row_group only), ``cov`` (both groups; either triangle may be
  given and mirrored values must agree), or ``households`` (an integer count,
  group columns empty).

A file is split at commas and line ends directly, a chunk of lines at a
time. From the header or first chunk that the direct split cannot read
exactly as the csv module does (a quote, a NUL, a lone carriage return, an
over-long line, a ragged row), the csv module takes over and reads the rest
of the file one chunk of rows at a time, so memory stays bounded for every
file, and each file is read once. Blank rows are skipped as the csv module
skips them. Both give the same result and the same errors.

Micro data, the largest input, is read on every core: a regular file is cut
at line starts into byte ranges, each read by the direct split in a process
of its own (see ``load_households``); from the first chunk of any range that
the direct split cannot read, the csv module reads on in this process. The
micro writer spreads its formatting the same way. Both fork through
``_fork_parts``, and ``_part_count`` decides how many parts.

Loaders raise ValidationError naming the file and line of the offense; text
that is not UTF-8 and a field longer than ``csv.field_size_limit()`` are
ValidationErrors too. Writers emit full-precision floats (repr round-trip).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import pickle
import shutil
import stat
import sys
import tempfile
import threading
from pathlib import Path
from typing import (IO, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
                    TypeVar)

from .core import PriceSeries, WeightVector
from .errors import ConfigError, ValidationError, WorkerFailure
from .survey import HouseholdPanel, WeightEstimate

import numpy as np

# Characters of text the direct reader reads at a time, then up to the end of
# a line: about 7.7k lines of micro data. Larger chunks read no faster and
# hold more cells at once. Where the csv module reads, it reads a 32nd as
# many rows at a time (8,192), about as many as a chunk of micro data holds.
_CHUNK_CHARS = 1 << 18
# Amounts each writer process formats at least, so that its fork and the copy
# of its part stay small beside the formatting (65,536 float reprs take about
# 0.09 s on a 2-core x86-64 VM).
_VALUES_PER_PART = 65_536
# Bytes of micro data each reader process reads at least, so that its fork
# and the copy of its rows back stay small beside the parsing (on a 2-core
# x86-64 VM, two parts read a 300 KB file no faster than one, and a 600 KB
# file in 8.4 ms, not 9.9).
_BYTES_PER_PART = 1 << 19
# the ASCII characters besides line ends that str.strip removes
_ASCII_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"

# the line number of every data row of a chunk, and each column's stripped cells
_Chunk = tuple[Sequence[int], dict[str, list[str]]]
_Result = TypeVar("_Result")


def _open(path: Path, binary: bool = False) -> IO:
    try:
        # a leading byte-order mark, as spreadsheets write, is not header text
        return path.open("rb") if binary else path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _check_header(path: Path, header: list[str], columns: Sequence[str],
                  optional: Sequence[str]) -> list[str]:
    header = [cell.strip() for cell in header]
    required = set(columns)
    allowed = required | set(optional)
    if not required <= set(header) or not set(header) <= allowed:
        raise ValidationError(
            f"{path}: header must contain {', '.join(columns)}"
            + (f" (optionally {', '.join(optional)})" if optional else "")
            + f"; got {', '.join(header)}"
        )
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicated header column")
    return header


def _plain_cells(text: str, width: int) -> tuple[list[str], list[int] | None] | None:
    """The stripped cells of ``text``, rows of ``width`` cells split at commas
    and line ends, where that is what the csv module reads, else None
    (``str.splitlines`` would also split at characters such as ``\\x1c`` and
    ``\\x85`` that the csv module keeps in a cell). Where a line has another
    width, blank lines (only commas and whitespace, and not over-long) are
    dropped first, and the offsets of the lines kept come second; else that
    is None."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    kept = None
    if not _rows_have_width(text, width):
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        limit = csv.field_size_limit()
        kept = [i for i, line in enumerate(lines)
                if line.replace(",", "").strip() or len(line) > limit]
        if not kept:
            return [], kept
        text = "".join([lines[i] + "\n" for i in kept])
        if not _rows_have_width(text, width):
            return None
    cells = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        cells.pop()
    if not text.isascii() or any(space in text for space in _ASCII_SPACE):
        cells = list(map(str.strip, cells))
    return cells, kept


def _rows_have_width(text: str, width: int) -> bool:
    """Whether every line of ``text`` has ``width - 1`` commas and no line is
    longer than the csv module's field limit (counted in UTF-8 bytes, which
    are at least as many as characters)."""
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if not text.endswith("\n"):
        ends = np.append(ends, raw.size)
    lengths = np.diff(ends, prepend=-1)
    commas = np.flatnonzero(raw == ord(","))
    if lengths.max() > csv.field_size_limit() or commas.size != ends.size * (width - 1):
        return False
    if width == 1:
        return True
    # with that many commas in all, each line has its share when its first
    # and last share fall inside it
    rows = commas.reshape(ends.size, width - 1)
    return bool((rows[:, 0] > ends - lengths).all() and (rows[:, -1] < ends).all())


def _split(text: str, header: Sequence[str], start: int) -> _Chunk | None:
    """The data rows of ``text``, whole lines numbered from ``start``, split
    directly; None where the csv module might read them otherwise. Blank rows
    are left out, as the csv module skips them."""
    width = len(header)
    if not (cut := _plain_cells(text, width)):
        return None
    cells, kept = cut
    split = [cells[i::width] for i in range(width)]
    lines = (range(start, start + len(split[0])) if kept is None
             else [start + offset for offset in kept])
    # a row of cells that strip to empty is blank
    if "" in split[0] and not all(map(any, zip(*split))):
        rows = [i for i, row in enumerate(zip(*split)) if any(row)]
        split = [[column[i] for i in rows] for column in split]
        lines = [lines[i] for i in rows]
    return lines, dict(zip(header, split))


def _chunks(path: Path, columns: Sequence[str],
            optional: Sequence[str]) -> Iterator[_Chunk]:
    """The file's data rows, a chunk at a time: split directly while the text
    is plain, and from the header or chunk that is not, read by the csv
    module (see ``_csv_chunks``). A read error is raised where it is met; a
    ragged row, and then a file without data rows, once the whole file has
    been read."""
    header, start, rows_read, source = None, 1, 0, ()
    with _open(path) as handle:
        try:
            text = handle.readline()
            if not text:
                raise ValidationError(f"{path}: empty file")
            if cut := _plain_cells(text, text.count(",") + 1):
                header = _check_header(path, cut[0], columns, optional)
                start = 2
                while text := handle.read(_CHUNK_CHARS):
                    # up to the end of the line the read stopped in
                    text += handle.readline()
                    if (chunk := _split(text, header, start)) is None:
                        break
                    if chunk[0]:
                        yield chunk
                        rows_read += len(chunk[0])
                    start += text.count("\n")
            if text:
                # the csv module reads on from the header or chunk that is
                # not plain
                source = itertools.chain(io.StringIO(text, newline=""), handle)
        except UnicodeDecodeError as exc:
            if not handle.seekable():
                raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
            # from the start of the file, so that a csv error before the
            # bytes is named first, where the csv module meets it
            handle.seek(0)
            source = itertools.islice(handle, start - 1, None)
        if source:
            for chunk in _csv_chunks(path, source, header, start, columns, optional):
                yield chunk
                rows_read += len(chunk[0])
    if not rows_read:
        raise ValidationError(f"{path}: no data rows")


def _csv_chunks(path: Path, source: Iterable[str], header: Sequence[str] | None,
                start: int, columns: Sequence[str],
                optional: Sequence[str]) -> Iterator[_Chunk]:
    """The data rows of ``source``, whose first line is line ``start`` of the
    file, read by the csv module ``_CHUNK_CHARS // 32`` rows at a time; the
    header is read first where it is not given. A read error is raised where
    it is met, a ragged row once ``source`` has been read."""
    reader, ragged = csv.reader(source), None
    try:
        if header is None:
            header = _check_header(path, next(reader), columns, optional)
        width, size = len(header), max(1, _CHUNK_CHARS // 32)
        while True:
            lines, rows, read = [], [], reader.line_num
            # each row is numbered by the line it starts on
            line_no = start + read
            for row in itertools.islice(reader, size):
                # a row is blank when every cell is whitespace, i.e. when
                # their concatenation is
                if "".join(row).strip():
                    if len(row) == width:
                        lines.append(line_no)
                        rows.append(row)
                    elif ragged is None:
                        ragged = ValidationError(f"{path}:{line_no}: expected "
                                                 f"{width} fields, got {len(row)}")
                line_no = start + reader.line_num
            if reader.line_num == read:
                break
            if rows:
                yield lines, {key: list(map(str.strip, cells))
                              for key, cells in zip(header, zip(*rows))}
        if ragged:
            raise ragged
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}:{start - 1 + reader.line_num}: {exc}") from None


def _load(chunks: Iterator[_Chunk], consume: Callable[[Iterable[_Chunk]], _Result]) -> _Result:
    """``consume`` run once over ``chunks``; a ValidationError it raises
    gives way to a read error or a ragged row later in the file."""
    try:
        return consume(chunks)
    except ValidationError:
        for _ in chunks:
            pass
        raise
    finally:
        chunks.close()


def _not_a_number(path: Path, line_no: int, column: str, text: str) -> ValidationError:
    return ValidationError(f"{path}:{line_no}: column {column!r} is not a number: {text!r}")


def _parse_float(path: Path, line_no: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _not_a_number(path, line_no, column, text) from None


def _first_non_number(texts: Sequence[str]) -> int:
    """Position of the first cell that ``float`` rejects; there must be one."""
    for position, text in enumerate(texts):
        try:
            float(text)
        except ValueError:
            return position
    raise ValueError("every cell is a number")


def _encode(codes: dict[str, int], cells: Sequence[str]) -> np.ndarray:
    """Each cell's code, where a cell not yet in ``codes`` gets the next
    code, in order of first appearance."""
    try:
        return np.fromiter(map(codes.__getitem__, cells), dtype=np.intp, count=len(cells))
    except KeyError:
        for cell in dict.fromkeys(cells):
            codes.setdefault(cell, len(codes))
        return np.fromiter(map(codes.__getitem__, cells), dtype=np.intp, count=len(cells))


def load_prices(path: str | Path) -> PriceSeries:
    """Read a price panel; groups and periods keep first-appearance order.

    The error raised is the one on the lowest line; on one line a duplicate
    cell comes before a non-number. A panel with a missing cell is an error
    after that.
    """
    path = Path(path)
    return _load(_chunks(path, ("period", "group", "index"), ()),
                 lambda chunks: _prices(path, chunks))


def _prices(path: Path, chunks: Iterable[_Chunk]) -> PriceSeries:
    period_code: dict[str, int] = {}
    group_code: dict[str, int] = {}
    lines, periods, groups, values = [], [], [], []
    bad: tuple[int, str] | None = None  # row and text of the first non-number
    rows = 0
    for chunk_lines, cols in chunks:
        lines.append(chunk_lines)
        periods.append(_encode(period_code, cols["period"]))
        groups.append(_encode(group_code, cols["group"]))
        texts = cols["index"]
        try:
            values.append(np.fromiter(map(float, texts), dtype=float, count=len(texts)))
        except ValueError:
            row = _first_non_number(texts)
            bad = (rows + row, texts[row])
            # later rows cannot hold an earlier error
            break
        rows += len(texts)
    period_labels, group_labels = list(period_code), list(group_code)
    n_periods = len(period_labels)
    period, group = np.concatenate(periods), np.concatenate(groups)
    cell = group * n_periods + period
    repeated = np.ones(cell.size, dtype=bool)
    repeated[np.unique(cell, return_index=True)[1]] = False
    if repeated.any():
        row = int(np.argmax(repeated))
        if bad is None or row <= bad[0]:
            raise ValidationError(
                f"{path}:{np.concatenate(lines)[row]}: duplicate cell for group "
                f"{group_labels[group[row]]!r}, period {period_labels[period[row]]!r}"
            )
    if bad is not None:
        raise _not_a_number(path, np.concatenate(lines)[bad[0]], "index", bad[1])
    filled = np.zeros((len(group_labels), n_periods), dtype=bool)
    filled[group, period] = True
    if not filled.all():
        g, p = divmod(int(np.argmin(filled)), n_periods)
        raise ValidationError(
            f"{path}: panel is not rectangular; {filled.size - int(filled.sum())} "
            f"missing cell(s), first is group {group_labels[g]!r}, period "
            f"{period_labels[p]!r}"
        )
    matrix = np.empty(filled.shape)
    matrix[group, period] = np.concatenate(values)
    try:
        return PriceSeries(values=matrix, group_labels=tuple(group_labels),
                           period_labels=tuple(period_labels))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_weights(path: str | Path,
                 group_labels: Sequence[str] | None = None) -> dict[str, WeightVector]:
    """Read one weight vector per source, aligned to the given group order.

    When ``group_labels`` is omitted, groups are taken in first-appearance
    order over the whole file.
    """
    path = Path(path)
    return _load(_chunks(path, ("source", "group", "weight"), ()),
                 lambda chunks: _weights(path, chunks, group_labels))


def _weights(path: Path, chunks: Iterable[_Chunk],
             group_labels: Sequence[str] | None) -> dict[str, WeightVector]:
    order = [] if group_labels is None else list(group_labels)
    known = set(order)
    by_source: dict[str, dict[str, float]] = {}
    for lines, cols in chunks:
        for line_no, source, group, text in zip(lines, cols["source"], cols["group"],
                                                cols["weight"]):
            if group not in known:
                if group_labels is not None:
                    raise ValidationError(
                        f"{path}:{line_no}: unknown group {group!r} (price panel has "
                        f"{', '.join(order)})"
                    )
                order.append(group)
                known.add(group)
            entry = by_source.setdefault(source, {})
            if group in entry:
                raise ValidationError(
                    f"{path}:{line_no}: duplicate weight for source {source!r}, "
                    f"group {group!r}"
                )
            entry[group] = _parse_float(path, line_no, "weight", text)
    vectors = {}
    for source, entry in by_source.items():
        missing = [g for g in order if g not in entry]
        if missing:
            raise ValidationError(
                f"{path}: source {source!r} is missing weights for "
                f"{', '.join(missing)}"
            )
        try:
            vectors[source] = WeightVector(
                [entry[g] for g in order], label=source,
                group_labels=tuple(order),
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return vectors


_MICRO_COLUMNS, _MICRO_OPTIONAL = ("household_id", "group", "expenditure"), ("stratum",)


def load_households(path: str | Path,
                    group_labels: Sequence[str] | None = None) -> HouseholdPanel:
    """Read household micro data; repeated (household, group) rows are summed.

    When ``group_labels`` is omitted, groups are taken in first-appearance
    order. Households keep file order. A household reported under two
    different strata is an error. The checks run on whole columns of a
    chunk; the error raised is the one on the lowest line and, within a line,
    the first of: unknown group, non-number, negative amount, stratum
    conflict. Only integer codes and amounts are kept per row.

    A regular file is read in byte ranges at line starts, one per part (see
    ``_part_count``): this process reads the first, a forked child each
    other. The ranges are joined in file order, so the panel and the error
    are those of one reader. The csv module reads on from the first chunk
    the direct split cannot read, and the ranges after it are dropped.
    """
    path = Path(path)
    order = None if group_labels is None else list(group_labels)
    try:
        info = path.stat()
    except OSError:
        info = None  # _open names the error
    parts = (_part_count(info.st_size, _BYTES_PER_PART)
             if info is not None and stat.S_ISREG(info.st_mode) else 1)
    if parts > 1:
        with _open(path, binary=True) as raw:
            panel = _households_in_parts(path, raw, parts, order)
        if panel is not None:
            return panel
    return _load(_chunks(path, _MICRO_COLUMNS, _MICRO_OPTIONAL),
                 lambda chunks: _households(path, [(0, _read_rows(path, chunks, order))],
                                            order))


def _households_in_parts(path: Path, raw: IO[bytes], parts: int,
                         order: list[str] | None) -> HouseholdPanel | None:
    """The panel of the micro file open as ``raw``, its data rows read in
    ``parts`` byte ranges; None where its header is not plain text."""
    line = raw.readline()
    try:
        text = line.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    if not (line.endswith(b"\n") and (cut := _plain_cells(text, text.count(",") + 1))):
        return None
    header = _check_header(path, cut[0], _MICRO_COLUMNS, _MICRO_OPTIONAL)
    size, bounds = os.fstat(raw.fileno()).st_size, [raw.tell()]
    for part in range(1, parts):
        # the first line start at or after an even share of the data
        raw.seek(max(bounds[-1], bounds[0] + (size - bounds[0]) * part // parts - 1))
        raw.readline()
        bounds.append(raw.tell())
    bounds.append(max(size, bounds[-1]))

    def read(part: int) -> tuple[_Rows, int, int | None]:
        return _read_range(path, header, bounds[part], bounds[part + 1], order)

    with contextlib.ExitStack() as stack:
        first, spools = _fork_parts(
            parts, lambda spool, part: pickle.dump(read(part), spool, protocol=5),
            lambda: read(0), f"a reader process for {path}", stack)
        ranges = itertools.chain([first], map(pickle.load, spools))
        joined, start = [], 2
        for rows, lines, stop in ranges:
            joined.append((start, rows))
            start += lines
            if stop is not None:
                break
    if stop is None:
        return _households(path, joined, order)
    raw.seek(stop)
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as rest:
        return _load(_csv_chunks(path, rest, header, start, _MICRO_COLUMNS, _MICRO_OPTIONAL),
                     lambda chunks: _households(
                         path, [*joined, (0, _read_rows(path, chunks, order))], order))


def _range_chunks(path: Path, header: Sequence[str], first: int, last: int,
                  end: list[int | None]) -> Iterator[_Chunk]:
    """The data rows of bytes ``first`` to ``last`` of the file, both line
    starts, split directly a chunk at a time, with lines numbered from 0 at
    ``first``. Once read, ``end`` holds the number of lines read and the
    offset of the first chunk the direct split cannot read, or None."""
    start = 0
    with _open(path, binary=True) as raw:
        raw.seek(first)
        while first < last:
            data = raw.read(min(_CHUNK_CHARS, last - first))
            data += raw.readline(last - first - len(data))
            try:
                chunk = _split(data.decode("utf-8"), header, start)
            except UnicodeDecodeError:
                chunk = None
            if chunk is None:
                break
            if chunk[0]:
                yield chunk
            first += len(data)
            start += data.count(b"\n")
    end[:] = [start, first if first < last else None]


def _read_range(path: Path, header: Sequence[str], first: int, last: int,
                order: list[str] | None) -> tuple[_Rows, int, int | None]:
    """The rows of a byte range (see ``_range_chunks``), the number of its
    lines read and where the direct split stopped in it, or None."""
    end: list[int | None] = []
    chunks = _range_chunks(path, header, first, last, end)
    rows = _read_rows(path, chunks, order)
    # after a failure too: a read error or a ragged row later on comes first
    for _ in chunks:
        pass
    return rows, *end


class _Rows(NamedTuple):
    """The data rows of a range of a micro file, coded against the range's
    own tables, whose labels are in order of first appearance."""

    # per chunk: each row's household code, group code (a position in the
    # order given) and amount
    households: list[np.ndarray]
    groups: list[np.ndarray]
    amounts: list[np.ndarray]
    household_ids: list[str]
    group_labels: list[str]
    stratum_labels: list[str]  # empty without a stratum column
    first_strata: np.ndarray  # each household's first stratum code
    first_lines: list[int]  # the line of each household's first row
    failure: tuple[int, int, str] | None  # (line, check order, message)


def _read_rows(path: Path, chunks: Iterable[_Chunk], order: list[str] | None) -> _Rows:
    """The rows of ``chunks`` up to the first chunk where a check fails; its
    failure is the one on the lowest line."""
    group_code = {} if order is None else {g: i for i, g in enumerate(order)}
    household_code: dict[str, int] = {}
    stratum_code: dict[str, int] = {}
    # the stratum code and the line of each household's first row, in
    # household code order
    first_strata = np.empty(0, dtype=np.intp)
    first_lines: list[int] = []
    households, groups, amounts = [], [], []
    failure = None
    for lines, cols in chunks:
        ids, group_cells, texts = cols["household_id"], cols["group"], cols["expenditure"]
        seen = len(household_code)
        household = _encode(household_code, ids)
        failures: list[tuple[int, int, str]] = []  # (row, check order, message)
        if order is None:
            codes = _encode(group_code, group_cells)
        else:
            try:
                codes = np.fromiter(map(group_code.__getitem__, group_cells),
                                    dtype=np.intp, count=len(group_cells))
            except KeyError:
                row = next(row for row, group in enumerate(group_cells)
                           if group not in group_code)
                failures.append((row, 0, f"unknown group {group_cells[row]!r} (price "
                                         f"panel has {', '.join(order)})"))
        try:
            values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
        except ValueError:
            row = _first_non_number(texts)
            # only the rows before the first non-number can hold an earlier error
            values = np.zeros(len(texts))
            values[:row] = list(map(float, texts[:row]))
            failures.append((row, 1, f"column 'expenditure' is not a number: "
                                     f"{texts[row]!r}"))
        negative = np.flatnonzero(values < 0.0)
        if negative.size:
            row = int(negative[0])
            failures.append((row, 2, f"negative expenditure for household {ids[row]!r}"))
        # a stratum cell that is empty, like a missing column, means untagged
        strata = cols.get("stratum")
        if strata is not None:
            stratum = _encode(stratum_code, strata)
            new_rows = np.flatnonzero(household >= seen)
            first_rows = new_rows[np.unique(household[new_rows], return_index=True)[1]]
            first_strata = np.concatenate([first_strata, stratum[first_rows]])
            first_lines += [lines[row] for row in first_rows.tolist()]
            conflicts = np.flatnonzero(stratum != first_strata[household])
            if conflicts.size:
                row = int(conflicts[0])
                first = list(stratum_code)[first_strata[household[row]]] or None
                failures.append((row, 3, f"household {ids[row]!r} appears under two "
                                         f"strata ({first!r} and {strata[row] or None!r})"))
        if failures:
            row, check, message = min(failures)
            failure = (lines[row], check, message)
            break
        households.append(household)
        groups.append(codes)
        amounts.append(values)
    return _Rows(households, groups, amounts, list(household_code), list(group_code),
                 list(stratum_code), first_strata, first_lines, failure)


def _households(path: Path, parts: Sequence[tuple[int, _Rows]],
                order: list[str] | None) -> HouseholdPanel:
    """The panel of the rows of each part in turn, whose lines are numbered
    from the first number given with it; the failure on the lowest line,
    a household's stratum conflicting across parts included, is raised."""
    group_code = {} if order is None else {g: i for i, g in enumerate(order)}
    household_code: dict[str, int] = {}
    stratum_code: dict[str, int] = {}
    first_strata = np.empty(0, dtype=np.intp)
    coded = []  # each part's rows, with its household and group codes here
    for start, rows in parts:
        failures = [] if rows.failure is None else [rows.failure]
        seen = len(household_code)
        household = _encode(household_code, rows.household_ids)
        if rows.stratum_labels:
            stratum = _encode(stratum_code, rows.stratum_labels)[rows.first_strata]
            first_strata = np.concatenate([first_strata, stratum[household >= seen]])
            # a household first seen in an earlier part conflicts at its
            # first row in this one
            conflicts = np.flatnonzero(stratum != first_strata[household])
            if conflicts.size:
                h = min(conflicts.tolist(), key=rows.first_lines.__getitem__)
                first = list(stratum_code)[first_strata[household[h]]] or None
                failures.append((rows.first_lines[h], 3, (
                    f"household {rows.household_ids[h]!r} appears under two strata "
                    f"({first!r} and {rows.stratum_labels[rows.first_strata[h]] or None!r})")))
        if failures:
            line, _, message = min(failures)
            raise ValidationError(f"{path}:{start + line}: {message}")
        coded.append((rows, household, None if order is not None
                       else _encode(group_code, rows.group_labels)))
    if not any(rows.amounts for rows, _, _ in coded):
        raise ValidationError(f"{path}: no data rows")
    m = len(group_code) if order is None else len(order)
    spend = np.zeros(len(household_code) * m)
    # a sum that overflows is the panel's error, not a warning
    with np.errstate(over="ignore"):
        for rows, household, group in coded:
            for households, groups, amounts in zip(rows.households, rows.groups,
                                                   rows.amounts):
                cells = household[households] * m + (groups if group is None
                                                     else group[groups])
                # each cell's amounts are added in file order, as a running
                # sum would
                np.add.at(spend, cells, amounts)
    labels = [label or None for label in stratum_code]
    return HouseholdPanel(
        household_ids=tuple(household_code),
        expenditures=spend.reshape(len(household_code), m),
        strata=(tuple(labels[code] for code in first_strata.tolist()) if labels
                else None),
    )


def load_weight_estimate(path: str | Path,
                         group_labels: Sequence[str]) -> WeightEstimate:
    """Read a precomputed weight estimate: point weights, covariance, count."""
    path = Path(path)
    return _load(_chunks(path, ("kind", "row_group", "col_group", "value"), ()),
                 lambda chunks: _weight_estimate(path, chunks, group_labels))


def _weight_estimate(path: Path, chunks: Iterable[_Chunk],
                     group_labels: Sequence[str]) -> WeightEstimate:
    order = list(group_labels)
    positions = {g: i for i, g in enumerate(order)}
    weights: dict[str, float] = {}
    cov_entries: dict[tuple[int, int], float] = {}
    n_households: int | None = None
    for lines, cols in chunks:
        for line_no, kind, row_group, col_group, value in zip(
                lines, cols["kind"], cols["row_group"], cols["col_group"], cols["value"]):
            if kind == "weight":
                if row_group not in positions:
                    raise ValidationError(f"{path}:{line_no}: unknown group {row_group!r}")
                if row_group in weights:
                    raise ValidationError(
                        f"{path}:{line_no}: duplicate weight for {row_group!r}")
                weights[row_group] = _parse_float(path, line_no, "value", value)
            elif kind == "cov":
                for group in (row_group, col_group):
                    if group not in positions:
                        raise ValidationError(
                            f"{path}:{line_no}: unknown group {group!r}")
                key = (positions[row_group], positions[col_group])
                if key in cov_entries:
                    raise ValidationError(
                        f"{path}:{line_no}: duplicate covariance entry "
                        f"({row_group!r}, {col_group!r})"
                    )
                cov_entries[key] = _parse_float(path, line_no, "value", value)
            elif kind == "households":
                if n_households is not None:
                    raise ValidationError(f"{path}:{line_no}: duplicate households row")
                try:
                    n_households = int(value)
                except ValueError:
                    raise ValidationError(
                        f"{path}:{line_no}: households count is not an integer: "
                        f"{value!r}"
                    ) from None
            else:
                raise ValidationError(
                    f"{path}:{line_no}: unknown kind {kind!r} "
                    f"(expected weight, cov, or households)"
                )
    missing_weights = [g for g in order if g not in weights]
    if missing_weights:
        raise ValidationError(
            f"{path}: missing weight rows for {', '.join(missing_weights)}"
        )
    m = len(order)
    cov = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            direct = cov_entries.get((i, j))
            mirror = cov_entries.get((j, i))
            if direct is None and mirror is None:
                raise ValidationError(
                    f"{path}: missing covariance entry ({order[i]!r}, {order[j]!r})"
                )
            if direct is not None and mirror is not None and i != j:
                if abs(direct - mirror) > 1e-12 * max(1.0, abs(direct)):
                    raise ValidationError(
                        f"{path}: covariance entries ({order[i]!r}, {order[j]!r}) "
                        f"disagree across the diagonal"
                    )
            cov[i, j] = direct if direct is not None else mirror
    try:
        return WeightEstimate(
            point=WeightVector([weights[g] for g in order], label="survey",
                               group_labels=tuple(order)),
            covariance=cov,
            n_households=n_households,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def output_file(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """``path`` opened for writing, as text CSV writers take it or as bytes.
    A regular file the body could not finish is removed, whatever stopped
    it; a device or a pipe never is."""
    target = Path(path)
    handle = target.open("wb") if binary else target.open("w", newline="", encoding="utf-8")
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    try:
        with handle:
            yield handle
    except BaseException:
        if regular:
            target.unlink(missing_ok=True)
        raise


def write_prices(path: str | Path, prices: PriceSeries) -> None:
    with output_file(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["period", "group", "index"])
        for j, period in enumerate(prices.period_labels):
            for i, group in enumerate(prices.group_labels):
                writer.writerow([period, group, repr(float(prices.values[i, j]))])


def write_weights(path: str | Path, vectors: Mapping[str, WeightVector]) -> None:
    with output_file(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["source", "group", "weight"])
        for source, vector in vectors.items():
            labels = vector.group_labels or tuple(
                str(i) for i in range(vector.n_groups)
            )
            for group, weight in zip(labels, vector.w):
                writer.writerow([source, group, repr(float(weight))])


def write_households(path: str | Path, panel: HouseholdPanel,
                     group_labels: Sequence[str]) -> None:
    """Write micro data in long form, one household at a time; the bytes are
    those ``csv.writer`` would write row by row.

    The households are written in contiguous ranges, one per part (see
    ``_part_count``). This process writes the first range straight into the
    file; each other range is written by a forked child (see
    ``_fork_parts``) into a temporary file in the same directory, which is
    appended in order. On any failure a regular file is removed."""
    target = Path(path)
    with_stratum = any(stratum is not None for stratum in panel.strata)
    # ",<group>," and ",<stratum><end of line>" for every label, quoted once
    middles = [f",{_csv_field(group)}," for group in group_labels]
    ends = {stratum: (f",{_csv_field(stratum or '')}" if with_stratum else "")
            + csv.excel.lineterminator for stratum in set(panel.strata)}

    def write_range(handle: IO[str], part: int) -> None:
        first, last = bounds[part], bounds[part + 1]
        # one household's floats at a time, not the whole matrix's
        for household, stratum, row in zip(panel.household_ids[first:last],
                                           panel.strata[first:last],
                                           panel.expenditures[first:last]):
            start, end, amounts = _csv_field(household), ends[stratum], row.tolist()
            handle.write("".join([f"{start}{middle}{amount!r}{end}"
                                  for middle, amount in zip(middles, amounts)]))

    with output_file(target) as handle, contextlib.ExitStack() as stack:
        # a device or a pipe is written by this process alone
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        parts = (_part_count(len(panel) * len(group_labels), _VALUES_PER_PART)
                 if regular else 1)
        bounds = [len(panel) * part // parts for part in range(parts + 1)]
        header = ["household_id", "group", "expenditure"]
        if with_stratum:
            header.append("stratum")
        csv.writer(handle).writerow(header)
        # a child inherits unwritten buffers, so none may be left
        handle.flush()
        _, spools = _fork_parts(parts, write_range, lambda: write_range(handle, 0),
                                f"a writer process for {target}", stack, mode="w+",
                                newline="", encoding="utf-8", dir=target.parent)
        for spool in spools:
            shutil.copyfileobj(spool, handle)


def _fork_parts(parts: int, work: Callable[[IO, int], object],
                first: Callable[[], _Result], what: str, stack: contextlib.ExitStack,
                **spool: Any) -> tuple[_Result, list[IO]]:
    """``first()``, run in this process, and a spool of each part from 1 to
    ``parts - 1``, read from its start. Each of those parts is a forked child
    that runs ``work(spool, part)`` into its own anonymous temporary file,
    made by ``tempfile.TemporaryFile(**spool)`` and closed by ``stack``.
    Every child is reaped, whatever ``first`` does; one that did not exit
    normally raises ``WorkerFailure`` naming ``what``."""
    children: list[tuple[int, IO]] = []
    try:
        for part in range(1, parts):
            handle = stack.enter_context(tempfile.TemporaryFile(**spool))
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller's code
                status = 1
                try:
                    work(handle, part)
                    handle.flush()
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, handle))
        result = first()
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for status in statuses:
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise WorkerFailure(f"{what} " + (f"was killed by signal {-code}" if code < 0
                                             else f"exited with code {code}"))
    for _, handle in children:
        handle.seek(0)
    return result, [handle for _, handle in children]


def _part_count(size: int, per_part: int) -> int:
    """How many processes share work of ``size`` units: one per available
    core and per ``per_part`` units, at least one. Only a Linux process with
    no other Python thread forks: elsewhere fork is unsafe or absent, and a
    forked child would hold a copy of every lock another thread might own."""
    if sys.platform != "linux" or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // per_part))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    buffer = io.StringIO()
    # a row of one empty field is written as "", so add a second field
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[:-len("," + csv.excel.lineterminator)]


def write_weight_estimate(path: str | Path, estimate: WeightEstimate,
                          group_labels: Sequence[str]) -> None:
    order = list(group_labels)
    with output_file(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "row_group", "col_group", "value"])
        for group, weight in zip(order, estimate.point.w):
            writer.writerow(["weight", group, "", repr(float(weight))])
        for i, row_group in enumerate(order):
            for j, col_group in enumerate(order):
                if j < i:
                    continue
                writer.writerow([
                    "cov", row_group, col_group,
                    repr(float(estimate.covariance[i, j])),
                ])
        if estimate.n_households is not None:
            writer.writerow(["households", "", "", str(estimate.n_households)])
