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

Every loader reads its file with one reader, ``_read``, in byte ranges: the
data is split directly at commas and line ends, and from the first chunk
that this cannot read exactly as the csv module does, the csv module reads
on. Both give the same result and the same errors, in bounded memory, from
a pipe as from a regular file. Micro data, the largest input, is read in
ranges on every core, and the micro writer spreads its formatting the same
way: both fork through ``_fork_parts``, and ``_part_count`` decides how
many parts.

Loaders raise ValidationError naming the file and line of the offense; text
that is not UTF-8 and a field longer than ``csv.field_size_limit()`` are
ValidationErrors too. Writers emit full-precision floats (repr round-trip).
"""

from __future__ import annotations

import codecs
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

# Bytes the direct split reads at a time, then up to the end of a line: about
# 7.7k lines of micro data. Larger chunks read no faster and hold more cells
# at once. Where the csv module reads, it reads a 32nd as many rows at a time
# (8,192), about as many as a chunk of micro data holds.
_CHUNK_CHARS = 1 << 18
# Amounts each writer process formats at least, so that its fork and the copy
# of its part stay small beside the formatting. On a 2-core x86-64 VM one
# process writes 64,000 amounts in about 30 ms and two in 26 ms, while a fork
# costs 10-17 ms of CPU, so a smaller part would buy wall time with CPU.
# Threads hold the GIL between numpy calls: 200,000 amounts take 71 ms (93 ms
# CPU) in two threads, 76 (72) in one process and 54 (84) in two.
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


def _open(path: Path) -> IO[bytes]:
    try:
        return path.open("rb")
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
    ``\\x85`` that the csv module keeps in a cell). A replacement character
    may stand for bytes that are not UTF-8, which the csv module names. Where
    a line has another width, blank lines (only commas and whitespace, and
    not over-long) are dropped first, and the offsets of the lines kept come
    second; else that is None."""
    if '"' in text or "\0" in text or "\ufffd" in text:
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


def _read(path: Path, columns: Sequence[str], optional: Sequence[str],
          read: Callable[[Iterator[_Chunk]], _Result],
          per_part: int = 0) -> list[tuple[int, _Result]]:
    """``read`` run over the data rows of each byte range of the file that
    has any, in file order, each with the number to add to its line numbers.

    The header is read once. Where the direct split reads it, a regular file
    is cut at line starts into ``_part_count(size, per_part)`` ranges (one
    where ``per_part`` is 0), else the stream is one range. This process
    reads the first, a forked child each other, alike: split directly up to
    its end, or from its first chunk the direct split cannot read, by the
    csv module to the end of the file. Ranges are joined in file order up to
    that one, and errors raised in that order, as one reader meets them."""
    with _open(path) as raw:
        line, header = raw.readline(), None
        # a leading byte-order mark, as spreadsheets write, is not header text
        if not (text := line.decode("utf-8-sig", "replace")):
            raise ValidationError(f"{path}: empty file")
        if cut := _plain_cells(text, text.count(",") + 1):
            header = _check_header(path, cut[0], columns, optional)
        info = os.fstat(raw.fileno())
        parts = (_part_count(info.st_size, per_part)
                 if per_part and header and stat.S_ISREG(info.st_mode) else 1)
        bounds = [len(line)]
        for part in range(1, parts):
            # the first line start at or after an even share of the data
            raw.seek(max(bounds[-1], bounds[0] + (info.st_size - bounds[0]) * part // parts - 1))
            raw.readline()
            bounds.append(raw.tell())
            raw.seek(bounds[0])
        bounds.append(sys.maxsize)  # the last range reads to the end of the stream

        def read_range(handle: IO[bytes], part: int, start: int) -> tuple[Any, int | None]:
            """``_read_range`` over range ``part`` of ``handle``, lines numbered
            from ``start``, and the line after it, or None if the csv module read on."""
            end: int | None = start

            def chunks() -> Iterator[_Chunk]:
                nonlocal end
                data, size = line.removeprefix(codecs.BOM_UTF8), bounds[part + 1] - bounds[part]
                while header is not None and (data := handle.read(min(_CHUNK_CHARS, size))):
                    # up to the end of the line the read stopped in
                    data += handle.readline(size - len(data))
                    if (chunk := _split(data.decode("utf-8", "replace"), header, end)) is None:
                        break
                    if chunk[0]:
                        yield chunk
                    size -= len(data)
                    end += data.count(b"\n")
                if data:
                    line_no, end = end, None
                    yield from _csv_chunks(path, data, handle, header, line_no, columns,
                                           optional)

            return _read_range(chunks(), read), end

        def read_part(spool: IO[bytes], part: int) -> None:
            # a forked child shares the file offset of ``raw``
            with _open(path) as handle:
                handle.seek(bounds[part])
                pickle.dump(read_range(handle, part, 0), spool, protocol=5)

        with contextlib.ExitStack() as stack:
            first, spools = _fork_parts(parts, read_part,
                                        lambda: read_range(raw, 0, 2 if header else 1),
                                        f"a reader process for {path}", stack)
            joined, start = [], 0
            for result, end in itertools.chain([first], map(pickle.load, spools)):
                if isinstance(result, ValidationError):
                    raise (_LineError(path, start + result.args[1], result.args[2])
                           if isinstance(result, _LineError) else result)
                if result is not None:
                    joined.append((start, result))
                if end is None:
                    break
                start += end
    if not joined:
        raise ValidationError(f"{path}: no data rows")
    return joined


def _csv_chunks(path: Path, data: bytes, handle: IO[bytes], header: Sequence[str] | None,
                start: int, columns: Sequence[str],
                optional: Sequence[str]) -> Iterator[_Chunk]:
    """The data rows of ``data``, whole lines from line ``start`` of the file
    on, and of the rest of ``handle``, read by the csv module ``_CHUNK_CHARS
    // 32`` rows at a time; the header is read first where it is not given.
    Lines are split where ``newline=""`` splits them and each is decoded once
    it is reached, so a read error (bytes that are not UTF-8 too) is raised
    where it is met; a ragged row once the file has been read."""
    blocks = itertools.chain([data], iter(
        lambda: handle.read(_CHUNK_CHARS) + handle.readline(), b""))
    source = itertools.chain.from_iterable(block.splitlines(keepends=True) for block in blocks)
    reader, ragged = csv.reader(map(bytes.decode, source)), None
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
                        ragged = _LineError(path, line_no,
                                            f"expected {width} fields, got {len(row)}")
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
        raise _LineError(path, start - 1 + reader.line_num, str(exc)) from None


class _LineError(ValidationError):
    """``(path, line, text)``: ``text`` on line ``line`` of ``path``, which
    ``_read`` moves from a byte range's own numbering to the file's."""

    def __str__(self) -> str:
        return "{}:{}: {}".format(*self.args)


def _read_range(chunks: Iterator[_Chunk], read: Callable[[Iterator[_Chunk]], _Result]
                ) -> _Result | ValidationError | None:
    """``read(chunks)``, or None where ``chunks`` is empty, after which the
    rest of ``chunks`` is read; a ValidationError either raises is returned,
    so a read error later in the file comes before what ``read`` gives."""
    try:
        if (chunk := next(chunks, None)) is None:
            return None
        try:
            result = read(itertools.chain([chunk], chunks))
        except ValidationError as exc:
            result = exc
        for _ in chunks:
            pass
    except ValidationError as exc:
        return exc
    return result


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
    return _read(path, ("period", "group", "index"), (),
                 lambda chunks: _prices(path, chunks))[0][1]


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
    return _read(path, ("source", "group", "weight"), (),
                 lambda chunks: _weights(path, chunks, group_labels))[0][1]


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


def load_households(path: str | Path,
                    group_labels: Sequence[str] | None = None) -> HouseholdPanel:
    """Read household micro data; repeated (household, group) rows are summed.

    When ``group_labels`` is omitted, groups are taken in first-appearance
    order. Households keep file order. A household reported under two
    different strata is an error. The checks run on whole columns of a
    chunk; the error raised is the one on the lowest line and, within a line,
    the first of: unknown group, non-number, negative amount, stratum
    conflict. Only integer codes and amounts are kept per row.

    A regular file is read in byte ranges, one per part (see ``_read``).
    """
    path = Path(path)
    order = None if group_labels is None else list(group_labels)
    return _households(path, _read(path, ("household_id", "group", "expenditure"),
                                   ("stratum",), lambda chunks: _read_rows(path, chunks, order),
                                   _BYTES_PER_PART), order)


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
    return _read(path, ("kind", "row_group", "col_group", "value"), (),
                 lambda chunks: _weight_estimate(path, chunks, group_labels))[0][1]


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
    """Write micro data in long form; the bytes are those ``csv.writer``
    would write row by row, with each amount as ``repr`` spells it.

    The households are written in contiguous ranges, one per part (see
    ``_part_count``). This process writes the first range straight into the
    file; each other range is written by a forked child (see
    ``_fork_parts``) into a temporary file in the same directory, which is
    appended in order. On any failure a regular file is removed.

    A range is written a block of households at a time: each cell's line is
    a row of bytes, its household, ``,group,``, amount (``floattext.encode``)
    and ``,stratum`` with the line end, each padded with ``floattext.PAD``,
    which UTF-8 never holds and which is then dropped."""
    from . import floattext

    target = Path(path)
    pad = bytes([floattext.PAD])
    with_stratum = any(stratum is not None for stratum in panel.strata)
    # ",<group>," and ",<stratum><end of line>" for every label, quoted once
    middles = _padded([f",{_csv_field(group)}," for group in group_labels], pad)
    strata = list(dict.fromkeys(panel.strata))
    code = {stratum: i for i, stratum in enumerate(strata)}
    ends = _padded([(f",{_csv_field(stratum or '')}" if with_stratum else "")
                     + csv.excel.lineterminator for stratum in strata], pad)
    step = max(1, floattext.BLOCK // max(1, len(group_labels)))

    def write_range(handle: IO[bytes], part: int) -> None:
        for first in range(bounds[part], bounds[part + 1], step):
            last = min(first + step, bounds[part + 1])
            starts = _padded([_csv_field(household)
                              for household in panel.household_ids[first:last]], pad)
            amounts = floattext.encode(panel.expenditures[first:last])
            columns = np.cumsum([0, starts.shape[1], middles.shape[1], floattext.WIDTH,
                                 ends.shape[1]])
            lines = np.empty((last - first, len(group_labels), columns[-1]), dtype=np.uint8)
            lines[:, :, :columns[1]] = starts[:, None]
            lines[:, :, columns[1]:columns[2]] = middles
            lines[:, :, columns[2]:columns[3]] = amounts.reshape(
                last - first, len(group_labels), floattext.WIDTH)
            lines[:, :, columns[3]:] = ends[[code[stratum] for stratum
                                             in panel.strata[first:last]]][:, None]
            handle.write(lines.tobytes().translate(None, pad))

    with output_file(target, binary=True) as handle, contextlib.ExitStack() as stack:
        # a device or a pipe is written by this process alone
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        parts = (_part_count(len(panel) * len(group_labels), _VALUES_PER_PART)
                 if regular else 1)
        bounds = [len(panel) * part // parts for part in range(parts + 1)]
        header = ["household_id", "group", "expenditure"] + ["stratum"] * with_stratum
        handle.write((",".join(header) + csv.excel.lineterminator).encode())
        # a child inherits unwritten buffers, so none may be left
        handle.flush()
        _, spools = _fork_parts(parts, write_range, lambda: write_range(handle, 0),
                                f"a writer process for {target}", stack, dir=target.parent)
        for spool in spools:
            shutil.copyfileobj(spool, handle)


def _padded(texts: Sequence[str], pad: bytes) -> np.ndarray:
    """The UTF-8 bytes of each text as a row, padded to the longest with
    ``pad``."""
    encoded = [text.encode("utf-8") for text in texts]
    width = max(map(len, encoded), default=0)
    rows = b"".join(text.ljust(width, pad) for text in encoded)
    return np.frombuffer(rows, dtype=np.uint8).reshape(len(encoded), width)


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
    core and per ``per_part`` units, at least one. The package's one rule for
    forking, for the micro reader and writer and for ``verify``'s workers.
    Only a Linux process with no other Python thread forks: elsewhere fork
    is unsafe or absent, and a forked child would hold a copy of every lock
    another thread might own."""
    if sys.platform != "linux" or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // per_part))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row: as
    it is, unless it is empty or holds a delimiter, a quote or a line end."""
    if text and not ("," in text or '"' in text or "\r" in text or "\n" in text):
        return text
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
