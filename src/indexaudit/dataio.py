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

A file with no double quote is split at commas and line ends directly, a
chunk of lines at a time, so memory is bounded by one chunk of cells and the
per-row codes and amounts. Blank rows are skipped there as the csv module
skips them: empty lines, lines of only commas and ASCII whitespace, and rows
whose cells all strip to empty. A file the direct split cannot read exactly
as the csv module does (quotes, a NUL, a lone carriage return, an over-long
line, another blank line of the wrong width, a ragged row, bytes that are not
UTF-8) is read again, whole, by the csv module. Both give the same result and
the same errors.

Loaders raise ValidationError naming the file and line of the offense; text
that is not UTF-8 and a field longer than ``csv.field_size_limit()`` are
ValidationErrors too. Writers emit full-precision floats (repr round-trip).
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import stat
import sys
import tempfile
import threading
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .core import PriceSeries, WeightVector
from .errors import ConfigError, ValidationError, WorkerFailure
from .survey import HouseholdPanel, WeightEstimate

import numpy as np

__all__ = [
    "load_prices",
    "load_weights",
    "load_households",
    "load_weight_estimate",
    "write_prices",
    "write_weights",
    "write_households",
    "write_weight_estimate",
]

# Characters of text the direct reader reads at a time, then up to the end of
# a line: about 7.7k lines of micro data. Larger chunks read no faster and
# hold more cells at once.
_CHUNK_CHARS = 1 << 18
# Amounts each writer process formats at least, so that its fork and the copy
# of its part stay small beside the formatting (65,536 float reprs take about
# 0.09 s on a 2-core x86-64 VM).
_VALUES_PER_PART = 65_536
# the ASCII characters besides line ends that str.strip removes
_ASCII_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
# a line of only these the csv module reads as a blank row
_BLANK_LINE = "," + _ASCII_SPACE

# the line number of every data row of a chunk, and each column's stripped cells
_Chunk = tuple[Sequence[int], dict[str, list[str]]]
_Result = TypeVar("_Result")


class _NotPlain(Exception):
    """The direct reader cannot split the file exactly as the csv module does."""


def _open(path: Path) -> io.TextIOWrapper:
    try:
        # a leading byte-order mark, as spreadsheets write, is not header text
        return path.open(newline="", encoding="utf-8-sig")
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


def _read_columns(path: Path, columns: Sequence[str],
                  optional: Sequence[str] = ()) -> _Chunk:
    """Read a headered CSV with the csv module in one pass: the line number
    of every data row, and each header column's stripped cells. Blank rows
    are skipped; a row with the wrong field count is an error."""
    with _open(path) as handle:
        reader = csv.reader(handle)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            header = _check_header(path, header, columns, optional)
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    # a row is blank when every cell is whitespace, i.e. when their
    # concatenation is
    lines = [line_no for line_no, row in enumerate(rows, start=2) if "".join(row).strip()]
    if len(lines) < len(rows):
        rows = [rows[line_no - 2] for line_no in lines]
    width = len(header)
    if set(map(len, rows)) - {width}:
        line_no, row = next((line_no, row) for line_no, row in zip(lines, rows)
                            if len(row) != width)
        raise ValidationError(
            f"{path}:{line_no}: expected {width} fields, got {len(row)}"
        )
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return lines, {key: list(map(str.strip, cells))
                   for key, cells in zip(header, zip(*rows))}


def _plain_cells(text: str, width: int) -> tuple[list[str], list[int] | None]:
    """The stripped cells of ``text``, rows of ``width`` cells split at commas
    and line ends, where that is what the csv module reads; raises _NotPlain
    where it might not be. ``str.splitlines`` would also split at characters
    such as ``\\x1c`` and ``\\x85`` that the csv module keeps in a cell.

    Where a line has another width, lines of only commas and ASCII
    whitespace, which the csv module reads as blank rows, are dropped first
    unless over-long, and the offsets of the lines kept come second; else
    that is None."""
    if '"' in text or "\0" in text:
        raise _NotPlain
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            raise _NotPlain
    kept = None
    if not _rows_have_width(text, width):
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        limit = csv.field_size_limit()
        kept = [i for i, line in enumerate(lines)
                if line.strip(_BLANK_LINE) or len(line) > limit]
        if not kept:
            return [], kept
        text = "".join([lines[i] + "\n" for i in kept])
        if not _rows_have_width(text, width):
            raise _NotPlain
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


def _plain_chunks(path: Path, columns: Sequence[str],
                  optional: Sequence[str] = ()) -> Iterator[_Chunk]:
    """The file's data rows as chunks, split directly; raises _NotPlain at
    the first chunk the csv module might read otherwise, and ValidationError
    where ``_read_columns`` would for the header or an empty file."""
    with _open(path) as handle:
        try:
            first = handle.readline()
            if not first:
                raise ValidationError(f"{path}: empty file")
            header = _check_header(path, _plain_cells(first, first.count(",") + 1)[0],
                                   columns, optional)
            width, start, rows_read = len(header), 2, 0
            while text := handle.read(_CHUNK_CHARS):
                # up to the end of the line the read stopped in
                text += handle.readline()
                cells, kept = _plain_cells(text, width)
                split = [cells[i::width] for i in range(width)]
                lines = (range(start, start + len(split[0])) if kept is None
                         else [start + offset for offset in kept])
                # a row of cells that strip to empty is blank: the csv module
                # skips it
                if "" in split[0] and not all(map(any, zip(*split))):
                    rows = [i for i, row in enumerate(zip(*split)) if any(row)]
                    split = [[column[i] for i in rows] for column in split]
                    lines = [lines[i] for i in rows]
                if lines:
                    yield lines, dict(zip(header, split))
                    rows_read += len(lines)
                start += text.count("\n")
        except UnicodeDecodeError:
            raise _NotPlain from None
    if not rows_read:
        raise ValidationError(f"{path}: no data rows")


def _load(path: Path, columns: Sequence[str], optional: Sequence[str],
          consume: Callable[[Iterable[_Chunk]], _Result]) -> _Result:
    """``consume`` run over the file's chunks as the direct reader splits
    them or, where it cannot, over the csv module's one chunk of the file."""
    chunks = _plain_chunks(path, columns, optional)
    try:
        try:
            return consume(chunks)
        except ValidationError:
            # the csv path reads the whole file before it checks a cell, so
            # a read error or a ragged row later in the file comes first
            for _ in chunks:
                pass
            raise
        finally:
            chunks.close()
    except _NotPlain:
        return consume([_read_columns(path, columns, optional)])


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
    return _load(path, ("period", "group", "index"), (),
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
                f"{path}:{_line_of(lines, row)}: duplicate cell for group "
                f"{group_labels[group[row]]!r}, period {period_labels[period[row]]!r}"
            )
    if bad is not None:
        raise _not_a_number(path, _line_of(lines, bad[0]), "index", bad[1])
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


def _line_of(lines: list[Sequence[int]], row: int) -> int:
    """The line number of the row at position ``row`` over all chunks."""
    for chunk_lines in lines:
        if row < len(chunk_lines):
            return chunk_lines[row]
        row -= len(chunk_lines)
    raise IndexError(row)


def load_weights(path: str | Path,
                 group_labels: Sequence[str] | None = None) -> dict[str, WeightVector]:
    """Read one weight vector per source, aligned to the given group order.

    When ``group_labels`` is omitted, groups are taken in first-appearance
    order over the whole file.
    """
    path = Path(path)
    return _load(path, ("source", "group", "weight"), (),
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


def load_households(path: str | Path,
                    group_labels: Sequence[str] | None = None) -> HouseholdPanel:
    """Read household micro data; repeated (household, group) rows are summed.

    When ``group_labels`` is omitted, groups are taken in first-appearance
    order. Households keep file order. A household reported under two
    different strata is an error. The checks run on whole columns of a
    chunk; the error raised is the one on the lowest line and, within a line,
    the first of: unknown group, non-number, negative amount, stratum
    conflict. Only integer codes and amounts are kept per row.
    """
    path = Path(path)
    return _load(path, ("household_id", "group", "expenditure"), ("stratum",),
                 lambda chunks: _households(path, chunks, group_labels))


def _households(path: Path, chunks: Iterable[_Chunk],
                group_labels: Sequence[str] | None) -> HouseholdPanel:
    order = None if group_labels is None else list(group_labels)
    group_code = {} if order is None else {g: i for i, g in enumerate(order)}
    household_code: dict[str, int] = {}
    stratum_code: dict[str, int] = {}
    # the stratum code of each household's first row, in household code order
    first_strata = np.empty(0, dtype=np.intp)
    households, groups, amounts = [], [], []
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
            conflicts = np.flatnonzero(stratum != first_strata[household])
            if conflicts.size:
                row = int(conflicts[0])
                first = list(stratum_code)[first_strata[household[row]]] or None
                failures.append((row, 3, f"household {ids[row]!r} appears under two "
                                         f"strata ({first!r} and {strata[row] or None!r})"))
        if failures:
            row, _, message = min(failures)
            raise ValidationError(f"{path}:{lines[row]}: {message}")
        households.append(household)
        groups.append(codes)
        amounts.append(values)

    m = len(group_code) if order is None else len(order)
    cells = np.concatenate(households) * m + np.concatenate(groups)
    # bincount adds each cell's amounts in file order, as a running sum would
    spend = np.bincount(cells, weights=np.concatenate(amounts),
                        minlength=len(household_code) * m)
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
    return _load(path, ("kind", "row_group", "col_group", "value"), (),
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


def write_prices(path: str | Path, prices: PriceSeries) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["period", "group", "index"])
        for j, period in enumerate(prices.period_labels):
            for i, group in enumerate(prices.group_labels):
                writer.writerow([period, group, repr(float(prices.values[i, j]))])


def write_weights(path: str | Path, vectors: Mapping[str, WeightVector]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
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
    file; each other range is written by a forked child into an anonymous
    temporary file in the same directory, which is appended in order once
    the child has exited. A child that fails raises ``WorkerFailure``; on
    any failure a regular file is removed."""
    target = Path(path)
    with_stratum = any(stratum is not None for stratum in panel.strata)
    # ",<group>," and ",<stratum><end of line>" for every label, quoted once
    middles = [f",{_csv_field(group)}," for group in group_labels]
    ends = {stratum: (f",{_csv_field(stratum or '')}" if with_stratum else "")
            + csv.excel.lineterminator for stratum in set(panel.strata)}

    def write_range(handle: IO[str], first: int, last: int) -> None:
        # one household's floats at a time, not the whole matrix's
        for household, stratum, row in zip(panel.household_ids[first:last],
                                           panel.strata[first:last],
                                           panel.expenditures[first:last]):
            start, end, amounts = _csv_field(household), ends[stratum], row.tolist()
            handle.write("".join([f"{start}{middle}{amount!r}{end}"
                                  for middle, amount in zip(middles, amounts)]))

    handle = target.open("w", newline="", encoding="utf-8")
    # a device or a pipe is written by this process alone and never removed
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    parts = _part_count(len(panel) * len(group_labels)) if regular else 1
    bounds = [len(panel) * part // parts for part in range(parts + 1)]
    try:
        with handle, contextlib.ExitStack() as spools:
            header = ["household_id", "group", "expenditure"]
            if with_stratum:
                header.append("stratum")
            csv.writer(handle).writerow(header)
            # a child inherits unwritten buffers, so none may be left
            handle.flush()
            children: list[tuple[int, IO[str]]] = []
            try:
                for first, last in zip(bounds[1:-1], bounds[2:]):
                    spool = spools.enter_context(tempfile.TemporaryFile(
                        "w+", newline="", encoding="utf-8", dir=target.parent))
                    pid = os.fork()
                    if pid == 0:
                        # the child never returns into the caller's code
                        status = 1
                        try:
                            write_range(spool, first, last)
                            spool.flush()
                            status = 0
                        finally:
                            os._exit(status)
                    children.append((pid, spool))
                write_range(handle, bounds[0], bounds[1])
            finally:
                statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
            for (_, spool), status in zip(children, statuses):
                if status:
                    code = os.waitstatus_to_exitcode(status)
                    raise WorkerFailure(f"a writer process for {target} " + (
                        f"was killed by signal {-code}" if code < 0
                        else f"exited with code {code}"))
                spool.seek(0)
                shutil.copyfileobj(spool, handle)
    except BaseException:
        if regular:
            target.unlink(missing_ok=True)
        raise


def _part_count(values: int) -> int:
    """How many processes write a file of ``values`` amounts: one per
    available core and per ``_VALUES_PER_PART`` amounts, at least one. Only
    a Linux process with no other Python thread forks: elsewhere fork is
    unsafe or absent, and a forked child would hold a copy of every lock
    another thread might own."""
    if sys.platform != "linux" or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), values // _VALUES_PER_PART))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    buffer = io.StringIO()
    # a row of one empty field is written as "", so add a second field
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[:-len("," + csv.excel.lineterminator)]


def write_weight_estimate(path: str | Path, estimate: WeightEstimate,
                          group_labels: Sequence[str]) -> None:
    order = list(group_labels)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
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
