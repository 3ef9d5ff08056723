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

Every loader reads its file with one reader, ``_read``, in one pass: the
data is split directly at commas and line ends, and from the first chunk
that this cannot read exactly as the csv module does, the csv module reads
on. Both give the same result and the same errors, in bounded memory, from
a pipe as from a regular file.

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
import stat
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .core import PriceSeries, WeightVector
from .errors import ConfigError, ValidationError
from .survey import HouseholdPanel, WeightEstimate

import numpy as np

# Bytes the direct split reads at a time, then up to the end of a line: about
# 7.7k lines of micro data. Larger chunks read no faster and hold more cells
# at once. Where the csv module reads, it reads a 32nd as many rows at a time
# (8,192), about as many as a chunk of micro data holds.
_CHUNK_CHARS = 1 << 18
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
          read: Callable[[Iterator[_Chunk]], _Result]) -> _Result:
    """``read`` run over the data rows of the file, in file order, a chunk
    at a time: a ``read`` that sums each chunk into its result before it
    takes the next holds one chunk. The header is read once. The data is
    split directly, or, from its first chunk the direct split cannot read,
    by the csv module to the end of the file. The whole file is read
    whatever ``read`` does, so a read error anywhere in it comes before a
    ValidationError that ``read`` raises."""
    with _open(path) as raw:
        line, header = raw.readline(), None
        # a leading byte-order mark, as spreadsheets write, is not header text
        if not (text := line.decode("utf-8-sig", "replace")):
            raise ValidationError(f"{path}: empty file")
        if cut := _plain_cells(text, text.count(",") + 1):
            header = _check_header(path, cut[0], columns, optional)

        def split() -> Iterator[_Chunk]:
            data, start = line.removeprefix(codecs.BOM_UTF8), 2 if header else 1
            while header is not None and (data := raw.read(_CHUNK_CHARS)):
                # up to the end of the line the read stopped in
                data += raw.readline()
                if (chunk := _split(data.decode("utf-8", "replace"), header, start)) is None:
                    break
                if chunk[0]:
                    yield chunk
                start += data.count(b"\n")
            if data:
                yield from _csv_chunks(path, data, raw, header, start, columns, optional)

        chunks = split()
        if (chunk := next(chunks, None)) is None:
            raise ValidationError(f"{path}: no data rows")
        failure = None
        try:
            result = read(itertools.chain([chunk], chunks))
        except ValidationError as exc:
            failure = exc
        for _ in chunks:
            pass
    if failure is not None:
        raise failure
    return result


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
                        ragged = ValidationError(
                            f"{path}:{line_no}: expected {width} fields, got {len(row)}")
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
    return _read(path, ("source", "group", "weight"), (),
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
    order. Households keep file order. A household under two strata is an
    error. The checks run on whole columns of a chunk; the error raised is
    the one on the lowest line and, within a line, the first of: unknown
    group, non-number, negative amount, stratum conflict. A chunk that
    passes is summed into the panel: the loader holds the panel and a chunk.
    """
    path = Path(path)
    order = None if group_labels is None else list(group_labels)
    return _read(path, ("household_id", "group", "expenditure"), ("stratum",),
                 lambda chunks: _households(path, chunks, order))


def _households(path: Path, chunks: Iterable[_Chunk], order: list[str] | None
                ) -> HouseholdPanel:
    """The panel of the rows of ``chunks``; at the first chunk where a check
    fails, the failure on its lowest line is raised."""
    group_code = {} if order is None else {g: i for i, g in enumerate(order)}
    household_code: dict[str, int] = {}
    stratum_code: dict[str, int] = {}
    # the stratum code of each household's first row, in household code order
    first_strata = np.empty(0, dtype=np.intp)
    # the sums so far, one row per household code and rows to spare
    spend = np.zeros((0, 0))
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
        n, m = len(household_code), len(group_code) if order is None else len(order)
        if n > len(spend) or m > spend.shape[1]:
            # rows at least double, so each sum is copied a few times at most
            grown = np.zeros((max(n, 2 * len(spend)) if n > len(spend) else len(spend), m))
            grown[:len(spend), :spend.shape[1]] = spend
            spend = grown
        # each cell adds up in file order; overflow is the panel's error, not a warning
        with np.errstate(over="ignore"):
            np.add.at(spend.reshape(-1), household * m + codes, values)
    labels = [label or None for label in stratum_code]
    return HouseholdPanel(
        household_ids=tuple(household_code),
        expenditures=spend[:len(household_code)],
        strata=(tuple(labels[code] for code in first_strata.tolist()) if labels
                else None),
    )


def load_weight_estimate(path: str | Path,
                         group_labels: Sequence[str]) -> WeightEstimate:
    """Read a precomputed weight estimate: point weights, covariance, count."""
    path = Path(path)
    return _read(path, ("kind", "row_group", "col_group", "value"), (),
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
                     group_labels: Sequence[str]) -> str:
    """Write micro data in long form; return the SHA-256 hex digest of the
    bytes as they are written. They are those ``csv.writer`` would write row
    by row, with each amount as ``repr`` spells it. On any failure a regular
    file is removed (see ``output_file``).

    The file is written a block of households at a time: each cell's line is
    a row of bytes, its household, ``,group,``, amount (``floattext.encode``)
    and ``,stratum`` with the line end, each padded with ``floattext.PAD``,
    which UTF-8 never holds and which is then dropped."""
    import hashlib

    from . import floattext

    pad = bytes([floattext.PAD])
    with_stratum = any(stratum is not None for stratum in panel.strata)
    # ",<group>," and ",<stratum><end of line>" for every label, quoted once
    middles = _padded([f",{_csv_field(group)}," for group in group_labels], pad)
    strata = list(dict.fromkeys(panel.strata))
    code = {stratum: i for i, stratum in enumerate(strata)}
    ends = _padded([(f",{_csv_field(stratum or '')}" if with_stratum else "")
                     + csv.excel.lineterminator for stratum in strata], pad)
    step = max(1, floattext.BLOCK // max(1, len(group_labels)))

    with output_file(path, binary=True) as handle:
        header = ["household_id", "group", "expenditure"] + ["stratum"] * with_stratum
        block = (",".join(header) + csv.excel.lineterminator).encode()
        digest = hashlib.sha256(block)
        handle.write(block)
        for first in range(0, len(panel), step):
            last = min(first + step, len(panel))
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
            block = lines.tobytes().translate(None, pad)
            handle.write(block)
            digest.update(block)
    return digest.hexdigest()


def _padded(texts: Sequence[str], pad: bytes) -> np.ndarray:
    """The UTF-8 bytes of each text as a row, padded to the longest with
    ``pad``."""
    encoded = [text.encode("utf-8") for text in texts]
    width = max(map(len, encoded), default=0)
    rows = b"".join(text.ljust(width, pad) for text in encoded)
    return np.frombuffer(rows, dtype=np.uint8).reshape(len(encoded), width)


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
