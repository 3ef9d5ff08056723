"""CSV schemas for panels, weights, micro data, and weight estimates.

All files are plain UTF-8 CSV with a header row. Long (tidy) layouts
throughout:

* prices: ``period,group,index`` - every period/group cell exactly once.
* weights: ``source,group,weight`` - one weight vector per source label.
* households: ``household_id,group,expenditure`` plus an optional ``stratum``
  column; repeated (household, group) rows are summed, as diary data arrives
  in purchases.
* weight estimate: ``kind,row_group,col_group,value`` where kind is
  ``weight`` (row_group only), ``cov`` (both groups; either triangle may be
  given and mirrored values must agree), or ``households`` (an integer count,
  group columns empty).

Loaders raise ValidationError naming the file and line of the offense.
Writers emit full-precision floats (repr round-trip).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Mapping, Sequence

from .core import PriceSeries, WeightVector
from .errors import ConfigError, ValidationError
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


def _read_columns(path: Path, columns: Sequence[str],
                  optional: Sequence[str] = ()) -> tuple[list[int], dict[str, list[str]]]:
    """Read a headered CSV in one pass: the line number of every data row,
    and each header column's stripped cells. Blank rows are skipped; a row
    with the wrong field count is an error."""
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
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
        rows = list(reader)
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


def _parse_float(path: Path, line_no: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"{path}:{line_no}: column {column!r} is not a number: {text!r}"
        ) from None


def load_prices(path: str | Path) -> PriceSeries:
    """Read a price panel; groups and periods keep first-appearance order."""
    path = Path(path)
    lines, cols = _read_columns(path, ("period", "group", "index"))
    periods: dict[str, None] = {}
    groups: dict[str, None] = {}
    cells: dict[tuple[str, str], float] = {}
    for line_no, period, group, text in zip(lines, cols["period"], cols["group"],
                                            cols["index"]):
        key = (group, period)
        if key in cells:
            raise ValidationError(
                f"{path}:{line_no}: duplicate cell for group {group!r}, "
                f"period {period!r}"
            )
        periods[period] = None
        groups[group] = None
        cells[key] = _parse_float(path, line_no, "index", text)
    missing = [(g, p) for g in groups for p in periods if (g, p) not in cells]
    if missing:
        g, p = missing[0]
        raise ValidationError(
            f"{path}: panel is not rectangular; {len(missing)} missing cell(s), "
            f"first is group {g!r}, period {p!r}"
        )
    values = np.array([[cells[(g, p)] for p in periods] for g in groups])
    try:
        return PriceSeries(values=values, group_labels=tuple(groups),
                           period_labels=tuple(periods))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_weights(path: str | Path,
                 group_labels: Sequence[str] | None = None) -> dict[str, WeightVector]:
    """Read one weight vector per source, aligned to the given group order.

    When ``group_labels`` is omitted, groups are taken in first-appearance
    order over the whole file.
    """
    path = Path(path)
    lines, cols = _read_columns(path, ("source", "group", "weight"))
    order = (list(dict.fromkeys(cols["group"])) if group_labels is None
             else list(group_labels))
    known = set(order)
    by_source: dict[str, dict[str, float]] = {}
    for line_no, source, group, text in zip(lines, cols["source"], cols["group"],
                                            cols["weight"]):
        if group not in known:
            raise ValidationError(
                f"{path}:{line_no}: unknown group {group!r} (price panel has "
                f"{', '.join(order)})"
            )
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
    different strata is an error. The checks run on whole columns; the error
    raised is the one on the lowest line and, within a line, the first of:
    unknown group, non-number, negative amount, stratum conflict.
    """
    path = Path(path)
    lines, cols = _read_columns(path, ("household_id", "group", "expenditure"),
                                optional=("stratum",))
    ids, groups, amounts = cols["household_id"], cols["group"], cols["expenditure"]
    order = list(dict.fromkeys(groups)) if group_labels is None else list(group_labels)
    group_code = {g: i for i, g in enumerate(order)}
    household_code = {h: i for i, h in enumerate(dict.fromkeys(ids))}
    households = np.array(list(map(household_code.__getitem__, ids)), dtype=np.intp)
    first_row = np.unique(households, return_index=True)[1]

    failures: list[tuple[int, int, str]] = []  # (row, check order, message)
    codes = list(map(group_code.get, groups))
    if None in codes:
        row = codes.index(None)
        failures.append((row, 0, f"unknown group {groups[row]!r} (price panel has "
                                 f"{', '.join(order)})"))
    try:
        values = np.array(list(map(float, amounts)), dtype=float)
    except ValueError:
        row = _first_non_number(amounts)
        # only the rows before the first non-number can hold an earlier error
        values = np.array(list(map(float, amounts[:row])) + [0.0] * (len(amounts) - row))
        failures.append((row, 1, f"column 'expenditure' is not a number: "
                                 f"{amounts[row]!r}"))
    negative = np.flatnonzero(values < 0.0)
    if negative.size:
        row = int(negative[0])
        failures.append((row, 2, f"negative expenditure for household {ids[row]!r}"))
    # a stratum cell that is empty, like a missing column, means untagged
    strata = cols.get("stratum", [""] * len(ids))
    stratum_code = {s: i for i, s in enumerate(dict.fromkeys(strata))}
    stratum_codes = np.array(list(map(stratum_code.__getitem__, strata)), dtype=np.intp)
    conflicts = np.flatnonzero(stratum_codes != stratum_codes[first_row][households])
    if conflicts.size:
        row = int(conflicts[0])
        first = strata[first_row[households[row]]] or None
        failures.append((row, 3, f"household {ids[row]!r} appears under two strata "
                                 f"({first!r} and {strata[row] or None!r})"))
    if failures:
        row, _, message = min(failures)
        raise ValidationError(f"{path}:{lines[row]}: {message}")

    m = len(order)
    # bincount adds each cell's amounts in file order, as a running sum would
    spend = np.bincount(households * m + np.array(codes, dtype=np.intp),
                        weights=values, minlength=len(household_code) * m)
    return HouseholdPanel(
        household_ids=tuple(household_code),
        expenditures=spend.reshape(len(household_code), m),
        strata=tuple(strata[row] or None for row in first_row),
    )


def _first_non_number(texts: Sequence[str]) -> int:
    """Position of the first cell that ``float`` rejects; there must be one."""
    for position, text in enumerate(texts):
        try:
            float(text)
        except ValueError:
            return position
    raise ValueError("every cell is a number")


def load_weight_estimate(path: str | Path,
                         group_labels: Sequence[str]) -> WeightEstimate:
    """Read a precomputed weight estimate: point weights, covariance, count."""
    path = Path(path)
    lines, cols = _read_columns(path, ("kind", "row_group", "col_group", "value"))
    order = list(group_labels)
    positions = {g: i for i, g in enumerate(order)}
    weights: dict[str, float] = {}
    cov_entries: dict[tuple[int, int], float] = {}
    n_households: int | None = None
    for line_no, kind, row_group, col_group, value in zip(
            lines, cols["kind"], cols["row_group"], cols["col_group"], cols["value"]):
        if kind == "weight":
            if row_group not in positions:
                raise ValidationError(f"{path}:{line_no}: unknown group {row_group!r}")
            if row_group in weights:
                raise ValidationError(f"{path}:{line_no}: duplicate weight for {row_group!r}")
            weights[row_group] = _parse_float(path, line_no, "value", value)
        elif kind == "cov":
            for group in (row_group, col_group):
                if group not in positions:
                    raise ValidationError(f"{path}:{line_no}: unknown group {group!r}")
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
    those ``csv.writer`` would write row by row."""
    with_stratum = any(stratum is not None for stratum in panel.strata)
    # ",<group>," and ",<stratum><end of line>" for every label, quoted once
    middles = [f",{_csv_field(group)}," for group in group_labels]
    ends = {stratum: (f",{_csv_field(stratum or '')}" if with_stratum else "")
            + csv.excel.lineterminator for stratum in set(panel.strata)}
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        header = ["household_id", "group", "expenditure"]
        if with_stratum:
            header.append("stratum")
        csv.writer(handle).writerow(header)
        for household, stratum, amounts in zip(panel.household_ids, panel.strata,
                                               panel.expenditures.tolist()):
            start, end = _csv_field(household), ends[stratum]
            handle.write("".join([f"{start}{middle}{amount!r}{end}"
                                  for middle, amount in zip(middles, amounts)]))


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
