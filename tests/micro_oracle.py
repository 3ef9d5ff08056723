"""Row-wise reference loader and writer for household micro data.

This is the loader ``dataio.load_households`` replaced: it reads the file
into one dict per row, sums repeated cells in a dict of dicts, and checks
each household's expenditures as the per-household record type did. The
writer is the one ``dataio.write_households`` replaced: one ``csv.writer``
row per household and group. The property tests compare the columnar
loader and the split writer against them, so keep them as they are: a
change here no longer tests what the old code did.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from indexaudit.errors import ConfigError, ValidationError


def read_rows(path: str | Path, columns: Sequence[str],
              optional: Sequence[str] = ()) -> list[tuple[int, dict[str, str]]]:
    path = Path(path)
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
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append((line_no, {key: cell.strip() for key, cell in zip(header, row)}))
        if not rows:
            raise ValidationError(f"{path}: no data rows")
        return rows


def _parse_float(path: Path, line_no: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"{path}:{line_no}: column {column!r} is not a number: {text!r}"
        ) from None


def _check_household(household_id: str, spend: np.ndarray) -> None:
    if spend.ndim != 1 or spend.size < 2:
        raise ValidationError(
            f"household {household_id!r}: expenditures must be a vector "
            f"over at least 2 groups"
        )
    if not np.all(np.isfinite(spend)) or np.any(spend < 0.0):
        raise ValidationError(
            f"household {household_id!r}: expenditures must be finite "
            f"and non-negative"
        )


def load_households(path: str | Path, group_labels: Sequence[str] | None = None
                    ) -> tuple[tuple[str, ...], tuple[str | None, ...], np.ndarray]:
    """Household ids, strata and the n by m expenditure matrix."""
    path = Path(path)
    rows = read_rows(path, ("household_id", "group", "expenditure"),
                     optional=("stratum",))
    order = list(group_labels) if group_labels is not None else []
    known_groups = group_labels is not None
    household_order: list[str] = []
    spend: dict[str, dict[str, float]] = {}
    strata: dict[str, str | None] = {}
    for line_no, row in rows:
        household = row["household_id"]
        group = row["group"]
        if known_groups and group not in order:
            raise ValidationError(
                f"{path}:{line_no}: unknown group {group!r} (price panel has "
                f"{', '.join(order)})"
            )
        if not known_groups and group not in order:
            order.append(group)
        amount = _parse_float(path, line_no, "expenditure", row["expenditure"])
        if amount < 0.0:
            raise ValidationError(
                f"{path}:{line_no}: negative expenditure for household "
                f"{household!r}"
            )
        stratum = row.get("stratum") or None
        if household in strata and strata[household] != stratum:
            raise ValidationError(
                f"{path}:{line_no}: household {household!r} appears under two "
                f"strata ({strata[household]!r} and {stratum!r})"
            )
        if household not in spend:
            household_order.append(household)
            spend[household] = {}
            strata[household] = stratum
        spend[household][group] = spend[household].get(group, 0.0) + amount
    matrix = []
    for household in household_order:
        expenditures = np.array([spend[household].get(g, 0.0) for g in order])
        _check_household(household, expenditures)
        matrix.append(expenditures)
    return (tuple(household_order), tuple(strata[h] for h in household_order),
            np.stack(matrix))


def write_households(path: str | Path, panel, group_labels: Sequence[str]) -> None:
    with_stratum = any(stratum is not None for stratum in panel.strata)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = ["household_id", "group", "expenditure"]
        if with_stratum:
            header.append("stratum")
        writer.writerow(header)
        for household, stratum, amounts in zip(panel.household_ids, panel.strata,
                                               panel.expenditures):
            for group, amount in zip(group_labels, amounts):
                row = [household, group, repr(float(amount))]
                if with_stratum:
                    row.append(stratum or "")
                writer.writerow(row)
