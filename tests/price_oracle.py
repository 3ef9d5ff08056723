"""Row-wise reference loader for price panels.

This is the loader ``dataio.load_prices`` replaced: it reads one row at a
time and fills a dict of cells keyed by (group, period), checking for a
duplicate cell before it parses the index. The property tests compare the
columnar loader against it, so keep it as it is: a change here no longer
tests what the old code did.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from indexaudit.core import PriceSeries
from indexaudit.errors import ValidationError
from micro_oracle import _parse_float, read_rows


def load_prices(path: str | Path) -> PriceSeries:
    path = Path(path)
    periods: dict[str, None] = {}
    groups: dict[str, None] = {}
    cells: dict[tuple[str, str], float] = {}
    for line_no, row in read_rows(path, ("period", "group", "index")):
        period, group = row["period"], row["group"]
        key = (group, period)
        if key in cells:
            raise ValidationError(
                f"{path}:{line_no}: duplicate cell for group {group!r}, "
                f"period {period!r}"
            )
        periods[period] = None
        groups[group] = None
        cells[key] = _parse_float(path, line_no, "index", row["index"])
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
