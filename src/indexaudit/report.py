"""Report documents: one canonical machine format, one aligned table format.

Every command produces a ReportDocument. The machine format is canonical
JSON - sorted keys, two-space indent, UTF-8, no NaN/Infinity literals,
trailing newline - so equal documents serialize to equal bytes, which is what
makes determinism checkable with a byte compare. The json module renders every
value but the result rows held as :class:`Columns`, which a key-by-key template
renders to the same bytes, a block of rows at a time. The schema (versioned,
currently "1") is documented in docs/report_schema.json; parse_report rejects
documents from a different major version.

The table format is for eyes: fixed-order sections with aligned columns.
p-values print with 3 decimals, coverage values with 3, effects and
statistics with enough digits to re-derive the p-values.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ._version import __version__
from .errors import ValidationError

if TYPE_CHECKING:
    from .bias_tests import TestResult, TestResults
    from .coverage import CoverageEstimate, MseEstimate
    from .montecarlo import SimulationOutcome, VerificationCheck

SCHEMA_VERSION = "1"

__all__ = [
    "SCHEMA_VERSION",
    "Coded",
    "Columns",
    "Rows",
    "ReportDocument",
    "build_document",
    "emit_machine",
    "emit_table",
    "parse_report",
    "test_result_row",
    "test_result_rows",
    "coverage_row",
    "coverage_rows",
    "mse_row",
    "mse_rows",
    "outcome_row",
    "verification_row",
    "quantile_summary_row",
]


class Coded(NamedTuple):
    """A column whose row i is ``values[codes[i]]``, or has no such key where
    the code is negative. Each value is rendered once per report."""

    values: Sequence
    codes: np.ndarray


class Columns:
    """Result rows held key by key: row i is ``{key: column[i]}``. A column
    is a list or array of one value per row, a :class:`Coded` column, or
    Columns (a dict-valued key). Iteration gives the rows as dicts."""

    def __init__(self, columns: dict[str, Sequence]):
        self.columns = columns

    def __len__(self) -> int:
        column = next(iter(self.columns.values()))
        return len(column.codes if isinstance(column, Coded) else column)

    def __iter__(self):
        for values in zip(*map(_row_values, self.columns.values())):
            yield {key: value for key, value in zip(self.columns, values)
                   if value is not _ABSENT}


class Rows:
    """Result rows in parts, each a list of dict rows or :class:`Columns`."""

    def __init__(self, *parts: Sequence):
        self.parts = parts

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __iter__(self):
        return itertools.chain.from_iterable(self.parts)


_ABSENT = object()  # the value of a key a row does not have


def _plain(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _row_values(column) -> list:
    if isinstance(column, Coded):
        values = _plain(column.values) + [_ABSENT]
        return [values[code] for code in column.codes.tolist()]
    return _plain(column)


@dataclass
class ReportDocument:
    """A finished report: command, echoed config, warnings, typed result
    rows (a list of dicts, or :class:`Rows`)."""

    command: str
    config: dict
    results: Sequence[dict]
    warnings: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def build_document(command: str, config: dict, results: Sequence[dict],
                   warnings: list[str] | None = None) -> ReportDocument:
    return ReportDocument(
        command=command,
        config=config,
        results=results,
        warnings=list(warnings or []),
        meta={
            "generator": "indexaudit",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
        },
    )


def _json_safe(value):
    """Recursively replace non-finite floats (JSON has no literal for them)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (np.floating, np.integer)):
        return _json_safe(value.item())
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, Columns, Rows)):
        return [_json_safe(item) for item in value]
    return value


_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
# The C encoder of the json module, one value per line: strings escape every
# newline, so splitting the encoded list on "\n" gives back its items.
_ENCODE_LINES = json.JSONEncoder(ensure_ascii=False, allow_nan=False,
                                 separators=("\n", ": ")).encode


def _dump(value, depth: int) -> str:
    """Canonical JSON text of ``value``, as ``json.dumps(_json_safe(value),
    sort_keys=True, indent=2)`` nests it at ``depth``: strings escape every
    newline, so each line after the first takes the indent of ``depth``."""
    text = json.dumps(_json_safe(value), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False)
    return text.replace("\n", "\n" + _INDENT * depth)


def _render(values: list, depth: int) -> list[str]:
    """:func:`_dump` of each value; a list of finite scalars, as a column of
    them is, takes one encoder call."""
    if values and set(map(type, values)) <= _SCALARS:
        try:
            return _ENCODE_LINES(values)[1:-1].split("\n")
        except ValueError:  # a non-finite float, spelled as a string below
            pass
    return [_dump(value, depth) for value in values]


def _render_columns(table: Columns, start: int, stop: int, depth: int,
                    encoded: dict[tuple[int, int], np.ndarray]) -> list[str]:
    """Rows ``start:stop`` of ``table``, as :func:`_dump` renders the dicts
    they stand for. ``encoded`` keeps each Coded column's rendered values."""
    keys = sorted(table.columns)
    texts = []
    present = np.ones((len(keys), min(stop, len(table)) - start), dtype=bool)
    for k, key in enumerate(keys):
        column = table.columns[key]
        if isinstance(column, Columns):
            texts.append(_render_columns(column, start, stop, depth + 1, encoded))
        elif isinstance(column, Coded):
            if (id(column), depth) not in encoded:
                encoded[id(column), depth] = np.array(
                    _render(_plain(column.values), depth + 1) + [""], dtype=object)
            codes = column.codes[start:stop]
            present[k] = codes >= 0
            texts.append(encoded[id(column), depth][codes].tolist())  # -1 picks the ""
        else:
            texts.append(_render(_plain(column[start:stop]), depth + 1))
    return _fill(keys, texts, depth, present)


def _fill(keys: list[str], columns: list[list], depth: int,
          present: np.ndarray) -> list[str]:
    """Each row's dict text from the texts of its values under the sorted
    ``keys``, one template per key set: ``present[k, i]`` says whether row
    i has key k."""
    inner = _INDENT * (depth + 1)
    names = [f"{inner}{name.replace('%', '%%')}: %s" for name in _render(keys, 0)]
    close = f"\n{_INDENT * depth}}}"
    if present.all():
        template = "{\n" + ",\n".join(names) + close
        return [template % row for row in zip(*columns)]
    out = np.empty(present.shape[1], dtype=object)
    patterns, which = np.unique(present.T, axis=0, return_inverse=True)
    for pattern, kept in enumerate(patterns):
        rows = np.flatnonzero(which.ravel() == pattern)
        if not kept.any():
            out[rows] = "{}"
            continue
        template = "{\n" + ",\n".join(itertools.compress(names, kept)) + close
        picked = [np.array(column, dtype=object)[rows]
                  for column in itertools.compress(columns, kept)]
        out[rows] = [template % row for row in zip(*picked)]
    return out.tolist()


# result rows rendered, encoded and written at a time: emission holds the
# report's bytes and one block's text, never the text of the whole report
_ROWS = 1024


def emit_machine(doc: ReportDocument) -> bytes:
    """Canonical JSON bytes: ``json.dumps(_json_safe(payload), sort_keys=True,
    indent=2, ensure_ascii=False, allow_nan=False)`` plus a newline, written
    key by key into one buffer."""
    payload = {
        "command": doc.command,
        "config": doc.config,
        "meta": doc.meta,
        "results": doc.results,
        "warnings": list(doc.warnings),
    }
    out = io.BytesIO()
    try:
        for name, value in payload.items():  # in sorted order
            out.write(b'%s\n  "%s": ' % (b"," if out.tell() else b"{", name.encode()))
            if name != "results":
                out.write(_dump(value, 1).encode("utf-8"))
                continue
            separator = "[\n    "
            for part in value.parts if isinstance(value, Rows) else [value]:
                encoded: dict[tuple[int, int], np.ndarray] = {}
                for start in range(0, len(part), _ROWS):
                    texts = (_render(part[start:start + _ROWS], 2) if isinstance(part, list)
                             else _render_columns(part, start, start + _ROWS, 2, encoded))
                    out.write((separator + ",\n    ".join(texts)).encode("utf-8"))
                    separator = ",\n    "
            out.write(b"\n  ]" if value else b"[]")
        out.write(b"\n}\n")
    except (TypeError, ValueError):
        # columns are not visited in document order: the whole text names the
        # first value it cannot serialise, or the first string UTF-8 cannot encode
        (_dump(payload, 0) + "\n").encode("utf-8")
        raise
    return out.getvalue()


def parse_report(data: bytes | str) -> ReportDocument:
    """Parse a machine report back into a document; round-trips byte-exactly."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not a machine report: {exc}") from exc
    for key in ("command", "config", "meta", "results", "warnings"):
        if key not in payload:
            raise ValidationError(f"machine report is missing {key!r}")
    version = str(payload["meta"].get("schema_version", ""))
    if version.split(".")[0] != SCHEMA_VERSION.split(".")[0]:
        raise ValidationError(
            f"unsupported report schema version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    return ReportDocument(
        command=payload["command"],
        config=payload["config"],
        results=payload["results"],
        warnings=payload["warnings"],
        meta=payload["meta"],
    )


# --- result rows -------------------------------------------------------------


def test_result_row(result: TestResult) -> dict:
    return {
        "type": "test_result",
        "kind": result.kind.value,
        "effect": result.effect,
        "variance": result.variance,
        "statistic": result.statistic,
        "p_value": result.p_value,
        # the result's own copy, made on construction
        "metadata": result.metadata,
    }


def test_result_rows(results: TestResults) -> Columns:
    """:func:`test_result_row` of each of a battery's results, as columns."""
    kinds, codes = results.kind
    return Columns({
        "type": Coded(["test_result"], np.zeros_like(codes)),
        "kind": Coded([kind.value for kind in kinds], codes),
        "effect": results.effect,
        "variance": Coded(*results.variance),
        "statistic": results.statistic,
        "p_value": results.p_value,
        "metadata": Columns({key: Coded(*column) for key, column in results.metadata.items()}),
    })


def _alternating(tables: list[dict], rows: int) -> Columns:
    """Columns whose rows take turns: row ``len(tables) * i + j`` holds the
    values at ``i`` of ``tables[j]``. A table's value is a list or array of
    ``rows`` values, one value for all of them, or a dict of such."""
    turn = np.tile(np.arange(len(tables)), rows)
    index = np.repeat(np.arange(rows), len(tables))
    columns: dict[str, Sequence] = {}
    for key in dict.fromkeys(key for table in tables for key in table):
        if any(isinstance(table.get(key), dict) for table in tables):
            columns[key] = _alternating([table.get(key, {}) for table in tables], rows)
            continue
        values: list = []
        start, step = np.full(len(tables), -1), np.zeros(len(tables), dtype=int)
        for j, table in enumerate(tables):
            if key in table:
                start[j], value = len(values), table[key]
                step[j] = isinstance(value, (list, np.ndarray))
                values += _plain(value) if step[j] else [value]
        columns[key] = Coded(values, np.where(start[turn] < 0, -1,
                                              start[turn] + step[turn] * index))
    return Columns(columns)


def coverage_rows(periods: list[str], plug_in: CoverageEstimate,
                  benchmark: CoverageEstimate) -> Columns:
    """Per period, the :func:`coverage_row` of the published constant's
    coverage and then its benchmark's, from estimates of period arrays."""
    return _alternating([coverage_row(periods, "published_constant", plug_in),
                         coverage_row(periods, "unbiased_benchmark", benchmark)],
                        len(periods))


def mse_rows(periods: list[str], estimate: MseEstimate, theta_star, theta_audit,
             audit_variance) -> Columns:
    """The :func:`mse_row` of each period, from period arrays."""
    return _alternating([mse_row(periods, estimate, theta_star, theta_audit,
                                 audit_variance)], len(periods))


def coverage_row(period: str, role: str, estimate: CoverageEstimate) -> dict:
    return {
        "type": "coverage_estimate",
        "period": period,
        "role": role,
        "value": estimate.value,
        "variance": estimate.variance,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "ci_clipped": estimate.ci_clipped,
        "inputs": dict(estimate.inputs),
    }


def mse_row(period: str, estimate: MseEstimate, theta_star: float,
            theta_audit: float, audit_variance: float) -> dict:
    return {
        "type": "mse_estimate",
        "period": period,
        "value": estimate.value,
        "is_negative": estimate.is_negative,
        "theta_star": theta_star,
        "theta_audit": theta_audit,
        "audit_variance": audit_variance,
    }


def outcome_row(outcome: SimulationOutcome) -> dict:
    return {
        "type": "simulation_outcome",
        "label": outcome.label,
        "point": outcome.point,
        "mc_stderr": outcome.mc_stderr,
        "target": outcome.target,
        "z_score": outcome.z_score,
        "replicates_used": outcome.replicates_used,
        "extras": dict(outcome.extras),
    }


def verification_row(check: VerificationCheck) -> dict:
    return {
        "type": "verification_check",
        "name": check.name,
        "scenario": check.plan.scenario,
        "replicates": check.plan.replicates,
        "seed": check.plan.seed,
        "parameters": dict(check.plan.parameters),
        "gate": check.gate,
        "passed": check.passed,
        "detail": check.detail,
        "outcomes": [outcome_row(outcome) for outcome in check.outcomes],
    }


def quantile_summary_row(column: str, values) -> dict:
    """Six-row summary (min, quartiles, median, mean, max) of one column."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValidationError("cannot summarize an empty column")
    quartiles = np.quantile(data, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "type": "coverage_summary",
        "column": column,
        "minimum": float(quartiles[0]),
        "first_quartile": float(quartiles[1]),
        "median": float(quartiles[2]),
        "mean": float(np.mean(data)),
        "third_quartile": float(quartiles[3]),
        "maximum": float(quartiles[4]),
    }


# --- table rendering ---------------------------------------------------------


def _fmt(value, spec: str) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return format(value, spec)


def _render_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(header) for header in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return lines


_SUMMARY_LABELS = {
    "minimum": "Minimum",
    "first_quartile": "First Quartile",
    "median": "Median",
    "mean": "Mean",
    "third_quartile": "Third Quartile",
    "maximum": "Maximum",
}


def _outcome_cells(outcome: dict) -> list[str]:
    return [outcome["label"], _fmt(outcome["point"], ".6g"),
            _fmt(outcome["target"], ".6g"), _fmt(outcome["z_score"], ".3f")]


# row type -> its tables in print order, each (headers, rows -> cells); the
# summary's headers are the columns it summarises
_SECTIONS = {
    "test_result": [(
        ["survey", "proxy", "periods", "test", "effect", "statistic", "p-value"],
        lambda rows: [[
            row["metadata"].get("survey", ""), row["metadata"].get("proxy", ""),
            row["metadata"].get("periods", ""), row["kind"], _fmt(row["effect"], ".6f"),
            _fmt(row["statistic"], ".5f"), _fmt(row["p_value"], ".3f"),
        ] for row in rows],
    )],
    "coverage_estimate": [(
        ["period", "estimator", "coverage", "ci low", "ci high", "clipped"],
        lambda rows: [[
            row["period"], row["role"], _fmt(row["value"], ".3f"), _fmt(row["ci_low"], ".3f"),
            _fmt(row["ci_high"], ".3f"), "yes" if row["ci_clipped"] else "",
        ] for row in rows],
    )],
    "coverage_summary": [(
        lambda rows: ["statistic"] + [row["column"] for row in rows],
        lambda rows: [[label] + [_fmt(row[stat], ".3f") for row in rows]
                      for stat, label in _SUMMARY_LABELS.items()],
    )],
    "mse_estimate": [(
        ["period", "published", "audit", "mse estimate", "negative"],
        lambda rows: [[row["period"], _fmt(row["theta_star"], ".4f"),
                       _fmt(row["theta_audit"], ".4f"), _fmt(row["value"], ".3e"),
                       "yes" if row["is_negative"] else ""] for row in rows],
    )],
    "verification_check": [(
        ["check", "gate", "status", "detail"],
        lambda rows: [[row["name"], row["gate"], "pass" if row["passed"] else "FAIL",
                       row["detail"]] for row in rows],
    ), (
        ["oracle", "empirical", "target", "z"],
        lambda rows: [_outcome_cells(outcome) for row in rows
                      for outcome in row["outcomes"]],
    )],
    "simulation_outcome": [(
        ["scenario", "empirical", "target", "z", "replicates"],
        lambda rows: [_outcome_cells(row) + [str(row["replicates_used"])]
                      for row in rows],
    )],
}


def emit_table(doc: ReportDocument) -> str:
    """Aligned, sectioned plain text for terminals."""
    lines = [f"indexaudit {doc.command} report (v{doc.meta.get('version', '?')})"]
    if doc.config:
        lines.append("")
        lines.append("configuration:")
        for key in sorted(doc.config):
            lines.append(f"  {key} = {doc.config[key]}")
    if doc.warnings:
        lines.append("")
        lines.append("warnings:")
        for warning in doc.warnings:
            lines.append(f"  ! {warning}")

    by_type: dict[str, list[dict]] = {}
    for row in doc.results:
        by_type.setdefault(row.get("type", "?"), []).append(row)

    for row_type, tables in _SECTIONS.items():
        if row_type not in by_type:
            continue
        rows = by_type[row_type]
        for headers, cells in tables:
            lines.append("")
            lines += _render_table(headers(rows) if callable(headers) else headers,
                                   cells(rows))

    if "file_output" in by_type:
        lines.append("")
        for row in by_type["file_output"]:
            lines.append(f"wrote {row['path']} ({row['rows']} rows, sha256 {row['sha256']})")

    return "\n".join(lines) + "\n"
