"""Seeded inputs, CLI invocations and output checks for each workload.

A workload runs a sequence of parts in one iteration; each part is one CLI
use (report from micro data, a per-period sweep, ...) with its own inputs
and its own check.

Inputs are drawn with numpy from the workload seed and written by the small
CSV writer below, never by ``indexaudit simulate`` or the ``dataio`` writers,
so two versions of the package always read byte-identical inputs.

Preparing a part writes its input files, lists its CLI invocations, and
keeps what the output check needs: the generated matrices that the reports
must reproduce.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Relative tolerance for numbers the checks recompute with numpy.
RTOL = 1e-9
# Exit code of `verify` when a Monte Carlo gate trips.
VERIFICATION_EXIT = 3


@dataclass(frozen=True)
class Invocation:
    """One ``python -m indexaudit`` call; its report goes to ``output``."""

    argv: tuple[str, ...]
    output: Path


@dataclass
class Prepared:
    """A workload ready to run: its invocations and how to check them."""

    invocations: list[Invocation]
    # what one unit of work is, for work_per_s
    work_label: str
    # report bytes of every invocation -> (problems, units of work done);
    # no problems means the outputs are correct
    check: Callable[[list[bytes]], tuple[list[str], int]]
    # data rows of each generated input file by path, for the traced counts
    file_rows: dict[str, int] = field(default_factory=dict)


@dataclass
class Outcome:
    """Counts and problems shared by the untraced and the traced run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] | None = None
    work_units: int = 0

    def record(self, prepared: Prepared, exit_codes: list[int],
               reports: list[bytes]) -> None:
        """Check one iteration: exit codes, report contents, and that the
        reports repeat the first iteration's bytes."""
        self.attempted += len(exit_codes)
        problems = []
        for invocation, code, report in zip(prepared.invocations, exit_codes, reports):
            command = invocation.argv[0]
            gates = gates_failed(report) if command == "verify" else 0
            if code == VERIFICATION_EXIT and gates:
                continue  # a gate tripped: a failed operation, consistently reported
            if code != 0:
                problems.append(f"{command} exited {code}")
            elif gates:
                problems.append(f"{command} exited 0 with {gates} failing checks")
        digests = [hashlib.sha256(report).hexdigest() for report in reports]
        if self.digests is None:
            self.digests = digests
            found, self.work_units = prepared.check(reports)
            problems += found
        elif digests != self.digests:
            problems.append("a repeated invocation gave different report bytes")
        # an invocation fails when it exits non-zero or its output fails a check
        self.failed += len(exit_codes) if problems else sum(c != 0 for c in exit_codes)
        self.problems += problems


# --- writer and generators ---------------------------------------------------


def write_csv(path: Path, header: list[str], columns: list[list[str]]) -> int:
    """Write equal-length string columns as CSV; returns the data row count."""
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def _floats(values: np.ndarray) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


def _labels(prefix: str, count: int) -> list[str]:
    # zero-padded, so sorting by label keeps generation order
    width = len(str(count - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


@dataclass
class Panel:
    groups: list[str]
    periods: list[str]
    sources: list[str]
    prices: np.ndarray        # groups x periods
    proxies: np.ndarray       # sources x groups, rows sum to 1


def make_panel(rng: np.random.Generator, workdir: Path, n_groups: int,
               n_periods: int, n_proxies: int) -> tuple[Panel, dict[str, int]]:
    """Random-walk price panel and Dirichlet proxy weights, written to
    prices.csv and weights.csv; returns the panel and each file's rows."""
    groups = _labels("g", n_groups)
    periods = _labels("t", n_periods)
    sources = _labels("s", n_proxies)
    steps = rng.normal(0.0, 0.01, size=(n_groups, n_periods))
    prices = 100.0 * np.exp(np.cumsum(steps, axis=1))
    proxies = rng.dirichlet(np.full(n_groups, 20.0), size=n_proxies)
    rows = {
        "prices.csv": write_csv(workdir / "prices.csv", ["period", "group", "index"], [
            [p for p in periods for _ in groups],
            groups * n_periods,
            _floats(prices.T),
        ]),
        "weights.csv": write_csv(workdir / "weights.csv", ["source", "group", "weight"], [
            [s for s in sources for _ in groups],
            groups * n_proxies,
            _floats(proxies),
        ]),
    }
    return Panel(groups, periods, sources, prices, proxies), rows


def read_report(path: str | Path) -> bytes:
    """The bytes of a report file; empty when the command wrote none."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return b""


def parse_report(data: bytes) -> dict:
    """A machine report as a dict; raises ValueError when it is not one."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ValueError("report is not a JSON object")
    for key in ("command", "config", "meta", "results", "warnings"):
        if key not in doc:
            raise ValueError(f"report has no {key!r}")
    return doc


def _mismatch(label: str, got: list[float], want, scale=0.0) -> list[str]:
    """Compare to RTOL relative to ``want``, or to ``scale`` where that is
    larger: a difference of two index levels is judged on the level's scale,
    since its own size can be close to zero."""
    want = np.atleast_1d(np.asarray(want, dtype=float))
    if len(got) != want.size:
        return [f"{label}: {len(got)} values, expected {want.size}"]
    got = np.asarray(got, dtype=float)
    worst = float(np.max(np.abs(got - want)
                         / np.maximum(np.maximum(np.abs(want), scale), 1e-300)))
    if not worst <= RTOL:
        return [f"{label}: relative error {worst:.3e} exceeds {RTOL:g}"]
    return []


def _by_path(workdir: Path, rows: dict[str, int]) -> dict[str, int]:
    return {str(workdir / name): count for name, count in rows.items()}


def _rows(doc: dict, kind: str) -> list[dict]:
    return [r for r in doc["results"] if isinstance(r, dict) and r.get("type") == kind]


def _checked(check: Callable[[list[dict]], tuple[list[str], int]]):
    """Parse every report, then run the workload's check on the documents.
    A report that does not parse, lacks a field the check reads, or names
    an output file that is missing is a problem, not a crash of the
    benchmark."""
    def run(reports: list[bytes]) -> tuple[list[str], int]:
        try:
            return check([parse_report(data) for data in reports])
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"report is malformed: {exc!r}"], 0
    return run


# --- parts ----------------------------------------------------------------------

# "full" is what the benchmark measures; "tiny" serves the self-test.
SIZES = {
    "micro_report": {
        "full": dict(groups=40, periods=120, proxies=4, households=1500, strata=4),
        "tiny": dict(groups=5, periods=12, proxies=4, households=40, strata=4),
    },
    "panel_sweep": {
        "full": dict(groups=40, periods=400, proxies=16),
        "tiny": dict(groups=5, periods=12, proxies=16),
    },
    "micro_simulate": {
        "full": dict(groups=40, households=5000),
        "tiny": dict(groups=5, households=50),
    },
    "verify_suite": {
        "full": dict(scale=20.0, jobs=2),
        "tiny": dict(scale=1.0, jobs=2),
    },
}


def prepare_micro_report(workdir: Path, seed: int, size: dict) -> Prepared:
    # Real audits start from household micro data, and `report` parses the
    # micro file once per section (battery, coverage, MSE), so CSV parsing
    # and household aggregation dominate: at the full size load_households
    # is ~86% of the part's in-process time and sets its peak memory. A
    # columnar or load-once micro loader shows up here.
    rng = np.random.Generator(np.random.PCG64(seed))
    panel, rows = make_panel(rng, workdir, size["groups"], size["periods"], size["proxies"])
    n, m, k = size["households"], size["groups"], size["strata"]
    centres = rng.dirichlet(np.full(m, 20.0), size=k)
    stratum_of = np.arange(n) * k // n
    totals = np.exp(rng.normal(0.0, 0.5, size=n))
    shares = np.vstack([rng.dirichlet(50.0 * centres[s]) for s in stratum_of])
    spend = totals[:, None] * shares
    households = _labels("h", n)
    strata = _labels("r", k)
    rows["micro.csv"] = write_csv(
        workdir / "micro.csv", ["household_id", "group", "expenditure", "stratum"], [
            [h for h in households for _ in range(m)],
            panel.groups * n,
            _floats(spend),
            [strata[s] for s in stratum_of for _ in range(m)],
        ])
    # pooled ratio-of-totals weights: the estimator the report must reproduce
    pooled = spend.sum(axis=0) / spend.sum()
    theta_audit = pooled @ panel.prices
    proxy = panel.sources[0]
    z_effect = panel.prices.mean(axis=1) @ (pooled - panel.proxies[0])
    output = workdir / "report.json"
    argv = ("report", "--prices", str(workdir / "prices.csv"),
            "--weights", str(workdir / "weights.csv"),
            "--survey-micro", str(workdir / "micro.csv"),
            "--proxy", proxy, "--output", str(output))

    def check(docs: list[dict]) -> tuple[list[str], int]:
        (doc,) = docs
        z_all = [r["effect"] for r in _rows(doc, "test_result") if r["kind"] == "Z"
                 and r["metadata"]["survey"] == "all" and r["metadata"]["proxy"] == proxy]
        problems = _mismatch("theta_audit",
                             [r["theta_audit"] for r in _rows(doc, "mse_estimate")],
                             theta_audit)
        problems += _mismatch(f"Z effect all/{proxy}", z_all, z_effect,
                              scale=float(np.mean(theta_audit)))
        return problems, rows["micro.csv"]

    return Prepared([Invocation(argv, output)], "micro rows parsed",
                    _checked(check), _by_path(workdir, rows))


def prepare_panel_sweep(workdir: Path, seed: int, size: dict) -> Prepared:
    # An aggregated survey estimate and a long panel: no household parsing,
    # but one Z-test per period and proxy, per-period coverage/MSE loops and
    # megabytes of emitted JSON. At the full size load_prices (super-linear
    # in periods) is ~48% of the part's in-process time, the battery ~26%,
    # JSON emission ~17% and the per-period loops ~4%. A micro-loader change
    # should not move this part; a per-period array pass should.
    rng = np.random.Generator(np.random.PCG64(seed))
    panel, rows = make_panel(rng, workdir, size["groups"], size["periods"], size["proxies"])
    m = size["groups"]
    n_households = 5000
    point = rng.dirichlet(np.full(m, 20.0))
    # multinomial covariance: symmetric, PSD, rows sum to zero
    cov = (np.diag(point) - np.outer(point, point)) / n_households
    upper_i, upper_j = np.triu_indices(m)
    rows["estimate.csv"] = write_csv(
        workdir / "estimate.csv", ["kind", "row_group", "col_group", "value"], [
            ["weight"] * m + ["cov"] * upper_i.size + ["households"],
            panel.groups + [panel.groups[i] for i in upper_i] + [""],
            [""] * m + [panel.groups[j] for j in upper_j] + [""],
            _floats(point) + _floats(cov[upper_i, upper_j]) + [str(n_households)],
        ])
    # per-period Z effects p_t . (w_survey - w_proxy); the battery orders
    # them by proxy label, then period label, which is generation order
    effects = ((point - panel.proxies) @ panel.prices).ravel()
    common = ("--prices", str(workdir / "prices.csv"),
              "--weights", str(workdir / "weights.csv"),
              "--survey-estimate", str(workdir / "estimate.csv"))
    ztest_out, report_out = workdir / "ztest.json", workdir / "report.json"
    invocations = [
        Invocation(("ztest", *common, "--each-period", "--output", str(ztest_out)), ztest_out),
        Invocation(("report", *common, "--proxy", panel.sources[0],
                    "--output", str(report_out)), report_out),
    ]

    def check(docs: list[dict]) -> tuple[list[str], int]:
        ztest, report = docs
        problems = _mismatch("per-period Z effects",
                             [r["effect"] for r in _rows(ztest, "test_result")], effects,
                             scale=float(np.mean(panel.prices)))
        problems += _mismatch("theta_audit",
                              [r["theta_audit"] for r in _rows(report, "mse_estimate")],
                              point @ panel.prices)
        return problems, len(ztest["results"]) + len(report["results"])

    return Prepared(invocations, "result rows emitted", _checked(check),
                    _by_path(workdir, rows))


def prepare_micro_simulate(workdir: Path, seed: int, size: dict) -> Prepared:
    # The write side of the survey and dataio layers: one record per drawn
    # household, then write_households (~87% of the part's in-process time
    # at the full size). A household-panel refactor that
    # speeds up reads must show here whether it slows writes.
    rng = np.random.Generator(np.random.PCG64(seed))
    panel, rows = make_panel(rng, workdir, size["groups"], 1, 1)
    n = size["households"]
    out_csv, output = workdir / "simulated.csv", workdir / "simulate.json"
    argv = ("simulate", "--weights-file", str(workdir / "weights.csv"),
            "--source", panel.sources[0], "--n", str(n), "--seed", str(seed),
            "--stratum", "r0", "--out", str(out_csv), "--output", str(output))
    expected = n * size["groups"]

    def check(docs: list[dict]) -> tuple[list[str], int]:
        (row,) = _rows(docs[0], "file_output")
        data = out_csv.read_bytes()
        problems = []
        if row["sha256"] != hashlib.sha256(data).hexdigest():
            problems.append("reported sha256 does not match the written file")
        lines = data.count(b"\n") - 1
        if row["rows"] != expected or lines != expected:
            problems.append(f"reported {row['rows']} rows and the file has {lines}; "
                            f"expected {expected}")
        return problems, row["rows"]

    return Prepared([Invocation(argv, output)], "rows written",
                    _checked(check), _by_path(workdir, rows))


def prepare_verify_suite(workdir: Path, seed: int, size: dict) -> Prepared:
    # The only part that reaches montecarlo: CPU-bound RNG and numpy, no
    # file input, and the one threaded path (--jobs 2 on a 2-core host), so
    # changes to the parallel path show up. Exit 3 (a gate tripped by chance
    # for this seed) counts as a failed operation and is reported as it is,
    # never retried or re-seeded.
    output = workdir / "verify.json"
    argv = ("verify", "--seed", str(seed), "--scale", repr(size["scale"]),
            "--jobs", str(size["jobs"]), "--output", str(output))

    def check(docs: list[dict]) -> tuple[list[str], int]:
        checks = _rows(docs[0], "verification_check")
        problems = [] if len(checks) == 14 else [f"{len(checks)} checks, expected 14"]
        return problems, len(docs[0]["results"])

    return Prepared([Invocation(argv, output)], "result rows emitted",
                    _checked(check))


PARTS = {
    "micro_report": prepare_micro_report,
    "panel_sweep": prepare_panel_sweep,
    "micro_simulate": prepare_micro_simulate,
    "verify_suite": prepare_verify_suite,
}

# --- workloads -------------------------------------------------------------------

# Two long workloads rather than one per part: on a shared 2-core VM the CPU
# speed drifts by 10-20% over minutes, and ten runs only average that drift
# out when each run measures close to a minute, which the benchmark's time
# budget (under an hour for all runs of all workloads) allows for two
# workloads, not four. Each part keeps its own inputs
# and output check.
WORKLOADS = {
    # household micro data, read side then write side: `report` parses the
    # micro file once per section and aggregates households; `simulate`
    # draws households and writes them. A columnar or load-once loader shows
    # on the first part, and whether it slows writes on the second.
    "micro_read_write": ("micro_report", "micro_simulate"),
    # no household parsing: per-period Z-tests over 16 proxies, a report
    # from an aggregated estimate, then the threaded Monte Carlo suite. A
    # per-period array pass or a change to the parallel verify path shows
    # here; a micro-loader change should not.
    "panel_verify": ("panel_sweep", "verify_suite"),
}


def prepare(workload: str, workdir: Path, seed: int, size: str) -> Prepared:
    """Prepare every part of the workload in its own subdirectory; the result
    runs their invocations in order and checks each part's reports."""
    parts = []
    for name in WORKLOADS[workload]:
        (workdir / name).mkdir(parents=True, exist_ok=True)
        parts.append(PARTS[name](workdir / name, seed, SIZES[name][size]))

    def check(reports: list[bytes]) -> tuple[list[str], int]:
        problems, units, start = [], 0, 0
        for part in parts:
            end = start + len(part.invocations)
            found, done = part.check(reports[start:end])
            problems += found
            units += done
            start = end
        return problems, units

    labels = dict.fromkeys(part.work_label for part in parts)
    return Prepared([i for part in parts for i in part.invocations], " + ".join(labels),
                    check, {k: v for part in parts for k, v in part.file_rows.items()})


def gates_failed(report: bytes) -> int:
    """Verification checks in a report that did not pass (0 if unreadable)."""
    try:
        doc = parse_report(report)
    except ValueError:
        return 0
    return sum(1 for r in _rows(doc, "verification_check") if r.get("passed") is not True)
