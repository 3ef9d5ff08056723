"""Report bytes of a generated per-period audit: the same in every process,
and the same as a reference built test by test and period by period.

The panel has 8 groups, 300 periods and 5 proxies, so `ztest --each-period`
emits 1,500 test rows, more than one block of rendered rows. The reference
document takes its rows from ``battery_oracle`` and from the scalar form of
each per-period estimator, as dicts, and renders them through the dict-row
path of ``report.emit_machine``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import battery_oracle
import indexaudit
from indexaudit import dataio, report
from indexaudit.bias_tests import TestKind
from indexaudit.core import PriceSeries, WeightVector, weighted_index
from indexaudit.coverage import (
    EvalScheme,
    default_variance_of_variance,
    estimate_coverage,
    estimate_unbiased_coverage,
    mse_estimate,
)
from indexaudit.survey import WeightEstimate, index_variance

GROUPS, PERIODS, PROXIES, HOUSEHOLDS = 8, 300, 5, 2_000


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    rng = np.random.default_rng(21)
    groups = tuple(f"g{i}" for i in range(GROUPS))
    prices = PriceSeries(100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (GROUPS, PERIODS)),
                                                  axis=1)),
                         groups, tuple(f"t{j:03d}" for j in range(PERIODS)))
    proxies = {f"s{k}": WeightVector(rng.dirichlet(np.full(GROUPS, 20.0)), label=f"s{k}",
                                     group_labels=groups) for k in range(PROXIES)}
    point = rng.dirichlet(np.full(GROUPS, 20.0))
    estimate = WeightEstimate(
        point=WeightVector(point, label="survey", group_labels=groups),
        covariance=(np.diag(point) - np.outer(point, point)) / HOUSEHOLDS,
        n_households=HOUSEHOLDS)
    directory = tmp_path_factory.mktemp("panel")
    dataio.write_prices(directory / "prices.csv", prices)
    dataio.write_weights(directory / "weights.csv", proxies)
    dataio.write_weight_estimate(directory / "estimate.csv", estimate, groups)
    # the estimators read the files' values, as the commands do
    return (directory, dataio.load_prices(directory / "prices.csv"),
            dataio.load_weights(directory / "weights.csv", groups),
            dataio.load_weight_estimate(directory / "estimate.csv", groups))


COMMANDS = {"ztest": ["--each-period"], "report": ["--proxy", "s0"]}


def run(directory: Path, command: str, hash_seed: str) -> bytes:
    out = directory / f"{command}_{hash_seed}.json"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(indexaudit.__file__).resolve().parents[1]),
               os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "indexaudit", command, *COMMANDS[command],
         "--prices", str(directory / "prices.csv"), "--weights", str(directory / "weights.csv"),
         "--survey-estimate", str(directory / "estimate.csv"), "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def reference_rows(command, prices, proxies, estimate) -> list[dict]:
    estimates = {"survey": estimate}
    if command == "ztest":
        subsets = {label: [t] for t, label in enumerate(prices.period_labels)}
        return [report.test_result_row(result) for result in battery_oracle.cross_group_battery(
            prices, estimates, proxies, subsets, include=(TestKind.Z,))]
    proxy = proxies["s0"]
    rows = [report.test_result_row(result) for result in battery_oracle.cross_group_battery(
        prices, estimates, {"s0": proxy}, {"all": None})]
    periods = [(label, weighted_index(prices, proxy, t),
                weighted_index(prices, estimate.point, t), index_variance(prices, estimate, t))
               for t, label in enumerate(prices.period_labels)]
    omega = 2.0 * sum(variance ** 0.5 for *_, variance in periods) / len(periods)
    scheme = EvalScheme(alpha=0.95, omega=omega)
    plug_in, benchmark = [], []
    for label, theta_star, theta_audit, variance in periods:
        plug_in.append(estimate_coverage(theta_star, theta_audit, variance, scheme))
        benchmark.append(estimate_unbiased_coverage(
            variance, default_variance_of_variance(variance, HOUSEHOLDS), scheme))
        rows += [report.coverage_row(label, "published_constant", plug_in[-1]),
                 report.coverage_row(label, "unbiased_benchmark", benchmark[-1])]
    rows += [report.quantile_summary_row("published_constant", [e.value for e in plug_in]),
             report.quantile_summary_row("unbiased_benchmark", [e.value for e in benchmark])]
    return rows + [report.mse_row(label, mse_estimate(theta_star, theta_audit, variance),
                                  theta_star, theta_audit, variance)
                   for label, theta_star, theta_audit, variance in periods]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_report_bytes_are_the_same_in_every_process_and_match_the_reference(panel, command):
    directory, prices, proxies, estimate = panel
    first, second = run(directory, command, "0"), run(directory, command, "1")
    assert first == second
    doc = report.parse_report(first)
    rows = reference_rows(command, prices, proxies, estimate)
    assert len(rows) == len(doc.results) > (1024 if command == "ztest" else 0)
    assert isinstance(rows, list) and all(type(row) is dict for row in rows)
    reference = report.ReportDocument(doc.command, doc.config, rows, doc.warnings, doc.meta)
    assert report.emit_machine(reference) == first
