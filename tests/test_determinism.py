"""Report bytes of a generated per-period audit: the same in every process,
and the same as a reference built test by test and period by period.

The panel has 8 groups, 300 periods and 5 proxies, so `ztest --each-period`
emits 1,500 test rows, more than one block of rendered rows. The reference
document takes its rows from ``battery_oracle`` and from the scalar form of
each per-period estimator, as dicts, and renders them through the dict-row
path of ``report.emit_machine``.

The same panel documents, the fixture ``ztest`` and ``report`` and a small
``verify`` must also have the same bytes with and without
``GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA``, which makes the C library take its
variants of ``exp``, ``log``, ``pow`` and ``erfc`` without FMA.
"""

from __future__ import annotations

import math
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


def python(args: list[str], extra_env: dict) -> subprocess.CompletedProcess:
    """``python args`` on the package under test, in a fresh process."""
    env = {**os.environ, **extra_env, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(indexaudit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def panel_argv(directory: Path, command: str) -> list[str]:
    return [command, *COMMANDS[command], "--prices", str(directory / "prices.csv"),
            "--weights", str(directory / "weights.csv"),
            "--survey-estimate", str(directory / "estimate.csv")]


def run(directory: Path, command: str, hash_seed: str) -> bytes:
    out = directory / f"{command}_{hash_seed}.json"
    proc = python(["-m", "indexaudit", *panel_argv(directory, command), "--output", str(out)],
                  {"PYTHONHASHSEED": hash_seed})
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
    omega = 2.0 * sum(math.sqrt(variance) for *_, variance in periods) / len(periods)
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


FIXTURES = Path(__file__).resolve().parent / "fixtures"
FMA_OFF = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA"}
AUDIT_INPUTS = ["--prices", str(FIXTURES / "prices.csv"), "--weights",
                str(FIXTURES / "weights.csv"), "--survey-micro", str(FIXTURES / "ces_micro.csv")]
LIBM_COMMANDS = {"ztest": ["ztest", *AUDIT_INPUTS],
                 "report": ["report", *AUDIT_INPUTS, "--proxy", "age_lt26"],
                 "verify": ["verify", "--seed", "7", "--scale", "0.05", "--jobs", "2"]}
# math.exp over a grid, as a digest: the C library's FMA and non-FMA
# variants give other bits for some of these arguments
LIBM_PROBE = ("import hashlib, math; print(hashlib.sha256(b''.join(math.exp(i / 997.0)"
              ".hex().encode() for i in range(-300_000, 300_000, 7))).hexdigest())")


def test_report_bytes_do_not_depend_on_the_c_librarys_fma_variants(panel, tmp_path):
    probes = [python(["-c", LIBM_PROBE], env).stdout for env in ({}, FMA_OFF)]
    if probes[0] == probes[1]:
        pytest.skip("GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA changes no math.exp result "
                    "here, so nothing was checked")
    # the generated panel gives 1,500 p-values, and coverage and MSE rows for
    # 300 periods
    panel_commands = {f"panel {command}": panel_argv(panel[0], command) for command in COMMANDS}
    for name, argv in {**LIBM_COMMANDS, **panel_commands}.items():
        outputs = []
        for position, env in enumerate(({}, FMA_OFF)):
            out = tmp_path / f"{name.replace(' ', '_')}_{position}.json"
            proc = python(["-m", "indexaudit", *argv, "--output", str(out)], env)
            assert proc.returncode in (0, 3), proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
