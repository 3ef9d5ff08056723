"""Command-line entry points.

Seven subcommands: ztest, btest, coverage, mse, simulate, verify, report.
Every run emits exactly one report, in the canonical machine format by
default or as an aligned table with --format table, to stdout unless
--output (or the INDEXAUDIT_OUTPUT_DIR environment variable) redirects it.

Exit codes: 0 success, 1 configuration error (bad flags, missing files),
2 data error (files that parse or validate wrong), 3 verification failure
(the Monte Carlo suite tripped a gate), 4 a verify worker process died. All
failures print a one-line JSON error object to stderr; invalid input never
produces a traceback.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import click

from ._version import __version__
from . import report as reporting
from .bias_tests import TestKind, cross_group_battery
from .core import PriceSeries, WeightVector, weighted_index
from .coverage import (
    EvalScheme,
    default_variance_of_variance,
    estimate_coverage,
    estimate_unbiased_coverage,
    mse_estimate,
)
from .dataio import (
    load_households,
    load_prices,
    load_weight_estimate,
    load_weights,
    write_households,
)
from .errors import AuditError, AuditWarning, ConfigError, ValidationError, VerificationFailure
from .survey import WeightEstimate, estimate_weights, index_variance, simulate_households


def _check_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")


def _check_positive(flag: str, value: float) -> None:
    _check_finite(flag, value)
    if value <= 0.0:
        raise ConfigError(f"{flag} must be positive, got {value}")


@dataclass
class RunConfig:
    """Everything one invocation needs, validated before any work starts."""

    command: str
    fmt: str = "machine"
    output: str | None = None
    prices_path: str | None = None
    weights_path: str | None = None
    source: str | None = None
    survey_micro_path: str | None = None
    survey_estimate_path: str | None = None
    survey_strata: tuple[str, ...] = ()
    proxy_sources: tuple[str, ...] = ()
    periods_spec: str = "all"
    each_period: bool = False
    alpha: float = 0.95
    omega: float | None = None
    omega_se_multiple: float | None = None
    var_of_variance: float | None = None
    true_weights: str | None = None
    group_names: str | None = None
    n_households: int | None = None
    dispersion: float = 0.5
    seed: int = 0
    scale: float = 1.0
    jobs: int = 1
    out_path: str | None = None
    stratum: str | None = None

    def __post_init__(self):
        if self.fmt not in ("machine", "table"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"--alpha must lie in (0, 1), got {self.alpha}")
        if self.omega is not None:
            _check_positive("--omega", self.omega)
            try:
                EvalScheme(alpha=self.alpha, omega=self.omega)
            except ValidationError as exc:
                raise ConfigError(str(exc)) from exc
        if self.omega is not None and self.omega_se_multiple is not None:
            raise ConfigError("pass --omega or --omega-se-mult, not both")
        if self.omega_se_multiple is not None:
            _check_positive("--omega-se-mult", self.omega_se_multiple)
        _check_positive("--scale", self.scale)
        _check_positive("--dispersion", self.dispersion)
        if self.var_of_variance is not None:
            _check_finite("--var-of-variance", self.var_of_variance)
            if self.var_of_variance < 0.0:
                raise ConfigError(
                    f"--var-of-variance must be non-negative, got {self.var_of_variance}"
                )
        if self.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {self.jobs}")
        if self.n_households is not None and self.n_households < 1:
            raise ConfigError(f"--n must be positive, got {self.n_households}")
        if self.command in ("ztest", "btest", "coverage", "mse", "report"):
            have_micro = self.survey_micro_path is not None
            have_estimate = self.survey_estimate_path is not None
            if have_micro == have_estimate:
                raise ConfigError(
                    "pass exactly one of --survey-micro or --survey-estimate"
                )
            if have_estimate and self.survey_strata:
                raise ConfigError(
                    "--survey-stratum only applies to --survey-micro input"
                )


def _parse_periods(spec: str, prices: PriceSeries) -> list[int] | None:
    """Resolve a period spec: 'all', or comma-separated labels, positions,
    and inclusive start:end ranges (labels or 0-based positions)."""

    def resolve(token: str) -> int:
        if token in prices.period_labels:
            return prices.period_labels.index(token)
        try:
            position = int(token)
        except ValueError:
            raise ConfigError(
                f"period token {token!r} is neither a period label nor a position"
            ) from None
        if not 0 <= position < prices.n_periods:
            raise ConfigError(
                f"period position {position} out of range [0, {prices.n_periods - 1}]"
            )
        return position

    spec = spec.strip()
    if spec == "all":
        return None
    if not spec:
        raise ConfigError("empty --periods value")
    positions: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if ":" in token and token not in prices.period_labels:
            start_text, end_text = token.split(":", 1)
            start, end = resolve(start_text.strip()), resolve(end_text.strip())
            if end < start:
                raise ConfigError(f"backwards period range {token!r}")
            positions.extend(range(start, end + 1))
        else:
            positions.append(resolve(token))
    seen: set[int] = set()
    unique = []
    for position in positions:
        if position not in seen:
            seen.add(position)
            unique.append(position)
    return unique


def _capture_warnings():
    ctx = warnings.catch_warnings(record=True)
    caught = ctx.__enter__()
    warnings.simplefilter("always", AuditWarning)
    return ctx, caught


def _load_survey_estimates(config: RunConfig,
                           prices: PriceSeries) -> dict[str, WeightEstimate]:
    """Survey-side estimates keyed by stratum ('all' pools every household)."""
    if config.survey_estimate_path is not None:
        return {"survey": load_weight_estimate(config.survey_estimate_path,
                                               prices.group_labels)}
    panel = load_households(config.survey_micro_path, prices.group_labels)
    rows_by_stratum: dict[str, list[int]] = {}
    for row, stratum in enumerate(panel.strata):
        rows_by_stratum.setdefault(stratum or "all", []).append(row)
    wanted = list(config.survey_strata)
    if not wanted:
        pools = {"all": panel} if len(rows_by_stratum) == 1 else {
            **{stratum: panel.select(rows) for stratum, rows in rows_by_stratum.items()},
            "all": panel,
        }
    else:
        unknown = [s for s in wanted if s not in rows_by_stratum]
        if unknown:
            raise ConfigError(
                f"unknown survey stratum {unknown[0]!r}; file has "
                f"{', '.join(sorted(rows_by_stratum))}"
            )
        pools = {stratum: panel.select(rows_by_stratum[stratum]) for stratum in wanted}
    return {stratum: estimate_weights(pool) for stratum, pool in sorted(pools.items())}


def _select_proxies(config: RunConfig, prices: PriceSeries) -> dict[str, WeightVector]:
    proxies = load_weights(config.weights_path, prices.group_labels)
    if not config.proxy_sources:
        return proxies
    missing = [s for s in config.proxy_sources if s not in proxies]
    if missing:
        raise ConfigError(
            f"unknown proxy source {missing[0]!r}; file has {', '.join(sorted(proxies))}"
        )
    return {source: proxies[source] for source in config.proxy_sources}


def _single_survey(config: RunConfig,
                   estimates: dict[str, WeightEstimate]) -> tuple[str, WeightEstimate]:
    if config.survey_strata:
        if len(config.survey_strata) != 1:
            raise ConfigError("this command takes exactly one --survey-stratum")
        label = config.survey_strata[0]
        return label, estimates[label]
    if "all" in estimates:
        return "all", estimates["all"]
    (label, estimate), = estimates.items()
    return label, estimate


def _single_proxy(proxies: dict[str, WeightVector]) -> tuple[str, WeightVector]:
    if len(proxies) != 1:
        raise ConfigError(
            "this command needs exactly one proxy source (pass --proxy)"
        )
    (label, vector), = proxies.items()
    return label, vector


def _audit_rows(config: RunConfig) -> tuple[list[dict], dict]:
    """Result rows and derived config of ztest, btest, coverage, mse and
    report. Prices, proxies and survey estimates are each loaded once, in the
    order each command has always loaded them, so that with several bad
    inputs the same one is reported."""
    prices = load_prices(config.prices_path)
    if config.command in ("coverage", "mse"):
        proxy_label, proxy = _single_proxy(_select_proxies(config, prices))
        survey_label, estimate = _single_survey(
            config, _load_survey_estimates(config, prices))
        chosen = _parse_periods(config.periods_spec, prices)
        rows: list[dict] = []
    else:
        estimates = _load_survey_estimates(config, prices)
        proxies = _select_proxies(config, prices)
        chosen = _parse_periods(config.periods_spec, prices)
        kinds = {"ztest": (TestKind.Z,), "btest": (TestKind.B,)}.get(
            config.command, (TestKind.Z, TestKind.B))
        rows = _battery_rows(config, prices, estimates, proxies, chosen, kinds)
        if config.command != "report":
            return rows, {}
        proxy_label, proxy = _single_proxy(proxies)
        survey_label, estimate = _single_survey(config, estimates)
    period_values = _period_values(prices, chosen, proxy, estimate)
    if config.command == "mse":
        return _mse_rows(period_values), {}
    coverage_rows, omega = _coverage_rows(config, period_values, estimate)
    rows += coverage_rows
    if config.command == "report":
        rows += _mse_rows(period_values)
    return rows, {"resolved_omega": omega, "survey": survey_label, "proxy": proxy_label}


def _battery_rows(config: RunConfig, prices: PriceSeries,
                  estimates: dict[str, WeightEstimate],
                  proxies: dict[str, WeightVector], chosen: list[int] | None,
                  kinds: tuple[TestKind, ...]) -> list[dict]:
    if config.each_period:
        targets = chosen if chosen is not None else range(prices.n_periods)
        subsets = {prices.period_labels[t]: [t] for t in targets}
    else:
        subsets = {config.periods_spec: chosen}
    results = cross_group_battery(prices, estimates, proxies,
                                  period_subsets=subsets, include=kinds)
    return [reporting.test_result_row(result) for result in results]


def _resolve_scheme(config: RunConfig, variances: list[float]) -> EvalScheme:
    if config.omega is not None:
        return EvalScheme(alpha=config.alpha, omega=config.omega)
    multiple = config.omega_se_multiple if config.omega_se_multiple is not None else 2.0
    mean_se = sum(v ** 0.5 for v in variances) / len(variances)
    if mean_se <= 0.0:
        raise ConfigError(
            "audit standard error is zero; pass --omega explicitly"
        )
    return EvalScheme(alpha=config.alpha, omega=multiple * mean_se)


def _period_values(prices: PriceSeries, chosen: list[int] | None,
                   proxy: WeightVector,
                   estimate: WeightEstimate) -> list[tuple[str, float, float, float]]:
    """(period label, proxy index, audit index, audit variance) per chosen
    period: the one per-period pass that coverage and MSE rows share."""
    targets = chosen if chosen is not None else range(prices.n_periods)
    return [(prices.period_labels[t], weighted_index(prices, proxy, t),
             weighted_index(prices, estimate.point, t), index_variance(prices, estimate, t))
            for t in targets]


def _coverage_rows(config: RunConfig, period_values: list[tuple[str, float, float, float]],
                   estimate: WeightEstimate) -> tuple[list[dict], float]:
    """Per-period coverage rows and their summaries, with the resolved omega."""
    scheme = _resolve_scheme(config, [variance for *_, variance in period_values])
    rows: list[dict] = []
    plug_in_values: list[float] = []
    benchmark_values: list[float] = []
    for period, theta_star, theta_audit, variance in period_values:
        plug_in = estimate_coverage(theta_star, theta_audit, variance, scheme)
        rows.append(reporting.coverage_row(period, "published_constant", plug_in))
        plug_in_values.append(plug_in.value)
        if config.var_of_variance is not None:
            var_of_var = config.var_of_variance
        elif estimate.n_households is not None:
            var_of_var = default_variance_of_variance(variance, estimate.n_households)
        else:
            raise ConfigError(
                "survey estimate has no household count; pass --var-of-variance"
            )
        benchmark = estimate_unbiased_coverage(variance, var_of_var, scheme)
        rows.append(reporting.coverage_row(period, "unbiased_benchmark", benchmark))
        benchmark_values.append(benchmark.value)
    rows.append(reporting.quantile_summary_row("published_constant", plug_in_values))
    rows.append(reporting.quantile_summary_row("unbiased_benchmark", benchmark_values))
    return rows, scheme.omega


def _mse_rows(period_values: list[tuple[str, float, float, float]]) -> list[dict]:
    return [reporting.mse_row(period, mse_estimate(theta_star, theta_audit, variance),
                              theta_star, theta_audit, variance)
            for period, theta_star, theta_audit, variance in period_values]


def _simulate_rows(config: RunConfig) -> list[dict]:
    if (config.true_weights is None) == (config.weights_path is None):
        raise ConfigError(
            "pass exactly one of --true-weights or --weights-file with --source"
        )
    if config.true_weights is not None:
        if config.group_names is None:
            raise ConfigError("--true-weights needs --groups labels")
        groups = tuple(g.strip() for g in config.group_names.split(","))
        try:
            raw = [float(w) for w in config.true_weights.split(",")]
        except ValueError:
            raise ConfigError(
                f"--true-weights must be comma-separated floats, got "
                f"{config.true_weights!r}"
            ) from None
        if len(raw) != len(groups):
            raise ConfigError(
                f"{len(raw)} weights for {len(groups)} group labels"
            )
        try:
            vector = WeightVector(raw, label="true", group_labels=groups)
        except ValidationError as exc:
            # the weights and their labels come from flags
            raise ConfigError(str(exc)) from exc
    else:
        if not config.source:
            raise ConfigError("--weights-file needs --source to pick a vector")
        vectors = load_weights(config.weights_path)
        if config.source not in vectors:
            raise ConfigError(
                f"unknown source {config.source!r}; file has {', '.join(sorted(vectors))}"
            )
        vector = vectors[config.source]
        groups = vector.group_labels
    if config.n_households is None:
        raise ConfigError("--n is required")
    if config.out_path is None:
        raise ConfigError("--out is required")
    try:
        panel = simulate_households(vector, config.n_households, config.dispersion,
                                    config.seed, stratum_label=config.stratum)
    except ValidationError as exc:
        # every input of the draw is a flag or an already validated vector
        raise ConfigError(str(exc)) from exc
    write_households(config.out_path, panel, groups)
    import hashlib

    digest = hashlib.sha256(Path(config.out_path).read_bytes()).hexdigest()
    return [{
        "type": "file_output",
        "path": config.out_path,
        "rows": len(panel) * len(groups),
        "sha256": digest,
    }]


def run_verification(master_seed: int, scale: float, jobs: int) -> list:
    """``montecarlo.run_verification``. The Monte Carlo module, and the
    process and thread pools it imports, load on first use: only ``verify``
    runs them."""
    from .montecarlo import run_verification

    return run_verification(master_seed, scale, jobs)


def _verify_rows(config: RunConfig) -> tuple[list[dict], int]:
    checks = run_verification(config.seed, config.scale, config.jobs)
    rows = [reporting.verification_row(check) for check in checks]
    failed = [check.name for check in checks if not check.passed]
    return rows, (3 if failed else 0)


def run_command(config: RunConfig) -> tuple[reporting.ReportDocument, int]:
    """Execute one configured command and build its report document."""
    ctx, caught = _capture_warnings()
    exit_code = 0
    derived: dict = {}
    try:
        if config.command in ("ztest", "btest", "coverage", "mse", "report"):
            rows, derived = _audit_rows(config)
        elif config.command == "simulate":
            rows = _simulate_rows(config)
        elif config.command == "verify":
            rows, exit_code = _verify_rows(config)
        else:
            raise ConfigError(f"unknown command {config.command!r}")
    finally:
        ctx.__exit__(None, None, None)
    # fmt/output/jobs shape the run, not the result; echoing jobs would break
    # the promise that --jobs never changes the report bytes
    config_echo = {
        key: value for key, value in dataclasses.asdict(config).items()
        if value not in (None, (), {}, "")
        and key not in ("fmt", "output", "jobs")
    }
    config_echo.update(derived)
    doc = reporting.build_document(
        command=config.command,
        config=config_echo,
        results=rows,
        warnings=[str(w.message) for w in caught
                  if issubclass(w.category, AuditWarning)],
    )
    return doc, exit_code


def emit_report(doc: reporting.ReportDocument, fmt: str,
                output: str | None, command: str) -> None:
    """Write the report to --output, INDEXAUDIT_OUTPUT_DIR, or stdout."""
    if output is None:
        directory = os.environ.get("INDEXAUDIT_OUTPUT_DIR")
        if directory:
            suffix = "json" if fmt == "machine" else "txt"
            output = str(Path(directory) / f"{command}.{suffix}")
    try:
        if fmt == "machine":
            payload = reporting.emit_machine(doc)
            if output is None:
                sys.stdout.buffer.write(payload)
                sys.stdout.buffer.flush()
            else:
                target = Path(output)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(payload)
        else:
            text = reporting.emit_table(doc)
            if output is None:
                sys.stdout.write(text)
            else:
                target = Path(output)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write report to {output}: {exc}") from exc


def _execute(config: RunConfig) -> None:
    doc, exit_code = run_command(config)
    emit_report(doc, config.fmt, config.output, config.command)
    if exit_code:
        raise VerificationFailure(
            "verification suite failed; see the report for failing checks"
        )


def _format_option(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["machine", "table"]),
                      default="machine", show_default=True,
                      help="Report format.")(fn)
    return click.option("--output", type=click.Path(dir_okay=False),
                        default=None, help="Write the report here instead of stdout.")(fn)


def _audit_input_options(fn):
    for option in reversed([
        click.option("--prices", "prices_path", required=True,
                     type=click.Path(dir_okay=False),
                     help="Price panel CSV (period,group,index)."),
        click.option("--weights", "weights_path", required=True,
                     type=click.Path(dir_okay=False),
                     help="Proxy weights CSV (source,group,weight)."),
        click.option("--survey-micro", "survey_micro_path",
                     type=click.Path(dir_okay=False), default=None,
                     help="Household micro CSV (household_id,group,expenditure[,stratum])."),
        click.option("--survey-estimate", "survey_estimate_path",
                     type=click.Path(dir_okay=False), default=None,
                     help="Precomputed weight estimate CSV (kind,row_group,col_group,value)."),
        click.option("--survey-stratum", "survey_strata", multiple=True,
                     help="Restrict micro data to these strata (repeatable)."),
        click.option("--periods", "periods_spec", default="all", show_default=True,
                     help="Period subset: 'all', labels, 0-based positions, "
                          "or start:end ranges, comma-separated."),
    ]):
        fn = option(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="indexaudit")
def cli():
    """Audit proxy-weighted price indices against a survey sample."""


@cli.command()
@_audit_input_options
@click.option("--proxy", "proxy_sources", multiple=True,
              help="Proxy source label(s) to test (default: all in the file).")
@click.option("--each-period", is_flag=True,
              help="One test per period instead of one pooled test.")
@_format_option
def ztest(**kwargs):
    """Index-level bias tests (survey vs proxy weights)."""
    _execute(RunConfig(command="ztest", **kwargs))


@cli.command()
@_audit_input_options
@click.option("--proxy", "proxy_sources", multiple=True,
              help="Proxy source label(s) to test (default: all in the file).")
@_format_option
def btest(**kwargs):
    """Index-trend bias tests (survey-on-proxy slope vs 1)."""
    _execute(RunConfig(command="btest", **kwargs))


def _scheme_options(fn):
    fn = click.option("--alpha", type=float, default=0.95, show_default=True,
                      help="Evaluation confidence level.")(fn)
    fn = click.option("--omega", type=float, default=None,
                      help="Evaluation half-width (absolute).")(fn)
    fn = click.option("--omega-se-mult", "omega_se_multiple", type=float, default=None,
                      help="Half-width as a multiple of the mean audit SE "
                           "(default 2.0 when --omega is not given).")(fn)
    return fn


@cli.command()
@_audit_input_options
@click.option("--proxy", "proxy_sources", multiple=True,
              help="The proxy source whose published index is evaluated.")
@_scheme_options
@click.option("--var-of-variance", type=float, default=None,
              help="Override the variance of the audit variance estimate.")
@_format_option
def coverage(**kwargs):
    """Evaluation coverage of the proxy index, period by period."""
    _execute(RunConfig(command="coverage", **kwargs))


@cli.command()
@_audit_input_options
@click.option("--proxy", "proxy_sources", multiple=True,
              help="The proxy source whose published index is evaluated.")
@_format_option
def mse(**kwargs):
    """Bias-corrected squared-error estimates, period by period."""
    _execute(RunConfig(command="mse", **kwargs))


@cli.command()
@click.option("--true-weights", default=None,
              help="Comma-separated true weights (with --groups).")
@click.option("--groups", "group_names", default=None,
              help="Comma-separated group labels for --true-weights.")
@click.option("--weights-file", "weights_path",
              type=click.Path(dir_okay=False), default=None,
              help="Take the true weights from this weights CSV instead.")
@click.option("--source", default=None,
              help="Source label inside --weights-file.")
@click.option("--n", "n_households", type=int, required=True,
              help="Number of households to draw.")
@click.option("--dispersion", type=float, default=0.5, show_default=True,
              help="Spread of totals and shares around the true weights.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--stratum", default=None, help="Stratum label to stamp on rows.")
@click.option("--out", "out_path", required=True,
              type=click.Path(dir_okay=False),
              help="Micro CSV to write.")
@_format_option
def simulate(**kwargs):
    """Draw synthetic household micro data with known true weights."""
    _execute(RunConfig(command="simulate", **kwargs))


@cli.command()
@click.option("--seed", type=int, default=42, show_default=True,
              help="Master seed for the whole suite.")
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="Multiplier on every replicate count.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes (output is identical for any value).")
@_format_option
def verify(**kwargs):
    """Run the Monte Carlo oracle suite; exit 3 if any gate fails."""
    _execute(RunConfig(command="verify", **kwargs))


@cli.command()
@_audit_input_options
@click.option("--proxy", "proxy_sources", multiple=True,
              help="The proxy source to audit (exactly one).")
@_scheme_options
@click.option("--var-of-variance", type=float, default=None,
              help="Override the variance of the audit variance estimate.")
@_format_option
def report(**kwargs):
    """Full audit: Z and B tests, coverage, and MSE in one document."""
    _execute(RunConfig(command="report", **kwargs))


def main(argv: list[str] | None = None) -> int:
    """Entry point with structured error handling (no tracebacks for users)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except AuditError as exc:
        _print_error(exc.code, str(exc))
        return exc.exit_code
    except click.UsageError as exc:
        _print_error("config_error", exc.format_message())
        return 1
    except click.ClickException as exc:
        _print_error("config_error", exc.format_message())
        return 1
    except click.exceptions.Abort:
        _print_error("aborted", "aborted")
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    return 0


def _print_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"code": code, "message": message}}, sort_keys=True,
    ) + "\n")


if __name__ == "__main__":
    sys.exit(main())
