"""Command-line entry points.

Seven subcommands: ztest, btest, coverage, mse, simulate, verify, report.
Every run emits exactly one report, in the canonical machine format by
default or as an aligned table with --format table, to stdout unless
--output (or the INDEXAUDIT_OUTPUT_DIR environment variable) redirects it.

Exit codes: 0 success, 1 configuration error (bad flags, missing files),
2 data error (files that parse or validate wrong), 3 verification failure
(the Monte Carlo suite tripped a gate), 4 a worker process failed (a verify
worker, or one of the processes simulate writes its file with). All failures
print a one-line JSON error object to stderr; invalid input never produces a
traceback.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from ._version import __version__
from . import report as reporting
from .bias_tests import TestKind, cross_group_battery
from .core import PriceSeries, WeightVector, weighted_index
from .coverage import (
    EvalScheme,
    default_variance_of_variance,
    estimate_coverage,
    estimate_unbiased_coverage,
    kappa_quantile,
    mse_estimate,
)
from .dataio import (
    load_households,
    load_prices,
    load_weight_estimate,
    load_weights,
    output_file,
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


# each audit command's battery, the test kinds it runs against every survey
# pool, and its per-period sections for one proxy against one pool
_AUDITS: dict[str, tuple[tuple[TestKind, ...], tuple[str, ...]]] = {
    "ztest": ((TestKind.Z,), ()),
    "btest": ((TestKind.B,), ()),
    "coverage": ((), ("coverage",)),
    "mse": ((), ("mse",)),
    "report": ((TestKind.Z, TestKind.B), ("coverage", "mse")),
}


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
        try:
            kappa_quantile(self.alpha)
        except ValidationError as exc:
            raise ConfigError(f"--{exc}") from exc  # its message starts "alpha"
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
        # verify masks its seed into range; simulate seeds its stream with it as given
        if self.command == "simulate" and self.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {self.seed}")
        if self.stratum == "all":
            raise ConfigError("--stratum 'all' is reserved for the pooled sample of every "
                              "household")
        # labels simulate writes as data: the command line carries bytes that
        # are not UTF-8 as lone surrogates, which no UTF-8 file can hold
        for flag, label in (("--groups", self.group_names), ("--stratum", self.stratum)):
            if label is not None and _spelled(label) != label:
                raise ConfigError(f"{flag} must be UTF-8 text, got {_spelled(label)}")
        if self.command in _AUDITS:
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
    return list(dict.fromkeys(positions))


def _section_pool(config: RunConfig) -> str:
    """The survey pool the per-period sections evaluate: the one
    --survey-stratum, else every household ('survey' for an estimate file)."""
    if config.survey_estimate_path is not None:
        return "survey"
    if not config.survey_strata:
        return "all"
    if len(config.survey_strata) != 1:
        raise ConfigError("this command takes exactly one --survey-stratum")
    return config.survey_strata[0]


def _load_survey_estimates(config: RunConfig, prices: PriceSeries,
                           every_pool: bool) -> dict[str, WeightEstimate]:
    """Survey-side estimates keyed by stratum ('all' pools every household,
    tagged or not): every pool for a test battery, else only the pool the
    sections evaluate. A pool's warning and error name it, the error the file."""
    if config.survey_estimate_path is not None:
        return {"survey": load_weight_estimate(config.survey_estimate_path,
                                               prices.group_labels)}
    panel = load_households(config.survey_micro_path, prices.group_labels)
    rows_by_stratum: dict[str, list[int]] = {}
    for row, stratum in enumerate(panel.strata):
        if stratum is not None:
            rows_by_stratum.setdefault(stratum, []).append(row)
    if "all" in rows_by_stratum:
        raise ValidationError(
            f"{config.survey_micro_path}: stratum 'all' is reserved for the "
            f"pooled sample of every household"
        )
    # each pool's household rows; None is every household
    pools: dict[str, list[int] | None] = {**rows_by_stratum, "all": None}
    if config.survey_strata:
        unknown = [s for s in config.survey_strata if s not in pools]
        if unknown:
            raise ConfigError(
                f"unknown survey stratum {unknown[0]!r}; file has "
                f"{', '.join(sorted(rows_by_stratum)) or 'no strata'}"
            )
        pools = {stratum: pools[stratum] for stratum in config.survey_strata}
    elif len(rows_by_stratum) == 1 and None not in panel.strata:
        # one stratum that holds every household is the pooled sample
        pools = {"all": None}
    if not every_pool:
        label = _section_pool(config)
        pools = {label: pools[label]}
    estimates = {}
    for stratum, rows in sorted(pools.items()):
        with warnings.catch_warnings(record=True) as caught:
            try:
                estimates[stratum] = estimate_weights(panel if rows is None else panel.select(rows))
            except ValidationError as exc:
                raise ValidationError(f"{config.survey_micro_path}: survey pool {stratum!r}: "
                                      f"{exc}") from exc
        for w in caught:
            warnings.warn(f"survey pool {stratum!r}: {w.message}", w.category)
    return estimates


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


def _audit_rows(config: RunConfig) -> tuple[reporting.Rows, dict]:
    """Result rows and derived config of an audit command. Prices, survey,
    proxies and periods are read once each, in that order; the battery then
    tests every survey pool, and the per-period sections evaluate one proxy
    against one pool, the only pool estimated when there is no battery. Each
    estimator runs once, on the arrays of every period."""
    kinds, sections = _AUDITS[config.command]
    prices = load_prices(config.prices_path)
    estimates = _load_survey_estimates(config, prices, every_pool=bool(kinds))
    proxies = _select_proxies(config, prices)
    chosen = _parse_periods(config.periods_spec, prices)
    targets = chosen if chosen is not None else range(prices.n_periods)
    tests: Sequence[dict] = []
    if kinds:
        subsets = ({prices.period_labels[t]: [t] for t in targets} if config.each_period
                   else {config.periods_spec: chosen})
        tests = reporting.test_result_rows(cross_group_battery(
            prices, estimates, proxies, period_subsets=subsets, include=kinds))
    if not sections:
        return reporting.Rows(tests), {}
    if len(proxies) != 1:
        raise ConfigError("this command needs exactly one proxy source (pass --proxy)")
    (proxy_label, proxy), = proxies.items()
    survey_label = _section_pool(config)
    estimate = estimates[survey_label]
    periods = [prices.period_labels[t] for t in targets]
    theta_star = weighted_index(prices, proxy, targets)
    theta_audit = weighted_index(prices, estimate.point, targets)
    variance = index_variance(prices, estimate, targets)
    parts, derived = [tests], {}
    if "coverage" in sections:
        coverage, omega = _coverage_rows(config, periods, theta_star, theta_audit, variance,
                                         estimate)
        parts += coverage
        derived = {"resolved_omega": omega, "survey": survey_label, "proxy": proxy_label}
    if "mse" in sections:
        parts.append(reporting.mse_rows(periods, mse_estimate(theta_star, theta_audit, variance),
                                        theta_star, theta_audit, variance))
    return reporting.Rows(*parts), derived


def _coverage_rows(config: RunConfig, periods: list[str], theta_star: np.ndarray,
                   theta_audit: np.ndarray, variance: np.ndarray,
                   estimate: WeightEstimate) -> tuple[list[Sequence[dict]], float]:
    """Per-period coverage rows and their summaries, with the resolved omega:
    --omega, else --omega-se-mult (default 2) times the mean audit SE."""
    omega = config.omega
    if omega is None:
        # Python's sum, in period order, of each period's standard error
        mean_se = sum(np.sqrt(variance).tolist()) / len(periods)
        if mean_se <= 0.0:
            raise ConfigError(
                "audit standard error is zero; pass --omega explicitly"
            )
        multiple = config.omega_se_multiple if config.omega_se_multiple is not None else 2.0
        omega = multiple * mean_se
    try:
        scheme = EvalScheme(alpha=config.alpha, omega=omega)
    except ValidationError as exc:
        if config.omega_se_multiple is None:
            raise
        raise ConfigError(f"--omega-se-mult {config.omega_se_multiple!r} is out of range "
                          f"for this data: {exc}") from exc
    plug_in = estimate_coverage(theta_star, theta_audit, variance, scheme)
    if config.var_of_variance is not None:
        var_of_var = config.var_of_variance
    elif estimate.n_households is not None:
        var_of_var = default_variance_of_variance(variance, estimate.n_households)
    else:
        raise ConfigError(
            "survey estimate has no household count; pass --var-of-variance"
        )
    try:
        benchmark = estimate_unbiased_coverage(variance, var_of_var, scheme)
    except ValidationError as exc:
        if config.var_of_variance is None:
            raise
        # the data alone may be at fault: then its own error stands
        estimate_unbiased_coverage(variance, 0.0, scheme)
        raise ConfigError(f"--var-of-variance {config.var_of_variance!r} is out of range "
                          f"for this data: {exc}") from exc
    return [reporting.coverage_rows(periods, plug_in, benchmark), [
        reporting.quantile_summary_row("published_constant", plug_in.value),
        reporting.quantile_summary_row("unbiased_benchmark", benchmark.value),
    ]], scheme.omega


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
    try:
        panel = simulate_households(vector, config.n_households, config.dispersion,
                                    config.seed, stratum_label=config.stratum)
    except ValidationError as exc:
        # every input of the draw is a flag or an already validated vector
        raise ConfigError(str(exc)) from exc
    except MemoryError:
        raise ConfigError(
            f"--n {config.n_households} households do not fit in memory") from None
    import hashlib

    digest, target = hashlib.sha256(), Path(config.out_path)
    # --out is treated as --output is: its directories are made, and a path
    # that cannot be written is a config error; a file the writer could not
    # finish it removes, whatever stopped it
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        write_households(target, panel, groups)
        with target.open("rb") as handle:
            while chunk := handle.read(1 << 20):
                digest.update(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot write households to {config.out_path}: {exc}") from exc
    return [{
        "type": "file_output",
        "path": _spelled(config.out_path),
        "rows": len(panel) * len(groups),
        "sha256": digest.hexdigest(),
    }]


def _spelled(path: str) -> str:
    """A path as report text: bytes that are not UTF-8 (which the command
    line carries as lone surrogates) are spelled as ``\\xNN`` escapes."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def run_verification(master_seed: int, scale: float, jobs: int) -> list:
    """``montecarlo.run_verification``. The Monte Carlo module, and the
    process and thread pools it imports, load on first use: only ``verify``
    runs them."""
    from .montecarlo import run_verification

    return run_verification(master_seed, scale, jobs)


def run_command(config: RunConfig) -> tuple[reporting.ReportDocument, int]:
    """Execute one configured command and build its report document."""
    exit_code = 0
    derived: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AuditWarning)
        if config.command in _AUDITS:
            rows, derived = _audit_rows(config)
        elif config.command == "simulate":
            rows = _simulate_rows(config)
        elif config.command == "verify":
            checks = run_verification(config.seed, config.scale, config.jobs)
            rows = [reporting.verification_row(check) for check in checks]
            exit_code = 0 if all(check.passed for check in checks) else 3
        else:
            raise ConfigError(f"unknown command {config.command!r}")
    # fmt/output/jobs shape the run, not the result; echoing jobs would break
    # the promise that --jobs never changes the report bytes
    config_echo = {
        key: _spelled(value) if key.endswith("_path") else value
        for key, value in dataclasses.asdict(config).items()
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
    if fmt == "machine":
        payload = reporting.emit_machine(doc)
    else:
        payload = reporting.emit_table(doc).encode("utf-8")
    try:
        if output is None:
            # a pipe whose reader goes away can take part of a write without
            # an error; the rest of it then fails
            stream, rest = sys.stdout.buffer, memoryview(payload)
            while rest:
                written = stream.write(rest)
                if not written:
                    raise OSError(errno.EIO, "short write")
                rest = rest[written:]
            stream.flush()
        else:
            Path(output).parent.mkdir(parents=True, exist_ok=True)
            with output_file(output, binary=True) as handle:
                handle.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {output or 'stdout'}: {exc}") from exc


def _execute(config: RunConfig) -> None:
    doc, exit_code = run_command(config)
    emit_report(doc, config.fmt, config.output, config.command)
    if exit_code:
        raise VerificationFailure(
            "verification suite failed; see the report for failing checks"
        )


@click.group()
@click.version_option(version=__version__, prog_name="indexaudit")
def cli():
    """Audit proxy-weighted price indices against a survey sample."""


_FILE = click.Path(dir_okay=False)
_AUDIT_INPUTS = (
    click.Option(["--prices", "prices_path"], required=True, type=_FILE,
                 help="Price panel CSV (period,group,index)."),
    click.Option(["--weights", "weights_path"], required=True, type=_FILE,
                 help="Proxy weights CSV (source,group,weight)."),
    click.Option(["--survey-micro", "survey_micro_path"], type=_FILE, default=None,
                 help="Household micro CSV (household_id,group,expenditure[,stratum])."),
    click.Option(["--survey-estimate", "survey_estimate_path"], type=_FILE, default=None,
                 help="Precomputed weight estimate CSV (kind,row_group,col_group,value)."),
    click.Option(["--survey-stratum", "survey_strata"], multiple=True,
                 help="Restrict micro data to these strata (repeatable)."),
    click.Option(["--periods", "periods_spec"], default="all", show_default=True,
                 help="Period subset: 'all', labels, 0-based positions, "
                      "or start:end ranges, comma-separated."),
)
_TESTED_PROXIES = click.Option(
    ["--proxy", "proxy_sources"], multiple=True,
    help="Proxy source label(s) to test (default: all in the file).")
_EVALUATED_PROXY = click.Option(
    ["--proxy", "proxy_sources"], multiple=True,
    help="The proxy source whose published index is evaluated.")
_SCHEME = (
    click.Option(["--omega-se-mult", "omega_se_multiple"], type=float, default=None,
                 help="Half-width as a multiple of the mean audit SE "
                      "(default 2.0 when --omega is not given)."),
    click.Option(["--omega"], type=float, default=None,
                 help="Evaluation half-width (absolute)."),
    click.Option(["--alpha"], type=float, default=0.95, show_default=True,
                 help="Evaluation confidence level."),
    click.Option(["--var-of-variance"], type=float, default=None,
                 help="Override the variance of the audit variance estimate."),
)
# every command ends with these
_REPORT_OPTIONS = (
    click.Option(["--output"], type=_FILE, default=None,
                 help="Write the report here instead of stdout."),
    click.Option(["--format", "fmt"], type=click.Choice(["machine", "table"]),
                 default="machine", show_default=True, help="Report format."),
)

# (name, help, options in --help order before the report options)
_COMMANDS = (
    ("ztest", "Index-level bias tests (survey vs proxy weights).", (
        *_AUDIT_INPUTS, _TESTED_PROXIES,
        click.Option(["--each-period"], is_flag=True,
                     help="One test per period instead of one pooled test."),
    )),
    ("btest", "Index-trend bias tests (survey-on-proxy slope vs 1).",
     (*_AUDIT_INPUTS, _TESTED_PROXIES)),
    ("coverage", "Evaluation coverage of the proxy index, period by period.",
     (*_AUDIT_INPUTS, _EVALUATED_PROXY, *_SCHEME)),
    ("mse", "Bias-corrected squared-error estimates, period by period.",
     (*_AUDIT_INPUTS, _EVALUATED_PROXY)),
    ("simulate", "Draw synthetic household micro data with known true weights.", (
        click.Option(["--true-weights"], default=None,
                     help="Comma-separated true weights (with --groups)."),
        click.Option(["--groups", "group_names"], default=None,
                     help="Comma-separated group labels for --true-weights."),
        click.Option(["--weights-file", "weights_path"], type=_FILE, default=None,
                     help="Take the true weights from this weights CSV instead."),
        click.Option(["--source"], default=None, help="Source label inside --weights-file."),
        click.Option(["--n", "n_households"], type=int, required=True,
                     help="Number of households to draw."),
        click.Option(["--dispersion"], type=float, default=0.5, show_default=True,
                     help="Spread of totals and shares around the true weights."),
        click.Option(["--seed"], type=int, default=0, show_default=True),
        click.Option(["--stratum"], default=None, help="Stratum label to stamp on rows."),
        click.Option(["--out", "out_path"], required=True, type=_FILE,
                     help="Micro CSV to write."),
    )),
    ("verify", "Run the Monte Carlo oracle suite; exit 3 if any gate fails.", (
        click.Option(["--seed"], type=int, default=42, show_default=True,
                     help="Master seed for the whole suite."),
        click.Option(["--scale"], type=float, default=1.0, show_default=True,
                     help="Multiplier on every replicate count. Below 1 a correct "
                          "build fails by chance far more often: on about 5% of seeds "
                          "at 1, 15% at 0.5 and 72% at 0.2."),
        click.Option(["--jobs"], type=int, default=1, show_default=True,
                     help="At most this many worker processes, one per core; none off "
                          "Linux or beside another thread. Output is identical for any value."),
    )),
    ("report", "Full audit: Z and B tests, coverage, and MSE in one document.", (
        *_AUDIT_INPUTS,
        click.Option(["--proxy", "proxy_sources"], multiple=True,
                     help="The proxy source to audit (exactly one)."),
        *_SCHEME,
    )),
)


def _command(name: str, help_text: str, options: tuple[click.Option, ...]) -> click.Command:
    def callback(**kwargs):
        _execute(RunConfig(command=name, **kwargs))

    return click.Command(name, callback=callback, help=help_text,
                         params=[*options, *_REPORT_OPTIONS])


for _row in _COMMANDS:
    cli.add_command(_command(*_row))


def main(argv: list[str] | None = None) -> int:
    """Entry point with structured error handling (no tracebacks for users)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except AuditError as exc:
        _print_error(exc.code, str(exc))
        return exc.exit_code
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
