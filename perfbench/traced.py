"""The traced run: per-layer metrics from spans around calls into each module.

The workload's invocations run in this process: the command line is parsed
by the CLI itself into a ``RunConfig``, then ``cli.run_command`` and
``cli.emit_report`` are called directly. Untraced and traced iterations
alternate. In a traced iteration the public functions are wrapped under the
names ``indexaudit.cli`` calls them by, plus ``report.emit_machine`` and
``montecarlo.run_plan``; each call becomes a span named after the module
that defines the function. The package itself is not changed.

Every per-layer metric is the median over traced iterations of its value in
one iteration; ``trace.overhead_s`` is the median traced iteration wall
minus the median untraced one.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from spans import SpanRecorder
from workloads import Outcome, Prepared, read_report

# per-layer metric name -> unit, as BENCHMARK.json lists them
PER_LAYER = {metric["name"]: metric["unit"] for metric in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))["per_layer"]}
CHECK_SPAN = "montecarlo.check."

LOADERS = ("dataio.load_prices", "dataio.load_weights",
           "dataio.load_weight_estimate", "dataio.load_households")


def _instrumentation(file_rows: dict[str, int]):
    """(module, attribute, span name, counts(args, result)) for every wrapped
    public function. The counts are computed after the span closes."""

    def file_counts(args, result):
        path = Path(args[0])
        return {"bytes": os.path.getsize(path), "rows": file_rows.get(str(path), 0)}

    return [
        ("cli", "load_prices", "dataio.load_prices", file_counts),
        ("cli", "load_weights", "dataio.load_weights", file_counts),
        ("cli", "load_weight_estimate", "dataio.load_weight_estimate", file_counts),
        ("cli", "load_households", "dataio.load_households", file_counts),
        ("cli", "write_households", "dataio.write_households",
         lambda args, result: {"rows": len(args[1]) * len(args[2])}),
        ("cli", "estimate_weights", "survey.estimate_weights",
         lambda args, result: {"households": result.n_households}),
        ("cli", "simulate_households", "survey.simulate_households", None),
        ("cli", "index_variance", "survey.index_variance", None),
        ("cli", "weighted_index", "core.weighted_index", None),
        ("cli", "estimate_coverage", "coverage.estimate_coverage", None),
        ("cli", "estimate_unbiased_coverage", "coverage.estimate_unbiased_coverage", None),
        ("cli", "mse_estimate", "coverage.mse_estimate", None),
        ("cli", "cross_group_battery", "bias_tests.cross_group_battery",
         lambda args, result: {"tests": len(result)}),
        ("cli", "run_verification", "montecarlo.run_verification",
         lambda args, result: {"jobs": args[2]}),
        ("report", "emit_machine", "report.emit_machine",
         lambda args, result: {"bytes": len(result), "rows": len(args[0].results)}),
        ("montecarlo", "run_plan", "montecarlo.run_plan",
         lambda args, result: {"replicates": sum(o.replicates_used for o in result)}),
    ]


@contextmanager
def instrumented(recorder: SpanRecorder, file_rows: dict[str, int]):
    """Wrap the public functions in spans for the duration of the block."""
    from indexaudit import cli, montecarlo, report

    modules = {"cli": cli, "montecarlo": montecarlo, "report": report}
    check_names: dict[int, str] = {}
    originals = []

    def wrap(function, name, counts):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "montecarlo.run_plan":
                span_name = CHECK_SPAN + check_names.get(id(args[0]), "?")
            with recorder.span(span_name) as span:
                result = function(*args, **kwargs)
            if counts is not None:
                span.counts.update(counts(args, result))
            return result
        return wrapper

    suite = montecarlo.default_verification_suite

    @functools.wraps(suite)
    def named_suite(*args, **kwargs):
        entries = suite(*args, **kwargs)
        check_names.update((id(plan), name) for name, plan, _ in entries)
        return entries

    try:
        for module_name, attribute, name, counts in _instrumentation(file_rows):
            module = modules[module_name]
            original = getattr(module, attribute)
            originals.append((module, attribute, original))
            setattr(module, attribute, wrap(original, name, counts))
        originals.append((montecarlo, "default_verification_suite", suite))
        montecarlo.default_verification_suite = named_suite
        yield
    finally:
        for module, attribute, original in reversed(originals):
            setattr(module, attribute, original)


def parse_configs(prepared: Prepared) -> list:
    """The RunConfig the CLI builds for each invocation's command line."""
    from indexaudit import cli

    configs = []
    execute = cli._execute
    cli._execute = configs.append
    try:
        for invocation in prepared.invocations:
            cli.cli.main(args=list(invocation.argv), standalone_mode=False)
    finally:
        cli._execute = execute
    return configs


def run_iteration(configs: list, recorder: SpanRecorder | None) -> tuple[list[int], float]:
    """Run every configured command in process; returns exit codes and wall."""
    from indexaudit import cli
    from indexaudit.errors import AuditError

    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    for config in configs:
        Path(config.output).unlink(missing_ok=True)
    codes = []
    start = time.perf_counter()
    with span("iteration"):
        for config in configs:
            try:
                with span("cli.run_command"):
                    doc, code = cli.run_command(config)
                with span("cli.emit_report"):
                    cli.emit_report(doc, config.fmt, config.output, config.command)
            except AuditError as exc:
                code = exc.exit_code
            codes.append(code)
    return codes, time.perf_counter() - start


def layer_metrics(recorder: SpanRecorder, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the traced iteration whose spans are first..last-1."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    self_s = 0.0
    for index in range(first, last):
        span = recorder.spans[index]
        seconds[span.name] += span.duration
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[span.name, key] += value
        if span.name in ("cli.run_command", "cli.emit_report"):
            self_s += recorder.self_time(index)
    run_plan_s = sum(value for name, value in seconds.items() if name.startswith(CHECK_SPAN))
    verification_s = seconds["montecarlo.run_verification"]
    jobs = counts["montecarlo.run_verification", "jobs"]
    battery_s, tests = seconds["bias_tests.cross_group_battery"], counts[
        "bias_tests.cross_group_battery", "tests"]
    households_s = seconds["dataio.load_households"]
    values = {
        "dataio.load_households.rows_per_s": (
            counts["dataio.load_households", "rows"] / households_s if households_s else 0.0),
        "dataio.bytes_read": sum(counts[name, "bytes"] for name in LOADERS),
        "dataio.write_households.rows": counts["dataio.write_households", "rows"],
        "survey.households_used": counts["survey.estimate_weights", "households"],
        "bias_tests.tests": tests,
        "bias_tests.us_per_test": 1e6 * battery_s / tests if tests else 0.0,
        "report.bytes": counts["report.emit_machine", "bytes"],
        "report.rows": counts["report.emit_machine", "rows"],
        "montecarlo.run_plan.s": run_plan_s,
        "montecarlo.replicates": sum(value for (name, key), value in counts.items()
                                     if name.startswith(CHECK_SPAN) and key == "replicates"),
        "montecarlo.parallel_efficiency": (
            run_plan_s / (jobs * verification_s) if verification_s else 0.0),
        "cli.self_s": self_s,
    }
    for name in PER_LAYER:
        if name in values or name == "trace.overhead_s":
            continue
        span_name, stat = name.rsplit(".", 1)
        values[name] = seconds[span_name] if stat == "s" else calls[span_name]
    return values


def run(prepared: Prepared, seconds: float, min_iterations: int, src: Path,
        trace_path: Path):
    """Alternate untraced and traced in-process iterations for ``seconds``
    (at least ``min_iterations`` of each); returns the checked outcome and
    the per-layer metrics."""
    sys.path.insert(0, str(src))
    configs = parse_configs(prepared)
    recorder = SpanRecorder()
    outcome = Outcome()
    # untimed warm-up: lazy imports and first file creation are paid once
    codes, _ = run_iteration(configs, None)
    outcome.record(prepared, codes, [read_report(c.output) for c in configs])
    plain_walls, traced_walls, per_iteration, accounted = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced_walls) < min_iterations:
        # alternate which side runs first, so neither always follows the other
        order = (False, True) if len(traced_walls) % 2 == 0 else (True, False)
        for traced in order:
            gc.collect()
            if traced:
                first = len(recorder.spans)
                with instrumented(recorder, prepared.file_rows):
                    codes, wall = run_iteration(configs, recorder)
                traced_walls.append(wall)
                metrics = layer_metrics(recorder, first, len(recorder.spans))
                per_iteration.append(metrics)
                accounted.append(_accounted_share(recorder, first, metrics["cli.self_s"]))
            else:
                codes, wall = run_iteration(configs, None)
                plain_walls.append(wall)
            outcome.record(prepared, codes, [read_report(c.output) for c in configs])
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(trace_path)

    values = {name: statistics.median(m[name] for m in per_iteration)
              for name in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(plain_walls))
    print(f"{len(traced_walls)} traced and {len(plain_walls)} untraced in-process "
          f"iterations; median walls {statistics.median(traced_walls):.4f} s traced, "
          f"{statistics.median(plain_walls):.4f} s untraced")
    print(f"layer spans + cli.self_s account for {100 * min(accounted):.2f}%.."
          f"{100 * max(accounted):.2f}% of the traced in-process wall")
    print("dataio.bytes_read is computed: input file size times load calls")
    print(f"spans written to {trace_path}")
    return outcome, {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def _accounted_share(recorder: SpanRecorder, first: int, self_s: float) -> float:
    """Share of a traced iteration's wall (span ``first``) covered by the layer
    spans directly under run_command and emit_report plus cli.self_s."""
    layers = sum(child.duration for index in range(first, len(recorder.spans))
                 if recorder.spans[index].name in ("cli.run_command", "cli.emit_report")
                 for child in recorder.children(index))
    return (layers + self_s) / recorder.spans[first].duration
