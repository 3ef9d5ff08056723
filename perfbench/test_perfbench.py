"""Self-test of the benchmark, at tiny input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import workloads
from spans import SpanRecorder
from workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_listed_metric_is_reported(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_every_per_layer_metric_is_measured_on_some_workload(capsys):
    # a name in BENCHMARK.json that no span or count produces would read 0
    # everywhere instead of failing
    unmeasured = {m["name"] for m in BENCHMARK["per_layer"]}
    for workload in workloads.WORKLOADS:
        metrics = _result(capsys, workload, 1)["metrics"]
        unmeasured -= {name for name, metric in metrics.items() if metric["value"] != 0}
    assert not unmeasured


def test_benchmark_file_lists_the_workloads_and_bounds():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))


def _tiny(part: str, tmp_path: Path):
    return workloads.PARTS[part](tmp_path, 5, workloads.SIZES[part]["tiny"])


def test_a_corrupted_report_counts_as_failed(tmp_path):
    prepared = _tiny("micro_report", tmp_path)
    (invocation,) = prepared.invocations
    code = run.spawn(invocation.argv, run.child_env())[0]
    report = invocation.output.read_bytes()
    good = Outcome()
    good.record(prepared, [code], [report])
    assert (good.failed, good.problems) == (0, [])

    doc = json.loads(report)
    row = next(r for r in doc["results"] if r["type"] == "mse_estimate")
    row["theta_audit"] *= 1.0 + 1e-6
    wrong_number = json.dumps(doc).encode()
    for corrupted in (report[: len(report) // 2], wrong_number, b""):
        outcome = Outcome()
        outcome.record(prepared, [0], [corrupted])
        assert outcome.failed == 1 and outcome.problems, corrupted[:40]
    assert "theta_audit" in " ".join(_problems(prepared, wrong_number))

    # a repeat whose bytes differ from the first iteration's fails as well
    good.record(prepared, [0], [wrong_number])
    assert good.failed == 1
    assert good.problems == ["a repeated invocation gave different report bytes"]


def test_a_workload_checks_each_part_on_its_own_reports(tmp_path):
    prepared = workloads.prepare("micro_read_write", tmp_path, 5, "tiny")
    env = run.child_env()
    codes = [run.spawn(invocation.argv, env)[0] for invocation in prepared.invocations]
    reports = [invocation.output.read_bytes() for invocation in prepared.invocations]
    good = Outcome()
    good.record(prepared, codes, reports)
    assert (codes, good.failed, good.problems) == ([0, 0], 0, [])

    doc = json.loads(reports[1])
    next(r for r in doc["results"] if r["type"] == "file_output")["rows"] += 1
    outcome = Outcome()
    outcome.record(prepared, codes, [reports[0], json.dumps(doc).encode()])
    assert outcome.failed == 2
    assert any("rows" in problem for problem in outcome.problems)


def _problems(prepared, report: bytes) -> list[str]:
    outcome = Outcome()
    outcome.record(prepared, [0], [report])
    return outcome.problems


def _verify_report(passed: list[bool]) -> bytes:
    rows = [{"type": "verification_check", "passed": ok, "outcomes": []} for ok in passed]
    return json.dumps({"command": "verify", "config": {}, "meta": {},
                       "warnings": [], "results": rows}).encode()


def test_a_tripped_gate_is_a_failed_operation_not_a_wrong_output(tmp_path):
    prepared = _tiny("verify_suite", tmp_path)
    tripped = _verify_report([True] * 13 + [False])
    outcome = Outcome()
    outcome.record(prepared, [workloads.VERIFICATION_EXIT], [tripped])
    assert (outcome.failed, outcome.problems) == (1, [])

    for code, report in ((0, tripped), (workloads.VERIFICATION_EXIT, _verify_report([True] * 14))):
        outcome = Outcome()
        outcome.record(prepared, [code], [report])
        assert outcome.failed == 1 and outcome.problems


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "micro_read_write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_span_recorder_keeps_every_span_and_parent_across_threads():
    recorder = SpanRecorder()
    workers, per_worker = 8, 300

    def work(_):
        for _ in range(per_worker):
            with recorder.span("outer") as outer:
                with recorder.span("inner"):
                    pass
            assert outer.end >= outer.start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with recorder.span("pool"):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(work, range(workers), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    spans = recorder.spans
    assert len(spans) == 1 + 2 * workers * per_worker
    for index, span in enumerate(spans):
        if span.name == "outer":
            assert span.parent == 0  # adopted by the span that started the pool
        elif span.name == "inner":
            parent = spans[span.parent]
            assert parent.name == "outer" and parent.thread == span.thread
            assert parent.start <= span.start <= span.end <= parent.end


def test_self_time_subtracts_the_union_of_overlapping_children():
    recorder = SpanRecorder()
    barrier = threading.Barrier(2, timeout=10)

    def child(_):
        with recorder.span("child"):
            barrier.wait()
            time.sleep(0.05)

    with recorder.span("parent"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(child, range(2), timeout=30))
    parent = recorder.spans[0]
    children = recorder.children(0)
    union = max(c.end for c in children) - min(c.start for c in children)
    assert recorder.self_time(0) == pytest.approx(parent.duration - union, abs=1e-9)
    assert recorder.self_time(0) < parent.duration - 0.04
