"""Benchmark of the indexaudit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src`` directory, never from an installed copy.

With ``--trace 0`` the benchmark generates the workload's inputs from the
seed, then runs the workload as a closed loop with one client: one fresh
``python -m indexaudit`` process at a time, each reaped with ``os.wait4`` so
its own wall time, CPU time and peak RSS are read. Iterations repeat until
``--seconds`` have passed; each is preceded by one start-up probe
(``--version``). It prints the end-to-end metrics: medians over iterations.

With ``--trace 1`` it runs the same invocations in this process instead,
alternating untraced and traced iterations, and prints the per-layer
metrics (see ``traced.py``).

Every output is checked (see ``workloads.py``). The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without the package sources the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per process, set before numpy loads: the load model threads
# only `verify --jobs`, and idle BLAS threads spinning on a 2-core host make
# wall times noisy. Children inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from workloads import Outcome, Prepared, read_report  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# An iteration always runs at least this often, however short --seconds is.
MIN_ITERATIONS = 3
MIN_SETUP_PROBES = 5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("INDEXAUDIT_OUTPUT_DIR", None)
    return env


def spawn(argv: tuple[str, ...], env: dict[str, str]) -> tuple[int, float, float, float]:
    """Run ``python -m indexaudit ARGV``; returns exit code, wall seconds from
    spawn to exit, the child's user+sys CPU seconds and its peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "indexaudit", *argv], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4)


def run_untraced(prepared: Prepared, seconds: float) -> tuple[Outcome, dict]:
    env = child_env()
    spawn(("--version",), env)  # first start compiles bytecode; users pay it once
    outcome = Outcome()
    walls, cpus, rsss, setups = [], [], [], []
    # each invocation's own peaks: peak_rss_mb is their maximum, so a smaller
    # command's memory is only visible here
    own_rss: list[list[float]] = [[] for _ in prepared.invocations]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_ITERATIONS:
        setups.append(spawn(("--version",), env)[1])
        codes, wall, cpu, rss = [], 0.0, 0.0, 0.0
        for invocation, own in zip(prepared.invocations, own_rss):
            invocation.output.unlink(missing_ok=True)
            code, one_wall, one_cpu, one_rss = spawn(invocation.argv, env)
            codes.append(code)
            own.append(one_rss)
            wall, cpu, rss = wall + one_wall, cpu + one_cpu, max(rss, one_rss)
        outcome.record(prepared, codes, [read_report(i.output) for i in prepared.invocations])
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(spawn(("--version",), env)[1])

    q1, wall_s, q3 = quartiles(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "work_per_s": (outcome.work_units / wall_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"wall_s quartiles {q1:.4f} / {wall_s:.4f} / {q3:.4f} s over "
          f"{len(walls)} iterations of {len(prepared.invocations)} invocation(s)")
    print(f"work per iteration: {outcome.work_units} {prepared.work_label}")
    print("median peak RSS per invocation: " + ", ".join(
        f"{invocation.argv[0]} {statistics.median(own):.1f} MB"
        for invocation, own in zip(prepared.invocations, own_rss)))
    print(f"setup_s over {len(setups)} start-up probes, "
          f"quartiles {' / '.join(f'{v:.4f}' for v in quartiles(setups))} s")
    return outcome, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: kill and reap the running child, remove the inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "indexaudit" / "__main__.py").is_file():
        print(f"perfbench: no indexaudit package under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        prepared = workloads.prepare(args.workload, workdir, args.seed, args.size)
        sizes = {part: workloads.SIZES[part][args.size]
                 for part in workloads.WORKLOADS[args.workload]}
        print(f"workload {args.workload} seed {args.seed} sizes {sizes} on "
              f"{os.cpu_count()} cores; inputs generated in "
              f"{time.perf_counter() - start:.3f} s (not a metric)")
        if args.trace:
            import traced

            outcome, metrics = traced.run(prepared, args.seconds, MIN_ITERATIONS, SRC,
                                          WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            outcome, metrics = run_untraced(prepared, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in outcome.problems[:20]:
        print(f"output check failed: {problem}")
    # failed_ratio is failed / attempted of the result line, not a metric there:
    # it is 0 on a healthy run, and metrics must never read 0
    print(f"failed_ratio = {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} invocations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
