"""What importing the package and its CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import indexaudit

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_cli_import_leaves_the_monte_carlo_suite_and_hashlib_unloaded():
    # only verify runs the Monte Carlo suite and its process pool, and only
    # simulate hashes its output
    code = ("import indexaudit.cli, sys; print(' '.join(sorted(m for m in "
            "('indexaudit.montecarlo', 'concurrent.futures', "
            "'concurrent.futures.process', 'multiprocessing', 'hashlib') "
            "if m in sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_every_export_resolves():
    assert indexaudit.__all__ == sorted(indexaudit.__all__)
    for name in indexaudit.__all__:
        assert getattr(indexaudit, name) is not None, name
    assert set(indexaudit.__all__) <= set(dir(indexaudit))
    assert indexaudit.load_prices is indexaudit.dataio.load_prices
    assert indexaudit.run_verification is indexaudit.montecarlo.run_verification
    namespace: dict = {}
    exec("from indexaudit import *", namespace)
    assert set(indexaudit.__all__) <= set(namespace)
