"""Mutation checks: each mutant must fail the tests it names.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py             # every mutant in the table
    python tests/mutants.py 0 4         # the mutants at those positions
    python tests/mutants.py -k "level"  # the mutants whose ``what`` contains it

Each row of ``MUTANTS`` names a module of ``src/indexaudit/``, an exact
snippet of its source, the snippet's replacement and the test files (or
single tests) that must fail. For each mutant the script copies ``src/``
to a temporary directory, applies that one replacement there and runs
only those tests against the copy. A mutant is killed when pytest reports a failed
test. The script exits 1 if a mutant not marked equivalent survives, if
its tests cannot even be collected, or if a snippet is not found exactly
once (the table no longer matches the source). An equivalent mutant
changes the code but no behaviour a test can observe; it is run and
reported, and may survive.

pytest does not collect this file and tier-1 does not run it: each mutant
costs a run of its test files, from one to some thirty seconds. It uses the
standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    module: str  # file name in src/indexaudit/
    what: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # paths from the repository root, or test ids in them
    equivalent: bool = False


MUTANTS = [
    Mutant("dataio.py", "a ragged csv row is raised at once, before a later read error",
           'ragged = ValidationError(f"{path}:{line_no}: expected "',
           'raise ValidationError(f"{path}:{line_no}: expected "',
           ("tests/test_micro_loader.py",)),
    Mutant("dataio.py", "_read_range no longer reads the rest of the chunks",
           "    for _ in chunks:\n        pass\n",
           "",
           ("tests/test_micro_loader.py", "tests/test_price_loader.py")),
    Mutant("dataio.py", "the csv continuation numbers its rows from one line late",
           "line_no = start + read\n",
           "line_no = start + read + 1\n",
           ("tests/test_micro_loader.py", "tests/test_price_loader.py")),
    Mutant("dataio.py", "the csv module reads on from one line after the start of "
                        "the chunk it is handed",
           "io.TextIOWrapper(io.BytesIO(data),",
           'io.TextIOWrapper(io.BytesIO(data.split(b"\\n", 1)[-1]),',
           ("tests/test_micro_loader.py",)),
    Mutant("dataio.py", "the direct split reads bytes that are not UTF-8 as "
                        "replacement characters",
           ''' or "\\ufffd" in text:''',
           ":",
           ("tests/test_micro_loader.py", "tests/test_price_loader.py")),
    Mutant("dataio.py", "the csv continuation keeps blank rows",
           'if "".join(row).strip():',
           "if True:",
           ("tests/test_micro_loader.py", "tests/test_price_loader.py")),
    Mutant("dataio.py", "a range the direct split stops in names the offset after the "
                        "chunk it could not read, not the chunk's own",
           "handle.tell() - len(data) if data else None",
           "handle.tell() if data else None",
           ("tests/test_micro_loader.py",)),
    Mutant("dataio.py", "write_households appends the ranges in reverse",
           "        for spool in spools:\n",
           "        for spool in reversed(spools):\n",
           ("tests/test_dataio.py",)),
    Mutant("dataio.py", "_fork_parts reaps its children outside the finally",
           "    finally:\n"
           "        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]\n",
           "    finally:\n"
           "        pass\n"
           "    statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]\n",
           ("tests/test_dataio.py",)),
    Mutant("montecarlo.py", "_blocks no longer folds a 1-row tail into the block before it",
           "if total - stop <= 1:",
           "if total - stop <= 0:",
           ("tests/test_montecarlo_kernels.py",)),
    # no child flushes the buffer it inherits: each writes to its own spool
    # and leaves through os._exit, which flushes nothing
    Mutant("dataio.py", "write_households forks before it flushes the header",
           "        # a child inherits unwritten buffers, so none may be left\n"
           "        handle.flush()\n",
           "",
           ("tests/test_dataio.py",), equivalent=True),
    Mutant("report.py", "a % in a key is not escaped in the row template",
           "f\"{inner}{name.replace('%', '%%')}: %s\"",
           "f\"{inner}{name}: %s\"",
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "a non-finite float is not spelled as a string",
           "return value if math.isfinite(value) else repr(value)",
           "return value",
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "dict keys are rendered in insertion order",
           "json.dumps(_json_safe(value), sort_keys=True,",
           "json.dumps(_json_safe(value), sort_keys=False,",
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "keys that are not str are not passed through str()",
           "{str(key): _json_safe(item) for key, item in value.items()}",
           "{key: _json_safe(item) for key, item in value.items()}",
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "an error is named in column order, not document order",
           "    except (TypeError, ValueError):\n",
           "    except ValueError:\n",
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "an unencodable string is named at its place in a block, not "
                        "in the whole text",
           '(_dump(payload, 0) + "\\n").encode("utf-8")',
           "_dump(payload, 0)",
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "the items of a tuple are not made JSON-safe",
           "if isinstance(value, (list, tuple, Columns, Rows)):",
           "if isinstance(value, (list, Columns, Rows)):",
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "the first of two keys equal after str() wins",
           "{str(key): _json_safe(item) for key, item in value.items()}",
           "{str(key): _json_safe(item) for key, item in reversed(value.items())}",
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "a block of result rows after the first has no leading comma",
           'separator = ",\\n    "',
           'separator = "\\n    "',
           ("tests/test_report_emitter.py",)),
    Mutant("report.py", "each block of result rows takes one row of the next",
           "part[start:start + _ROWS]",
           "part[start:start + _ROWS + 1]",
           ("tests/test_report_emitter.py",)),
    Mutant("dataio.py", "repeated micro cells are summed in reverse file order",
           "np.add.at(spend, cells, amounts)",
           "np.add.at(spend, cells[::-1], amounts[::-1])",
           ("tests/test_micro_loader.py",)),
    Mutant("bias_tests.py", "the Z effects are one matrix product",
           "effects = np.array([_dots(p_bar, itertools.repeat(estimate.point.w - proxy.w))\n"
           "                        for estimate in estimates for proxy in proxies])",
           "effects = np.array([estimate.point.w - proxy.w\n"
           "                     for estimate in estimates for proxy in proxies]) @ p_bar.T",
           ("tests/test_battery.py",)),
    Mutant("bias_tests.py", "a subset's level variance is repeated in subset order, not "
                            "across the proxies",
           "variance_code = survey * len(names) + subset",
           "variance_code = survey * len(names) + np.sort(subset)",
           ("tests/test_battery.py",)),
    Mutant("bias_tests.py", "the level tests name the last bad (survey, subset), not "
                            "the first",
           "i, k = np.argwhere(bad)[0]",
           "i, k = np.argwhere(bad)[-1]",
           ("tests/test_bias_tests.py",)),
    Mutant("bias_tests.py", "a level variance is checked for degeneracy before overflow",
           "if not math.isfinite(variance):\n"
           "            raise ValidationError(f\"index-level variance overflows",
           "if not variance < 1e-20 * peak * peak:\n"
           "            raise ValidationError(f\"index-level variance overflows",
           ("tests/test_bias_tests.py",)),
    Mutant("bias_tests.py", "z_test describes its periods as \"all\"",
           '"periods": _describe_periods(prices, periods)})',
           '"periods": "all"})',
           ("tests/test_battery.py",)),
    Mutant("montecarlo.py", "a plan keeps a parameter its scenario never reads",
           "        if unread:\n",
           "        if False:\n",
           ("tests/test_montecarlo.py",)),
    Mutant("gaussian.py", "pdf takes numpy's exp",
           "    value = _exp(-0.5 * x * x)\n",
           "    value = np.exp(-0.5 * x * x)\n",
           ("tests/test_imports.py",)),
    Mutant("coverage.py", "the coverage pass takes numpy's ** for tau^6",
           "tau6 = tau2 * tau2 * tau2",
           "tau6 = tau2 ** 3",
           ("tests/test_imports.py",)),
    Mutant("gaussian.py", "erfc's middle range reaches on to |x| = 1.3",
           "(0.84375, 1.25, _ERFC_TAIL, 28.0)",
           "(0.84375, 1.3, _ERFC_TAIL, 28.0)",
           ("tests/test_gaussian.py",)),
    Mutant("gaussian.py", "exp drops the low part of ln2 / 128 from its reduction",
           "    r += k * _NEG_LN2_LO_N\n",
           "",
           ("tests/test_gaussian.py",)),
    Mutant("montecarlo.py", "a coverage replicate's one draw leaves sigma^2 out of its "
                            "variance",
           "spread = math.sqrt(scheme.sigma * scheme.sigma + extra_variance)",
           "spread = math.sqrt(extra_variance)",
           ("tests/test_montecarlo.py",)),
    Mutant("montecarlo.py", "a rate's standard error comes from the observed rate",
           "stderr = math.sqrt(target * (1.0 - target) / replicates)",
           "stderr = math.sqrt(rate * (1.0 - rate) / replicates)",
           ("tests/test_montecarlo.py",)),
    Mutant("report.py", "a Coded column's negative code keeps the key",
           "present[k] = codes >= 0",
           "present[k] = codes >= -1",
           ("tests/test_report_emitter.py",)),
    # the C encoder prints a finite np.float64 as the float it is, and a
    # non-finite one still raises and falls back to the slow path
    Mutant("report.py", "finite np.float64 scalars take the fast path",
           "set(map(type, values)) <= _SCALARS:",
           "set(map(type, values)) <= _SCALARS | {np.float64}:",
           ("tests/test_report_emitter.py",), equivalent=True),
    Mutant("dataio.py", "a writer keeps a regular file it could not finish",
           "            target.unlink(missing_ok=True)\n",
           "            pass\n",
           ("tests/test_dataio.py",)),
    Mutant("coverage.py", "an alpha whose (1 + alpha) / 2 rounds to 0.5 passes",
           "if not 0.5 < level < 1.0:",
           "if not 0.5 <= level < 1.0:",
           ("tests/test_coverage.py",)),
    Mutant("dataio.py", "on one line, an unknown group comes after a non-number",
           '(row, 0, f"unknown group',
           '(row, 2, f"unknown group',
           ("tests/test_micro_loader.py",)),
    Mutant("dataio.py", "a household's first stratum in a chunk is its last row's",
           "first_rows = new_rows[np.unique(household[new_rows], return_index=True)[1]]",
           "first_rows = new_rows[::-1][np.unique(household[new_rows][::-1], "
           "return_index=True)[1]]",
           ("tests/test_micro_loader.py",)),
    Mutant("dataio.py", "the direct split drops a row with any empty cell as blank",
           "if any(row)]",
           "if all(row)]",
           ("tests/test_micro_loader.py",)),
    Mutant("dataio.py", "the direct split does not strip its cells",
           "cells = list(map(str.strip, cells))",
           "cells = list(cells)",
           ("tests/test_micro_loader.py",)),
    Mutant("dataio.py", "the loader joins the ranges after the first in reverse",
           "map(pickle.load, spools))",
           "map(pickle.load, spools[::-1]))",
           ("tests/test_micro_loader.py",)),
    Mutant("dataio.py", "a household's first stratum is taken from a later range",
           "first_strata = np.concatenate([first_strata, stratum[household >= seen]])\n",
           "first_strata = np.concatenate([first_strata, stratum[household >= seen]])\n"
           "            first_strata[household] = stratum\n",
           ("tests/test_micro_loader.py",)),
    Mutant("__main__.py", "the entry point does not freeze what the CLI imports",
           "        gc.freeze()\n",
           "        pass\n",
           ("tests/test_cli.py::test_the_entry_point_freezes_what_the_cli_imports_and_"
            "leaves_the_collector_on",)),
    Mutant("__main__.py", "the entry point leaves the collector disabled",
           "        gc.enable()\n",
           "        pass\n",
           ("tests/test_cli.py::test_the_entry_point_freezes_what_the_cli_imports_and_"
            "leaves_the_collector_on",)),
    Mutant("cli.py", "a value the data alone puts out of range is blamed on "
                     "--var-of-variance",
           "        estimate_unbiased_coverage(variance, 0.0, scheme)\n",
           "",
           ("tests/test_cli.py",)),
    Mutant("coverage.py", "a constant's coverage takes the signed bias, which cancels "
                          "two CDFs near 1 when it is positive",
           "coverage_kernel(-abs(theta_star - theta_true), 0.0, scheme)",
           "coverage_kernel(theta_star - theta_true, 0.0, scheme)",
           ("tests/test_coverage.py",)),
    Mutant("coverage.py", "the break-even variance adds sigma^2 instead of taking it away",
           "(s - scheme.sigma) * (s + scheme.sigma)",
           "s * s + scheme.sigma * scheme.sigma",
           ("tests/test_coverage.py",)),
    Mutant("coverage.py", "the break-even boundary drops its 1e-14 tolerance",
           "if coverage >= scheme.alpha - 1e-14:",
           "if coverage >= scheme.alpha:",
           ("tests/test_coverage.py",)),
    Mutant("coverage.py", "the CI takes montecarlo's rejection cutoff, one ulp above "
                          "quantile(0.975), as its 97.5% point",
           "_KAPPA_975 = 1.9599639845400538",
           "_KAPPA_975 = 1.959963984540054",
           ("tests/test_coverage.py",)),
    Mutant("montecarlo.py", "a coverage check holds a whole 1,000,000-row chunk",
           "buffer = np.empty(min(plan.replicates, _BLOCK + 1))",
           "buffer = np.empty(min(plan.replicates, 1_000_000))",
           ("tests/test_montecarlo_kernels.py::test_check_peak_stays_within_its_buffers",)),
]


def outcome(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'survived', 'stale' (the snippet is not there exactly once)
    or 'broken' (the tests did not run)."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "indexaudit" / mutant.module
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        return "stale"
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    # the working directory is the scratch one, so that hypothesis writes its
    # files there
    code = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(str(ROOT / test) for test in mutant.tests)],
        cwd=scratch, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    # pytest exits 1 when a test failed, 0 when all passed, other codes when
    # it could not run them
    return {0: "survived", 1: "killed"}.get(code, "broken")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation checks.")
    parser.add_argument("positions", nargs="*", type=int, help="rows to run, by position")
    parser.add_argument("-k", dest="text", help="run the rows whose what contains TEXT")
    args = parser.parse_args(argv)
    matched = [position for position, mutant in enumerate(MUTANTS)
               if args.text is not None and args.text in mutant.what]
    if args.text is not None and not matched:
        parser.error(f"no mutant's what contains {args.text!r}")
    chosen = list(dict.fromkeys(args.positions + matched)) or range(len(MUTANTS))
    failures = 0
    for position in chosen:
        mutant = MUTANTS[position]
        with tempfile.TemporaryDirectory() as scratch:
            result = outcome(mutant, Path(scratch))
        failures += result not in (("killed", "survived") if mutant.equivalent
                                   else ("killed",))
        label = "equivalent, " + result if mutant.equivalent else result
        print(f"{position:2d} {label:<20} {mutant.module}: {mutant.what} "
              f"[{', '.join(mutant.tests)}]", flush=True)
    print(f"{failures} of {len(chosen)} mutants not as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
