"""What importing the package and its CLI loads, what the package source
imports or defines that nothing uses, and which of its names the benchmark
wraps."""

import ast
import importlib
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import indexaudit

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "indexaudit"


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


def test_a_report_leaves_numpy_ma_unloaded(tmp_path):
    # np.quantile would load it through np.unique, in every report process
    fixtures = Path(__file__).resolve().parent / "fixtures"
    argv = ["report", "--prices", str(fixtures / "prices.csv"),
            "--weights", str(fixtures / "weights.csv"), "--proxy", "age_lt26",
            "--survey-micro", str(fixtures / "ces_micro.csv"),
            "--output", str(tmp_path / "report.json")]
    code = ("import sys; from indexaudit.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["results"]


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


def test_the_package_lists_its_public_names_once():
    # indexaudit._EXPORTS is the one list; a submodule's own __all__ would
    # repeat its entry and drift from it
    second = sorted(module for module in indexaudit._EXPORTS
                    if any(isinstance(node, ast.Name) and node.id == "__all__"
                           for node in ast.walk(ast.parse(
                               (PACKAGE / f"{module}.py").read_text(encoding="utf-8")))))
    assert not second, f"modules that define __all__ beside _EXPORTS: {second}"


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, as a name, an attribute or a from-import,
    except inside a function or class of that name."""
    names: set[str] = set()
    nodes = [(tree, frozenset())]
    while nodes:
        node, owners = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners |= {node.name}
        nodes.extend((child, owners) for child in ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read = {node.id}
        elif isinstance(node, ast.Attribute):
            read = {node.attr}
        elif isinstance(node, ast.ImportFrom):
            read = {alias.name for alias in node.names}
        else:
            continue
        names |= read - owners
    return names


def _unused_names(tree: ast.Module, package_names: set[str]) -> list[str]:
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"line {node.lineno}: import {name}")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [name.id for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name)]
        else:
            continue
        unused += [f"line {node.lineno}: private {name}" for name in defined
                   if name.startswith("_") and not name.startswith("__")
                   and name not in package_names]
    return unused


def test_no_unused_import_or_private_name_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    package_names = set().union(*map(_loaded_names, trees.values()))
    unused = {module: _unused_names(tree, package_names)
              for module, tree in trees.items() if module != "__init__.py"}
    assert {module: names for module, names in unused.items() if names} == {}


# public names that no package code reads: the library API, each documented
# or pinned where its comment says
LIBRARY = (
    "break_even_variance",  # README "Evaluation coverage"; tests/test_coverage.py
    "mean_source_effect",  # README "Source effects" (averaged); tests/test_core.py
    "relative_weight_diff",  # README "Source effects"; tests/test_identities.py
    "source_effect",  # README "Source effects"; tests/test_identities.py
    "weighted_covariance",  # README "Source effects"; tests/test_identities.py
    "write_prices",  # acceptance criterion 10; tests/build_fixtures.py
    "write_weight_estimate",  # acceptance criterion 10; tests/build_fixtures.py
    "write_weights",  # acceptance criterion 10; tests/build_fixtures.py
    "z_test",  # README "Library"
)


def test_every_public_name_is_read_by_the_package_or_is_library_api():
    # an export that only its own unit test reads is dead code to delete
    read = set().union(*(_loaded_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in PACKAGE.glob("*.py")))
    assert set(LIBRARY) <= set(indexaudit.__all__)
    unread = sorted(set(indexaudit.__all__) - read - set(indexaudit._EXPORTS) - set(LIBRARY))
    assert not unread, f"public names that no package code reads: {unread}"


def _cli_reads(tree: symtable.SymbolTable, name: str, owner: str = "") -> list[tuple[str, bool]]:
    """(scope, whether as a global) for every function scope of ``tree`` that
    reads ``name``, skipping the body of a function that is itself ``name``."""
    reads = []
    for child in tree.get_children():
        if child.get_name() == name:
            continue
        scope = f"{owner}{child.get_name()}"
        if name in child.get_identifiers():
            symbol = child.lookup(name)
            if symbol.is_referenced():
                reads.append((scope, symbol.is_global()))
        reads += _cli_reads(child, name, scope + ".")
    return reads


def test_every_name_the_benchmark_wraps_is_read_where_it_is_wrapped(monkeypatch):
    # perfbench/traced.py replaces these module attributes with timed
    # wrappers; a renamed attribute breaks the benchmark, and a name that cli
    # imports locally bypasses the wrapper and reads 0
    monkeypatch.syspath_prepend(str(Path(SRC).parent / "perfbench"))
    traced = importlib.import_module("traced")
    table = [(module, attribute) for module, attribute, *_ in traced._instrumentation({})]
    assert table
    cli_table = symtable.symtable((PACKAGE / "cli.py").read_text(encoding="utf-8"),
                                  "cli.py", "exec")
    for module, attribute in table:
        assert hasattr(importlib.import_module(f"indexaudit.{module}"), attribute), \
            (module, attribute)
        if module == "cli":
            reads = _cli_reads(cli_table, attribute)
            assert reads, attribute
            assert all(as_global for _, as_global in reads), (attribute, reads)


def _is_call(node: ast.AST, module: str, function: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == function and isinstance(node.func.value, ast.Name)
            and node.func.value.id == module)


def _unsafe_forks(tree: ast.AST) -> list[int]:
    """The line of every ``os.fork()`` whose child could return into the
    caller's code: each must be assigned to a name, followed in the same block
    by ``if <name> == 0:``, and that branch must end in a ``try`` whose
    ``finally`` ends in ``os._exit(...)``, with only constant assignments
    before it."""
    forks = {node.lineno for node in ast.walk(tree) if _is_call(node, "os", "fork")}
    safe = set()
    for node in ast.walk(tree):
        for _, block in ast.iter_fields(node):
            if not isinstance(block, list):
                continue
            for i, statement in enumerate(block):
                if not (isinstance(statement, ast.Assign) and len(statement.targets) == 1
                        and isinstance(statement.targets[0], ast.Name)
                        and _is_call(statement.value, "os", "fork")):
                    continue
                pid = statement.targets[0].id
                child = next((s.body for s in block[i + 1:] if isinstance(s, ast.If)
                              and ast.dump(s.test) == ast.dump(ast.parse(
                                  f"{pid} == 0", mode="eval").body)), None)
                if child is None:
                    continue
                *before, last = child
                if (isinstance(last, ast.Try) and last.finalbody
                        and isinstance(last.finalbody[-1], ast.Expr)
                        and _is_call(last.finalbody[-1].value, "os", "_exit")
                        and all(isinstance(s, ast.Assign) and isinstance(s.value, ast.Constant)
                                for s in before)):
                    safe.add(statement.lineno)
    return sorted(forks - safe)


FORKS = """
import os

def leaves(work):
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            work()
            status = 0
        finally:
            os._exit(status)
    return pid

def returns(work):
    pid = os.fork()
    if pid == 0:
        work()
        os._exit(0)
    return pid

def exits_too_late(work):
    pid = os.fork()
    if pid == 0:
        try:
            work()
        finally:
            pass
        os._exit(0)

def never_checked():
    return os.fork()
"""


def test_every_forked_child_leaves_through_os_exit_in_a_finally():
    # a child that returns into the caller's code would run on in the
    # caller's program (a test runner, or the benchmark harness)
    examples = {function.name: bool(_unsafe_forks(function))
                for function in ast.parse(FORKS).body if isinstance(function, ast.FunctionDef)}
    assert examples == {"leaves": False, "returns": True, "exits_too_late": True,
                        "never_checked": True}
    unsafe = {path.name: _unsafe_forks(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: lines for module, lines in unsafe.items() if lines} == {}
