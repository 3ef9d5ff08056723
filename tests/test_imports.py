"""What importing the package and its CLI loads, what the package source
imports or defines that nothing uses, and which of its names the benchmark
wraps."""

import ast
import importlib
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


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, as a name, an attribute or a from-import."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
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
