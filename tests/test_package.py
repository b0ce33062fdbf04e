"""The package as a whole: what importing it loads, its modules' imports, and
the options its functions take."""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpcover
from dpcover import analysis, search

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_module_runs_without_warnings():
    result = run_python("-W", "error", "-m", "dpcover.cli", "construct", "k43")
    assert result.returncode == 0
    assert result.stderr == ""
    assert '"source": "gadget:k43-cover"' in result.stdout


def test_importing_the_package_leaves_the_cli_unloaded_until_used():
    code = "\n".join([
        "import sys, dpcover",
        "assert 'dpcover.cli' not in sys.modules",
        "from dpcover import parse",
        "import dpcover.cli",
        "assert parse is dpcover.cli.parse and dpcover.cli is sys.modules['dpcover.cli']",
        "names = {}",
        "exec('from dpcover import *', names)",
        "assert names['cli_main'] is dpcover.cli.cli_main",
        "assert set(dpcover.__all__) <= set(names)",
    ])
    result = run_python("-W", "error", "-c", code)
    assert result.returncode == 0, result.stderr


def test_unknown_package_attribute_is_named():
    with pytest.raises(AttributeError, match="^module 'dpcover' has no attribute 'nope'$"):
        dpcover.nope


def unread_imports(path):
    """Names a module imports (other than from __future__) that it never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_option_that_selects_nothing():
    """The chunk size, the canonical-key limit and `workers` are fixed, apart
    from the `workers` the benchmark passes to find_coloring and
    search_min_unary, which has no effect."""
    removed = {
        analysis.find_coloring: "chunk_size",
        analysis.avoiding_codes: "chunk_size",
        analysis.MultiplicityTable: "chunk_size",
        search.canonical_key: "limit",
        search.verify_bracket: "workers",
        analysis.parity_identity: "ambient",
    }
    for function, name in removed.items():
        assert name not in inspect.signature(function).parameters, function
    for function in (analysis.find_coloring, search.search_min_unary):
        assert "workers" in inspect.signature(function).parameters


def test_every_import_is_used():
    modules = sorted(p for p in (SRC / "dpcover").glob("*.py") if p.name != "__init__.py")
    assert modules
    assert {p.name: unread_imports(p) for p in modules} == {p.name: [] for p in modules}
