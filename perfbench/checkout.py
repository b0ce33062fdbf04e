"""Where the benchmark runs: the checkout root, its sources and its scratch space.

The benchmark always measures the dpcover sources of the checkout it sits
in (`<root>/src`), never an installed copy, and writes only under
`<root>/.perfbench_run`.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"


def load_dpcover() -> dict:
    """Import dpcover from the checkout and return its modules by name.

    Raises ImportError when the checkout holds no dpcover sources, or when
    the import resolves to a copy outside the checkout.
    """
    if not (SRC / "dpcover" / "__init__.py").is_file():
        raise ImportError(f"no dpcover sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("dpcover")
    if Path(package.__file__).resolve().parent != SRC / "dpcover":
        raise ImportError(f"dpcover resolved to {package.__file__}, not to {SRC}")
    names = ("analysis", "cli", "constructions", "core", "search")
    return {name: importlib.import_module(f"dpcover.{name}") for name in names}


def warm_up(modules: dict) -> None:
    """One small call through the numpy kernel, so lazy set-up is done."""
    analysis, constructions = modules["analysis"], modules["constructions"]
    analysis.find_coloring(constructions.k43_cover().family)
