"""``tools/check_static.py``'s import-reachability walk."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _check_static():
    spec = importlib.util.spec_from_file_location(
        "check_static", ROOT / "tools" / "check_static.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_walk_flags_the_module_only_tests_import(tmp_path) -> None:
    _tree(tmp_path, {
        "src/repro/__init__.py": '_LAZY = {"thing": ".lazy"}\n',
        "src/repro/__main__.py": "from .cli import main\n",
        "src/repro/cli.py": "def main():\n    from .core import used\n",
        "src/repro/core/__init__.py": "",
        "src/repro/core/used.py": "from .helper import f\n",
        "src/repro/core/helper.py": "def f():\n    pass\n",
        "src/repro/core/by_script.py": "",
        "src/repro/lazy.py": "",
        "src/repro/experiments/__init__.py": "from ..core import used\n",
        "src/repro/orphan.py": "",
        "examples/demo.py": "import repro.core.by_script\n",
        "tests/test_orphan.py": "import repro.orphan\n",
    })
    assert _check_static().unreached_modules(tmp_path) == ["repro.orphan"]


def test_every_repro_module_is_reached() -> None:
    assert _check_static().unreached_modules(ROOT) == []
