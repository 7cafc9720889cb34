#!/usr/bin/env python
"""Offline static self-check: the subset of the ruff gate that needs no
third-party tools.

CI's ``static`` job runs ruff and mypy (installed on the runner); this
script covers the highest-signal checks with the standard library only,
so a contributor without those tools still catches the common breakage
before pushing:

* files must parse (``ast.parse``);
* no unused imports (ruff F401);
* no duplicate imports of one name in one module (ruff F811, import form);
* no lines over the configured limit (ruff E501);
* in ``repro.core`` and ``repro.lint`` (the strictly-typed packages,
  see ``mypy.ini``): every function def annotates its parameters and
  return type;
* outside ``repro.obs``, no ``.counter(`` / ``.gauge(`` /
  ``.histogram(`` call names a metric of the run ledger's
  ``EVENT_METRICS`` table: those counters are updated only by
  ``runlog.record()``, from the events they count;
* every ``src/repro`` module is reached by an import walk from the user
  entry points (the CLI, ``python -m repro``, the experiment registry,
  the scripts under ``benchmarks/``, ``examples/`` and ``tools/``, and
  the lazy ``_LAZY`` export table): a module only tests import is dead
  code.

Exit status 1 when any finding is reported.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

LINE_LIMIT = 100
STRICT_PACKAGES = ("src/repro/core", "src/repro/lint")

#: Names whose import is a registration/re-export side effect, not a use.
USED_IMPLICITLY = {"annotations"}

#: The module holding ``EVENT_METRICS``, and the package allowed to
#: touch the metrics it owns.
EVENT_TABLE = "src/repro/obs/runlog.py"
OBS_PACKAGE = "src/repro/obs/"
METRIC_METHODS = {"counter", "gauge", "histogram"}

#: Where users enter the package: modules, and directories of scripts.
ENTRY_MODULES = ("repro.__main__", "repro.cli", "repro.experiments")
ENTRY_DIRS = ("benchmarks", "examples", "tools")


def table_metrics(root: Path) -> set[str]:
    """Metric names of the ``EVENT_METRICS`` rows (each row's 2nd arg)."""
    tree = ast.parse((root / EVENT_TABLE).read_text())
    for node in tree.body:
        target = (
            node.target if isinstance(node, ast.AnnAssign)
            else node.targets[0] if isinstance(node, ast.Assign)
            else None
        )
        if isinstance(target, ast.Name) and target.id == "EVENT_METRICS":
            return {
                row.args[1].value
                for row in ast.walk(node)
                if isinstance(row, ast.Call)
                and len(row.args) > 1
                and isinstance(row.args[1], ast.Constant)
            }
    return set()


def _imported_names(
    tree: ast.Module,
) -> list[tuple[str, str, int, bool]]:
    """``(bound, reported, lineno, top_level)`` per import binding.

    ``top_level`` distinguishes module-scope imports from the
    function-local lazy-import idiom (the latter legitimately rebinds
    one name in several functions).
    """
    top = {id(n) for n in tree.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out.append((bound, alias.name, node.lineno, id(node) in top))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                out.append((bound, alias.name, node.lineno, id(node) in top))
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations / docstrings referencing names keep them
            # alive (the TYPE_CHECKING idiom).
            text = node.value
            for ch in ".[]":
                text = text.replace(ch, " ")
            for word in text.split():
                used.add(word.strip("\"'`,:()| "))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id == "__all__":
                    try:
                        return set(ast.literal_eval(node.value))
                    except ValueError:
                        return set()
    return set()


def check_file(
    path: Path, strict_types: bool, owned: "set[str] | None" = None
) -> list[str]:
    src = path.read_text()
    problems: list[str] = []
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]

    for i, line in enumerate(src.splitlines(), 1):
        if len(line) > LINE_LIMIT:
            problems.append(
                f"{path}:{i}: line too long ({len(line)} > {LINE_LIMIT})"
            )

    lines = src.splitlines()

    def _noqa(lineno: int) -> bool:
        return "noqa" in lines[lineno - 1]

    used = _used_names(tree) | _exported(tree)
    is_package_init = path.name == "__init__.py"
    seen: dict[str, int] = {}
    for bound, reported, lineno, top_level in _imported_names(tree):
        if _noqa(lineno):
            continue
        if top_level:
            if bound in seen and seen[bound] != lineno:
                problems.append(
                    f"{path}:{lineno}: redefinition of imported {bound!r} "
                    f"(first at line {seen[bound]})"
                )
            seen[bound] = lineno
        if is_package_init or bound in USED_IMPLICITLY:
            continue  # __init__ re-exports; __future__ flags
        if bound not in used:
            problems.append(f"{path}:{lineno}: unused import {reported!r}")

    for node in ast.walk(tree):
        if (
            owned
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in METRIC_METHODS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in owned
        ):
            problems.append(
                f"{path}:{node.lineno}: {node.args[0].value!r} is an "
                f"EVENT_METRICS counter: record its event with "
                f"runlog.record() instead"
            )

    if strict_types:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
            missing = [
                a.arg
                for a in params
                if a.annotation is None and a.arg not in ("self", "cls")
            ]
            if missing:
                problems.append(
                    f"{path}:{node.lineno}: {node.name}() has unannotated "
                    f"parameter(s): {', '.join(missing)}"
                )
            if node.returns is None:
                problems.append(
                    f"{path}:{node.lineno}: {node.name}() has no return "
                    "annotation"
                )
    return problems


def _src_modules(root: Path) -> dict[str, Path]:
    """Dotted module name -> file, for every module under ``src/``."""
    mods = {}
    for path in (root / "src").rglob("*.py"):
        parts = path.relative_to(root / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        mods[".".join(parts)] = path
    return mods


def _referenced(path: Path, package: str) -> set[str]:
    """Module names ``path`` may load: its imports (function-local ones
    included, with ``from m import x`` also naming ``m.x``) and the
    values of a ``_LAZY = {name: ".module"}`` export table.  Relative
    names resolve against ``package``."""

    def absolute(name: str, level: int) -> str:
        if not level:
            return name
        base = package.split(".")[: len(package.split(".")) - level + 1]
        return ".".join(base + ([name] if name else []))

    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = absolute(node.module or "", node.level)
            out.add(mod)
            out.update(f"{mod}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_LAZY"
                    for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for v in node.value.values:
                if isinstance(v, ast.Constant) and isinstance(v.value, str):
                    text = v.value
                    level = len(text) - len(text.lstrip("."))
                    out.add(absolute(text[level:], level))
    return out


def unreached_modules(root: Path) -> list[str]:
    """``src`` modules no entry point imports, directly or transitively.

    Importing ``a.b.c`` also runs ``a`` and ``a.b``, so packages on the
    way count as reached.
    """
    mods = _src_modules(root)
    todo = [m for m in ENTRY_MODULES if m in mods]
    for d in ENTRY_DIRS:
        for script in sorted((root / d).rglob("*.py")):
            todo.extend(_referenced(script, ""))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            mod = ".".join(parts[:i])
            if mod in mods and mod not in reached:
                reached.add(mod)
                package = mod if mods[mod].name == "__init__.py" else (
                    mod.rpartition(".")[0]
                )
                todo.extend(_referenced(mods[mod], package))
    return sorted(set(mods) - reached)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    problems: list[str] = []
    owned = table_metrics(root)
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        strict = any(rel.startswith(p) for p in STRICT_PACKAGES)
        problems.extend(
            check_file(
                path, strict_types=strict,
                owned=None if rel.startswith(OBS_PACKAGE) else owned,
            )
        )
    problems.extend(
        f"{name}: no entry point imports this module (only tests reach it)"
        for name in unreached_modules(root)
    )
    for line in problems:
        print(line)
    n_files = len(list((root / "src").rglob("*.py")))
    print(
        f"check_static: {n_files} file(s), {len(problems)} problem(s)",
        file=sys.stderr,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
