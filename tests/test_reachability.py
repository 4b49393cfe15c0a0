"""Every module under ``src/repro`` is reached from an entry point.

A module exists only if an entry point runs it (DESIGN decision 26).
The roots are the CLI (``repro.__main__``), the experiment catalog and
every ``repro.*`` module that ``perfbench/`` imports.  An edge is any
import statement of a module, wherever it sits (the CLI imports its
subsystems inside the command that needs them), plus the package
``__init__`` files Python runs on the way to a submodule.  The graph is
read with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ENTRY_POINTS = ("repro.__main__", "repro.experiments.catalog")


def _modules() -> Dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _modules()


def _imported(path: Path, package: str) -> Iterator[str]:
    """Every dotted name an import statement in ``path`` may load."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            # ``from pkg import name`` loads ``pkg.name`` when it is a module.
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _with_packages(name: str) -> Iterator[str]:
    """``name`` and every package ``__init__`` that importing it runs."""
    parts = name.split(".")
    for i in range(1, len(parts) + 1):
        prefix = ".".join(parts[:i])
        if prefix in MODULES:
            yield prefix


def _roots() -> Set[str]:
    roots = set(ENTRY_POINTS)
    for path in (REPO / "perfbench").rglob("*.py"):
        roots.update(
            name for name in _imported(path, "") if name.split(".")[0] == "repro"
        )
    return {module for name in roots for module in _with_packages(name)}


def _reached() -> Set[str]:
    reached: Set[str] = set()
    todo = sorted(_roots())
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        path = MODULES[name]
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        for target in _imported(path, package):
            todo.extend(_with_packages(target))
    return reached


def test_roots_are_modules_of_the_package():
    assert set(ENTRY_POINTS) <= set(MODULES)
    # perfbench reaches the prover directly, not only through the CLI.
    assert {"repro.core", "repro.service", "repro.field.fast61"} <= _roots()


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - _reached())
    assert not unreached, f"no entry point imports {unreached}"
