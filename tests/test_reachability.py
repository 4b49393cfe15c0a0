"""Every module and every top-level definition under ``src/repro`` is
reached from an entry point.

A module exists only if an entry point runs it, and a definition only if
an entry point calls it (DESIGN decisions 26 and 27).  The roots are the
CLI (``repro.__main__``), the experiment catalog, every ``repro.*``
module that ``perfbench/`` imports, and ``examples/``.  The graphs are
read with ``ast``; nothing is imported.

Modules: an edge is any import statement of a module, wherever it sits
(the CLI imports its subsystems inside the command that needs them),
plus the package ``__init__`` files Python runs on the way to a
submodule.

Definitions: an edge is any name or attribute in module-level code or in
the body of a definition already reached, resolved through the module's
imports (an ``import … as`` alias and a lazy import inside a function
count).  Package re-exports, ``__all__`` strings and tests do not count,
so the fixed point holds only what a root runs.  ``KEEP`` lists the few
definitions that stay without a root caller, each with its reason.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ENTRY_POINTS = ("repro.__main__", "repro.experiments.catalog")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Public definitions no root calls that stay, each for one reason: a
#: reference twin a test compares a reached function against, the parser
#: of outside bundle bytes, or code an open ROADMAP item consumes.  A
#: module name keeps every definition in it.
KEEP = {
    "repro.field.polynomial.Polynomial":
        "oracle for evaluate_from_points (test_field_polynomial)",
    "repro.field.lagrange.lagrange_interpolate":
        "oracle for evaluate_from_points (test_field_polynomial)",
    "repro.sumcheck.prover.prove_multilinear":
        "Algorithm 1 oracle for the round kernels (test_sumcheck)",
    "repro.sumcheck.verifier.verify_multilinear":
        "Algorithm 1 oracle for the round kernels (test_sumcheck)",
    "repro.sumcheck.verifier.verify_product":
        "product sum-check oracle (test_sumcheck)",
    "repro.sumcheck.noninteractive.verify":
        "checks prove/prove_product transcripts (test_sumcheck_noninteractive)",
    "repro.kernels.field_kernels.evaluate_table_bits":
        "oracle for the fast table evaluation (test_kernels)",
    "repro.core.serialize.serialize_proof_bundle":
        "bundle writer for the outside-bytes parser below",
    "repro.core.serialize.deserialize_proof_bundle":
        "parses outside bytes, so it stays tested (test_zkml_io_and_models)",
    "repro.field.lagrange.barycentric_weights":
        "ROADMAP item 16 (cheaper sum-check verification)",
    "repro.commitment.security":
        "ROADMAP item 18 (soundness accounting per proof)",
    "repro.encoder.analysis":
        "ROADMAP item 3's gate (minimum weight of the ±2^k code)",
    "repro.execution.trace.lineage_of":
        "ROADMAP item 9 (trace explain reads request lineage)",
    "repro.execution.trace.format_lineage":
        "ROADMAP item 9 (trace explain prints request lineage)",
    "repro.execution.trace.stage_breakdown_of":
        "ROADMAP item 9 (trace explain replays stage costs)",
}


def _modules() -> Dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _modules()


def _package(name: str, path: Path) -> str:
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _base(node: ast.ImportFrom, package: str) -> str:
    """The absolute module a ``from … import`` statement reads from."""
    base = node.module or ""
    if node.level:
        anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
        base = ".".join(anchor + ([base] if base else []))
    return base


def _imported(path: Path, package: str) -> Iterator[str]:
    """Every dotted name an import statement in ``path`` may load."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, package)
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
        for target in _imported(path, _package(name, path)):
            todo.extend(_with_packages(target))
    return reached


# -- definitions ---------------------------------------------------------------

Definition = Tuple[str, str]  # (module, top-level name)


class _Source:
    """One parsed file: its top-level definitions and import bindings."""

    def __init__(self, name: str, path: Path):
        self.name = name
        self.is_init = path.name == "__init__.py"
        self.tree = ast.parse(path.read_text(), str(path))
        self.definitions = {
            node.name: node for node in self.tree.body
            if isinstance(node, DEFINITIONS)
        }
        #: local name -> the dotted name it was imported as
        self.bindings: Dict[str, str] = {}
        package = _package(name, path)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        self.bindings[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = _base(node, package)
                for alias in node.names:
                    self.bindings[alias.asname or alias.name] = f"{base}.{alias.name}"

    def module_code(self) -> Iterator[ast.AST]:
        """What runs on import: everything but definition bodies, package
        re-exports and ``__all__``."""
        for node in self.tree.body:
            if isinstance(node, DEFINITIONS):
                yield from node.decorator_list
            elif self.is_init and isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                continue
            else:
                yield node


SOURCES = {name: _Source(name, path) for name, path in MODULES.items()}


def _resolve(dotted: str, depth: int = 0) -> Optional[Tuple[str, str]]:
    """``("module", name)`` or ``(module, definition)`` for an imported
    dotted name, following package re-exports to the definition."""
    if dotted in SOURCES:
        return ("module", dotted)
    module, _, attr = dotted.rpartition(".")
    source = SOURCES.get(module)
    if source is None or depth > len(SOURCES):
        return None
    if attr in source.definitions:
        return (module, attr)
    if attr in source.bindings:
        return _resolve(source.bindings[attr], depth + 1)
    return None


def _uses(source: _Source, node: ast.AST) -> Iterator[Definition]:
    """The definitions that the code ``node`` of ``source`` names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in source.definitions:
                yield (source.name, sub.id)
            elif sub.id in source.bindings:
                target = _resolve(source.bindings[sub.id])
                if target and target[0] != "module":
                    yield target
        elif isinstance(sub, ast.Attribute):
            # ``pkg.mod.name``: walk the chain from an imported module.
            chain: List[str] = []
            head: ast.AST = sub
            while isinstance(head, ast.Attribute):
                chain.append(head.attr)
                head = head.value
            if not (isinstance(head, ast.Name) and head.id in source.bindings):
                continue
            dotted = source.bindings[head.id]
            for attr in reversed(chain):
                target = _resolve(f"{dotted}.{attr}")
                if target is None:
                    break
                if target[0] != "module":
                    yield target
                    break
                dotted = target[1]


def _body(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, ast.ClassDef):
        return [*node.bases, *node.keywords, *node.body]
    return [node.args, *([node.returns] if node.returns else []), *node.body]


def _closure(todo: List[Definition], reached: Set[Definition]) -> Set[Definition]:
    """``reached`` grown by ``todo`` and everything they name, to a fixed
    point."""
    reached = set(reached)
    while todo:
        definition = todo.pop()
        if definition in reached:
            continue
        reached.add(definition)
        module, name = definition
        source = SOURCES[module]
        for part in _body(source.definitions[name]):
            todo.extend(_uses(source, part))
    return reached


def _root_uses() -> List[Definition]:
    uses: List[Definition] = []
    for source in SOURCES.values():
        for node in source.module_code():
            uses.extend(_uses(source, node))
    for path in sorted(REPO.glob("examples/*.py")) + sorted(
        REPO.glob("perfbench/*.py")
    ):
        root = _Source("__root__", path)
        uses.extend(u for u in _uses(root, root.tree) if u[0] in SOURCES)
    return uses


def _all_definitions() -> Set[Definition]:
    return {
        (source.name, name)
        for source in SOURCES.values()
        for name in source.definitions
    }


def _kept(entry: str) -> Set[Definition]:
    if entry in SOURCES:
        return {(entry, name) for name in SOURCES[entry].definitions}
    module, _, name = entry.rpartition(".")
    if name in getattr(SOURCES.get(module), "definitions", {}):
        return {(module, name)}
    return set()


def _dotted(definitions: Set[Definition]) -> List[str]:
    return sorted(f"{module}.{name}" for module, name in definitions)


REACHED = _closure(_root_uses(), set())


def test_roots_are_modules_of_the_package():
    assert set(ENTRY_POINTS) <= set(MODULES)
    # perfbench reaches the prover directly, not only through the CLI.
    assert {"repro.core", "repro.service", "repro.field.fast61"} <= _roots()


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - _reached())
    assert not unreached, f"no entry point imports {unreached}"


def test_every_public_definition_is_reached_from_an_entry_point():
    kept = set().union(*(_kept(entry) for entry in KEEP))
    reached = _closure(sorted(kept), REACHED)
    unreached = {
        (module, name) for module, name in _all_definitions() - reached
        if not name.startswith("_")
    }
    assert not unreached, f"no entry point calls {_dotted(unreached)}"


def test_keep_list_is_not_stale():
    undefined = sorted(entry for entry in KEEP if not _kept(entry))
    assert not undefined, f"KEEP names what is not defined: {undefined}"
    now_reached = sorted(entry for entry in KEEP if _kept(entry) <= REACHED)
    assert not now_reached, f"drop from KEEP, an entry point reaches {now_reached}"


def test_no_runtime_module_imports_the_simulator():
    """The proving runtime never depends on the GPU simulator."""
    runtime = {"execution", "runtime", "cluster", "service", "core"}
    offenders = sorted({
        name for name, path in MODULES.items()
        if name.partition(".")[2].split(".")[0] in runtime
        for target in _imported(path, _package(name, path))
        if target.split(".")[:2] == ["repro", "gpu"]
    })
    assert not offenders, f"{offenders} import repro.gpu"
