"""API reference generator: walks the public surface and emits Markdown.

Every subpackage's ``__all__`` defines its public API; this generator
renders one section per subpackage with each symbol's kind, signature
(for callables) and docstring summary line.  Output is committed as
``docs/API.md`` and regenerated with ``python -m repro apidoc``.
"""

from __future__ import annotations

import importlib
import inspect
from typing import List

SUBPACKAGES = [
    "repro.field",
    "repro.hashing",
    "repro.kernels",
    "repro.merkle",
    "repro.sumcheck",
    "repro.encoder",
    "repro.commitment",
    "repro.core",
    "repro.gpu",
    "repro.pipeline",
    "repro.runtime",
    "repro.execution",
    "repro.resilience",
    "repro.cluster",
    "repro.service",
    "repro.baselines",
    "repro.zkml",
    "repro.bench",
    "repro.experiments",
]


def _summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n")[0].strip()
    return first


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(…)"


def _kind(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj) or inspect.isbuiltin(obj):
        return "function"
    if callable(obj):
        return "callable"
    return type(obj).__name__


def document_module(module_name: str) -> str:
    module = importlib.import_module(module_name)
    names = sorted(getattr(module, "__all__", []))
    lines: List[str] = [f"## `{module_name}`", ""]
    mod_summary = _summary(module)
    if mod_summary:
        lines.append(mod_summary)
        lines.append("")
    # Subpackages may carry extended reference prose in ``__apidoc__``;
    # it is rendered verbatim between the summary and the symbol table.
    extended = getattr(module, "__apidoc__", "").strip()
    if extended:
        lines.append(extended)
        lines.append("")
    lines.append("| symbol | kind | summary |")
    lines.append("|---|---|---|")
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        kind = _kind(obj)
        if kind in ("class",):
            label = f"`{name}`"
        elif kind == "function":
            label = f"`{name}{_signature(obj)}`"
        else:
            label = f"`{name}`"
        summary = _summary(obj) if kind in ("class", "function") else ""
        summary = summary.replace("|", "\\|")
        if len(label) > 90:
            label = f"`{name}(…)`"
        lines.append(f"| {label} | {kind} | {summary} |")
    lines.append("")
    return "\n".join(lines)


def generate_api_markdown() -> str:
    header = (
        "# API reference\n\n"
        "The public surface of every subpackage (each package's `__all__`).\n"
        "Regenerate with `python -m repro apidoc`.\n\n"
    )
    sections = [document_module(name) for name in SUBPACKAGES]
    return header + "\n".join(sections)


def write_api_markdown(path: str = "docs/API.md") -> str:
    import pathlib

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(generate_api_markdown())
    return str(out)
