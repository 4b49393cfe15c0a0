"""Canonical locations for experiment artifacts, pinned to one root:

* :func:`repo_root` — the checkout's top directory, found by walking up
  from this file (and, failing that, from the cwd) to the nearest
  ``pyproject.toml``.  Falls back to the cwd for installed copies.
* :func:`artifacts_root` — ``<repo>/artifacts`` (override with the
  ``REPRO_ARTIFACTS_DIR`` environment variable); per-run directories and
  the cross-run ledger live under it.
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Optional

#: Environment override for the artifact root (CI sets this to keep
#: uploads out of the working tree).
ARTIFACTS_ENV = "REPRO_ARTIFACTS_DIR"


def _ascend_to_marker(start: pathlib.Path) -> Optional[pathlib.Path]:
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def repo_root() -> pathlib.Path:
    """The checkout root: nearest ancestor holding ``pyproject.toml``."""
    here = pathlib.Path(__file__).resolve().parent
    found = _ascend_to_marker(here)
    if found is None:
        found = _ascend_to_marker(pathlib.Path.cwd().resolve())
    return found if found is not None else pathlib.Path.cwd().resolve()


def artifacts_root() -> pathlib.Path:
    """Root for per-run artifact directories and the ledger."""
    override = os.environ.get(ARTIFACTS_ENV)
    if override:
        return pathlib.Path(override).expanduser().resolve()
    return repo_root() / "artifacts"


def default_ledger_path() -> pathlib.Path:
    """Default SQLite ledger location (shared across runs)."""
    return artifacts_root() / "ledger.sqlite"


def new_run_id(git_rev: str = "unknown", now: Optional[float] = None) -> str:
    """A sortable run identifier: UTC timestamp + short git rev."""
    stamp = time.strftime(
        "%Y%m%d-%H%M%S", time.gmtime(now if now is not None else time.time())
    )
    rev = (git_rev or "unknown").strip() or "unknown"
    return f"{stamp}-{rev[:12]}"


def run_dir(run_id: str, root: Optional[pathlib.Path] = None) -> pathlib.Path:
    """The artifact directory for ``run_id``, uniquified if it exists."""
    base = (root if root is not None else artifacts_root()) / run_id
    path = base
    suffix = 1
    while path.exists():
        path = base.parent / f"{base.name}.{suffix}"
        suffix += 1
    return path
