"""Unified experiment runner (system S29 in DESIGN.md): one manifest.

Every evaluation artifact in this repository — the BatchZK paper's
Tables 3–11 and Figure 9, the reproduction's ablation, frontier and
sensitivity analyses, and the extension benches (S22–S31) — registers an
:class:`ExperimentSpec` in one catalog: a named, tagged runner with
quick/full parameterizations and *declarative* regression guards.
Running experiments through :class:`RunSession`
yields one normalized :class:`ExperimentResult` schema per experiment,
an ``artifacts/<run-id>/`` directory (``manifest.json``, ``report.md``,
per-experiment JSON), and an append to the cross-run SQLite
:class:`Ledger` — so ``python -m repro experiment compare`` can answer
"did throughput regress since rev X?" across the repo's whole history.

CLI: ``python -m repro experiment list|run|compare|history|reproduce-all``
(``reproduce-all`` also regenerates EXPERIMENTS.md).  The extension
benches' measurement cores live in :mod:`repro.experiments.benches`.
"""

from .spec import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    ExperimentSpec,
    Guard,
    GuardVerdict,
    current_git_rev,
    execute_spec,
    host_fingerprint,
    validate_result,
)
from .registry import (
    KNOWN_SUITES,
    available_experiments,
    experiments_by_tag,
    get_experiment,
    register_experiment,
    select_experiments,
)
from .ledger import Ledger, MetricDelta, MetricPoint
from .paths import (
    ARTIFACTS_ENV,
    artifacts_root,
    default_ledger_path,
    new_run_id,
    repo_root,
)
from .report import fmt, md_table, render_experiments_md, render_run_report
from .runner import RunSession

# Importing the catalog registers every built-in experiment.
from . import catalog as _catalog  # noqa: F401  (side-effect import)

__apidoc__ = """\
**The result schema (v1).** One JSON object per experiment execution:
``schema_version``, ``name``, ``status`` (``ok`` / ``guard_failed`` /
``error``), ``params`` (the resolved quick-or-full parameterization plus
overrides), ``metrics`` (flat name → finite float — what the ledger
indexes), ``data`` (the runner's full payload), ``guards`` (one verdict
per declared guard: threshold, observed value, passed, enforced),
``git_rev``, ``host``, ``started_at``, ``duration_seconds``.
`validate_result` is the schema's executable definition.

**Guards.** A `Guard` names a metric, a direction (``>=`` higher is
better, ``<=`` lower), and a default threshold; a precondition like
``("host_cores", ">=", 2)`` keeps a guard advisory on hosts that can't
meaningfully run it (the cluster scaling guard on a 1-core CI box).
Guard directions flow into the ledger's ``metrics.direction`` column,
which is what lets `Ledger.regressions` know which way "worse" points
without any per-metric configuration.

**Exit codes.** ``run``/``reproduce-all``: 0 all ok · 1 an experiment
errored · 2 a guard failed.  ``compare``: 2 when a directional metric
moved worse than tolerance.  CI fails on either nonzero.
"""

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "ExperimentResult",
    "ExperimentSpec",
    "Guard",
    "GuardVerdict",
    "current_git_rev",
    "execute_spec",
    "host_fingerprint",
    "validate_result",
    "KNOWN_SUITES",
    "available_experiments",
    "experiments_by_tag",
    "get_experiment",
    "register_experiment",
    "select_experiments",
    "Ledger",
    "MetricDelta",
    "MetricPoint",
    "ARTIFACTS_ENV",
    "artifacts_root",
    "default_ledger_path",
    "new_run_id",
    "repo_root",
    "fmt",
    "md_table",
    "render_experiments_md",
    "render_run_report",
    "RunSession",
]
