"""Benchmark harness (system S12 in DESIGN.md).

One ``compute_table*`` / ``compute_fig9`` runner per paper evaluation
artifact; ``format_rows`` renders the paper-style text tables.  The
experiment catalog (``python -m repro experiment run``) runs them and the
``sensitivity`` sweep.
"""

from .sensitivity import (
    SensitivityPoint,
    sensitivity_sweep,
    summarize,
)
from .tables import (
    TableRow,
    compute_breakdown,
    compute_fig9,
    compute_module_table,
    compute_table3,
    compute_table4,
    compute_table5,
    compute_table6,
    compute_table7,
    compute_table8,
    compute_table9,
    compute_table10,
    compute_table11,
    format_rows,
)

__all__ = [
    "TableRow",
    "compute_module_table",
    "compute_table3",
    "compute_table4",
    "compute_table5",
    "compute_table6",
    "compute_fig9",
    "compute_table7",
    "compute_breakdown",
    "compute_table8",
    "compute_table9",
    "compute_table10",
    "compute_table11",
    "format_rows",
    "sensitivity_sweep",
    "summarize",
    "SensitivityPoint",
]
