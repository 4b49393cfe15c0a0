"""Pipeline engine (system S9 in DESIGN.md; paper §3–§4).

* Stage-graph builders for the three modules (:mod:`repro.pipeline.stages`).
* The composite fully-pipelined ZKP system of Figure 7
  (:mod:`repro.pipeline.system`).
* The schedulers themselves live in :mod:`repro.gpu.simulator`
  (:func:`run_pipelined` / :func:`run_naive`) and are re-exported here.
"""

from ..gpu.simulator import run_cpu, run_naive, run_pipelined
from .frontier import (
    FrontierPoint,
    HybridResult,
    fuse_stages,
    latency_throughput_frontier,
    run_hybrid,
)
from .stages import (
    BLOCK_BYTES,
    DIGEST_BYTES,
    FIELD_BYTES,
    encoder_graph,
    encoder_stage_sizes,
    merkle_graph,
    sumcheck_graph,
)
from .system import (
    BatchZkpSystem,
    COMM_BYTES_PER_GATE,
    DEFAULT_STAGE_CAPS,
    ENCODER_MACS_PER_GATE,
    HASHES_PER_GATE,
    SUMCHECK_ENTRIES_PER_GATE,
    SystemResult,
    build_module_graphs,
    zkp_system_graph,
)

__all__ = [
    "merkle_graph",
    "sumcheck_graph",
    "encoder_graph",
    "encoder_stage_sizes",
    "BLOCK_BYTES",
    "DIGEST_BYTES",
    "FIELD_BYTES",
    "BatchZkpSystem",
    "SystemResult",
    "build_module_graphs",
    "zkp_system_graph",
    "HASHES_PER_GATE",
    "SUMCHECK_ENTRIES_PER_GATE",
    "ENCODER_MACS_PER_GATE",
    "COMM_BYTES_PER_GATE",
    "DEFAULT_STAGE_CAPS",
    "run_pipelined",
    "run_naive",
    "run_cpu",
    "fuse_stages",
    "latency_throughput_frontier",
    "FrontierPoint",
    "run_hybrid",
    "HybridResult",
]
