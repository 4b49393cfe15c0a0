"""GPU simulator substrate (system S8 in DESIGN.md).

Replaces the paper's CUDA hardware with a calibrated analytic simulator:
device catalog (§6.1), cost models (calibration notes in
:mod:`repro.gpu.costs`), kernel stages and thread allocation (§4),
stream overlap (Table 9), and the two scheduling disciplines (Figure
4a/4b).  Device memory (§3.1, Table 10) is the simulator's high-water
over :mod:`repro.pipeline.system`'s per-module split.
"""

from .costs import (
    BELLPERSON_MEMORY_GB,
    BELLPERSON_MSM,
    BELLPERSON_NTT,
    BELLPERSON_TOTAL,
    CpuCostModel,
    DEFAULT_GPU_COSTS,
    GpuCostModel,
    LIBSNARK_MSM,
    LIBSNARK_NTT,
    LIBSNARK_TOTAL,
    VendorLinearModel,
)
from .device import CPU_C5A_8XLARGE, GPU_CATALOG, CpuSpec, GpuSpec, get_gpu
from .kernel import (
    KernelStage,
    ModuleGraph,
    allocate_threads_proportional,
    allocate_threads_uniform,
)
from .simulator import SimResult, run_cpu, run_naive, run_pipelined
from .stream import BeatTiming, TransferEngine
from .sweep import monotone_nonincreasing

__all__ = [
    "GpuSpec",
    "CpuSpec",
    "GPU_CATALOG",
    "CPU_C5A_8XLARGE",
    "get_gpu",
    "GpuCostModel",
    "CpuCostModel",
    "DEFAULT_GPU_COSTS",
    "VendorLinearModel",
    "LIBSNARK_TOTAL",
    "LIBSNARK_MSM",
    "LIBSNARK_NTT",
    "BELLPERSON_TOTAL",
    "BELLPERSON_MSM",
    "BELLPERSON_NTT",
    "BELLPERSON_MEMORY_GB",
    "KernelStage",
    "ModuleGraph",
    "allocate_threads_proportional",
    "allocate_threads_uniform",
    "TransferEngine",
    "BeatTiming",
    "SimResult",
    "run_naive",
    "run_pipelined",
    "run_cpu",
    "monotone_nonincreasing",
]
