"""Device catalog for the GPU simulator.

The paper evaluates on Nvidia GH200, V100, A100, RTX 3090 Ti and H100
(§6.1, Tables 8–9).  Each entry carries the published core count and
clock, plus the *effective* host↔device bandwidth implied by the paper's
own Table 9 (320 MB transferred in the reported per-cycle communication
time), so the overlap experiment reproduces the paper's communication
numbers by construction.

The CPU baseline spec mirrors §6.1's Amazon EC2 c5a.8xlarge (32 vCPU,
64 GB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import SimulationError


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU model."""

    name: str
    cuda_cores: int
    sm_count: int
    clock_ghz: float
    device_memory_gb: float
    pcie: str
    #: Effective host<->device bandwidth in GB/s (measured, not theoretical).
    pcie_gbps: float
    #: Per-device compute-efficiency multiplier (> 1 = faster than the raw
    #: cores×clock product predicts).  Calibrated from the paper's Table 9
    #: computation times: memory-bandwidth-rich parts (A100) outrun their
    #: core count on these memory-bound kernels, PCIe H100 underruns it.
    compute_scale: float = 1.0

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.clock_hz * self.compute_scale)

    def seconds_to_cycles(self, seconds: float) -> float:
        return seconds * self.clock_hz * self.compute_scale

    def transfer_seconds(self, num_bytes: float) -> float:
        """Host↔device transfer time at the effective PCIe bandwidth."""
        return num_bytes / (self.pcie_gbps * 1e9)


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a CPU host used by the baselines."""

    name: str
    cores: int
    clock_ghz: float
    memory_gb: float
    #: Fraction of linear speedup the baseline actually extracts from the
    #: cores (production CPU provers are far from perfectly parallel).
    parallel_efficiency: float = 0.55

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def effective_parallelism(self) -> float:
        return max(1.0, self.cores * self.parallel_efficiency)


# Effective PCIe bandwidths back-derived from Table 9 of the paper:
#   V100   : 320 MB / 22.95 ms = 13.9 GB/s   (PCIe 3.0 x16)
#   A100   : 320 MB / 10.44 ms = 30.7 GB/s   (PCIe 4.0 x16)
#   3090Ti : 320 MB / 10.50 ms = 30.5 GB/s   (PCIe 4.0 x16)
#   H100   : 320 MB /  4.90 ms = 65.3 GB/s   (PCIe 5.0 x16)
GPU_CATALOG: Dict[str, GpuSpec] = {
    "V100": GpuSpec(
        name="V100",
        cuda_cores=5120,
        sm_count=80,
        clock_ghz=1.53,
        device_memory_gb=32,
        pcie="PCIe 3.0 x16",
        pcie_gbps=13.9,
        compute_scale=1.0,
    ),
    "A100": GpuSpec(
        name="A100",
        cuda_cores=6912,
        sm_count=108,
        clock_ghz=1.41,
        device_memory_gb=80,
        pcie="PCIe 4.0 x16",
        pcie_gbps=30.7,
        compute_scale=1.63,
    ),
    "3090Ti": GpuSpec(
        name="3090Ti",
        cuda_cores=10752,
        sm_count=84,
        clock_ghz=1.86,
        device_memory_gb=24,
        pcie="PCIe 4.0 x16",
        pcie_gbps=30.5,
        compute_scale=1.0,
    ),
    "H100": GpuSpec(
        name="H100",
        cuda_cores=14592,
        sm_count=114,
        clock_ghz=1.98,
        device_memory_gb=80,
        pcie="PCIe 5.0 x16",
        pcie_gbps=65.3,
        compute_scale=0.75,
    ),
    "GH200": GpuSpec(
        name="GH200",
        cuda_cores=16896,
        sm_count=132,
        clock_ghz=1.98,
        device_memory_gb=96,
        pcie="NVLink-C2C",
        pcie_gbps=450.0,
        compute_scale=0.97,
    ),
}

#: §6.1: CPU baselines run on an EC2 c5a.8xlarge (32 vCPU, 64 GB).
CPU_C5A_8XLARGE = CpuSpec(
    name="c5a.8xlarge", cores=32, clock_ghz=3.3, memory_gb=64
)


def get_gpu(name: str) -> GpuSpec:
    """Look up a GPU model from the catalog by name (e.g. "GH200")."""
    try:
        return GPU_CATALOG[name]
    except KeyError:
        raise SimulationError(
            f"unknown GPU {name!r}; available: {sorted(GPU_CATALOG)}"
        ) from None
