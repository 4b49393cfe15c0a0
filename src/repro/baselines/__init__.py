"""Baselines (system S10 in DESIGN.md).

The paper's baselines enter the tables as calibrated models of their
absolute performance; none of them is re-implemented as a prover:

* Orion&Arkworks rates (:func:`orion_arkworks_times`) — the same-modules
  CPU baseline, priced from the system workload.
* Vendor models (Table 7/8/10/11 fits) in :mod:`repro.baselines.vendor`:
  Libsnark and Bellperson (NTT+MSM), zkCNN, ZKML and ZENO.
"""

from .cpu_prover import (
    CpuModuleTimes,
    TABLE7_CPU_COSTS,
    orion_arkworks_times,
)
from .vendor import (
    BELLPERSON_DEVICE_FACTOR,
    OURS_ACCURACY_PERCENT,
    SystemTimes,
    ZKML_BASELINES,
    ZkmlBaseline,
    bellperson_memory_gb,
    bellperson_times,
    libsnark_times,
)

__all__ = [
    "CpuModuleTimes",
    "orion_arkworks_times",
    "TABLE7_CPU_COSTS",
    "SystemTimes",
    "libsnark_times",
    "bellperson_times",
    "bellperson_memory_gb",
    "BELLPERSON_DEVICE_FACTOR",
    "ZkmlBaseline",
    "ZKML_BASELINES",
    "OURS_ACCURACY_PERCENT",
]
