"""Vendor performance models for the paper's closed/corpus baselines.

The baselines whose absolute performance cannot be re-measured without
their exact software stacks (Bellperson, Libsnark, zkCNN, ZKML, ZENO) enter
the tables as models fit to the paper's own measurements — each fit
documented in :mod:`repro.gpu.costs` or here.  The same-modules
baselines are priced elsewhere: sequential CPU proving by
:mod:`repro.baselines.cpu_prover`, naive GPU scheduling by the
simulator's naive scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import SimulationError
from ..gpu.costs import (
    BELLPERSON_MEMORY_GB,
    BELLPERSON_MSM,
    BELLPERSON_NTT,
    BELLPERSON_TOTAL,
    LIBSNARK_MSM,
    LIBSNARK_NTT,
    LIBSNARK_TOTAL,
)

#: Bellperson per-device slowdown relative to GH200, from Tables 7–8
#: (latency column: 6.579 / 3.817 / 2.967 / 2.703 s at S = 2^20 versus the
#: 2.204 s GH200 row of Table 7).
BELLPERSON_DEVICE_FACTOR: Dict[str, float] = {
    "GH200": 1.0,
    "V100": 2.985,
    "A100": 1.732,
    "3090Ti": 1.346,
    "H100": 1.226,
}


@dataclass(frozen=True)
class SystemTimes:
    """One system's per-proof times at one scale (a Table 7 row slice)."""

    msm_seconds: float
    ntt_seconds: float
    total_seconds: float


def libsnark_times(scale: int) -> SystemTimes:
    """Libsnark (CPU, Groth16) amortized per-proof times at scale S."""
    return SystemTimes(
        msm_seconds=LIBSNARK_MSM.time_seconds(scale),
        ntt_seconds=max(0.0, LIBSNARK_NTT.time_seconds(scale)),
        total_seconds=LIBSNARK_TOTAL.time_seconds(scale),
    )


def bellperson_times(scale: int, device: str = "GH200") -> SystemTimes:
    """Bellperson (GPU, Groth16) amortized per-proof times at scale S."""
    try:
        factor = BELLPERSON_DEVICE_FACTOR[device]
    except KeyError:
        raise SimulationError(
            f"no Bellperson factor for device {device!r}"
        ) from None
    return SystemTimes(
        msm_seconds=BELLPERSON_MSM.time_seconds(scale) * factor,
        ntt_seconds=BELLPERSON_NTT.time_seconds(scale) * factor,
        total_seconds=BELLPERSON_TOTAL.time_seconds(scale) * factor,
    )


def bellperson_memory_gb(scale: int) -> float:
    """Table 10's Bellperson per-proof device memory (interpolated)."""
    log_s = scale.bit_length() - 1
    if log_s in BELLPERSON_MEMORY_GB:
        return BELLPERSON_MEMORY_GB[log_s]
    keys = sorted(BELLPERSON_MEMORY_GB)
    if log_s < keys[0]:
        return BELLPERSON_MEMORY_GB[keys[0]] * scale / (1 << keys[0])
    if log_s > keys[-1]:
        return BELLPERSON_MEMORY_GB[keys[-1]] * scale / (1 << keys[-1])
    lo = max(k for k in keys if k <= log_s)
    hi = min(k for k in keys if k >= log_s)
    if lo == hi:
        return BELLPERSON_MEMORY_GB[lo]
    frac = (log_s - lo) / (hi - lo)
    return BELLPERSON_MEMORY_GB[lo] * (1 - frac) + BELLPERSON_MEMORY_GB[hi] * frac


@dataclass(frozen=True)
class ZkmlBaseline:
    """A verifiable-ML system's Table 11 row."""

    name: str
    throughput_per_second: float
    latency_seconds: float
    accuracy_percent: float


#: Table 11: CPU-based verifiable CNN systems on VGG-16 / CIFAR-10.
ZKML_BASELINES: Dict[str, ZkmlBaseline] = {
    "zkCNN": ZkmlBaseline("zkCNN", 0.0113, 88.3, 90.30),
    "ZKML": ZkmlBaseline("ZKML", 0.0017, 637.0, 90.37),
    "ZENO": ZkmlBaseline("ZENO", 0.0208, 48.0, 84.19),
}

#: The paper's own VGG-16 model accuracy (they trained it themselves).
OURS_ACCURACY_PERCENT = 93.93
