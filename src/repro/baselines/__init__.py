"""Baselines (system S10 in DESIGN.md).

Functional implementations of every baseline *category* in the paper's
evaluation plus calibrated vendor models for their absolute performance:

* NTT (radix-2, Goldilocks) and elliptic-curve MSM (naive + Pippenger) —
  the first-category workload (Libsnark/Bellperson).
* :class:`GrothLikeProver` — the NTT+MSM prover pipeline, runnable.
* Orion&Arkworks rates (:func:`orion_arkworks_times`) — the same-modules
  CPU baseline.
* Vendor models (Table 7/8/10/11 fits) in :mod:`repro.baselines.vendor`.
"""

from .cpu_prover import (
    CpuModuleTimes,
    TABLE7_CPU_COSTS,
    orion_arkworks_times,
)
from .curve import SECP256K1, CurveParams, EllipticCurve
from .groth_like import (
    GrothLikeProver,
    GrothProofArtifact,
    GrothWorkload,
    groth_memory_bytes,
)
from .msm import msm_naive, msm_pippenger, msm_work_units
from .ntt import (
    GOLDILOCKS_FIELD,
    GOLDILOCKS_GENERATOR,
    NTT,
    ntt_work_units,
    polymul_ntt,
    root_of_unity,
    two_adicity,
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
    "NTT",
    "polymul_ntt",
    "root_of_unity",
    "two_adicity",
    "ntt_work_units",
    "GOLDILOCKS_FIELD",
    "GOLDILOCKS_GENERATOR",
    "EllipticCurve",
    "CurveParams",
    "SECP256K1",
    "msm_naive",
    "msm_pippenger",
    "msm_work_units",
    "GrothLikeProver",
    "GrothWorkload",
    "GrothProofArtifact",
    "groth_memory_bytes",
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
