"""Sum-check protocol module (system S4 in DESIGN.md; paper §2.3, §3.2).

* Algorithm 1 prover (:func:`prove_multilinear`,
  :class:`MultilinearSumcheckProver`) and the degree-k
  :class:`ProductSumcheckProver`.
* O(n) verifiers with explicit round-check failures.
* Non-interactive Fiat–Shamir wrappers producing :class:`SumcheckProof`.
* Figure 5's :class:`DoubleBuffer` memory discipline (and the rejected
  :class:`StrideBuffer` for ablation).
"""

from .buffers import BufferRegion, DoubleBuffer, StrideBuffer, required_capacity
from .noninteractive import (
    SumcheckProof,
    SumcheckResult,
    prove,
    prove_product,
    verify,
)
from .prover import (
    MultilinearSumcheckProver,
    ProductSumcheckProver,
    evaluation_point,
    prove_multilinear,
)
from .verifier import (
    RoundCheckFailure,
    verify_multilinear,
    verify_multilinear_rounds,
    verify_product,
    verify_product_rounds,
)

__all__ = [
    "prove_multilinear",
    "MultilinearSumcheckProver",
    "ProductSumcheckProver",
    "evaluation_point",
    "verify_multilinear",
    "verify_multilinear_rounds",
    "verify_product",
    "verify_product_rounds",
    "RoundCheckFailure",
    "SumcheckProof",
    "SumcheckResult",
    "prove",
    "prove_product",
    "verify",
    "DoubleBuffer",
    "StrideBuffer",
    "BufferRegion",
    "required_capacity",
]
