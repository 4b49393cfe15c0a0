"""Core ZKP protocol (system S7 in DESIGN.md).

A Spartan/Brakedown-style SNARK assembled from the paper's three
computational modules: witness commitment through the linear-time encoder
and Merkle trees, constraint proving through two sum-checks, and
tensor-point PCS openings.

Public surface:

* :class:`CircuitBuilder` / :func:`random_circuit` — gate-level frontend.
* :class:`R1CS` — the constraint system (scale S = multiplication gates).
* :class:`SnarkProver` / :class:`SnarkVerifier` — prove and verify.
* :class:`BatchProver` — the streaming batch API of the paper's Figure 7.
"""

from .batch import BatchProver, BatchStats, ProofTask, verify_all
from .circuit import (
    CircuitBuilder,
    CompiledCircuit,
    Wire,
    compile_builder,
    random_circuit,
)
from .lanes import LanedProof
from .gadgets import relu, sign_bit, to_bits
from .proof import SnarkProof
from .prover import PIPELINE_STAGES, SnarkProver, make_pcs
from .r1cs import R1CS, next_power_of_two
from .serialize import (
    deserialize_proof,
    deserialize_proof_bundle,
    serialize_proof,
    serialize_proof_bundle,
)
from .verifier import SnarkVerifier

__all__ = [
    "CircuitBuilder",
    "CompiledCircuit",
    "compile_builder",
    "Wire",
    "random_circuit",
    "R1CS",
    "next_power_of_two",
    "SnarkProver",
    "LanedProof",
    "PIPELINE_STAGES",
    "SnarkVerifier",
    "make_pcs",
    "SnarkProof",
    "BatchProver",
    "BatchStats",
    "ProofTask",
    "verify_all",
    "serialize_proof",
    "deserialize_proof",
    "serialize_proof_bundle",
    "deserialize_proof_bundle",
    "to_bits",
    "sign_bit",
    "relu",
]
