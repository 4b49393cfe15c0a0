"""Picklable prover construction recipe for worker processes.

A :class:`~repro.core.prover.SnarkProver` carries heavyweight derived
state (expander graphs, eq tables) that is wasteful to ship over a pipe
for every task.  :class:`ProverSpec` is the *recipe* instead: plain data
(the R1CS, PCS knobs, public indices) that crosses the process boundary
once per worker, after which each worker builds its own prover and pays
the R1CS/PCS setup exactly once — the same "fix the instance, stream the
witnesses" discipline the paper's pipeline applies on-device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..commitment.brakedown import DEFAULT_COLUMN_CHECKS, BrakedownPCS
from ..core.prover import SnarkProver
from ..core.r1cs import R1CS
from ..core.verifier import SnarkVerifier
from ..encoder.spielman import EncoderParams
from ..hashing.hashers import get_hasher


@dataclass(frozen=True)
class ProverSpec:
    """Everything needed to rebuild an equivalent prover in another process.

    All fields are plain picklable data; :meth:`build_prover` performs the
    (per-worker, once) expensive derivation.  Two processes building from
    the same spec produce byte-identical proofs for the same task because
    the PCS/encoder are seeded deterministically.
    """

    r1cs: R1CS
    public_indices: Tuple[int, ...] = ()
    pcs_seed: int = 0
    num_col_checks: int = DEFAULT_COLUMN_CHECKS
    row_vars: Optional[int] = None
    encoder_params: Optional[EncoderParams] = None
    hasher_name: str = "sha256-hw"

    @classmethod
    def from_prover(cls, prover: SnarkProver) -> "ProverSpec":
        """Extract the recipe from a live prover (its PCS params are public)."""
        params = prover.pcs.params
        return cls(
            r1cs=prover.r1cs,
            public_indices=tuple(prover.public_indices),
            pcs_seed=params.encoder_seed,
            num_col_checks=params.num_col_checks,
            row_vars=params.row_vars,
            encoder_params=params.encoder_params,
            hasher_name=prover.pcs.hasher.name,
        )

    def build_pcs(self) -> BrakedownPCS:
        """Instantiate the PCS (expander generation happens here)."""
        return BrakedownPCS(
            self.r1cs.field,
            num_vars=self.r1cs.witness_vars,
            row_vars=self.row_vars,
            encoder_params=self.encoder_params,
            seed=self.pcs_seed,
            hasher=get_hasher(self.hasher_name),
            num_col_checks=self.num_col_checks,
        )

    def build_prover(self) -> SnarkProver:
        """Instantiate a prover; called once per worker process."""
        return SnarkProver(
            self.r1cs, self.build_pcs(), public_indices=list(self.public_indices)
        )

    def build_verifier(self) -> SnarkVerifier:
        """Instantiate the matching verifier (same PCS derivation)."""
        return SnarkVerifier(
            self.r1cs, self.build_pcs(), public_indices=list(self.public_indices)
        )


class _PerSpecCache:
    """Identity-keyed cache of one derived object per :class:`ProverSpec`.

    Keyed by object identity (with a strong reference held, so ids are
    never recycled underneath us): the long-lived callers — the service
    backend, a CLI run, the benches — pass the same spec instance for
    every batch of a circuit, which makes the expensive per-spec setup
    (expander generation, digesting) a one-time cost per backend.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[ProverSpec, Any]] = {}

    def get(self, spec: ProverSpec) -> Any:
        """The cached value for ``spec``, or None."""
        entry = self._entries.get(id(spec))
        return entry[1] if entry is not None and entry[0] is spec else None

    def put(self, spec: ProverSpec, value: Any) -> None:
        self._entries[id(spec)] = (spec, value)

    def get_or_build(self, spec: ProverSpec, build) -> Any:
        value = self.get(spec)
        if value is None:
            value = build(spec)
            self.put(spec, value)
        return value
