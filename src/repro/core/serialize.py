"""Binary serialization for SNARK proofs.

Proofs in the paper's second protocol category travel over networks
(zkBridge fees, MLaaS responses) and "reach several MB" (§2.1), so a
production system needs a wire format.  This module provides a compact
tag-free binary encoding with explicit length prefixes wherever the
verifier's public parameters do not already fix a length:

* little-endian ``u32``/``u64`` integers for counts,
* fixed-width field elements (``field.byte_length`` bytes each),
* a 4-byte magic + version header so stale blobs fail loudly.

``deserialize_proof`` needs the verifier's public context (the field and
PCS parameters) — the proof blob carries only prover messages, never
parameters, so a malicious blob cannot redefine the commitment scheme.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence

from ..commitment.brakedown import Commitment, EvalProof, PcsParams
from ..errors import ProofError
from ..field.prime_field import PrimeField
from ..hashing.hashers import DIGEST_SIZE
from ..sumcheck.noninteractive import SumcheckProof
from .proof import SnarkProof

MAGIC = b"RPZK"
#: 2: RFC 6962-layout SHA-256 Merkle digests and SHAKE-256 challenges.
#: 3: one opening per proof — rows and columns without per-vector
#: lengths, column indices, leaves or depth (the verifier derives them).
VERSION = 3


class ByteWriter:
    """Append-only binary writer."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def blob(self, data: bytes) -> None:
        self.u32(len(data))
        self.raw(data)

    def field_element(self, field: PrimeField, value: int) -> None:
        self.raw(field.to_bytes(value))

    def field_vector(self, field: PrimeField, values: Sequence[int]) -> None:
        self.u32(len(values))
        self.field_elements(field, values)

    def field_elements(self, field: PrimeField, values: Sequence[int]) -> None:
        """Elements without a length prefix (the reader knows the count)."""
        for v in values:
            self.field_element(field, v)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Bounds-checked binary reader."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ProofError(
                f"truncated proof: need {n} bytes at offset {self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def blob(self) -> bytes:
        return self.raw(self.u32())

    def field_element(self, field: PrimeField) -> int:
        return field.from_bytes(self.raw(field.byte_length))

    def field_vector(self, field: PrimeField) -> List[int]:
        n = self.u32()
        if n > 1 << 28:
            raise ProofError(f"implausible vector length {n}")
        return self.field_elements(field, n)

    def field_elements(self, field: PrimeField, n: int) -> List[int]:
        width = field.byte_length
        data = self.raw(n * width)
        return [
            field.from_bytes(data[i : i + width]) for i in range(0, n * width, width)
        ]

    def count(self, bound: int, what: str) -> int:
        """A u32 count, rejected above ``bound``."""
        n = self.u32()
        if n > bound:
            raise ProofError(f"implausible {what} {n}")
        return n

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise ProofError(
                f"{len(self._data) - self._pos} trailing bytes in proof"
            )


# -- component codecs ----------------------------------------------------------


def _write_sumcheck(w: ByteWriter, field: PrimeField, sc: SumcheckProof) -> None:
    w.field_element(field, sc.claimed_sum)
    w.u32(sc.degree)
    w.field_element(field, sc.final_value)
    w.u32(len(sc.round_polys))
    for row in sc.round_polys:
        w.field_vector(field, row)


def _read_sumcheck(r: ByteReader, field: PrimeField) -> SumcheckProof:
    claimed = r.field_element(field)
    degree = r.u32()
    final = r.field_element(field)
    rounds = r.u32()
    if rounds > 1 << 20:
        raise ProofError(f"implausible round count {rounds}")
    round_polys = [r.field_vector(field) for _ in range(rounds)]
    return SumcheckProof(
        claimed_sum=claimed,
        round_polys=round_polys,
        degree=degree,
        final_value=final,
    )


def _write_eval_proof(
    w: ByteWriter, field: PrimeField, params: PcsParams, ep: EvalProof
) -> None:
    rows = [ep.proximity_row, *ep.evaluation_rows]
    if any(len(row) != params.num_cols for row in rows) or any(
        len(column) != params.num_rows for column in ep.columns
    ):
        raise ProofError("opening rows or columns do not match the PCS shape")
    w.field_elements(field, ep.proximity_row)
    for vectors in (ep.evaluation_rows, ep.columns):
        w.u32(len(vectors))
        for vector in vectors:
            w.field_elements(field, vector)
    w.u32(len(ep.nodes))
    for node in ep.nodes:
        w.raw(node)


def _read_eval_proof(r: ByteReader, field: PrimeField, params: PcsParams) -> EvalProof:
    cols, rows = params.num_cols, params.num_rows
    proximity = r.field_elements(field, cols)
    evaluation = [
        r.field_elements(field, cols)
        for _ in range(r.count(1 << 16, "evaluation row count"))
    ]
    columns = [
        r.field_elements(field, rows)
        for _ in range(r.count(params.num_col_checks, "column count"))
    ]
    num_nodes = r.count(
        params.num_col_checks * params.merkle_depth, "multiproof node count"
    )
    nodes = [r.raw(DIGEST_SIZE) for _ in range(num_nodes)]
    return EvalProof(
        proximity_row=proximity,
        evaluation_rows=evaluation,
        columns=columns,
        nodes=nodes,
    )


# -- public API ---------------------------------------------------------------------


def proof_parts(proof: SnarkProof, field: PrimeField) -> Dict[str, bytes]:
    """The wire encoding of ``proof`` by component, in wire order.

    :func:`serialize_proof` is their concatenation, and
    :meth:`SnarkProof.component_sizes` their lengths.
    """
    header, root, sumchecks, opening = (ByteWriter() for _ in range(4))
    header.raw(MAGIC)
    header.u32(VERSION)
    root.raw(proof.commitment.root)
    _write_sumcheck(sumchecks, field, proof.constraint_sumcheck)
    for value in (proof.va, proof.vb, proof.vc):
        sumchecks.field_element(field, value)
    _write_sumcheck(sumchecks, field, proof.witness_sumcheck)
    sumchecks.field_element(field, proof.vz)
    _write_eval_proof(opening, field, proof.commitment.params, proof.opening)
    return {
        "header": header.getvalue(),
        "merkle_root": root.getvalue(),
        "sumchecks": sumchecks.getvalue(),
        "pcs_openings": opening.getvalue(),
    }


def serialize_proof(proof: SnarkProof, field: PrimeField) -> bytes:
    """Encode a :class:`SnarkProof` to bytes."""
    return b"".join(proof_parts(proof, field).values())


def serialize_proof_bundle(
    proofs: Sequence[SnarkProof], field: PrimeField
) -> bytes:
    """Encode a batch of proofs into one length-prefixed blob.

    The natural wire unit of the paper's batch system: the service ships
    its per-cycle proof output as a single message.
    """
    w = ByteWriter()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u32(len(proofs))
    for proof in proofs:
        w.blob(serialize_proof(proof, field))
    return w.getvalue()


def deserialize_proof_bundle(
    data: bytes, field: PrimeField, params: PcsParams
) -> List[SnarkProof]:
    """Decode a bundle produced by :func:`serialize_proof_bundle`."""
    r = ByteReader(data)
    if r.raw(4) != MAGIC:
        raise ProofError("bad magic: not a repro proof bundle")
    version = r.u32()
    if version != VERSION:
        raise ProofError(f"unsupported bundle version {version}")
    count = r.u32()
    if count > 1 << 20:
        raise ProofError(f"implausible bundle size {count}")
    proofs = [deserialize_proof(r.blob(), field, params) for _ in range(count)]
    r.expect_end()
    return proofs


def deserialize_proof(
    data: bytes, field: PrimeField, params: PcsParams
) -> SnarkProof:
    """Decode a proof blob against the verifier's public parameters.

    Raises :class:`~repro.errors.ProofError` on any malformed input.
    """
    r = ByteReader(data)
    if r.raw(4) != MAGIC:
        raise ProofError("bad magic: not a repro proof blob")
    version = r.u32()
    if version != VERSION:
        raise ProofError(f"unsupported proof version {version}")
    root = r.raw(32)
    constraint_sc = _read_sumcheck(r, field)
    va = r.field_element(field)
    vb = r.field_element(field)
    vc = r.field_element(field)
    witness_sc = _read_sumcheck(r, field)
    vz = r.field_element(field)
    opening = _read_eval_proof(r, field, params)
    r.expect_end()
    return SnarkProof(
        commitment=Commitment(root=root, params=params),
        constraint_sumcheck=constraint_sc,
        va=va,
        vb=vb,
        vc=vc,
        witness_sumcheck=witness_sc,
        vz=vz,
        opening=opening,
    )
