"""Binary serialization for SNARK proofs.

Proofs in the paper's second protocol category travel over networks
(zkBridge fees, MLaaS responses) and "reach several MB" (§2.1), so a
production system needs a wire format.  This module provides a compact
tag-free binary encoding with explicit length prefixes:

* little-endian ``u32``/``u64`` integers for counts and indices,
* fixed-width field elements (``field.byte_length`` bytes each),
* a 4-byte magic + version header so stale blobs fail loudly.

``deserialize_proof`` needs the verifier's public context (the field and
PCS parameters) — the proof blob carries only prover messages, never
parameters, so a malicious blob cannot redefine the commitment scheme.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from ..commitment.brakedown import ColumnOpening, Commitment, EvalProof, PcsParams
from ..errors import ProofError
from ..field.prime_field import PrimeField
from ..merkle.proof import MerklePath
from ..sumcheck.noninteractive import SumcheckProof
from .proof import PublicBinding, SnarkProof

MAGIC = b"RPZK"
#: 2: RFC 6962-layout SHA-256 Merkle digests and SHAKE-256 challenges.
VERSION = 2


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
        return [self.field_element(field) for _ in range(n)]

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


def _write_merkle_path(w: ByteWriter, path: MerklePath) -> None:
    w.u64(path.index)
    w.raw(path.leaf)
    w.u32(len(path.siblings))
    for s in path.siblings:
        w.raw(s)


def _read_merkle_path(r: ByteReader) -> MerklePath:
    index = r.u64()
    leaf = r.raw(32)
    n = r.u32()
    if n > 64:
        raise ProofError(f"implausible Merkle depth {n}")
    if index >> n:
        raise ProofError(f"Merkle index {index} too large for depth {n}")
    siblings = [r.raw(32) for _ in range(n)]
    return MerklePath(index=index, leaf=leaf, siblings=siblings)


def _write_multiproof(w: ByteWriter, mp) -> None:
    w.u32(len(mp.indices))
    for idx in mp.indices:
        w.u64(idx)
    for leaf in mp.leaves:
        w.raw(leaf)
    w.u32(len(mp.nodes))
    for node in mp.nodes:
        w.raw(node)
    w.u32(mp.depth)


def _read_multiproof(r: ByteReader):
    from ..merkle.multiproof import MerkleMultiProof

    n = r.u32()
    if n > 1 << 16:
        raise ProofError(f"implausible multiproof leaf count {n}")
    indices = tuple(r.u64() for _ in range(n))
    leaves = tuple(r.raw(32) for _ in range(n))
    num_nodes = r.u32()
    if num_nodes > 1 << 20:
        raise ProofError(f"implausible multiproof node count {num_nodes}")
    nodes = tuple(r.raw(32) for _ in range(num_nodes))
    depth = r.u32()
    if depth > 64:
        raise ProofError(f"implausible multiproof depth {depth}")
    return MerkleMultiProof(indices=indices, leaves=leaves, nodes=nodes, depth=depth)


def _write_eval_proof(w: ByteWriter, field: PrimeField, ep: EvalProof) -> None:
    w.field_vector(field, ep.proximity_row)
    w.field_vector(field, ep.evaluation_row)
    w.u32(1 if ep.multiproof is not None else 0)
    w.u32(len(ep.columns))
    for col in ep.columns:
        w.u64(col.index)
        w.field_vector(field, col.values)
        if ep.multiproof is None:
            if col.path is None:
                raise ProofError("uncompressed opening misses a Merkle path")
            _write_merkle_path(w, col.path)
    if ep.multiproof is not None:
        _write_multiproof(w, ep.multiproof)


def _read_eval_proof(r: ByteReader, field: PrimeField) -> EvalProof:
    proximity = r.field_vector(field)
    evaluation = r.field_vector(field)
    mode = r.u32()
    if mode not in (0, 1):
        raise ProofError(f"unknown opening mode {mode}")
    compressed = mode == 1
    ncols = r.u32()
    if ncols > 1 << 16:
        raise ProofError(f"implausible column count {ncols}")
    columns = []
    for _ in range(ncols):
        index = r.u64()
        values = r.field_vector(field)
        path = None if compressed else _read_merkle_path(r)
        columns.append(ColumnOpening(index=index, values=values, path=path))
    multiproof = _read_multiproof(r) if compressed else None
    return EvalProof(
        proximity_row=proximity,
        evaluation_row=evaluation,
        columns=columns,
        multiproof=multiproof,
    )


# -- public API ---------------------------------------------------------------------


def serialize_proof(proof: SnarkProof, field: PrimeField) -> bytes:
    """Encode a :class:`SnarkProof` to bytes."""
    w = ByteWriter()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.raw(proof.commitment.root)
    _write_sumcheck(w, field, proof.constraint_sumcheck)
    w.field_element(field, proof.va)
    w.field_element(field, proof.vb)
    w.field_element(field, proof.vc)
    _write_sumcheck(w, field, proof.witness_sumcheck)
    w.field_element(field, proof.vz)
    _write_eval_proof(w, field, proof.witness_opening)
    w.u32(len(proof.public_bindings))
    for binding in proof.public_bindings:
        w.u64(binding.var_index)
        w.field_element(field, binding.value)
        _write_eval_proof(w, field, binding.opening)
    return w.getvalue()


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
    opening = _read_eval_proof(r, field)
    nbind = r.u32()
    if nbind > 1 << 16:
        raise ProofError(f"implausible binding count {nbind}")
    bindings = []
    for _ in range(nbind):
        idx = r.u64()
        value = r.field_element(field)
        bindings.append(
            PublicBinding(
                var_index=idx, value=value, opening=_read_eval_proof(r, field)
            )
        )
    r.expect_end()
    return SnarkProof(
        commitment=Commitment(root=root, params=params),
        constraint_sumcheck=constraint_sc,
        va=va,
        vb=vb,
        vc=vc,
        witness_sumcheck=witness_sc,
        vz=vz,
        witness_opening=opening,
        public_bindings=bindings,
    )
