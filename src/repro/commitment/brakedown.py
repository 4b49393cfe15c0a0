"""Brakedown/Orion-style polynomial commitment (linear code + Merkle tree).

This is the "commitment" spine of the paper's second category of ZKP
protocols (Figure 1): the prover's input is split into segments, each
segment is encoded by the linear-time encoder, the codewords are committed
by Merkle trees, and evaluation claims are checked with random column
openings.

Scheme (for a multilinear polynomial ``w`` over ``n`` variables):

* Arrange the ``2^n`` hypercube evaluations into an ``R × C`` matrix ``M``
  (``R = 2^{n_row}`` rows, ``C = 2^{n_col}`` columns; the low ``n_col``
  variables index columns).
* **Commit** — encode every row with the Spielman encoder (codeword length
  ``q·C``), then Merkle-commit the *columns* of the encoded matrix ``U``.
  The commitment is the Merkle root.
* **Open at points z_1 … z_k** — split each ``z`` into column half
  ``z_lo`` and row half ``z_hi``; then ``w(z) = q_rowᵀ · M · q_col`` with
  ``q_row = eq(z_hi,·)``, ``q_col = eq(z_lo,·)``.  One opening covers
  every point (DESIGN decision 25); the prover sends:

  - one *proximity row*  ``p = rᵀ·M`` for a transcript-derived random
    ``r`` (tests that the committed rows are jointly close to the code),
  - one *evaluation row* ``u = q_rowᵀ·M`` per distinct ``z_hi`` (a row
    select when ``z_hi`` is boolean),
  - the ``t`` transcript-chosen codeword columns and one Merkle
    multiproof authenticating them together.

* **Verify** — fold the columns' leaves to the root, and for each opened
  column ``j`` check ``Enc(p)[j] = Σ_i r_i·U[i][j]`` and, per evaluation
  row, ``Enc(u)[j] = Σ_i q_row_i·U[i][j]`` (linearity of the code makes
  honest rows pass everywhere).  Finally check ``⟨u, q_col⟩ = value``
  at every point.

Security note: soundness error decays exponentially in the number of
column checks ``t`` given the code's minimum distance; this reproduction
uses pseudorandom expanders without a certified distance bound, so ``t``
is a tunable knob rather than a derived constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommitmentError
from ..field import fast61 as _f61
from ..field.fast61 import to_ints
from ..field.prime_field import PrimeField
from ..hashing.hashers import DIGEST_SIZE, Hasher, get_hasher
from ..hashing.transcript import Transcript
from ..kernels.field_kernels import (
    combine_rows,
    eq_table_lanes,
    one_lane,
    pack_vector,
    product_pair_sum,
    vectorised,
)
from ..kernels.profile import stage as _stage
from ..kernels.spec_cache import cached_encoder
from ..merkle.multiproof import MerkleMultiProof, open_multi
from ..merkle.tree import MerkleTree, build_forest
from ..encoder.spielman import EncoderParams

DEFAULT_COLUMN_CHECKS = 24


@dataclass(frozen=True)
class PcsParams:
    """Static parameters shared by prover and verifier."""

    num_vars: int
    row_vars: int
    col_vars: int
    encoder_seed: int
    encoder_params: EncoderParams
    num_col_checks: int = DEFAULT_COLUMN_CHECKS

    @property
    def num_rows(self) -> int:
        return 1 << self.row_vars

    @property
    def num_cols(self) -> int:
        return 1 << self.col_vars

    @property
    def codeword_length(self) -> int:
        return self.encoder_params.codeword_length(self.num_cols)

    @property
    def merkle_depth(self) -> int:
        """Depth of the column tree (leaves padded to a power of two)."""
        return (self.codeword_length - 1).bit_length()


@dataclass(frozen=True)
class Commitment:
    """The public commitment: a Merkle root plus the shape parameters."""

    root: bytes
    params: PcsParams


@dataclass
class EncodedRows:
    """The encode half of a commit: codeword rows awaiting the Merkle half.

    Produced by :meth:`BrakedownPCS.encode_rows_lanes` for a lane group
    (S31) — a one-proof commit is a group of one — and consumed by
    :meth:`BrakedownPCS.commit_encoded_lanes`: the boundary the pipelined
    executor schedules across, so group *i+1* can be encoding while group
    *i* hashes.  On the Mersenne-61 fast path the matrices stay stacked
    ``uint64`` arrays (``[L, R, C]`` / ``[L, R, Q]``), so every later
    kernel covers all lanes in one dispatch and nothing round-trips
    through Python ints; otherwise they are per-lane lists of int rows.
    """

    matrices: Sequence  # [L, R, C] coefficient matrices
    codewords: Sequence  # [L, R, Q] codeword matrices U

    @property
    def lanes(self) -> int:
        return len(self.matrices)

    @property
    def matrix(self) -> Sequence[Sequence[int]]:
        """The first lane's R×C matrix — the one lane of a one-proof commit."""
        return self.matrices[0]

    @property
    def encoded(self) -> Sequence[Sequence[int]]:
        """The first lane's R×(qC) codeword matrix."""
        return self.codewords[0]


@dataclass
class ProverState(EncodedRows):
    """Everything the prover retains between commit and open.

    The encoded rows plus one Merkle tree per lane (their roots differ,
    which is where the lanes' transcripts — and all later challenges —
    diverge).
    """

    trees: List[MerkleTree]
    params: PcsParams

    @property
    def tree(self) -> MerkleTree:
        """The first lane's tree — the one tree of a one-proof commit."""
        return self.trees[0]


@dataclass(frozen=True)
class EvalProof:
    """Proof that the committed polynomial takes claimed values at k points.

    One opening covers every point of a commitment (DESIGN decision 25)
    and carries only what the verifier cannot recompute: the proximity
    row, one evaluation row per distinct row half of the points (in
    first-appearance order), the opened codeword columns (``R`` values
    each, ascending column index) and the sibling nodes of their Merkle
    multiproof.  Column indices come from the transcript, leaves from
    hashing the column values, and the tree depth from :class:`PcsParams`.
    """

    proximity_row: List[int]
    evaluation_rows: List[List[int]]
    columns: List[List[int]]
    nodes: List[bytes]

    def size_field_elements(self) -> int:
        return (
            len(self.proximity_row)
            + sum(map(len, self.evaluation_rows))
            + sum(map(len, self.columns))
        )

    def size_bytes(self, field: PrimeField) -> int:
        """The opening's wire length: elements, nodes and three u32 counts."""
        return (
            12
            + self.size_field_elements() * field.byte_length
            + DIGEST_SIZE * len(self.nodes)
        )


def split_num_vars(num_vars: int, row_vars: Optional[int] = None) -> Tuple[int, int]:
    """Choose the row/column split; default is the balanced √N shape."""
    if num_vars < 2:
        raise CommitmentError("need at least 2 variables to commit")
    if row_vars is None:
        row_vars = num_vars // 2
    col_vars = num_vars - row_vars
    if row_vars < 1 or col_vars < 1:
        raise CommitmentError(
            f"invalid split: {row_vars} row vars, {col_vars} col vars"
        )
    return row_vars, col_vars


class BrakedownPCS:
    """A complete commit/open/verify polynomial commitment scheme.

    >>> from repro.field import DEFAULT_FIELD
    >>> from repro.hashing import Transcript
    >>> pcs = BrakedownPCS(DEFAULT_FIELD, num_vars=6, seed=1)
    >>> evals = DEFAULT_FIELD.rand_vector(64)
    >>> com, state = pcs.commit(evals)
    >>> point = DEFAULT_FIELD.rand_vector(6)
    >>> value = pcs.evaluate(state, point)
    >>> proof = pcs.open(state, point, Transcript(b"x"))
    >>> pcs.verify(com, point, value, proof, Transcript(b"x"))
    True
    """

    def __init__(
        self,
        field: PrimeField,
        num_vars: int,
        row_vars: Optional[int] = None,
        encoder_params: Optional[EncoderParams] = None,
        seed: int = 0,
        hasher: Optional[Hasher] = None,
        num_col_checks: int = DEFAULT_COLUMN_CHECKS,
    ):
        row_vars, col_vars = split_num_vars(num_vars, row_vars)
        self.field = field
        self.hasher = hasher or get_hasher("sha256-hw")
        self.params = PcsParams(
            num_vars=num_vars,
            row_vars=row_vars,
            col_vars=col_vars,
            encoder_seed=seed,
            encoder_params=encoder_params or EncoderParams(),
            num_col_checks=num_col_checks,
        )
        # Expander graphs are deterministic in (modulus, length, params,
        # seed); the memo shares them across prover/verifier instances.
        self.encoder = cached_encoder(
            field,
            self.params.num_cols,
            self.params.encoder_params,
            seed,
        )

    # -- commit ---------------------------------------------------------------

    def commit(self, evals: Sequence[int]) -> Tuple[Commitment, ProverState]:
        """Commit to a multilinear polynomial given its hypercube table.

        Composition of :meth:`encode_rows` and :meth:`commit_encoded`
        (the stage boundary the pipelined executor drives separately) —
        byte-identical to the historical monolithic commit.
        """
        return self.commit_encoded(self.encode_rows(evals))

    def encode_rows(self, evals: Sequence[int]) -> EncodedRows:
        """The encode half of a commit: shape into rows and encode each."""
        return self.encode_rows_lanes(one_lane(evals))

    def commit_encoded(
        self, rows: EncodedRows
    ) -> Tuple[Commitment, ProverState]:
        """The Merkle half of a commit: hash the codeword columns."""
        (commitment,), state = self.commit_encoded_lanes(rows)
        return commitment, state

    def _column_leaves(self, codewords: "np.ndarray") -> List[bytes]:
        """Leaf digests of every column of a ``[L, R, Q]`` codeword stack.

        The stack is transposed to column-major and dumped with one
        ``tobytes()`` (bit-identical to per-column ``pack_vector``), then
        hashed with a single :meth:`Hasher.hash_many` call; lane ``l``
        owns leaves ``l·Q … (l+1)·Q − 1``.
        """
        lanes, rows, q_len = codewords.shape
        raw = (
            np.ascontiguousarray(codewords.transpose(0, 2, 1))
            .astype("<u8", copy=False)
            .tobytes()
        )
        stride = 8 * rows
        return self.hasher.hash_many(
            [raw[i * stride : (i + 1) * stride] for i in range(lanes * q_len)]
        )

    def encode_rows_lanes(self, evals_lanes: Sequence[Sequence[int]]) -> EncodedRows:
        """Encode ``L`` lanes' evaluation tables (an ``[L, 2^num_vars]``
        array or a sequence of tables).

        On the fast path the lanes' row matrices are stacked to
        ``(L·R, C)`` so each encoder stage runs once for the whole group
        (a table is normalised once and reshaped, not copied);
        row-independence of the encoder makes the stacked pass
        bit-identical to encoding each row alone.
        """
        params = self.params
        expected = 1 << params.num_vars
        for evals in evals_lanes:
            if len(evals) != expected:
                raise CommitmentError(
                    f"expected {expected} evaluations, got {len(evals)}"
                )
        rows, cols = params.num_rows, params.num_cols
        if vectorised(self.field):
            if isinstance(evals_lanes, np.ndarray):
                stack = _f61.to_f61(evals_lanes)
            else:
                stack = np.stack([_f61.to_f61(evals) for evals in evals_lanes])
            lanes = stack.shape[0]
            matrices = stack.reshape(lanes, rows, cols)
            with _stage("encode"):
                flat = self.encoder._encode_batch61(stack.reshape(lanes * rows, cols))
            return EncodedRows(matrices, flat.reshape(lanes, rows, flat.shape[1]))
        p = self.field.modulus
        matrices = [
            [[v % p for v in evals[r * cols : (r + 1) * cols]] for r in range(rows)]
            for evals in map(to_ints, evals_lanes)
        ]
        with _stage("encode"):
            codewords = [[self.encoder.encode(row) for row in m] for m in matrices]
        return EncodedRows(matrices, codewords)

    def commit_encoded_lanes(
        self, rows: EncodedRows
    ) -> Tuple[List[Commitment], ProverState]:
        """The Merkle half of a lane-group commit: one forest, one pass.

        All lanes' columns are leaf-hashed with a single
        :meth:`Hasher.hash_many` call; :func:`~repro.merkle.tree.build_forest`
        then compresses every lane's tree level in one batched dispatch
        per level.
        """
        params = self.params
        lanes = rows.lanes
        with _stage("merkle"):
            if isinstance(rows.codewords, np.ndarray):
                leaves = self._column_leaves(rows.codewords)
            else:
                leaves = self.hasher.hash_many(
                    [
                        pack_vector(self.field, column)
                        for codeword in rows.codewords
                        for column in zip(*codeword)
                    ]
                )
            q_len = len(leaves) // lanes
            trees = build_forest(
                [leaves[lane * q_len : (lane + 1) * q_len] for lane in range(lanes)],
                self.hasher,
            )
        commitments = [Commitment(root=tree.root, params=params) for tree in trees]
        return commitments, ProverState(
            rows.matrices, rows.codewords, trees=trees, params=params
        )

    # -- evaluation -----------------------------------------------------------------

    def _split_point(self, point: Sequence[int]) -> Tuple[List[int], List[int]]:
        params = self.params
        if len(point) != params.num_vars:
            raise CommitmentError(
                f"point has {len(point)} coordinates, expected {params.num_vars}"
            )
        p = self.field.modulus
        point = [v % p for v in to_ints(point)]
        return point[: params.col_vars], point[params.col_vars :]

    def _row_halves(
        self, points: Sequence[Sequence[int]]
    ) -> Tuple[List[List[int]], List[List[int]], List[int]]:
        """Split points into column halves, the *distinct* row halves in
        first-appearance order, and each point's row-half slot."""
        los: List[List[int]] = []
        slots: Dict[Tuple[int, ...], int] = {}
        which: List[int] = []
        for point in points:
            lo, hi = self._split_point(point)
            los.append(lo)
            which.append(slots.setdefault(tuple(hi), len(slots)))
        return los, [list(hi) for hi in slots], which

    def _rows_at(self, matrices, lanes: Sequence[int], his: Sequence[List[int]]):
        """``eq(hi)ᵀ·M`` for one row half per listed lane.

        Boolean row halves have one-hot eq tables, so their row is a row
        select; any other half takes one row combination for all lanes.
        """
        rows = [_boolean_index(hi) for hi in his]
        if None not in rows:
            return [matrices[lane][row] for lane, row in zip(lanes, rows)]
        if len(lanes) != len(matrices):
            if isinstance(matrices, np.ndarray):
                matrices = matrices[list(lanes)]
            else:
                matrices = [matrices[lane] for lane in lanes]
        return combine_rows(self.field, matrices, eq_table_lanes(self.field, his))

    def _row_values(self, rows: Sequence, los: Sequence[List[int]]) -> List[int]:
        """``⟨row, eq(lo)⟩`` per lane: an entry read at boolean ``lo``."""
        cols = [_boolean_index(lo) for lo in los]
        if None not in cols:
            return [int(row[col]) for row, col in zip(rows, cols)]
        if isinstance(rows, list) and isinstance(rows[0], np.ndarray):
            rows = np.stack(rows)
        return product_pair_sum(self.field, rows, eq_table_lanes(self.field, los))

    def evaluate(self, state: ProverState, point: Sequence[int]) -> int:
        """Honest evaluation ``q_rowᵀ·M·q_col`` from the prover's matrix."""
        lo, hi = self._split_point(point)
        return self._row_values(self._rows_at(state.matrices, [0], [hi]), [lo])[0]

    # -- open -------------------------------------------------------------------------

    def open(
        self, state: ProverState, point: Sequence[int], transcript: Transcript
    ) -> EvalProof:
        """Produce an evaluation proof at one point: :meth:`open_many` of one."""
        return self.open_many(state, [point], transcript)

    def open_many(
        self,
        state: ProverState,
        points: Sequence[Sequence[int]],
        transcript: Transcript,
    ) -> EvalProof:
        """Open a one-lane commitment at every point of ``points`` at once."""
        (proof,), _ = self.open_many_lanes(state, [points], [transcript])
        return proof

    def open_many_lanes(
        self,
        state: ProverState,
        points_lanes: Sequence[Sequence[Sequence[int]]],
        transcripts: Sequence[Transcript],
    ) -> Tuple[List[EvalProof], List[List[int]]]:
        """Open every lane's commitment at that lane's ``k`` points.

        Per lane: one proximity row, one evaluation row per distinct row
        half, one column draw and one Merkle multiproof, however many
        points share the commitment.  The row math runs once per point
        position for the whole group (lanes' transcripts differ, so
        challenges stay per-lane).  Returns the proofs and every lane's
        values at its points, which the transcript binds.
        """
        field = self.field
        params = state.params
        lanes = len(points_lanes)
        los, his, which = zip(*map(self._row_halves, points_lanes))
        positions = range(len(points_lanes[0]))
        # Each distinct row half is built at the position where it first
        # appears, batched over the lanes where it does.
        rows: List[list] = [[] for _ in range(lanes)]
        for pos in positions:
            new = [lane for lane in range(lanes) if which[lane][pos] == len(rows[lane])]
            if new:
                built = self._rows_at(
                    state.matrices, new, [his[lane][which[lane][pos]] for lane in new]
                )
                for lane, row in zip(new, built):
                    rows[lane].append(row)
        by_position = [
            self._row_values(
                [rows[lane][which[lane][pos]] for lane in range(lanes)],
                [los[lane][pos] for lane in range(lanes)],
            )
            for pos in positions
        ]
        values = [list(lane_values) for lane_values in zip(*by_position)]
        for lane, transcript in enumerate(transcripts):
            self._absorb_claims(
                transcript, state.trees[lane].root, points_lanes[lane], values[lane]
            )

        # Proximity test: one random row combination per lane.
        r_lanes = [
            transcript.challenge_field_vector(
                b"pcs/proximity", field, params.num_rows
            )
            for transcript in transcripts
        ]
        proximity_rows = combine_rows(field, state.matrices, r_lanes)

        proofs = []
        for lane, transcript in enumerate(transcripts):
            transcript.absorb_field_vector(
                b"pcs/prox-row", field, proximity_rows[lane]
            )
            for row in rows[lane]:
                transcript.absorb_field_vector(b"pcs/eval-row", field, row)
            opened = self._draw_columns(transcript)
            encoded = state.codewords[lane]
            # Values enter a proof object, whose schema is lists of ints,
            # here: the array-native path pays its O(√N) ``tolist`` once.
            if isinstance(encoded, np.ndarray):
                columns = encoded[:, opened].T.tolist()
            else:
                columns = [[row[j] for row in encoded] for j in opened]
            proofs.append(
                EvalProof(
                    proximity_row=to_ints(proximity_rows[lane]),
                    evaluation_rows=[list(to_ints(row)) for row in rows[lane]],
                    columns=columns,
                    nodes=list(open_multi(state.trees[lane], opened).nodes),
                )
            )
        return proofs, values

    def _absorb_claims(
        self,
        transcript: Transcript,
        root: bytes,
        points: Sequence[Sequence[int]],
        values: Sequence[int],
    ) -> None:
        field = self.field
        transcript.absorb_bytes(b"pcs/root", root)
        for point in points:
            transcript.absorb_field_vector(b"pcs/point", field, list(point))
        transcript.absorb_field_vector(b"pcs/values", field, list(values))

    def _draw_columns(self, transcript: Transcript) -> List[int]:
        """The sorted distinct codeword columns the transcript opens."""
        params = self.params
        return sorted(
            set(
                transcript.challenge_indices(
                    b"pcs/columns", params.codeword_length, params.num_col_checks
                )
            )
        )

    # -- verify ---------------------------------------------------------------------------

    def verify(
        self,
        commitment: Commitment,
        point: Sequence[int],
        value: int,
        proof: EvalProof,
        transcript: Transcript,
    ) -> bool:
        """Check a one-point evaluation proof: :meth:`verify_many` of one."""
        return self.verify_many(commitment, [point], [value], proof, transcript)

    def verify_many(
        self,
        commitment: Commitment,
        points: Sequence[Sequence[int]],
        values: Sequence[int],
        proof: EvalProof,
        transcript: Transcript,
    ) -> bool:
        """Check an opening of ``commitment`` at every point of ``points``.

        One transcript replay; one batched re-encode of the claimed rows
        (proximity row plus evaluation rows); the opened columns combined
        once per claimed row and compared with those codewords; one
        multiproof fold of the columns' leaves to the root; and one
        ``⟨u, eq(z_lo)⟩ = value`` check per point.  Returns False on any
        failed check.
        """
        params = commitment.params
        field = self.field
        p = field.modulus
        if params != self.params:
            raise CommitmentError("commitment parameters do not match this PCS")
        if not points or len(points) != len(values):
            return False
        try:
            los, his, which = self._row_halves(points)
        except CommitmentError:
            return False
        claimed = [proof.proximity_row, *proof.evaluation_rows]
        if len(claimed) != 1 + len(his):
            return False
        if any(len(row) != params.num_cols for row in claimed):
            return False

        self._absorb_claims(transcript, commitment.root, points, values)
        r_coeffs = transcript.challenge_field_vector(
            b"pcs/proximity", field, params.num_rows
        )
        transcript.absorb_field_vector(b"pcs/prox-row", field, proof.proximity_row)
        for row in proof.evaluation_rows:
            transcript.absorb_field_vector(b"pcs/eval-row", field, row)
        opened = self._draw_columns(transcript)
        if len(proof.columns) != len(opened):
            return False
        if any(len(column) != params.num_rows for column in proof.columns):
            return False

        # Every claimed row must agree with the committed codeword matrix
        # U on the opened columns: Enc(row)[j] = Σ_i coeff_i · U[i][j].
        coeffs = [r_coeffs, *eq_table_lanes(field, his)]
        if vectorised(field):
            codes = self.encoder._encode_batch61(
                np.stack([_f61.to_f61(row) for row in claimed])
            )[:, opened]
            restricted = np.stack([_f61.to_f61(c) for c in proof.columns]).T
            combined = combine_rows(
                field, restricted, np.stack([_f61.to_f61(c) for c in coeffs])
            )
            if not np.array_equal(combined, codes):
                return False
        else:
            restricted = [list(row) for row in zip(*proof.columns)]
            for row, c in zip(claimed, coeffs):
                code = self.encoder.encode(row)
                combined = combine_rows(field, restricted, c)
                if combined != [code[j] % p for j in opened]:
                    return False

        leaves = self.hasher.hash_many(
            [pack_vector(field, column) for column in proof.columns]
        )
        multiproof = MerkleMultiProof(
            indices=tuple(opened),
            leaves=tuple(leaves),
            nodes=tuple(proof.nodes),
            depth=params.merkle_depth,
        )
        if not multiproof.verify(commitment.root, self.hasher):
            return False

        rows = [
            _f61.to_f61(row) if vectorised(field) else list(row)
            for row in proof.evaluation_rows
        ]
        return all(
            self._row_values([rows[slot]], [lo])[0] == value % p
            for lo, slot, value in zip(los, which, values)
        )


def _boolean_index(coords: Sequence[int]) -> Optional[int]:
    """The table index of a boolean point (LSB first), else None."""
    index = 0
    for i, bit in enumerate(coords):
        if bit not in (0, 1):
            return None
        index |= bit << i
    return index
