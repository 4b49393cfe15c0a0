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
* **Open at point z** — split ``z`` into column half ``z_lo`` and row half
  ``z_hi``; then ``w(z) = q_rowᵀ · M · q_col`` with ``q_row = eq(z_hi,·)``,
  ``q_col = eq(z_lo,·)``.  The prover sends:

  - a *proximity row*  ``p = rᵀ·M`` for a transcript-derived random ``r``
    (tests that the committed rows are jointly close to the code),
  - the *evaluation row* ``u = q_rowᵀ·M``,
  - openings of ``t`` transcript-chosen codeword columns.

* **Verify** — for each opened column ``j``: check the Merkle path, and
  check ``Enc(p)[j] = Σ_i r_i·U[i][j]`` and ``Enc(u)[j] = Σ_i q_row_i·
  U[i][j]`` (linearity of the code makes honest rows pass everywhere).
  Finally check ``⟨u, q_col⟩ = claimed value``.

Security note: soundness error decays exponentially in the number of
column checks ``t`` given the code's minimum distance; this reproduction
uses pseudorandom expanders without a certified distance bound, so ``t``
is a tunable knob rather than a derived constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommitmentError, MerkleError
from ..field import fast61 as _f61
from ..field.fast61 import to_ints
from ..field.prime_field import PrimeField
from ..hashing.hashers import Hasher, get_hasher
from ..hashing.transcript import Transcript
from ..kernels.field_kernels import (
    combine_rows,
    eq_table,
    eq_table_lanes,
    one_lane,
    pack_vector,
    product_pair_sum,
    vectorised,
)
from ..kernels.profile import stage as _stage
from ..kernels.spec_cache import cached_encoder
from ..merkle.multiproof import MerkleMultiProof, open_multi
from ..merkle.proof import MerklePath, compute_roots
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
    #: Authenticate all opened columns with one shared Merkle multiproof
    #: instead of independent per-column paths (smaller proofs).
    compress_openings: bool = False

    @property
    def num_rows(self) -> int:
        return 1 << self.row_vars

    @property
    def num_cols(self) -> int:
        return 1 << self.col_vars

    @property
    def codeword_length(self) -> int:
        return self.encoder_params.codeword_length(self.num_cols)


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
class ColumnOpening:
    """One opened codeword column.

    ``path`` is its individual Merkle authentication path, or ``None``
    when the whole proof authenticates columns with one shared
    :class:`~repro.merkle.MerkleMultiProof` (compressed mode).
    """

    index: int
    values: List[int]  # the column across all R rows
    path: Optional[MerklePath]


@dataclass(frozen=True)
class EvalProof:
    """Proof that the committed polynomial evaluates to ``value`` at ``point``.

    ``multiproof`` is set in compressed-openings mode (see
    :class:`PcsParams.compress_openings`): the opened columns' leaves are
    then authenticated jointly, deduplicating shared interior nodes.
    """

    proximity_row: List[int]
    evaluation_row: List[int]
    columns: List[ColumnOpening]
    multiproof: Optional["MerkleMultiProof"] = None

    def size_field_elements(self) -> int:
        return (
            len(self.proximity_row)
            + len(self.evaluation_row)
            + sum(len(c.values) for c in self.columns)
        )

    def size_bytes(self, field: PrimeField) -> int:
        fe = self.size_field_elements() * field.byte_length
        paths = sum(
            c.path.size_bytes() for c in self.columns if c.path is not None
        )
        if self.multiproof is not None:
            paths += self.multiproof.size_bytes()
        return fe + paths


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
        compress_openings: bool = False,
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
            compress_openings=compress_openings,
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
        return (
            list(point[: params.col_vars]),  # low vars index columns
            list(point[params.col_vars :]),  # high vars index rows
        )

    def evaluate(self, state: ProverState, point: Sequence[int]) -> int:
        """Honest evaluation ``q_rowᵀ·M·q_col`` from the prover's matrix."""
        return self.evaluate_lanes(state, [point])[0]

    def evaluate_lanes(
        self, state: ProverState, points: Sequence[Sequence[int]]
    ) -> List[int]:
        """Honest per-lane evaluations at per-lane points, one kernel pass.

        The row combination and final dot product cover the whole lane
        group (all fast61 arithmetic is exact, so each lane's value is
        what it would be alone).
        """
        splits = [self._split_point(point) for point in points]
        q_cols = eq_table_lanes(self.field, [lo for lo, _ in splits])
        q_rows = eq_table_lanes(self.field, [hi for _, hi in splits])
        combined = combine_rows(self.field, state.matrices, q_rows)
        return product_pair_sum(self.field, combined, q_cols)

    # -- open -------------------------------------------------------------------------

    def open(
        self, state: ProverState, point: Sequence[int], transcript: Transcript
    ) -> EvalProof:
        """Produce an evaluation proof bound to ``transcript``."""
        return self.open_lanes(state, [point], [transcript])[0]

    def open_lanes(
        self,
        state: ProverState,
        points: Sequence[Sequence[int]],
        transcripts: Sequence[Transcript],
    ) -> List[EvalProof]:
        """Produce one evaluation proof per lane, row math batched.

        Each lane keeps its own transcript (roots differ, so challenges
        differ lane-for-lane), but the two row combinations — the only
        O(R·C) work — run once for the whole group.
        """
        params = state.params
        field = self.field
        splits = [self._split_point(point) for point in points]
        for tree, point, transcript in zip(state.trees, points, transcripts):
            transcript.absorb_bytes(b"pcs/root", tree.root)
            transcript.absorb_field_vector(b"pcs/point", field, list(point))

        # Proximity test: random row combination.
        r_lanes = [
            transcript.challenge_field_vector(
                b"pcs/proximity", field, params.num_rows
            )
            for transcript in transcripts
        ]
        proximity_rows = combine_rows(field, state.matrices, r_lanes)
        for row, transcript in zip(proximity_rows, transcripts):
            transcript.absorb_field_vector(b"pcs/prox-row", field, row)

        # Evaluation row: eq(z_hi)ᵀ · M.
        q_rows = eq_table_lanes(field, [hi for _, hi in splits])
        evaluation_rows = combine_rows(field, state.matrices, q_rows)
        for row, transcript in zip(evaluation_rows, transcripts):
            transcript.absorb_field_vector(b"pcs/eval-row", field, row)

        return [
            self._finish_opening(*lane)
            for lane in zip(
                state.codewords,
                state.trees,
                transcripts,
                proximity_rows,
                evaluation_rows,
            )
        ]

    def _finish_opening(
        self,
        encoded: Sequence[Sequence[int]],
        tree: MerkleTree,
        transcript: Transcript,
        proximity_row: Sequence[int],
        evaluation_row: Sequence[int],
    ) -> EvalProof:
        """Draw the column spot checks and assemble the evaluation proof.

        This is where values enter a proof object, whose schema is lists
        of ints: the array-native path pays its O(√N) ``tolist`` here.
        """
        params = self.params
        indices = transcript.challenge_indices(
            b"pcs/columns", params.codeword_length, params.num_col_checks
        )
        opened = sorted(set(indices))
        if isinstance(encoded, np.ndarray):
            col_values = encoded[:, opened].T.tolist()
        else:
            col_values = [[row[j] for row in encoded] for j in opened]
        compress = params.compress_openings
        columns = [
            ColumnOpening(
                index=j, values=values, path=None if compress else tree.open(j)
            )
            for j, values in zip(opened, col_values)
        ]
        return EvalProof(
            proximity_row=to_ints(proximity_row),
            evaluation_row=to_ints(evaluation_row),
            columns=columns,
            multiproof=open_multi(tree, opened) if compress else None,
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
        """Check an evaluation proof.  Returns False on any failed check."""
        params = commitment.params
        field = self.field
        if params != self.params:
            raise CommitmentError("commitment parameters do not match this PCS")
        try:
            z_lo, z_hi = self._split_point(point)
        except CommitmentError:
            return False
        if len(proof.proximity_row) != params.num_cols:
            return False
        if len(proof.evaluation_row) != params.num_cols:
            return False

        transcript.absorb_bytes(b"pcs/root", commitment.root)
        transcript.absorb_field_vector(b"pcs/point", field, list(point))
        r_coeffs = transcript.challenge_field_vector(
            b"pcs/proximity", field, params.num_rows
        )
        transcript.absorb_field_vector(b"pcs/prox-row", field, proof.proximity_row)
        q_row = eq_table(field, z_hi)
        transcript.absorb_field_vector(b"pcs/eval-row", field, proof.evaluation_row)
        indices = transcript.challenge_indices(
            b"pcs/columns", params.codeword_length, params.num_col_checks
        )
        expected_indices = sorted(set(indices))
        if [c.index for c in proof.columns] != expected_indices:
            return False

        # The verifier re-encodes the two claimed rows (O(C) work).
        prox_code = self.encoder.encode(proof.proximity_row)
        eval_code = self.encoder.encode(proof.evaluation_row)

        for opening in proof.columns:
            if len(opening.values) != params.num_rows:
                return False
        # Restrict the codeword matrix U to the opened columns and run both
        # linear checks as row combinations (one shared kernel pass each):
        # row i of the restriction is U[i][j] for each opened j.
        restricted = [
            [opening.values[i] for opening in proof.columns]
            for i in range(params.num_rows)
        ]
        prox_combined = combine_rows(field, restricted, r_coeffs)
        eval_combined = combine_rows(field, restricted, q_row)
        for pos, opening in enumerate(proof.columns):
            j = opening.index
            if prox_combined[pos] != prox_code[j]:
                return False
            if eval_combined[pos] != eval_code[j]:
                return False

        expected_leaves = self.hasher.hash_many(
            [pack_vector(field, c.values) for c in proof.columns]
        )
        if params.compress_openings:
            mp = proof.multiproof
            if mp is None:
                return False
            if list(mp.indices) != expected_indices:
                return False
            if list(mp.leaves) != expected_leaves:
                return False
            if not mp.verify(commitment.root, self.hasher):
                return False
        else:
            if proof.multiproof is not None:
                return False
            for opening, leaf in zip(proof.columns, expected_leaves):
                path = opening.path
                if path is None or path.leaf != leaf or path.index != opening.index:
                    return False
            try:
                roots = compute_roots(
                    [opening.path for opening in proof.columns], self.hasher
                )
            except MerkleError:  # paths of different depths
                return False
            if any(root != commitment.root for root in roots):
                return False

        q_col = eq_table(field, z_lo)
        return field.dot(proof.evaluation_row, q_col) == value % field.modulus
