"""Rank-1 constraint systems (R1CS) over prime fields.

The paper reports circuit scale as "the number of multiplication gates in
the circuit compiled from the function to be proved" (§6.3).  Each
multiplication gate compiles to exactly one R1CS constraint
``⟨A_i, z⟩ · ⟨B_i, z⟩ = ⟨C_i, z⟩`` (addition gates fold into the linear
combinations for free), so R1CS constraint count is the paper's scale S.

Matrices are sparse (list of ``(column, coeff)`` per row).  Beyond plain
satisfaction checking, this module implements the two algebraic queries
the Spartan-style protocol needs:

* ``matvec`` — the tables Az, Bz, Cz feeding sum-check #1.
* ``combined_row_table`` / ``mle_eval`` — the O(nnz) computations of
  ``Σ_i eq(r_x, i)·M[i][·]`` and ``M̃(r_x, r_y)`` for sum-check #2 and the
  verifier's final check.

Constraint and variable counts are padded to powers of two (hypercube
domains); index 0 of the witness vector is pinned to the constant 1.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import CircuitError
from ..field import fast61 as _f61
from ..field.fast61 import to_ints
from ..field.multilinear import eq_table
from ..field.prime_field import PrimeField
from ..kernels import field_kernels as _kernels

SparseRow = List[Tuple[int, int]]


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (with next_power_of_two(0) == 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


class R1CS:
    """A sparse R1CS instance ``(Az) ∘ (Bz) = Cz``.

    Attributes:
        field:            The prime field.
        num_constraints:  Logical (unpadded) constraint count — the scale S.
        num_vars:         Logical witness length (including the leading 1).
        a_rows/b_rows/c_rows: Sparse rows, one triple per constraint.
    """

    def __init__(
        self,
        field: PrimeField,
        num_vars: int,
        a_rows: List[SparseRow],
        b_rows: List[SparseRow],
        c_rows: List[SparseRow],
    ):
        if not (len(a_rows) == len(b_rows) == len(c_rows)):
            raise CircuitError("A, B, C must have equal row counts")
        if num_vars < 1:
            raise CircuitError("witness must contain at least the constant 1")
        self.field = field
        self.num_constraints = len(a_rows)
        self.num_vars = num_vars
        self.a_rows = a_rows
        self.b_rows = b_rows
        self.c_rows = c_rows
        for rows in (a_rows, b_rows, c_rows):
            for i, row in enumerate(rows):
                for j, coeff in row:
                    if not 0 <= j < num_vars:
                        raise CircuitError(f"constraint {i}: column {j} out of range")
                    if coeff % field.modulus == 0:
                        raise CircuitError(f"constraint {i}: zero coefficient stored")

    # -- padded shapes --------------------------------------------------------

    @property
    def padded_constraints(self) -> int:
        return next_power_of_two(max(2, self.num_constraints))

    @property
    def constraint_vars(self) -> int:
        """m such that constraints live on {0,1}^m."""
        return self.padded_constraints.bit_length() - 1

    @property
    def padded_vars(self) -> int:
        return next_power_of_two(max(4, self.num_vars))

    @property
    def witness_vars(self) -> int:
        """s such that the witness lives on {0,1}^s."""
        return self.padded_vars.bit_length() - 1

    def nnz(self) -> int:
        return sum(
            len(r)
            for rows in (self.a_rows, self.b_rows, self.c_rows)
            for r in rows
        )

    # -- evaluation -----------------------------------------------------------------

    def pad_witness(self, z: Sequence[int]) -> Sequence[int]:
        """The witness reduced mod p and zero-padded to ``padded_vars``.

        On the Mersenne-61 fast path this is where the witness becomes a
        ``uint64`` array — the one conversion of a proof; every later
        stage hands arrays on.  Other fields get a list of ints.
        """
        if len(z) != self.num_vars:
            raise CircuitError(
                f"witness length {len(z)} != num_vars {self.num_vars}"
            )
        p = self.field.modulus
        if int(z[0]) % p != 1:
            raise CircuitError("witness[0] must be the constant 1")
        if self._use_f61():
            padded = np.zeros(self.padded_vars, dtype=np.uint64)
            padded[: self.num_vars] = _f61.to_f61(z)
            return padded
        return [v % p for v in to_ints(z)] + [0] * (self.padded_vars - len(z))

    def _matvec(self, rows: List[SparseRow], z: Sequence[int]) -> List[int]:
        p = self.field.modulus
        out = [0] * self.padded_constraints
        for i, row in enumerate(rows):
            acc = 0
            for j, coeff in row:
                acc += coeff * z[j]
            out[i] = acc % p
        return out

    def _f61_ops(self, transpose: bool) -> Tuple[_f61.F61SpMV, ...]:
        """Cached vectorised edge sets for A, B, C.

        ``transpose=False`` maps witness → constraints (matvec);
        ``transpose=True`` maps constraints → witness (row combination).
        :meth:`prepare_f61` builds both at prover construction; a system
        that skipped it (unpickled, or built under reference kernels)
        builds on first use.
        """
        attr = "_f61_cols" if transpose else "_f61_rows"
        cached = getattr(self, attr, None)
        if cached is None:
            n_vars, n_cons = self.padded_vars, self.padded_constraints
            ops = []
            for rows in (self.a_rows, self.b_rows, self.c_rows):
                src: List[int] = []
                dst: List[int] = []
                wval: List[int] = []
                for i, row in enumerate(rows):
                    for j, v in row:
                        src.append(i if transpose else j)
                        dst.append(j if transpose else i)
                        wval.append(v)
                if transpose:
                    ops.append(_f61.F61SpMV(src, dst, wval, n_cons, n_vars))
                else:
                    ops.append(_f61.F61SpMV(src, dst, wval, n_vars, n_cons))
            cached = tuple(ops)
            setattr(self, attr, cached)
        return cached

    def prepare_f61(self) -> None:
        """Build both vectorised edge sets now (a set-up cost, not a
        first-proof cost); a no-op off the Mersenne-61 fast path."""
        if self._use_f61():
            self._f61_ops(transpose=False)
            self._f61_ops(transpose=True)

    def _use_f61(self) -> bool:
        return _kernels.vectorised(self.field)

    def matvec_tables(
        self, z: Sequence[int]
    ) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """Return (Az, Bz, Cz) over the padded constraint domain.

        ``uint64`` arrays on the Mersenne-61 fast path, int lists otherwise.
        """
        padded = self.pad_witness(z) if len(z) == self.num_vars else z
        az, bz, cz = self.matvec_tables_lanes(_kernels.one_lane(padded))
        return az[0], bz[0], cz[0]

    def matvec_tables_lanes(self, z_lanes) -> Tuple[object, object, object]:
        """Laned matvec of padded witnesses: three ``[L, padded_constraints]``
        lane groups.

        On the fast path one batched SpMV per matrix pushes every lane's
        witness through the edge set together (S31); otherwise each lane
        is an int list.
        """
        if self._use_f61():
            x = _f61.as_f61(z_lanes)
            return tuple(op.apply_batch(x) for op in self._f61_ops(transpose=False))
        lanes = [to_ints(z) for z in z_lanes]
        return tuple(
            [self._matvec(rows, z) for z in lanes]
            for rows in (self.a_rows, self.b_rows, self.c_rows)
        )

    def is_satisfied(self, z: Sequence[int]) -> bool:
        return not _kernels.constraint_violation(
            self.field, *self.matvec_tables(z)
        )

    def violations(self, z: Sequence[int]) -> List[int]:
        """Indices of unsatisfied constraints (diagnostic helper)."""
        p = self.field.modulus
        az, bz, cz = map(to_ints, self.matvec_tables(z))
        return [
            i
            for i, (a, b, c) in enumerate(zip(az, bz, cz))
            if (a * b - c) % p != 0
        ]

    # -- multilinear-extension queries ---------------------------------------------------

    def combined_row_table(
        self,
        eq_x: Sequence[int],
        coeff_a: int,
        coeff_b: int,
        coeff_c: int,
    ) -> Sequence[int]:
        """Table ``T[j] = Σ_i eq_x[i]·(cA·A + cB·B + cC·C)[i][j]``.

        O(nnz) — this is the second sum-check's left factor.
        ``eq_x`` must cover the padded constraint domain.  A ``uint64``
        array on the Mersenne-61 fast path, an int list otherwise.
        """
        (table,) = self.combined_row_table_lanes(
            _kernels.one_lane(eq_x), [coeff_a], [coeff_b], [coeff_c]
        )
        return table

    def combined_row_table_lanes(
        self,
        eq_lanes,
        coeffs_a: Sequence[int],
        coeffs_b: Sequence[int],
        coeffs_c: Sequence[int],
    ):
        """Laned :meth:`combined_row_table`: per-lane eq-tables/coefficients.

        ``eq_lanes`` holds one eq-table per lane; each coefficient
        sequence holds one batching challenge per lane.  On the fast path
        the result is a ``[L, padded_vars]`` array: the eq-tables scaled
        by each coefficient column go through the transposed edge sets
        together (a zero coefficient contributes a zero row, so no
        lane-dependent branching is needed).  Otherwise each lane is an
        int list.
        """
        for eq_x in eq_lanes:
            if len(eq_x) != self.padded_constraints:
                raise CircuitError(
                    f"eq_x length {len(eq_x)} != padded constraints "
                    f"{self.padded_constraints}"
                )
        p = self.field.modulus
        coeffs = (coeffs_a, coeffs_b, coeffs_c)
        if self._use_f61():
            eq_arr = _f61.as_f61(eq_lanes)
            total = None
            for column, op in zip(coeffs, self._f61_ops(transpose=True)):
                c_op = _kernels.lane_scalars([c % p for c in column])
                part = op.apply_batch(_f61.f61_mul(eq_arr, c_op))
                total = part if total is None else _f61.f61_add(total, part)
            return total
        out = []
        for lane, eq_x in enumerate(map(to_ints, eq_lanes)):
            table = [0] * self.padded_vars
            for column, rows in zip(coeffs, (self.a_rows, self.b_rows, self.c_rows)):
                coeff = column[lane] % p
                if coeff == 0:
                    continue
                for i, row in enumerate(rows):
                    scale = (coeff * eq_x[i]) % p
                    if scale == 0:
                        continue
                    for j, v in row:
                        table[j] = (table[j] + scale * v) % p
            out.append(table)
        return out

    def mle_eval(
        self, rows: List[SparseRow], eq_x: Sequence[int], eq_y: Sequence[int]
    ) -> int:
        """``M̃(r_x, r_y) = Σ_{(i,j,v)} v·eq_x[i]·eq_y[j]`` in O(nnz)."""
        p = self.field.modulus
        eq_x, eq_y = to_ints(eq_x), to_ints(eq_y)
        total = 0
        for i, row in enumerate(rows):
            ex = eq_x[i]
            if ex == 0:
                continue
            acc = 0
            for j, v in row:
                acc += v * eq_y[j]
            total = (total + ex * acc) % p
        return total

    def mle_evals_abc(
        self, point_x: Sequence[int], point_y: Sequence[int]
    ) -> Tuple[int, int, int]:
        """Evaluate Ã, B̃, C̃ at ``(point_x, point_y)`` (verifier's check).

        On the Mersenne-61 fast path each matrix is one pass of ``eq_x``
        through its transposed edge set (the prover's
        :meth:`combined_row_table` route) and a dot product with ``eq_y``;
        :meth:`mle_eval` is the reference twin and the other fields' path.
        """
        if self._use_f61():
            eq_x = _kernels.eq_table(self.field, point_x)
            eq_y = _kernels.eq_table(self.field, point_y)
            return tuple(
                _f61.f61_dot(op.apply(eq_x), eq_y)
                for op in self._f61_ops(transpose=True)
            )
        eq_x = eq_table(self.field, point_x)
        eq_y = eq_table(self.field, point_y)
        return (
            self.mle_eval(self.a_rows, eq_x, eq_y),
            self.mle_eval(self.b_rows, eq_x, eq_y),
            self.mle_eval(self.c_rows, eq_x, eq_y),
        )

    # -- pickling -------------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the vectorised edge-set caches — they rebuild on first use
        and would otherwise inflate worker-bound spec pickles by O(nnz)."""
        state = dict(self.__dict__)
        state.pop("_f61_rows", None)
        state.pop("_f61_cols", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- identity -------------------------------------------------------------------------

    def digest(self, hasher=None) -> bytes:
        """A hash binding the constraint system (absorbed into transcripts).

        O(nnz) to serialize, so the default-hasher digest is memoized on
        the instance — the spec cache and transcripts request it per
        proof.  (Rows are never mutated after construction.)
        """
        from ..hashing.hashers import get_hasher

        if hasher is None:
            cached = getattr(self, "_default_digest", None)
            if cached is not None:
                return cached
            digest = self.digest(get_hasher("sha256-hw"))
            self._default_digest = digest
            return digest
        parts = [
            self.field.modulus.to_bytes(64, "little"),
            self.num_constraints.to_bytes(8, "little"),
            self.num_vars.to_bytes(8, "little"),
        ]
        for rows in (self.a_rows, self.b_rows, self.c_rows):
            for i, row in enumerate(rows):
                for j, v in row:
                    parts.append(
                        i.to_bytes(8, "little")
                        + j.to_bytes(8, "little")
                        + self.field.to_bytes(v)
                    )
        return hasher.hash_bytes(b"".join(parts))

    def __repr__(self) -> str:
        return (
            f"R1CS(S={self.num_constraints}, vars={self.num_vars}, "
            f"nnz={self.nnz()}, field={self.field.name})"
        )
