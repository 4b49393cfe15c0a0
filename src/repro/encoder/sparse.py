"""Sparse matrices over prime fields (paper §2.4, §3.3).

The linear-time encoder's bipartite graphs are represented as sparse
matrices: "right vertices correspond to rows of the matrix and left
vertices correspond to columns.  A non-zero entry in the sparse matrix
represents an edge between two vertices" (§2.4).  We store the transpose
view that the encoding actually uses — a vector-matrix product
``y = x · A`` where ``x`` indexes the *left* vertices.

Representation is row-major COO grouped by row (one adjacency list per
left vertex), plus the flat edge arrays of the vectorised Mersenne-61
fast path.  Row lengths are bounded (< 256 non-zeros, §3.3) so they fit a
byte — the property the paper's bucket-sorted warp scheduling relies on.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EncodingError
from ..field.fast61 import F61SpMV, as_f61
from ..field.prime_field import PrimeField
from ..kernels import field_kernels as _kernels

MAX_ROW_WEIGHT = 255  # rows must fit a single byte of length (§3.3)


class SparseMatrix:
    """A sparse ``n_in × n_out`` matrix over GF(p), applied as ``y = x·A``.

    ``rows[i]`` lists the ``(column, weight)`` pairs of left vertex ``i``.
    """

    __slots__ = ("field", "n_in", "n_out", "rows", "_f61")

    def __init__(
        self,
        field: PrimeField,
        n_in: int,
        n_out: int,
        rows: List[List[Tuple[int, int]]],
    ):
        if len(rows) != n_in:
            raise EncodingError(f"expected {n_in} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) > MAX_ROW_WEIGHT:
                raise EncodingError(
                    f"row {i} has {len(row)} non-zeros (> {MAX_ROW_WEIGHT})"
                )
            for j, w in row:
                if not 0 <= j < n_out:
                    raise EncodingError(f"row {i}: column {j} out of range")
                if not 0 < w < field.modulus:
                    raise EncodingError(f"row {i}: weight {w} not a nonzero residue")
        self.field = field
        self.n_in = n_in
        self.n_out = n_out
        self.rows = rows
        self._f61: Optional[F61SpMV] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def random_expander(
        cls,
        field: PrimeField,
        n_in: int,
        n_out: int,
        row_weight: int,
        rng: random.Random,
    ) -> "SparseMatrix":
        """A pseudorandom bipartite graph with fixed left degree.

        Each left vertex connects to ``min(row_weight, n_out)`` distinct
        right vertices with uniformly random nonzero weights.  Random
        bipartite graphs of constant degree are expanders with overwhelming
        probability — the standard instantiation used by Brakedown-style
        codes.
        """
        if n_in <= 0 or n_out <= 0:
            raise EncodingError("matrix dimensions must be positive")
        weight = min(row_weight, n_out)
        if weight <= 0 or weight > MAX_ROW_WEIGHT:
            raise EncodingError(f"row weight {weight} out of range")
        p = field.modulus
        rows: List[List[Tuple[int, int]]] = []
        for _ in range(n_in):
            cols = rng.sample(range(n_out), weight)
            row = sorted((j, rng.randrange(1, p)) for j in cols)
            rows.append(row)
        return cls(field, n_in, n_out, rows)

    @classmethod
    def dense_random(
        cls, field: PrimeField, n_in: int, n_out: int, rng: random.Random
    ) -> "SparseMatrix":
        """A dense random matrix (used as the recursion-base generator)."""
        if n_out > MAX_ROW_WEIGHT:
            raise EncodingError(
                f"dense base matrix wider than {MAX_ROW_WEIGHT} columns"
            )
        p = field.modulus
        rows = [
            [(j, rng.randrange(1, p)) for j in range(n_out)] for _ in range(n_in)
        ]
        return cls(field, n_in, n_out, rows)

    # -- application ----------------------------------------------------------

    def apply(self, x: Sequence[int]) -> List[int]:
        """Compute ``y = x · A`` over the field (SpMV kernel).

        On the fast path with the default Mersenne-61 field this is the
        vectorised gather/segment-sum of :class:`~repro.field.fast61.F61SpMV`
        (built by :meth:`_ensure_f61`).  Results are bit-identical to the
        scalar kernel — the limb arithmetic is exact — and a ``uint64``
        array input gets an array back; any other sequence gets a list.
        """
        if len(x) != self.n_in:
            raise EncodingError(f"input length {len(x)} != n_in {self.n_in}")
        if _kernels.vectorised(self.field):
            y = self._ensure_f61().apply(as_f61(x))
            return y if isinstance(x, np.ndarray) else y.tolist()
        return _kernels.spmv(self.field, self.rows, x, self.n_out)

    def _ensure_f61(self) -> F61SpMV:
        if self._f61 is None:
            src: List[int] = []
            dst: List[int] = []
            wval: List[int] = []
            for i, row in enumerate(self.rows):
                for j, w in row:
                    src.append(i)
                    dst.append(j)
                    wval.append(w)
            self._f61 = F61SpMV(src, dst, wval, self.n_in, self.n_out)
        return self._f61

    # -- statistics -----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def row_lengths(self) -> List[int]:
        return [len(r) for r in self.rows]

    def column_degrees(self) -> List[int]:
        deg = [0] * self.n_out
        for row in self.rows:
            for j, _ in row:
                deg[j] += 1
        return deg

    def density(self) -> float:
        return self.nnz / float(self.n_in * self.n_out)

    def __repr__(self) -> str:
        return (
            f"SparseMatrix({self.n_in}x{self.n_out}, nnz={self.nnz}, "
            f"field={self.field.name})"
        )
