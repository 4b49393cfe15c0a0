"""The Spielman-style linear-time encoder (paper §2.4, §3.3, Figure 3/6).

The encoder is recursive: each stage uses two bipartite graphs (sparse
matrices).  Stage ``k`` with message ``y_k`` of length ``n_k``:

1. ``y_{k+1} = y_k · A_k``              (first vector-matrix multiply;
                                          ``A_k`` is ``n_k × α·n_k``)
2. ``z_{k+1} = Enc_{k+1}(y_{k+1})``      (recurse; base case is a small
                                          dense generator)
3. ``v_k     = z_{k+1} · B_k``           (second vector-matrix multiply)
4. ``Enc_k(y_k) = y_k ‖ z_{k+1} ‖ v_k``  (systematic codeword)

With inverse rate ``q`` the codeword has length ``q·n_k``; ``B_k`` maps the
``q·α·n_k`` symbols of ``z_{k+1}`` onto the remaining
``q·n_k − n_k − q·α·n_k`` parity symbols.

§3.3 observes that recursion is hostile to GPUs (stack depth) and splits
the process into **two interleaved pipelines** (Figure 6): a forward pass
performing all first multiplications large→small, and a backward pass
performing all second multiplications small→large.  Both forms are
implemented here and are bit-identical; tests cross-check them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import EncodingError
from ..field.fast61 import to_f61, to_ints
from ..field.prime_field import PrimeField
from ..kernels.field_kernels import vectorised
from .sparse import SparseMatrix


@dataclass(frozen=True)
class EncoderParams:
    """Tunable parameters of the expander code.

    Attributes:
        alpha:        Message-shrink factor per stage (0 < α < (q−1)/q).
        inv_rate:     q — codeword length is q·message length.
        row_weight_a: Left degree of the first (shrinking) graphs.
        row_weight_b: Left degree of the second (parity) graphs.
        base_size:    Messages at or below this length use a dense random
                      generator instead of recursing.
    """

    alpha: float = 0.25
    inv_rate: int = 2
    row_weight_a: int = 8
    row_weight_b: int = 8
    base_size: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise EncodingError(f"alpha must be in (0,1), got {self.alpha}")
        if self.inv_rate < 2:
            raise EncodingError("inverse rate must be >= 2")
        if self.inv_rate * (1 - self.alpha) <= 1:
            raise EncodingError(
                "parameters leave no parity symbols: need q(1-alpha) > 1"
            )
        if self.base_size < 2:
            raise EncodingError("base_size must be >= 2")

    def codeword_length(self, message_length: int) -> int:
        return self.inv_rate * message_length


@dataclass(frozen=True)
class EncoderStage:
    """One recursion stage's matrices and sizes (a pair of bipartite graphs)."""

    index: int
    message_length: int  # n_k
    shrunk_length: int  # α·n_k   (output of A_k)
    parity_length: int  # q·n_k − n_k − q·α·n_k (output of B_k)
    matrix_a: SparseMatrix
    matrix_b: SparseMatrix

    @property
    def codeword_length(self) -> int:
        return (
            self.message_length + self.matrix_b.n_in + self.parity_length
        )


class SpielmanEncoder:
    """A deterministic linear-time encoder for a fixed message length.

    All bipartite graphs are derived from ``seed``, so prover and verifier
    construct identical codes — a requirement of the Brakedown commitment.

    >>> from repro.field import DEFAULT_FIELD
    >>> enc = SpielmanEncoder(DEFAULT_FIELD, 64, seed=7)
    >>> cw = enc.encode([1] * 64)
    >>> len(cw) == enc.codeword_length and cw[:64] == [1] * 64
    True
    """

    def __init__(
        self,
        field: PrimeField,
        message_length: int,
        params: Optional[EncoderParams] = None,
        seed: int = 0,
    ):
        if message_length < 1:
            raise EncodingError("message length must be positive")
        self.field = field
        self.message_length = message_length
        self.params = params or EncoderParams()
        self.seed = seed
        rng = random.Random(("spielman", seed, field.modulus, message_length).__repr__())
        self.stages: List[EncoderStage] = []
        self.base_matrix: Optional[SparseMatrix] = None
        self._build(rng)

    # -- construction -------------------------------------------------------

    def _build(self, rng: random.Random) -> None:
        q = self.params.inv_rate
        n = self.message_length
        index = 0
        while n > self.params.base_size:
            shrunk = max(1, math.ceil(self.params.alpha * n))
            z_len = q * shrunk  # length of the recursive codeword
            parity = q * n - n - z_len
            if parity <= 0:
                # Too small for a full stage; fall through to the base case.
                break
            matrix_a = SparseMatrix.random_expander(
                self.field, n, shrunk, self.params.row_weight_a, rng
            )
            matrix_b = SparseMatrix.random_expander(
                self.field, z_len, parity, self.params.row_weight_b, rng
            )
            self.stages.append(
                EncoderStage(
                    index=index,
                    message_length=n,
                    shrunk_length=shrunk,
                    parity_length=parity,
                    matrix_a=matrix_a,
                    matrix_b=matrix_b,
                )
            )
            n = shrunk
            index += 1
        # Base case: a dense random generator with a systematic prefix,
        # giving Enc(y) = y ‖ y·G of length q·|y|.
        self.base_message_length = n
        self.base_matrix = SparseMatrix.dense_random(
            self.field, n, (q - 1) * n, rng
        )

    @property
    def codeword_length(self) -> int:
        return self.params.codeword_length(self.message_length)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def total_nnz(self) -> int:
        """Total non-zeros across all graphs — the O(N) work bound."""
        total = sum(s.matrix_a.nnz + s.matrix_b.nnz for s in self.stages)
        if self.base_matrix is not None:
            total += self.base_matrix.nnz
        return total

    # -- base case ----------------------------------------------------------------

    def _encode_base(self, message: List[int]) -> List[int]:
        assert self.base_matrix is not None
        return list(message) + self.base_matrix.apply(message)

    # -- recursive form (Figure 3) --------------------------------------------------

    def encode_recursive(self, message: Sequence[int]) -> List[int]:
        """Direct recursive encoding — the textbook form of Figure 3."""
        msg = [v % self.field.modulus for v in to_ints(message)]
        if len(msg) != self.message_length:
            raise EncodingError(
                f"message length {len(msg)} != {self.message_length}"
            )
        return self._encode_from(0, msg)

    def _encode_from(self, stage_index: int, message: List[int]) -> List[int]:
        if stage_index >= len(self.stages):
            return self._encode_base(message)
        stage = self.stages[stage_index]
        if len(message) != stage.message_length:
            raise EncodingError(
                f"stage {stage_index}: message length {len(message)} != "
                f"{stage.message_length}"
            )
        shrunk = stage.matrix_a.apply(message)
        z = self._encode_from(stage_index + 1, shrunk)
        parity = stage.matrix_b.apply(z)
        return message + z + parity

    # -- two-pass iterative form (Figure 6) ------------------------------------------

    def encode(self, message: Sequence[int]) -> List[int]:
        """Two-pass iterative encoding (the paper's pipelined form).

        Pass 1 walks stages large→small computing every first
        multiplication; pass 2 walks small→large computing every second
        multiplication and assembling codewords.  Output is bit-identical
        to :meth:`encode_recursive`.  On the Mersenne-61 fast path the
        message is normalised to a ``uint64`` array once and every stage
        runs on arrays; an array input gets the codeword back as an
        array, any other sequence as a list.
        """
        if len(message) != self.message_length:
            raise EncodingError(
                f"message length {len(message)} != {self.message_length}"
            )
        if self._use_f61():
            codeword = self._encode_batch61(to_f61(message)[None, :])[0]
            if isinstance(message, np.ndarray):
                return codeword
            return codeword.tolist()
        msg = [v % self.field.modulus for v in to_ints(message)]
        # Pass 1 (forward): y_0 = message, y_{k+1} = y_k · A_k.
        forward: List[List[int]] = [msg]
        for stage in self.stages:
            forward.append(stage.matrix_a.apply(forward[-1]))
        # Base encoding of the smallest message.
        z = self._encode_base(forward[-1])
        # Pass 2 (backward): z_k = y_k ‖ z_{k+1} ‖ z_{k+1}·B_k.
        for stage in reversed(self.stages):
            parity = stage.matrix_b.apply(z)
            z = forward[stage.index] + z + parity
        return z

    # -- batched encoding (commit hot path) --------------------------------------------

    def _use_f61(self) -> bool:
        return vectorised(self.field)

    def prepare_f61(self) -> None:
        """Build every graph's vectorised edge set now (a set-up cost, not
        a first-proof cost); a no-op off the Mersenne-61 fast path."""
        if self._use_f61():
            for stage in self.stages:
                stage.matrix_a._ensure_f61()
                stage.matrix_b._ensure_f61()
            self.base_matrix._ensure_f61()

    def _encode_batch61(self, batch: np.ndarray) -> np.ndarray:
        """Two-pass batched encoding of canonical ``(R, n)`` ``uint64`` rows."""
        forward = [batch]
        for stage in self.stages:
            forward.append(stage.matrix_a._ensure_f61().apply_batch(forward[-1]))
        assert self.base_matrix is not None
        base_in = forward[-1]
        z = np.concatenate(
            [base_in, self.base_matrix._ensure_f61().apply_batch(base_in)], axis=1
        )
        for stage in reversed(self.stages):
            parity = stage.matrix_b._ensure_f61().apply_batch(z)
            z = np.concatenate([forward[stage.index], z, parity], axis=1)
        return z

    # -- codeword checking -------------------------------------------------------------

    def is_codeword(self, codeword: Sequence[int]) -> bool:
        """Check that ``codeword`` is a valid codeword of this code.

        Systematic codes make this cheap: re-encode the message prefix and
        compare.  Used by receivers validating relayed codewords and by the
        test suite's corruption checks.
        """
        if len(codeword) != self.codeword_length:
            return False
        codeword = [v % self.field.modulus for v in to_ints(codeword)]
        return self.encode(codeword[: self.message_length]) == codeword

    def __repr__(self) -> str:
        return (
            f"SpielmanEncoder(n={self.message_length}, q={self.params.inv_rate}, "
            f"stages={self.num_stages}, field={self.field.name})"
        )
