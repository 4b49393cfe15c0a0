"""Vectorised arithmetic over the Mersenne-61 field (p = 2^61 − 1).

The numpy fast path for the library's *default* field.  Products of two
61-bit residues span 122 bits and do not fit a ``uint64``, so multiplication
splits each operand into 32-bit limbs and recombines the three partial
products using ``2^61 ≡ 1 (mod p)``:

    a·b = m00 + mid·2^32 + m11·2^64        (m00 = a0·b0, …)
        ≡ (m00 & p) + (m00 >> 61)                       # 2^61 ≡ 1
        + ((mid & (2^29−1)) << 32) + (mid >> 29)        # 2^61 ≡ 1
        + (m11 << 3)                                    # 2^64 ≡ 8

Every intermediate stays below 2^63, so the whole pipeline is exact in
``uint64`` — results are bit-for-bit identical to Python big-int
arithmetic, which is what lets the proving kernels swap this in without
changing a single proof byte.

Canonicalisation is one fold ``(x & p) + (x >> 61)`` followed by
``min(x, x − p)``: the subtraction wraps past 2^64 exactly when
``x < p``, so the smaller of the two is the canonical residue and no
compare/``where`` pass is needed.

The primitives are allocation-lean — a multiply allocates its limb and
scratch arrays once and works in place on those, in cache-sized blocks —
and they never write to an argument (callers pass views, broadcast
columns and cached weights) and keep no module-level scratch (stages of
different proofs run on different threads).

Scatter/gather sparse products (:class:`F61SpMV`) pre-sort edges by
output column so per-column sums become ``np.add.reduceat`` segment
reductions; 32-bit limb splitting keeps those sums exact for column
degrees up to 2^29.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from ..errors import FieldError
from .primes import MERSENNE61

P61 = np.uint64(MERSENNE61)
_P61_INT = MERSENNE61


def _const(value: int) -> np.ndarray:
    """A read-only 0-d ``uint64`` operand.

    A ufunc takes an ndarray operand as it is but converts a NumPy
    scalar on every call (~0.2 µs — a fifth of a short-table multiply).
    """
    out = np.array(value, dtype=np.uint64)
    out.flags.writeable = False
    return out


_P = _const(MERSENNE61)
_M32 = _const(0xFFFFFFFF)
_M29 = _const((1 << 29) - 1)
_S3 = _const(3)
_S29 = _const(29)
_S32 = _const(32)
_S61 = _const(61)

#: Elements per block of a large multiply / SpMV row block: six uint64
#: temporaries of this length (384 KiB) stay cache-resident and come
#: back from the allocator's free lists instead of fresh zeroed pages.
_BLOCK = 1 << 13

ArrayLike = Union[np.ndarray, Sequence[int]]


def as_f61(values: ArrayLike) -> np.ndarray:
    """Coerce canonical residues (ints in [0, p)) to a ``uint64`` array.

    Inputs must already be reduced — the proving kernels' raw-int contract.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    return np.asarray(values, dtype=np.uint64)


def to_f61(values: ArrayLike) -> np.ndarray:
    """Reduce arbitrary ints mod p into a canonical ``uint64`` array.

    The once-per-entry normalisation of the array-native data path: a
    canonical ``uint64`` array is returned as it is (no copy), anything
    else — lists, negative or oversized ints — is reduced first.
    """
    try:
        arr = as_f61(values)
    except (OverflowError, TypeError, ValueError):
        arr = np.asarray([int(v) % _P61_INT for v in values], dtype=np.uint64)
    if (arr >= _P).any():
        arr = arr % _P
    return arr


def to_ints(values: ArrayLike) -> Sequence[int]:
    """Python ints out of any vector (``tolist`` for arrays, else as is).

    Iterating a ``uint64`` array yields NumPy scalars whose products wrap
    mod 2^64 silently; every big-int code path normalises through this.
    """
    return values.tolist() if isinstance(values, np.ndarray) else values


def _canonical(x: np.ndarray) -> np.ndarray:
    """Map an owned array of values in [0, 2p) to [0, p), in place."""
    return np.minimum(x, x - _P, out=x)


def f61_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise modular addition of canonical residue arrays."""
    s = a + b
    if not isinstance(s, np.ndarray):  # scalar / 0-d operands
        return np.uint64(int(s) % _P61_INT)
    return _canonical(s)


def f61_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise modular subtraction of canonical residue arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        d = a - b                      # wraps past 2^64 exactly when a < b
        if isinstance(d, np.ndarray):
            return np.minimum(d, d + _P, out=d)
    return np.uint64((int(a) - int(b)) % _P61_INT)


def _mul_limbs(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``a·b mod p`` up to one subtraction, plus a same-shape scratch.

    ``a`` has the full broadcast shape and ``b`` broadcasts to it.  The
    four limb arrays and two scratch arrays are the only allocations;
    every other step works in place on them.  The product comes back in
    [0, p + 3].
    """
    a0 = a & _M32
    a1 = a >> _S32
    b0 = b & _M32
    b1 = b >> _S32
    t = a0 * b1
    u = a1 * b0
    t += u                             # mid = a0·b1 + a1·b0   < 2^62
    a0 *= b0                           # m00                   < 2^64
    a1 *= b1                           # m11                   < 2^58
    np.right_shift(t, _S29, out=u)     # mid·2^32: the high part ·2^61 ≡ ·1
    t &= _M29
    t <<= _S32                         # … the low 29 bits stay < 2^61
    a1 <<= _S3                         # m11·2^64 ≡ m11·8      < 2^61
    a1 += u
    a1 += t
    np.right_shift(a0, _S61, out=u)    # m00 ≡ (m00 & p) + (m00 >> 61)
    a0 &= _P
    a0 += u
    a0 += a1                           # the whole product     < 2^63
    np.right_shift(a0, _S61, out=u)    # one fold: the carry is <= 3
    a0 &= _P
    a0 += u                            #                       <= p + 3
    return a0, t


def _mul_into(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out[...] = a·b mod p`` (canonical), block by block along axis 0."""
    if a.size <= _BLOCK:
        x, t = _mul_limbs(a, b)
        np.subtract(x, _P, out=t)
        np.minimum(x, t, out=out)
        return
    n = a.shape[0]
    per_row = isinstance(b, np.ndarray) and b.ndim == a.ndim
    if per_row and b.shape[0] != n:    # b broadcasts along axis 0
        b, per_row = b[0], False
    step = _BLOCK // (a.size // n)
    if step == 0:                      # rows longer than a block: recurse
        for i in range(n):
            _mul_into(out[i], a[i], b[i] if per_row else b)
        return
    for lo in range(0, n, step):
        hi = lo + step
        _mul_into(out[lo:hi], a[lo:hi], b[lo:hi] if per_row else b)


def f61_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise modular multiplication via 32-bit limb splitting.

    Exact for any canonical inputs (see module docstring).  Operands may
    be arrays, non-contiguous views, broadcast columns or scalars, may
    alias each other, and are never modified.
    """
    if not isinstance(a, np.ndarray) or (
        isinstance(b, np.ndarray) and (b.size > a.size or b.ndim > a.ndim)
    ):
        a, b = b, a                    # commutative: full-shape operand first
    if not isinstance(a, np.ndarray) or a.ndim == 0:
        return np.uint64(int(a) * int(b) % _P61_INT)
    if isinstance(b, np.ndarray) and b.shape != a.shape:
        shape = np.broadcast_shapes(a.shape, b.shape)
        if shape != a.shape:           # outer-product style broadcast
            a = np.broadcast_to(a, shape)
    if a.size <= _BLOCK:
        return _canonical(_mul_limbs(a, b)[0])
    out = np.empty(a.shape, dtype=np.uint64)
    _mul_into(out, a, b)
    return out


def f61_sum(a: np.ndarray) -> int:
    """Exact sum of a residue vector, reduced mod p.

    Summing 61-bit values overflows ``uint64`` after 8 terms, so the
    low/high 32-bit limbs are summed separately (each limb sum is exact
    for up to 2^32 / 2^35 elements) and recombined in Python ints.
    """
    lo = int((a & _M32).sum(dtype=np.uint64))
    hi = int((a >> _S32).sum(dtype=np.uint64))
    return (lo + (hi << 32)) % _P61_INT


def _recombine(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Canonical ``lo + hi·2^32 (mod p)`` from owned limb-sum arrays.

    ``hi < 2^61``, so ``hi·2^32`` is a 61-bit rotation (``2^61 ≡ 1``):
    its low 29 bits move up by 32 and the rest comes down to bit 0 — no
    multiply needed.  Both arguments are consumed.
    """
    t = hi >> _S29
    hi &= _M29
    hi <<= _S32
    hi += t                            # hi·2^32 mod p         < 2^61 + 2^32
    np.right_shift(lo, _S61, out=t)
    lo &= _P
    lo += t
    lo += hi                           #                       < 2^63
    np.right_shift(lo, _S61, out=t)
    lo &= _P
    lo += t
    return _canonical(lo)


def f61_axis_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Exact reduction of a residue array along one axis, mod p.

    Low/high 32-bit limbs are summed separately (exact for up to 2^29
    summed elements) and recombined — the n-d generalisation of
    :func:`f61_sum`.  Needs at least two dimensions.
    """
    lo = (a & _M32).sum(axis=axis, dtype=np.uint64)
    hi = (a >> _S32).sum(axis=axis, dtype=np.uint64)
    return _recombine(lo, hi)


def f61_rows_sum(a: np.ndarray) -> List[int]:
    """Exact per-lane sums over the *last* axis, reduced mod p, as ints.

    ``[lanes, n] → [lanes]`` — the lane-vectorised counterpart of
    :func:`f61_sum`, used by the sum-check round kernels to produce one
    round evaluation per proof lane from a single numpy pass.  The two
    limb sums recombine in Python ints: for the few lanes of a group
    that is cheaper than :func:`_recombine`'s ufunc chain.
    """
    lo = (a & _M32).sum(axis=-1, dtype=np.uint64).tolist()
    hi = (a >> _S32).sum(axis=-1, dtype=np.uint64).tolist()
    return [(l + (h << 32)) % _P61_INT for l, h in zip(lo, hi)]


def f61_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Inner product mod p (exact: reduced products, limb-split sum)."""
    if a.shape != b.shape:
        raise FieldError(f"dot shape mismatch: {a.shape} vs {b.shape}")
    return f61_sum(f61_mul(a, b))


class F61SpMV:
    """A fixed sparse edge set ``y[dst] += x[src]·w`` applied to vectors.

    Edges are sorted by destination once at construction so each apply is
    a gather, a vectorised modular multiply, and two ``np.add.reduceat``
    segment sums (low/high limbs separately — exact for column degrees
    up to 2^29, far beyond the encoder's bound of 255).
    """

    __slots__ = ("n_in", "n_out", "_src", "_w", "_starts", "_dst", "_blocks")

    def __init__(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        weights: Sequence[int],
        n_in: int,
        n_out: int,
    ):
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        w_arr = as_f61(weights)
        if not (src_arr.shape == dst_arr.shape == w_arr.shape):
            raise FieldError("edge arrays must have equal length")
        order = np.argsort(dst_arr, kind="stable")
        self.n_in = n_in
        self.n_out = n_out
        self._src = src_arr[order]
        self._w = w_arr[order]
        dst_sorted = dst_arr[order]
        # Segment starts per distinct destination (empty columns stay 0).
        self._dst, self._starts = np.unique(dst_sorted, return_index=True)
        # Runs of whole segments of about ``_BLOCK`` edges each (a segment
        # belongs to the block its first edge falls in), as ``(first
        # segment, last segment + 1, src, weights, block-relative starts)``.
        self._blocks = []
        if w_arr.size:
            cuts = np.flatnonzero(np.diff(self._starts // _BLOCK)) + 1
            seg = [0, *cuts.tolist(), int(self._dst.size)]
            edge = [*self._starts[seg[:-1]].tolist(), int(w_arr.size)]
            for k0, k1, e0, e1 in zip(seg[:-1], seg[1:], edge[:-1], edge[1:]):
                self._blocks.append(
                    (k0, k1, self._src[e0:e1], self._w[e0:e1], self._starts[k0:k1] - e0)
                )

    @property
    def nnz(self) -> int:
        return int(self._w.size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``y[dst] = Σ x[src]·w`` over all edges, canonical residues out."""
        if x.ndim != 1 or x.size != self.n_in:
            raise FieldError(f"input length {x.size} != n_in {self.n_in}")
        return self.apply_batch(x[None, :])[0]

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        """Apply to a whole batch at once: ``(R, n_in) → (R, n_out)``.

        One gather / multiply / segment-sum per block of rows and edges —
        this is how the commit stage pushes every witness row through an
        encoder graph in a single pass, with the ``(rows, edges)``
        temporaries sized to stay cache-resident.
        """
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise FieldError(f"batch shape {x.shape} != (R, {self.n_in})")
        rows = x.shape[0]
        y = np.zeros((rows, self.n_out), dtype=np.uint64)
        lo = np.empty((rows, self._dst.size), dtype=np.uint64)
        hi = np.empty_like(lo)
        for k0, k1, src, w, starts in self._blocks:
            step = max(1, _BLOCK // w.size)
            for r0 in range(0, rows, step):
                r1 = r0 + step
                # Lazy reduction: products in [0, p + 3] split into exact
                # limb sums just as canonical ones do (lo < deg·2^32,
                # hi < deg·2^30), so no per-edge canonicalisation.
                contrib, limb = _mul_limbs(x[r0:r1].take(src, axis=1), w)
                np.bitwise_and(contrib, _M32, out=limb)
                contrib >>= _S32
                np.add.reduceat(limb, starts, axis=1, out=lo[r0:r1, k0:k1])
                np.add.reduceat(contrib, starts, axis=1, out=hi[r0:r1, k0:k1])
        y[:, self._dst] = _recombine(lo, hi)
        return y
