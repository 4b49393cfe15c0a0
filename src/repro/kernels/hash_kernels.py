"""Batched SHA-256 kernels: a wide numpy tier over a SWAR big-int tier.

The Merkle stage of the pipeline performs thousands of *raw* SHA-256
compressions per proof (each interior node is ``compress(left ‖ right)``,
no padding — see :func:`repro.hashing.sha256.compress_block`).  ``hashlib``
cannot compute that operation, so even the ``sha256-hw`` hasher runs the
from-scratch compression per node, one Python call at a time.

This module batches it the way the paper's per-layer GPU kernels do
(§3.1: one thread per node, whole layers per launch).  A call is handed
``n`` independent blocks as one contiguous buffer, and ``n`` — the one
property that decides the winner — picks the tier:

* ``n >= WIDE_MIN_BLOCKS`` — :func:`_compress_wide`: one ``uint32[n]``
  numpy lane per message word and per state register, the 48-step
  schedule and the 64 rounds run once for the whole batch.  ``uint32``
  addition wraps mod 2^32 by itself; a rotation is two shifts whose bits
  are disjoint, so the three rotations of a Σ/σ are six shifts combined
  by ``or``/``xor``; the shifts of one Σ/σ go out as one broadcast
  dispatch, and so do the two Σ of a round (``a`` and ``e`` live in one
  ``[2, n]`` array).  ≈ 1 400 dispatches per call whatever ``n`` is:
  ≈ 0.95 ms fixed, ≈ 0.6 µs per block after that.
* ``SWAR_MIN_LANES <= n < WIDE_MIN_BLOCKS`` — SIMD-within-a-register on
  Python's arbitrary-precision ints: word ``j`` of each of ``k`` blocks
  is packed into the low 32 bits of a 64-bit lane of a single big int
  (32 guard bits above each value); ``&``, ``|``, ``^`` act
  lane-parallel for free; rotations are two masked shifts — shifted-out
  bits land in a neighbour's *guard* zone and are cleared by the lane
  mask; additions stay in-lane because every sum of ≤5 masked terms is
  below 2^35 ≪ 2^64, and ``& mask`` is exactly per-lane ``mod 2^32``.
  Words are packed into and out of the big ints through numpy, not
  per-block slicing.  ≈ 0.1 ms fixed, ≈ 5-6 µs per block: ~14x over
  the scalar loop at 16 lanes, ~24x at 64, linear beyond — which is
  why the wide tier takes over.
* ``n < SWAR_MIN_LANES``, or :func:`use_reference_kernels` — the scalar
  :func:`compress_block` loop, which is also the reference twin.

All three are byte-identical.  Neither kernel writes to its input or
keeps module-level scratch (``pipelined:`` runs stages of different
proofs on different threads); the constants of each tier are built on
its first call and are read-only afterwards.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import HashError
from .dispatch import kernels_enabled

# NOTE: repro.hashing.sha256 is imported lazily inside the kernels below.
# hashers.py builds its batched backends from this module, so a module-level
# import here would be circular; kernels stays an import leaf instead.

__all__ = [
    "sha256_compress_many",
    "sha256_many",
    "SWAR_MIN_LANES",
    "SWAR_MAX_LANES",
    "WIDE_MIN_BLOCKS",
]

#: Below this many blocks the scalar loop wins (packing overhead dominates).
SWAR_MIN_LANES = 4
#: SWAR chunk width — its speedup plateaus past ~64 lanes while per-int
#: cost keeps growing linearly, so wider batches are split.
SWAR_MAX_LANES = 64
#: From this many blocks the wide numpy kernel wins: SWAR spends its
#: ≈ 0.95 ms of dispatch overhead on ≈ 170 blocks (1.00 vs 1.08 ms at
#: 160 blocks, 1.29 vs 1.10 at 192; docs/PERFORMANCE.md §9).
WIDE_MIN_BLOCKS = 192
#: Blocks per wide-kernel pass: the ``[64, n]`` schedule (2 MiB here)
#: stays cache-resident; per-block cost rises past this.
_WIDE_BLOCK = 1 << 13

# -- wide tier: one uint32[n] numpy lane per word -----------------------------

@functools.cache
def _wide_constants() -> tuple:
    """Read-only operands of :func:`_compress_wide`, built on first use."""
    from ..hashing.sha256 import _H0, _K

    def const(values, shape) -> np.ndarray:
        out = np.array(values, dtype=np.uint32).reshape(shape)
        out.flags.writeable = False
        return out

    return (
        const(_K, (64, 1)),
        const(_H0, (8, 1)),
        # σ0 / σ1 of the schedule: two rotations and one plain shift.
        const([7, 18, 3], (3, 1, 1)),
        const([25, 14], (2, 1, 1)),
        const([17, 19, 10], (3, 1, 1)),
        const([15, 13], (2, 1, 1)),
        # Σ0 (row 0, on a) and Σ1 (row 1, on e) of a round.
        const([[2, 13, 22], [6, 11, 25]], (2, 3, 1)),
        const([[30, 19, 10], [26, 21, 7]], (2, 3, 1)),
    )


def _compress_wide(state: Optional[np.ndarray], words: np.ndarray) -> np.ndarray:
    """One SHA-256 compression of ``n`` blocks, every step a numpy pass.

    ``words`` is ``[n, 16]`` (any byte order), ``state`` the carried-in
    ``[8, n]`` ``uint32`` registers or ``None`` for the initial hash
    value; returns the new ``[8, n]`` registers.  Every scratch array is
    local to the call and every step lands in one of them (``out=``).
    """
    k_col, h0_col, s0r, s0l, s1r, s1l, big_r, big_l = _wide_constants()
    rs, ls = np.right_shift, np.left_shift
    xor, bor, band, add = np.bitwise_xor, np.bitwise_or, np.bitwise_and, np.add
    n = words.shape[0]
    if state is None:
        state = np.empty((8, n), dtype=np.uint32)
        state[:] = h0_col

    # Message schedule, two steps per pass (w[i] needs w[i - 2]).
    w = np.empty((64, n), dtype=np.uint32)
    w[:16] = words.T
    t = np.empty((3, 2, n), dtype=np.uint32)
    u = np.empty((2, 2, n), dtype=np.uint32)
    s = np.empty((2, n), dtype=np.uint32)
    t_rot = t[:2]

    def sigma(x, right, left):
        """σ of two schedule rows into ``s``: rotr ^ rotr ^ shr."""
        rs(x, right, out=t)
        ls(x, left, out=u)
        bor(t_rot, u, out=t_rot)
        xor(t[0], t[1], out=s)
        xor(s, t[2], out=s)

    for i in range(16, 64, 2):
        out = w[i : i + 2]
        sigma(w[i - 15 : i - 13], s0r, s0l)
        add(w[i - 16 : i - 14], s, out=out)
        add(out, w[i - 7 : i - 5], out=out)
        sigma(w[i - 2 : i], s1r, s1l)
        add(out, s, out=out)
    add(w, k_col, out=w)  # round i consumes K[i] + w[i]

    # Rounds.  Slot j of the ring holds (a, e) as of round j - 3, so
    # b/c/d and f/g/h are rows of the three slots before it and the
    # register shuffle is index arithmetic.
    ring = np.empty((8, 2, n), dtype=np.uint32)
    for j in range(4):
        ring[3 - j, 0] = state[j]
        ring[3 - j, 1] = state[4 + j]
    big_t = np.empty((2, 3, n), dtype=np.uint32)
    big_u = np.empty((2, 3, n), dtype=np.uint32)
    m = np.empty((2, n), dtype=np.uint32)
    maj, ch = m[0], m[1]
    ab = np.empty(n, dtype=np.uint32)
    bc = np.empty(n, dtype=np.uint32)
    t1 = np.empty(n, dtype=np.uint32)
    xor(ring[2, 0], ring[1, 0], out=bc)
    for i in range(64):
        cur, p1, p2, p3 = (
            ring[(i + 3) & 7], ring[(i + 2) & 7], ring[(i + 1) & 7], ring[i & 7]
        )
        x = cur[:, None, :]
        rs(x, big_r, out=big_t)
        ls(x, big_l, out=big_u)
        bor(big_t, big_u, out=big_t)
        xor(big_t[:, 0], big_t[:, 1], out=s)
        xor(s, big_t[:, 2], out=s)  # s = (Σ0(a), Σ1(e))
        g = p2[1]
        xor(p1[1], g, out=ch)  # ch = g ^ (e & (f ^ g))
        band(ch, cur[1], out=ch)
        xor(ch, g, out=ch)
        b = p1[0]
        xor(cur[0], b, out=ab)  # maj = b ^ ((a ^ b) & (b ^ c))
        band(ab, bc, out=maj)
        xor(maj, b, out=maj)
        ab, bc = bc, ab  # this round's a ^ b is the next round's b ^ c
        add(s, m, out=s)  # (Σ0 + maj, Σ1 + ch)
        add(p3[1], w[i], out=t1)
        add(t1, s[1], out=t1)  # h + Σ1 + ch + K[i] + w[i]
        nxt = ring[(i + 4) & 7]
        add(t1, s[0], out=nxt[0])
        add(t1, p3[0], out=nxt[1])

    out = np.empty((8, n), dtype=np.uint32)
    for j in range(4):
        slot = ring[(67 - j) & 7]
        add(state[j], slot[0], out=out[j])
        add(state[4 + j], slot[1], out=out[4 + j])
    return out


# -- SWAR tier: 64-bit lanes of one Python big int per word -------------------

# k -> (lane mask, splatted round constants, splatted initial state).
_LANE_CACHE: Dict[int, Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = {}


def _splat(value: int, k: int) -> int:
    """Repeat a 32-bit constant into the low half of each of ``k`` lanes."""
    return int.from_bytes((value.to_bytes(4, "little") + b"\x00" * 4) * k, "little")


def _lane_constants(k: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    try:
        return _LANE_CACHE[k]
    except KeyError:
        from ..hashing.sha256 import _H0, _K

        mask = int.from_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" * k, "little")
        ksplat = tuple(_splat(c, k) for c in _K)
        h0splat = tuple(_splat(c, k) for c in _H0)
        _LANE_CACHE[k] = (mask, ksplat, h0splat)
        return _LANE_CACHE[k]


def _pack_lanes(rows: np.ndarray) -> List[int]:
    """Pack each row of an ``[r, k]`` word array into one int of ``k`` lanes."""
    lanes = np.ascontiguousarray(rows, dtype="<u8")
    return [int.from_bytes(row.tobytes(), "little") for row in lanes]


def _compress_swar(state: Optional[np.ndarray], words: np.ndarray) -> np.ndarray:
    """:func:`_compress_wide`'s contract on packed big ints (``k <= 64``)."""
    k = words.shape[0]
    mask, ksplat, h0splat = _lane_constants(k)
    w = _pack_lanes(words.T)
    for i in range(16, 64):
        x = w[i - 15]
        s0 = (((x >> 7) | (x << 25)) ^ ((x >> 18) | (x << 14)) ^ (x >> 3)) & mask
        y = w[i - 2]
        s1 = (((y >> 17) | (y << 15)) ^ ((y >> 19) | (y << 13)) ^ (y >> 10)) & mask
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & mask)

    init = h0splat if state is None else _pack_lanes(state)
    a, b, c, d, e, f, g, h = init
    for i in range(64):
        s1 = (((e >> 6) | (e << 26)) ^ ((e >> 11) | (e << 21)) ^ ((e >> 25) | (e << 7))) & mask
        ch = (e & f) ^ ((mask ^ e) & g)
        temp1 = h + s1 + ch + ksplat[i] + w[i]
        s0 = (((a >> 2) | (a << 30)) ^ ((a >> 13) | (a << 19)) ^ ((a >> 22) | (a << 10))) & mask
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = s0 + maj
        h = g
        g = f
        f = e
        e = (d + temp1) & mask
        d = c
        c = b
        b = a
        a = (temp1 + temp2) & mask

    regs = b"".join(
        ((s + r) & mask).to_bytes(8 * k, "little")
        for s, r in zip(init, (a, b, c, d, e, f, g, h))
    )
    return np.frombuffer(regs, dtype="<u8").reshape(8, k).astype(np.uint32)


# -- dispatch -----------------------------------------------------------------


def _compress_states(state: Optional[np.ndarray], words: np.ndarray) -> np.ndarray:
    """Compress ``n >= SWAR_MIN_LANES`` blocks against their carried states.

    The tier is chosen by ``n`` alone; either kernel then runs over
    near-equal chunks no wider than its limit.
    """
    n = words.shape[0]
    if n >= WIDE_MIN_BLOCKS:
        kernel, limit = _compress_wide, _WIDE_BLOCK
    else:
        kernel, limit = _compress_swar, SWAR_MAX_LANES
    if n <= limit:
        return kernel(state, words)
    chunks = -(-n // limit)
    step = -(-n // chunks)
    out = np.empty((8, n), dtype=np.uint32)
    for lo in range(0, n, step):
        hi = lo + step
        out[:, lo:hi] = kernel(
            None if state is None else state[:, lo:hi], words[lo:hi]
        )
    return out


def _digests(state: np.ndarray) -> List[bytes]:
    """The ``n`` 32-byte big-endian digests of ``[8, n]`` registers."""
    raw = state.T.astype(">u4").tobytes()
    return [raw[i : i + 32] for i in range(0, len(raw), 32)]


def sha256_compress_many(
    blocks: Union[bytes, bytearray, memoryview, Sequence[bytes]]
) -> List[bytes]:
    """Raw-compress many independent 64-byte blocks (batched ``compress_block``).

    ``blocks`` is a sequence of 64-byte blocks or the same blocks as one
    contiguous buffer (what :meth:`Hasher.compress_layer` hands over: a
    Merkle layer joined is already its ``left ‖ right`` blocks).
    Byte-identical to ``[compress_block(b) for b in blocks]``; that scalar
    loop is also the reference twin and the small-batch fallback.
    """
    from ..hashing.sha256 import compress_block

    if isinstance(blocks, (bytes, bytearray, memoryview)):
        buf = bytes(blocks)
        if len(buf) % 64:
            raise HashError(
                f"sha256_compress_many needs whole 64-byte blocks, got "
                f"{len(buf)} bytes"
            )
    else:
        for blk in blocks:
            if len(blk) != 64:
                raise HashError(
                    f"sha256_compress_many needs 64-byte blocks, got {len(blk)}"
                )
        buf = b"".join(blocks)
    n = len(buf) // 64
    if not kernels_enabled() or n < SWAR_MIN_LANES:
        return [compress_block(buf[i : i + 64]) for i in range(0, len(buf), 64)]
    words = np.frombuffer(buf, dtype=">u4").reshape(n, 16)
    return _digests(_compress_states(None, words))


def sha256_many(messages: Sequence[bytes]) -> List[bytes]:
    """Full SHA-256 (with FIPS padding) over many messages, batched.

    Messages are grouped by padded block count; within a group the
    register state is carried across block positions, so equal-length
    batches (the Merkle-leaf case) run entirely in wide lanes.
    Byte-identical to ``[sha256(m) for m in messages]``.
    """
    from ..hashing.sha256 import _pad, sha256

    if not kernels_enabled() or len(messages) < SWAR_MIN_LANES:
        return [sha256(m) for m in messages]
    out: List[bytes] = [b""] * len(messages)
    groups: Dict[int, List[int]] = {}
    for idx, m in enumerate(messages):
        # message + 0x80 + 8-byte length, rounded up to whole blocks
        groups.setdefault((len(m) + 72) // 64, []).append(idx)
    for nblocks, idxs in groups.items():
        if len(idxs) < SWAR_MIN_LANES:
            for i in idxs:
                out[i] = sha256(messages[i])
            continue
        buf = b"".join(
            part for i in idxs for part in (messages[i], _pad(len(messages[i])))
        )
        words = np.frombuffer(buf, dtype=">u4").reshape(len(idxs), nblocks, 16)
        state = None
        for bpos in range(nblocks):
            state = _compress_states(state, words[:, bpos])
        for i, digest in zip(idxs, _digests(state)):
            out[i] = digest
    return out
