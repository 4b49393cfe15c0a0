"""Batched field-vector kernels for the proving hot path.

The paper's discipline is to split each module into per-stage kernels and
size them to measured costs (§3, §4).  The functional prover's analogue of
a "kernel" is a whole-vector pass, and every kernel here has two bodies
selected by the *container* it is handed:

* a ``uint64`` ndarray over Mersenne-61 — ``[n]`` for one proof or
  ``[lanes, n]`` for a lane-group (S31) — runs on the exact numpy
  arithmetic of :mod:`repro.field.fast61` along the last axis and
  returns arrays.  This is the prover's native representation from
  ``pad_witness`` to the opened columns: **arrays in, arrays out**, no
  conversion between stages.
* any other sequence (every other field, proof objects, the generic
  library API) runs a Python-int loop written so the interpreter does as
  little per-element work as possible — ``zip`` over slices instead of
  indexing, products accumulated lazily and reduced once per output —
  and returns lists of ints.

Every kernel also has a ``_reference_*`` twin — the naive per-element loop
the codebase used before this layer — selected by
:func:`repro.kernels.dispatch.use_reference_kernels`.  The twins are the
oracle for the golden-parity tests and the baseline of the
``bench_hotpath`` experiment; they take arrays too, by converting to
ints first (:func:`~repro.field.fast61.to_ints` — iterating an array
yields NumPy scalars whose products wrap silently).

List values are *raw ints already reduced mod p* (the
:class:`~repro.field.PrimeField` hot-loop convention).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as _np

# ``fast61`` only needs errors/primes, so this import keeps the kernels
# package cycle-free.
from ..field import fast61 as _f61
from ..field.fast61 import to_ints
from .dispatch import kernels_enabled

if TYPE_CHECKING:  # pragma: no cover - type-only; kernels must stay an
    # import leaf so field/, hashing/, encoder/ can import it cycle-free.
    from ..field.prime_field import PrimeField

__all__ = [
    "vectorised",
    "fold_table",
    "fold_product_tables",
    "sumcheck_tables",
    "eq_table",
    "eq_table_lanes",
    "combine_rows",
    "spmv",
    "product_round_quadratic",
    "constraint_round_cubic",
    "constraint_claimed_sum",
    "constraint_violation",
    "product_pair_sum",
    "evaluate_table",
    "evaluate_table_bits",
    "pack_vector",
]

# Below this length a kernel's ufunc dispatches (~1 µs each, ~25 per
# multiply) cost more than the int loop over the whole table; measured on
# warm 2^10 / 2^14 proofs, 64–256 are within noise of each other and 32 is
# 4 % slower.  Both forms are exact, so where a table changes form (the
# head of an eq-table, the tail of a sum-check) never changes a result.
_NP_MIN = 128


def vectorised(field: "PrimeField") -> bool:
    """True when ``uint64`` arrays are the native table form: the fast
    kernels are enabled and the field is Mersenne-61."""
    return kernels_enabled() and field.modulus == _f61._P61_INT


def _is_lanes(x: object, ndim: int = 2) -> bool:
    """True when ``x`` is a lane-batched ndarray of rank ``ndim``."""
    return isinstance(x, _np.ndarray) and x.ndim == ndim


def _lane_challenges(r: object, lanes: int, p: int) -> List[int]:
    """Normalize a scalar-or-per-lane challenge to ``lanes`` reduced ints.

    Laned sum-checks draw an independent Fiat–Shamir challenge per lane
    (transcripts diverge after the commitment roots), so folds take a
    vector of challenges; a scalar is broadcast for convenience.
    """
    if isinstance(r, (list, tuple, _np.ndarray)):
        rs = [int(v) % p for v in to_ints(r)]
    else:
        rs = [int(r) % p] * lanes
    if len(rs) != lanes:
        raise ValueError(f"{len(rs)} challenges for {lanes} lanes")
    return rs


def _sum_last(x: "_np.ndarray"):
    """Exact last-axis sum: an int for a table, a list of ints per lane."""
    return _f61.f61_sum(x) if x.ndim == 1 else _f61.f61_rows_sum(x).tolist()


def _round_evals(evals: list) -> list:
    """Evaluations per point → ``[g(0), …]``, one such list per lane if laned."""
    if isinstance(evals[0], list):
        return [list(lane) for lane in zip(*evals)]
    return evals


def _per_lane(reference, field: "PrimeField", *tables):
    """Apply a scalar reference twin to each lane of ``[lanes, n]`` tables."""
    return [
        reference(field, *(lane.tolist() for lane in lanes))
        for lanes in zip(*tables)
    ]


# -- sum-check folds ---------------------------------------------------------


def _reference_fold_table(field: PrimeField, table: Sequence[int], r: int) -> List[int]:
    """Naive fold: ``A[b] ← A[b] + r·(A[b+half] − A[b])`` by index.

    A ``[lanes, n]`` array folds each lane at its own challenge (``r``
    may be per-lane), returning a ``[lanes, n//2]`` array.
    """
    p = field.modulus
    if _is_lanes(table):
        rs = _lane_challenges(r, table.shape[0], p)
        return _np.asarray(
            [
                _reference_fold_table(field, lane.tolist(), ri)
                for lane, ri in zip(table, rs)
            ],
            dtype=_np.uint64,
        )
    table = to_ints(table)
    r %= p
    half = len(table) // 2
    return [(table[b] + r * (table[b + half] - table[b])) % p for b in range(half)]


def fold_table(field: PrimeField, table: Sequence[int], r: int) -> List[int]:
    """One sum-check fold (Algorithm 1 line 6) over a half-table.

    Pairs entry ``b`` with ``b + half`` — the most-significant live
    variable is bound, matching every sum-check prover in the repo.
    Laned form: a ``[lanes, n]`` array with a per-lane challenge vector
    folds every lane in one pass → ``[lanes, n//2]``.
    """
    p = field.modulus
    if isinstance(table, _np.ndarray):
        if not vectorised(field):
            return _reference_fold_table(field, table, r)
        half = table.shape[-1] // 2
        lo, hi = table[..., :half], table[..., half:]
        if table.ndim == 1:
            r_op = _np.uint64(r % p)
        else:
            r_op = _f61.as_f61(_lane_challenges(r, table.shape[0], p))[:, None]
        return _f61.f61_add(lo, _f61.f61_mul(_f61.f61_sub(hi, lo), r_op))
    if not kernels_enabled():
        return _reference_fold_table(field, table, r)
    r %= p
    half = len(table) // 2
    # zip of the table against its own upper half stops at `half` pairs;
    # no per-element index arithmetic survives in the loop body.
    return [(lo + r * (hi - lo)) % p for lo, hi in zip(table, table[half:])]


def fold_product_tables(
    field: PrimeField, tables: Sequence[Sequence[int]], r: int
) -> List[List[int]]:
    """Fold every factor table of a sum-check prover at the same challenge.

    The one small-table tail of the array-native path: once a prover's
    tables drop below ``_NP_MIN`` entries its last rounds run on int
    lists (measured at 2^10 gates: 7.6 ms per warm proof with the tail,
    9.3 ms without; see docs/PERFORMANCE.md).
    """
    folded = [fold_table(field, table, r) for table in tables]
    first = folded[0]
    if isinstance(first, _np.ndarray) and first.ndim == 1 and first.size < _NP_MIN:
        return [table.tolist() for table in folded]
    return folded


def sumcheck_tables(
    field: PrimeField, tables: Sequence[Sequence[int]]
) -> List[Sequence[int]]:
    """Normalise a sum-check prover's factor tables once, at construction.

    On the vectorised path tables of at least ``_NP_MIN`` entries become
    canonical ``uint64`` arrays — an array is adopted without a copy —
    and stay arrays until :func:`fold_product_tables` hands the short
    tail to lists; anything else becomes reduced int lists.
    """
    if vectorised(field) and len(tables[0]) >= _NP_MIN:
        return [_f61.to_f61(table) for table in tables]
    p = field.modulus
    return [[v % p for v in to_ints(table)] for table in tables]


# -- eq-table doubling -------------------------------------------------------


def _reference_eq_table(field: PrimeField, point: Sequence[int]) -> List[int]:
    """Naive doubling construction with indexed writes."""
    p = field.modulus
    table = [1]
    for r in to_ints(point):
        r %= p
        one_minus = (1 - r) % p
        nxt = [0] * (2 * len(table))
        for b, t in enumerate(table):
            nxt[b] = (t * one_minus) % p
            nxt[b + len(table)] = (t * r) % p
        table = nxt
    return table


def _eq_double(arr: "_np.ndarray", n: int, challenges: Sequence) -> "_np.ndarray":
    """Finish an eq-table in place: the first ``n`` entries of the last
    axis are filled, each challenge doubles them.

    ``t·(1−r) = t − t·r``, so a doubling is one multiply and one subtract.
    """
    for r in challenges:
        lo, hi = arr[..., :n], arr[..., n : 2 * n]
        hi[...] = _f61.f61_mul(lo, r)
        lo[...] = _f61.f61_sub(lo, hi)
        n *= 2
    return arr


def eq_table(field: PrimeField, point: Sequence[int]) -> List[int]:
    """Table of ``eq(point, b)`` for all ``b ∈ {0,1}^n`` (doubling kernel).

    Each doubling round is two whole-table comprehensions (scale by
    ``1−r`` and by ``r``) concatenated — the same O(2^n) work as the
    naive construction with none of the per-element index bookkeeping.
    On the vectorised path the table comes back as a ``uint64`` array:
    the first ``_NP_MIN`` entries are built as ints, the rest doubled in
    place in one preallocated array.
    """
    if not kernels_enabled():
        return _reference_eq_table(field, point)
    p = field.modulus
    point = [r % p for r in to_ints(point)]
    # Doublings done on ints: all of them, or up to ``_NP_MIN`` entries.
    head = _NP_MIN.bit_length() - 1 if vectorised(field) else len(point)
    table = [1]
    for r in point[:head]:
        one_minus = (1 - r) % p
        table = [t * one_minus % p for t in table] + [t * r % p for t in table]
    if not vectorised(field):
        return table
    arr = _np.empty(1 << len(point), dtype=_np.uint64)
    arr[: len(table)] = table
    return _eq_double(arr, len(table), map(_np.uint64, point[head:]))


def _reference_eq_table_lanes(
    field: PrimeField, points: Sequence[Sequence[int]]
) -> "_np.ndarray":
    """Naive laned eq-tables: one per-lane doubling construction each."""
    return _np.asarray(
        [_reference_eq_table(field, point) for point in points],
        dtype=_np.uint64,
    )


def eq_table_lanes(
    field: PrimeField, points: Sequence[Sequence[int]]
) -> "_np.ndarray":
    """Eq-tables for ``lanes`` points at once: ``[L, m] → [L, 2^m]``.

    Each doubling round scales the whole lane block by the per-lane
    challenge column — ``m`` dispatches total for all lanes, versus
    ``L·m`` for per-lane construction.  Lanes carry *different* points
    (their transcripts diverge at the commitment roots), which is why
    this is a separate entry point rather than a broadcast of
    :func:`eq_table`.
    """
    points = [list(point) for point in points]
    if not points:
        return _np.zeros((0, 1), dtype=_np.uint64)
    m = len(points[0])
    if any(len(point) != m for point in points):
        raise ValueError("eq_table_lanes points must share one length")
    if not vectorised(field):
        return _reference_eq_table_lanes(field, points)
    p = field.modulus
    arr = _np.empty((len(points), 1 << m), dtype=_np.uint64)
    arr[:, 0] = 1
    columns = (
        _f61.as_f61([point[i] % p for point in points])[:, None] for i in range(m)
    )
    return _eq_double(arr, 1, columns)


# -- row combination (Brakedown commit/open/verify) --------------------------


def _reference_combine_rows(
    field: PrimeField, matrix: Sequence[Sequence[int]], coeffs: Sequence[int]
) -> List[int]:
    """The original per-element indexed accumulation.

    Laned form: a ``[L, R, C]`` matrix stack with ``[L, R]`` coefficients
    combines each lane independently → ``[L, C]`` array.
    """
    p = field.modulus
    if _is_lanes(matrix, ndim=3):
        return _np.asarray(
            _per_lane(_reference_combine_rows, field, matrix, _np.asarray(coeffs)),
            dtype=_np.uint64,
        )
    matrix, coeffs = to_ints(matrix), to_ints(coeffs)
    width = len(matrix[0]) if matrix else 0
    out = [0] * width
    for coeff, row in zip(coeffs, matrix):
        if coeff % p == 0:
            continue
        for j, v in enumerate(row):
            out[j] += coeff * v
    return [v % p for v in out]


def combine_rows(
    field: PrimeField, matrix: Sequence[Sequence[int]], coeffs: Sequence[int]
) -> List[int]:
    """Coefficient-sparse, lazily reduced ``Σ_i coeffs[i] · matrix[i]``.

    The workhorse of the Brakedown commitment: the proximity row, the
    evaluation row, and the verifier's per-column checks are all row
    combinations.  An ``[R, C]`` array (the prover's stored matrix) is
    one 2-D modular multiply plus an exact limb-split column sum — row
    counts are far below the 2^29 overflow bound; a ``[L, R, C]`` stack
    with ``[L, R]`` coefficients does the same for every lane → ``[L, C]``.
    On lists, zero coefficients (common: boolean-point eq-tables are
    one-hot) skip their row entirely, unit coefficients skip the
    multiply, and reduction happens once per output column.
    """
    if isinstance(matrix, _np.ndarray):
        if not vectorised(field):
            return _reference_combine_rows(field, matrix, coeffs)
        c_arr = _f61.to_f61(coeffs)
        k = min(matrix.shape[-2], c_arr.shape[-1])
        contrib = _f61.f61_mul(matrix[..., :k, :], c_arr[..., :k, None])
        return _f61.f61_axis_sum(contrib, axis=-2)
    if not kernels_enabled():
        return _reference_combine_rows(field, matrix, coeffs)
    p = field.modulus
    width = len(matrix[0]) if matrix else 0
    out = [0] * width
    for coeff, row in zip(to_ints(coeffs), matrix):
        coeff %= p
        if coeff == 0:
            continue
        if coeff == 1:
            out = [acc + v for acc, v in zip(out, row)]
        else:
            out = [acc + coeff * v for acc, v in zip(out, row)]
    return [v % p for v in out]


# -- sparse matrix-vector multiply (encoder) ---------------------------------


def _reference_spmv(
    field: PrimeField,
    rows: Sequence[Sequence[Tuple[int, int]]],
    x: Sequence[int],
    n_out: int,
) -> List[int]:
    """The original adjacency-list scatter loop."""
    p = field.modulus
    y = [0] * n_out
    for xi, row in zip(to_ints(x), rows):
        if xi == 0:
            continue
        for j, w in row:
            y[j] += xi * w
    return [v % p for v in y]


def spmv(
    field: PrimeField,
    rows: Sequence[Sequence[Tuple[int, int]]],
    x: Sequence[int],
    n_out: int,
) -> List[int]:
    """``y = x · A`` for an adjacency-list sparse matrix (encoder SpMV).

    Lazy accumulation with a single reduction pass; zero inputs skip
    their whole adjacency row (systematic padding makes these common).
    """
    if not kernels_enabled():
        return _reference_spmv(field, rows, x, n_out)
    p = field.modulus
    y = [0] * n_out
    for xi, row in zip(to_ints(x), rows):
        if not xi:
            continue
        if xi == 1:
            for j, w in row:
                y[j] += w
        else:
            for j, w in row:
                y[j] += xi * w
    return [v % p for v in y]


# -- specialized sum-check round polynomials ---------------------------------


def _reference_product_round_quadratic(
    field: PrimeField, ta: Sequence[int], tb: Sequence[int]
) -> List[int]:
    """The generic interpolation loop specialized to two factors.

    Laned form: ``[L, n]`` half-tables → one ``[g0, g1, g2]`` per lane.
    """
    p = field.modulus
    if _is_lanes(ta):
        return _per_lane(_reference_product_round_quadratic, field, ta, tb)
    ta, tb = to_ints(ta), to_ints(tb)
    half = len(ta) // 2
    evals = [0, 0, 0]
    for b in range(half):
        a_lo, a_hi = ta[b], ta[b + half]
        b_lo, b_hi = tb[b], tb[b + half]
        da = (a_hi - a_lo) % p
        db = (b_hi - b_lo) % p
        cur_a, cur_b = a_lo, b_lo
        for t in range(3):
            evals[t] = (evals[t] + cur_a * cur_b) % p
            if t < 2:
                cur_a = (cur_a + da) % p
                cur_b = (cur_b + db) % p
    return evals


def _interpolants(table: "_np.ndarray", points: int) -> List["_np.ndarray"]:
    """The linear interpolant of a table's two halves at t = 0 … points−1."""
    half = table.shape[-1] // 2
    lo, hi = table[..., :half], table[..., half:]
    out = [lo, hi]
    if points > 2:
        d = _f61.f61_sub(hi, lo)
        while len(out) < points:       # t ↦ t+1 adds Δ = hi − lo
            out.append(_f61.f61_add(out[-1], d))
    return out


def product_round_quadratic(
    field: PrimeField, ta: Sequence[int], tb: Sequence[int]
) -> List[int]:
    """Round polynomial ``g(t) = Σ_b (a_lo + t·Δa)(b_lo + t·Δb)`` at t=0,1,2.

    One fused pass over both half-tables: ``g(0) = Σ lo·lo``,
    ``g(1) = Σ hi·hi``, ``g(2) = Σ (2hi−lo)(2hi−lo)`` — three dot
    products on arrays (``[L, n]`` tables → one triple per lane), or
    unbounded ints reduced once per evaluation point on lists.
    """
    if isinstance(ta, _np.ndarray):
        if not vectorised(field):
            return _reference_product_round_quadratic(field, ta, tb)
        a, b = _interpolants(ta, 3), _interpolants(_f61.as_f61(tb), 3)
        return _round_evals(
            [_sum_last(_f61.f61_mul(a[t], b[t])) for t in range(3)]
        )
    if not kernels_enabled():
        return _reference_product_round_quadratic(field, ta, tb)
    p = field.modulus
    half = len(ta) // 2
    g0 = g1 = g2 = 0
    for a_lo, a_hi, b_lo, b_hi in zip(ta, ta[half:], tb, tb[half:]):
        g0 += a_lo * b_lo
        g1 += a_hi * b_hi
        g2 += (2 * a_hi - a_lo) * (2 * b_hi - b_lo)
    return [g0 % p, g1 % p, g2 % p]


def _reference_constraint_round_cubic(
    field: PrimeField,
    eq: Sequence[int],
    az: Sequence[int],
    bz: Sequence[int],
    cz: Sequence[int],
) -> List[int]:
    """The original stepped-interpolation loop of the constraint prover.

    Laned form: ``[L, n]`` tables → one ``[g0..g3]`` quadruple per lane.
    """
    p = field.modulus
    if _is_lanes(eq):
        return _per_lane(_reference_constraint_round_cubic, field, eq, az, bz, cz)
    eq, az, bz, cz = to_ints(eq), to_ints(az), to_ints(bz), to_ints(cz)
    half = len(eq) // 2
    evals = [0, 0, 0, 0]
    for b in range(half):
        e_lo, e_hi = eq[b], eq[b + half]
        a_lo, a_hi = az[b], az[b + half]
        b_lo, b_hi = bz[b], bz[b + half]
        c_lo, c_hi = cz[b], cz[b + half]
        de = e_hi - e_lo
        da = a_hi - a_lo
        db = b_hi - b_lo
        dc = c_hi - c_lo
        e_t, a_t, b_t, c_t = e_lo, a_lo, b_lo, c_lo
        for t in range(4):
            evals[t] = (evals[t] + e_t * (a_t * b_t - c_t)) % p
            if t < 3:
                e_t += de
                a_t += da
                b_t += db
                c_t += dc
    return evals


def _constraint_terms(e, a, b, c) -> "_np.ndarray":
    """``e·(a·b − c)`` elementwise on canonical arrays."""
    return _f61.f61_mul(e, _f61.f61_sub(_f61.f61_mul(a, b), c))


def constraint_round_cubic(
    field: PrimeField,
    eq: Sequence[int],
    az: Sequence[int],
    bz: Sequence[int],
    cz: Sequence[int],
) -> List[int]:
    """Round polynomial of ``Σ eq·(az·bz − cz)`` at t = 0, 1, 2, 3.

    Direct extrapolation: the linear interpolant of a table pair at
    t = 2 is ``2·hi − lo`` and at t = 3 is ``3·hi − 2·lo``, so all four
    evaluations come out of one pass — whole-table sums on arrays
    (``[L, n]`` tables → one quadruple per lane, the per-round cost flat
    in the lane count), lazily reduced ints on lists.
    """
    if isinstance(eq, _np.ndarray):
        if not vectorised(field):
            return _reference_constraint_round_cubic(field, eq, az, bz, cz)
        e, a, b, c = (_interpolants(_f61.as_f61(t), 4) for t in (eq, az, bz, cz))
        return _round_evals(
            [
                _sum_last(_constraint_terms(e[t], a[t], b[t], c[t]))
                for t in range(4)
            ]
        )
    if not kernels_enabled():
        return _reference_constraint_round_cubic(field, eq, az, bz, cz)
    p = field.modulus
    half = len(eq) // 2
    g0 = g1 = g2 = g3 = 0
    for e_lo, e_hi, a_lo, a_hi, b_lo, b_hi, c_lo, c_hi in zip(
        eq, eq[half:], az, az[half:], bz, bz[half:], cz, cz[half:]
    ):
        g0 += e_lo * (a_lo * b_lo - c_lo)
        g1 += e_hi * (a_hi * b_hi - c_hi)
        e2 = 2 * e_hi - e_lo
        a2 = 2 * a_hi - a_lo
        b2 = 2 * b_hi - b_lo
        c2 = 2 * c_hi - c_lo
        g2 += e2 * (a2 * b2 - c2)
        g3 += (e2 + e_hi - e_lo) * ((a2 + a_hi - a_lo) * (b2 + b_hi - b_lo) - (c2 + c_hi - c_lo))
    return [g0 % p, g1 % p, g2 % p, g3 % p]


def _ints_or_lanes(table: Sequence[int]):
    """Int rows of a table: ``[table]``, or one row per lane of ``[L, n]``."""
    rows = to_ints(table)
    return rows if _is_lanes(table) else [rows]


def constraint_claimed_sum(
    field: PrimeField,
    eq: Sequence[int],
    az: Sequence[int],
    bz: Sequence[int],
    cz: Sequence[int],
) -> int:
    """``Σ_b eq[b]·(az[b]·bz[b] − cz[b]) mod p`` (sum-check #1's claim).

    Laned form: ``[L, n]`` tables → one claimed sum per lane.
    """
    if isinstance(eq, _np.ndarray) and vectorised(field):
        return _sum_last(_constraint_terms(*map(_f61.as_f61, (eq, az, bz, cz))))
    p = field.modulus
    sums = [
        sum(e * (a * b - c) for e, a, b, c in zip(*rows)) % p
        for rows in zip(*map(_ints_or_lanes, (eq, az, bz, cz)))
    ]
    return sums if _is_lanes(eq) else sums[0]


def constraint_violation(
    field: PrimeField,
    az: Sequence[int],
    bz: Sequence[int],
    cz: Sequence[int],
) -> bool:
    """True when some constraint fails ``az·bz = cz`` (satisfaction check).

    Laned form: ``[L, n]`` tables → one boolean per lane, so a single
    bad witness in a lane-group is attributable to its lane.
    """
    if isinstance(az, _np.ndarray) and vectorised(field):
        a, b, c = map(_f61.as_f61, (az, bz, cz))
        bad = _f61.f61_sub(_f61.f61_mul(a, b), c).any(axis=-1)
        return bad.tolist()
    p = field.modulus
    bad = [
        any((a * b - c) % p for a, b, c in zip(*rows))
        for rows in zip(*map(_ints_or_lanes, (az, bz, cz)))
    ]
    return bad if _is_lanes(az) else bad[0]


def product_pair_sum(field: PrimeField, ta: Sequence[int], tb: Sequence[int]) -> int:
    """``Σ_b ta[b]·tb[b]`` with one final reduction (claimed-sum kernel).

    Laned form: ``[L, n]`` tables → one pair sum per lane.
    """
    if isinstance(ta, _np.ndarray) and vectorised(field):
        return _sum_last(_f61.f61_mul(ta, _f61.as_f61(tb)))
    p = field.modulus
    sums = [
        sum(a * b for a, b in zip(*rows)) % p
        for rows in zip(*map(_ints_or_lanes, (ta, tb)))
    ]
    return sums if _is_lanes(ta) else sums[0]


# -- multilinear point evaluation --------------------------------------------


def evaluate_table_bits(
    field: PrimeField, table: Sequence[int], point: Sequence[int]
) -> int:
    """Naive per-index evaluation: materialize every index's bits.

    ``Σ_b table[b] · ∏_i (b_i·r_i + (1−b_i)(1−r_i))`` — O(n·2^n)
    multiplications.  Kept as the oracle for the fold-based evaluation's
    equivalence test; never used on the hot path.
    """
    p = field.modulus
    point = to_ints(point)
    n = len(point)
    total = 0
    for b, v in enumerate(to_ints(table)):
        term = v % p
        for i in range(n):
            bit = (b >> i) & 1
            r = point[i] % p
            term = (term * (r if bit else (1 - r))) % p
        total = (total + term) % p
    return total


def evaluate_table(
    field: PrimeField, table: Sequence[int], point: Sequence[int]
) -> int:
    """Fold-based multilinear-extension evaluation: O(2^n) multiplies.

    Folds the most-significant variable each pass (the table is
    LSB-first, so the two *halves* are paired), consuming the point from
    its last coordinate — identical binding order to the sum-check
    provers.  The result is a scalar, so a long list is normalised to an
    array once at entry on the vectorised path.
    """
    if vectorised(field) and len(table) >= _NP_MIN:
        current = _f61.as_f61(table)
    else:
        current = to_ints(table)
    for r in reversed(to_ints(point)):
        current = fold_table(field, current, r)
    return int(current[0]) % field.modulus


# -- vector serialization ----------------------------------------------------


def _reference_pack_vector(field: PrimeField, values: Sequence[int]) -> bytes:
    """The original per-element serialization loop."""
    return b"".join(field.to_bytes(v) for v in to_ints(values))


def pack_vector(field: PrimeField, values: Sequence[int]) -> bytes:
    """Serialize a residue vector to little-endian fixed-width bytes.

    For 8-byte fields (the default M61) a whole vector packs as one
    ``uint64`` array dump — byte-for-byte what per-element ``to_bytes``
    produces, and free of conversion when ``values`` already is an array.
    Non-canonical or oversized inputs fall back to the reference path,
    which reduces mod p exactly like ``to_bytes``.
    """
    if kernels_enabled() and field.byte_length == 8 and len(values):
        try:
            arr = _np.asarray(values, dtype="<u8")
        except (OverflowError, TypeError):
            return _reference_pack_vector(field, values)
        if not bool((arr >= _np.uint64(field.modulus)).any()):
            return arr.tobytes()
    return _reference_pack_vector(field, values)
