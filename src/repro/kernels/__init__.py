"""Hot-path proving kernels (system S26 in DESIGN.md).

The paper's discipline is per-stage kernels sized to measured stage
costs; this package is the functional prover's analogue.  Three pieces:

* **Batch primitives** — whole-vector field kernels
  (:mod:`~repro.kernels.field_kernels`: sum-check folds, the eq-table
  doubling kernel, coefficient-sparse row combination, encoder SpMV,
  specialized degree-2/3 round polynomials).  Every kernel has a naive
  reference twin selected by :func:`use_reference_kernels`, and the fast
  path is byte-identical.  Merkle hashing needs no kernel of its own:
  every node is a full SHA-256 that ``hashlib`` computes
  (:mod:`repro.hashing.hashers`).
* **Setup memoization** — :class:`SpecCache` keys built provers by
  circuit digest + PCS knobs so the batch workload ("one circuit, many
  witnesses") pays derivation once per process, and
  :func:`cached_encoder` shares expander graphs across prover/verifier
  construction.
* **Stage profiling** — :func:`collect_stages`/:func:`stage` record
  per-proof wall time for commit/encode/merkle/sumcheck/open, feeding
  ``stage_timing`` trace events and the GPU cost model.
"""

from .dispatch import kernels_enabled, use_reference_kernels
from .field_kernels import (
    combine_rows,
    constraint_claimed_sum,
    constraint_round_cubic,
    constraint_violation,
    eq_table,
    evaluate_table,
    evaluate_table_bits,
    fold_product_tables,
    fold_table,
    pack_vector,
    product_pair_sum,
    product_round_quadratic,
    spmv,
    sumcheck_tables,
)
from .profile import (
    STAGE_CHILDREN,
    STAGE_NAMES,
    StageProfile,
    collect_into,
    collect_stages,
    exclusive_stage_seconds,
    stage,
)
from .spec_cache import (
    EncoderCache,
    SpecCache,
    cached_encoder,
    default_encoder_cache,
    default_spec_cache,
    spec_cache_key,
)

__all__ = [
    # dispatch
    "kernels_enabled",
    "use_reference_kernels",
    # field kernels
    "fold_table",
    "fold_product_tables",
    "sumcheck_tables",
    "eq_table",
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
    # spec cache
    "SpecCache",
    "default_spec_cache",
    "spec_cache_key",
    "cached_encoder",
    "EncoderCache",
    "default_encoder_cache",
    # profiling
    "StageProfile",
    "collect_stages",
    "stage",
    "STAGE_NAMES",
    "STAGE_CHILDREN",
    "collect_into",
    "exclusive_stage_seconds",
]

__apidoc__ = """\
**Fast vs reference.** Every kernel dispatches on a process-global flag:
the fast form (lazy reduction, zip-slice iteration, SWAR lane packing)
runs by default; `use_reference_kernels()` switches the whole process to
the naive per-element loops the codebase used before this layer.  The
two are element-for-element identical — the golden-parity suite pins
this — so proofs serialize to the same bytes either way.  The reference
path exists for parity testing, for the `bench_hotpath` experiment's
before/after measurement, and for bisecting a suspected kernel bug.

**SpecCache.** `default_spec_cache().get_prover(spec)` memoizes
`ProverSpec.build_prover()` by *value* (circuit digest, field modulus,
public indices, every PCS/encoder knob) — not object identity — so
pooled workers, serial backends, and repeated runtime constructions for
the same circuit reuse one prover.  LRU-bounded, thread-safe; `hits` /
`misses` counters expose effectiveness.

**Stage profiling.** Wrap a proof in `collect_stages()` to receive a
`StageProfile` with per-stage seconds (`commit` ⊃ `encode` + `merkle`,
then `sumcheck1`, `sumcheck2`, `open`).  The runtime attaches these to
`TaskRecord.stage_seconds`, aggregates them in
`RuntimeStats.stage_totals()`, and emits them as `stage_timing` trace
events on the S24 span schema.
"""
