"""Per-worker memoization of prover setup (the batch workload's fixed half).

The paper's workload is "one circuit, many witnesses" (§1): every proof in
a batch shares the constraint system, the expander graphs, and the PCS
parameters.  SZKP (arXiv:2408.05890) makes the same observation for
hardware provers — precompute the per-circuit structure once, stream the
witnesses.  Our pooled runtime previously paid the whole derivation
(``ProverSpec.build_prover()``: expander sampling, matrix shaping) once
per *worker initialization*, and the serial/cluster paths once per
*backend construction*, keyed by spec object identity — so logically
identical specs (same circuit, new object) re-derived everything.

:class:`SpecCache` keys by *value* — the circuit digest plus every PCS
knob — so any spec describing the same prover hits.  A module-level
default instance gives worker processes, serial backends, and repeated
runtime constructions one shared cache per process.

:func:`cached_encoder` is the lower-level half: Spielman encoder graphs
are deterministic in ``(field modulus, message length, params, seed)``,
so the PCS routes construction through this memo and a prover, a
verifier, and a resilience probe for the same circuit share one encoder.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only; kernels must stay an
    # import leaf so the modules it accelerates can import it cycle-free.
    from ..commitment.brakedown import BrakedownPCS
    from ..core.prover import SnarkProver
    from ..encoder.spielman import EncoderParams, SpielmanEncoder
    from ..field.prime_field import PrimeField
    from ..runtime.spec import ProverSpec

__all__ = [
    "EncoderCache",
    "SpecCache",
    "cached_encoder",
    "default_encoder_cache",
    "default_spec_cache",
    "spec_cache_key",
]


def spec_cache_key(spec: "ProverSpec") -> Tuple:
    """Value key identifying the prover a spec builds.

    Two specs with equal keys build provers that emit byte-identical
    proofs for the same task: the circuit digest pins the R1CS, the
    remaining fields pin every PCS/encoder derivation knob.
    """
    return (
        spec.r1cs.digest(),
        spec.r1cs.field.modulus,
        tuple(spec.public_indices),
        spec.pcs_seed,
        spec.num_col_checks,
        spec.row_vars,
        spec.encoder_params,
        spec.hasher_name,
    )


class SpecCache:
    """An LRU memo of built provers/PCS instances, keyed by spec *value*.

    Thread-safe (a cluster runs its in-process members' shards on
    threads).  Cached
    provers are reused across tasks — safe because ``SnarkProver.prove``
    keeps no mutable per-proof state on the instance.
    """

    def __init__(self, maxsize: int = 8):
        self._maxsize = max(1, maxsize)
        self._provers: "OrderedDict[Tuple, SnarkProver]" = OrderedDict()
        self._lock = threading.Lock()
        #: Number of lookups served from the cache.
        self.hits = 0
        #: Number of lookups that had to build a prover.
        self.misses = 0

    def __len__(self) -> int:
        return len(self._provers)

    def get_prover(self, spec: "ProverSpec") -> "SnarkProver":
        """The memoized prover for ``spec`` (built on first use)."""
        key = spec_cache_key(spec)
        with self._lock:
            prover = self._provers.get(key)
            if prover is not None:
                self.hits += 1
                self._provers.move_to_end(key)
                return prover
        # Build outside the lock — derivation is the expensive part and
        # two racing builders produce equivalent provers.
        built = spec.build_prover()
        with self._lock:
            prover = self._provers.get(key)
            if prover is not None:
                self.hits += 1
                self._provers.move_to_end(key)
                return prover
            self.misses += 1
            self._provers[key] = built
            while len(self._provers) > self._maxsize:
                self._provers.popitem(last=False)
        return built

    def get_pcs(self, spec: "ProverSpec") -> "BrakedownPCS":
        """The memoized prover's PCS (shares the cached encoder graph)."""
        return self.get_prover(spec).pcs

    def clear(self) -> None:
        """Drop every cached prover (hit/miss counters are kept)."""
        with self._lock:
            self._provers.clear()


_DEFAULT = SpecCache()


def default_spec_cache() -> SpecCache:
    """The process-wide cache shared by workers and backends."""
    return _DEFAULT


# -- encoder graph memo ------------------------------------------------------


class EncoderCache:
    """An LRU memo of :class:`SpielmanEncoder` graphs with hit/miss stats.

    The earlier module-level memo was a plain dict with first-in
    eviction: long-lived services proving a rotating set of circuit
    shapes evicted their *hottest* graphs (insertion order never
    updated on hit) and exposed no occupancy or hit-rate signal.  This
    mirrors :class:`SpecCache`: recency-ordered, thread-safe, builds
    outside the lock, counts hits/misses/evictions.
    """

    def __init__(self, maxsize: int = 32):
        self._maxsize = max(1, maxsize)
        self._encoders: "OrderedDict[Tuple, SpielmanEncoder]" = OrderedDict()
        self._lock = threading.Lock()
        #: Number of lookups served from the cache.
        self.hits = 0
        #: Number of lookups that had to build an encoder.
        self.misses = 0
        #: Number of entries dropped to honor the LRU bound.
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._encoders)

    def get(
        self,
        field: "PrimeField",
        message_length: int,
        params: "Optional[EncoderParams]",
        seed: int,
    ) -> "SpielmanEncoder":
        """The memoized encoder for the key (built on first use).

        Graphs are a pure function of ``(modulus, message length,
        params, seed)`` — the ``field`` *instance* is deliberately not
        part of the key, so equivalent field objects share one encoder.
        """
        from ..encoder.spielman import EncoderParams, SpielmanEncoder

        key = (field.modulus, message_length, params or EncoderParams(), seed)
        with self._lock:
            encoder = self._encoders.get(key)
            if encoder is not None:
                self.hits += 1
                self._encoders.move_to_end(key)
                return encoder
        # Build outside the lock — graph sampling is the expensive part
        # and two racing builders produce equivalent encoders.
        built = SpielmanEncoder(field, message_length, params=params, seed=seed)
        with self._lock:
            encoder = self._encoders.get(key)
            if encoder is not None:
                self.hits += 1
                self._encoders.move_to_end(key)
                return encoder
            self.misses += 1
            self._encoders[key] = built
            while len(self._encoders) > self._maxsize:
                self._encoders.popitem(last=False)
                self.evictions += 1
        return built

    def clear(self) -> None:
        """Drop every cached encoder (hit/miss counters are kept)."""
        with self._lock:
            self._encoders.clear()


_DEFAULT_ENCODERS = EncoderCache()


def default_encoder_cache() -> EncoderCache:
    """The process-wide encoder memo shared by every PCS instance."""
    return _DEFAULT_ENCODERS


def cached_encoder(
    field: "PrimeField",
    message_length: int,
    params: "Optional[EncoderParams]",
    seed: int,
) -> "SpielmanEncoder":
    """Memoized :class:`SpielmanEncoder` construction (the default cache)."""
    return _DEFAULT_ENCODERS.get(field, message_length, params, seed)
