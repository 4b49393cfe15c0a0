"""Fast/reference kernel dispatch.

Every hot-path kernel in :mod:`repro.kernels` ships in two forms: the
*fast* implementation (batched, lazily reduced, SWAR-packed) and a
*reference* twin written as the naive per-element loop the rest of the
codebase used before the kernel layer existed.  The two must agree
element-for-element — the golden-parity test suite pins that down — and
the fast path must produce byte-identical serialized proofs.

This module owns the switch.  It exists for three consumers:

* the parity tests, which run both forms on the same inputs;
* the ``bench_hotpath`` experiment, which measures the end-to-end speedup
  of the kernelized prover against the reference path and enforces a
  perf-regression floor;
* debugging — when a proof mismatch is suspected, rerunning under
  :func:`use_reference_kernels` isolates whether a kernel is at fault.

The flag is process-global (not thread-local) on purpose: the reference
path is a measurement/debug mode, not a per-request feature, and the
pooled runtime's worker processes each inherit their own copy.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_ENABLED = True


def kernels_enabled() -> bool:
    """True when the fast kernel implementations are active."""
    return _ENABLED


@contextmanager
def use_reference_kernels() -> Iterator[None]:
    """Run the enclosed block on the naive reference implementations.

    >>> from repro.kernels import dispatch
    >>> with dispatch.use_reference_kernels():
    ...     dispatch.kernels_enabled()
    False
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
