"""Per-proof stage profiling (the paper's measured per-stage costs, §4).

The paper sizes its pipeline stages from *measured* per-stage costs; this
module is the functional prover's measuring tape.  Instrumented code
wraps each pipeline stage in :func:`stage`, and a caller that wants the
breakdown wraps the whole proof in :func:`collect_stages`:

>>> from repro.kernels.profile import collect_stages, stage
>>> with collect_stages() as profile:
...     with stage("merkle"):
...         pass
>>> sorted(profile.seconds) == ["merkle"]
True

When no collector is active the :func:`stage` context manager is a no-op
(one ContextVar read), so the instrumentation stays in production code.
The collector is a ContextVar, so concurrent proofs in different threads
(a cluster's in-process members) each see their own profile.

Stages may nest: ``encode`` and ``merkle`` run inside ``commit``, and
every stage accumulates its own wall time independently — so ``commit``
includes its children, and ``commit − encode − merkle`` is the
commit-phase residue (transposes, padding, transcript absorption).

Because of that containment the raw dict is *not* safe to sum: adding
``commit`` to ``encode`` and ``merkle`` counts the commit phase twice.
:meth:`StageProfile.exclusive` is the summable view — ``commit`` is
replaced by its residue, so the values partition wall time and their
total never exceeds it; :meth:`StageProfile.inclusive` is the raw
as-measured view for consumers that understand the nesting.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "StageProfile",
    "collect_stages",
    "collect_into",
    "exclusive_stage_seconds",
    "proof_cost_seconds",
    "stage",
    "stage_cost_fractions",
    "STAGE_NAMES",
    "STAGE_CHILDREN",
]

#: Canonical stage names emitted by the instrumented proving pipeline, in
#: pipeline order.  ``commit`` contains ``encode`` and ``merkle``.
STAGE_NAMES: Tuple[str, ...] = (
    "commit",
    "encode",
    "merkle",
    "sumcheck1",
    "sumcheck2",
    "open",
)

#: Containment between stages: a container's measured time includes its
#: children's.  The exclusive view subtracts children from containers so
#: the result partitions wall time.
STAGE_CHILDREN: Dict[str, Tuple[str, ...]] = {
    "commit": ("encode", "merkle"),
}


def exclusive_stage_seconds(
    stage_seconds: Mapping[str, float],
) -> Dict[str, float]:
    """The summable view of a (possibly nested) stage-seconds mapping.

    Each container stage (per :data:`STAGE_CHILDREN`) is replaced by its
    residue — its time minus its recorded children's, clamped at zero —
    so the returned values are disjoint and sum to at most the proof's
    wall time.  Stages absent from the input stay absent.
    """
    out: Dict[str, float] = {}
    ordered = [n for n in STAGE_NAMES if n in stage_seconds]
    ordered += [n for n in stage_seconds if n not in STAGE_NAMES]
    for name in ordered:
        value = stage_seconds[name]
        for child in STAGE_CHILDREN.get(name, ()):
            value -= stage_seconds.get(child, 0.0)
        out[name] = max(0.0, value)
    return out


def stage_cost_fractions(stage_seconds: Mapping[str, float]) -> Dict[str, float]:
    """Per-module time fractions from a measured stage profile.

    Maps the functional prover's stage names onto the simulator's three
    modules — ``merkle``, ``sumcheck`` (both sum-checks), ``encoder`` —
    plus ``other`` (commit residue, opening).  ``commit`` itself is a
    container (it includes ``encode`` and ``merkle``) and is excluded
    from the total; fractions sum to 1 when any time was recorded.
    """
    merkle = stage_seconds.get("merkle", 0.0)
    encode = stage_seconds.get("encode", 0.0)
    sumcheck = stage_seconds.get("sumcheck1", 0.0) + stage_seconds.get(
        "sumcheck2", 0.0
    )
    commit = stage_seconds.get("commit", 0.0)
    opening = stage_seconds.get("open", 0.0)
    other = max(0.0, commit - encode - merkle) + opening
    total = merkle + encode + sumcheck + other
    if total <= 0.0:
        return {"merkle": 0.0, "sumcheck": 0.0, "encoder": 0.0, "other": 0.0}
    return {
        "merkle": merkle / total,
        "sumcheck": sumcheck / total,
        "encoder": encode / total,
        "other": other / total,
    }


def proof_cost_seconds(stage_seconds: Mapping[str, float]) -> float:
    """One proof's exclusive CPU-seconds from a measured stage profile.

    The same accounting as :func:`stage_cost_fractions`: ``commit`` is a
    container around ``encode`` and ``merkle``, so only its residue
    counts, and the opening rides in ``other``.  This scalar is the load
    model's demand unit — arrival rate × this = busy-seconds per second
    the fleet must absorb.
    """
    merkle = stage_seconds.get("merkle", 0.0)
    encode = stage_seconds.get("encode", 0.0)
    sumcheck = stage_seconds.get("sumcheck1", 0.0) + stage_seconds.get(
        "sumcheck2", 0.0
    )
    commit = stage_seconds.get("commit", 0.0)
    opening = stage_seconds.get("open", 0.0)
    return (
        merkle + encode + sumcheck
        + max(0.0, commit - encode - merkle) + opening
    )


@dataclass
class StageProfile:
    """Accumulated wall-clock seconds per pipeline stage for one proof."""

    seconds: Dict[str, float] = dc_field(default_factory=dict)

    def add(self, name: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` seconds into stage ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def as_dict(self) -> Dict[str, float]:
        """A plain dict copy in canonical-then-insertion order.

        This is the *inclusive* (as-measured) view — ``commit`` contains
        ``encode``/``merkle`` — and is not safe to sum across keys; use
        :meth:`exclusive` for a partition of wall time.
        """
        ordered = {n: self.seconds[n] for n in STAGE_NAMES if n in self.seconds}
        for name, value in self.seconds.items():
            if name not in ordered:
                ordered[name] = value
        return ordered

    #: Explicit name for the raw nested view, so call sites that really
    #: want containment say so.
    inclusive = as_dict

    def exclusive(self) -> Dict[str, float]:
        """The summable view: containers replaced by their residue.

        ``commit`` becomes ``commit − encode − merkle`` (clamped at
        zero), so the returned values are disjoint shares of the proof's
        wall time and their sum never exceeds it.
        """
        return exclusive_stage_seconds(self.as_dict())

    def merge(self, other: Dict[str, float]) -> None:
        """Accumulate another profile's stage seconds into this one."""
        for name, value in other.items():
            self.add(name, value)


_ACTIVE: ContextVar[Optional[StageProfile]] = ContextVar(
    "repro_stage_profile", default=None
)


@contextmanager
def collect_stages() -> Iterator[StageProfile]:
    """Collect stage timings from everything proved inside the block."""
    profile = StageProfile()
    token = _ACTIVE.set(profile)
    try:
        yield profile
    finally:
        _ACTIVE.reset(token)


@contextmanager
def collect_into(profile: StageProfile) -> Iterator[StageProfile]:
    """Collect stage timings into an *existing* profile.

    The pipelined executor runs one proof's stages on different worker
    threads; each thread has its own ContextVar state, so the per-task
    profile must travel with the task.  Wrapping each stage execution in
    ``collect_into(task_profile)`` accumulates every thread's timings
    into the one shared profile (stage hand-offs serialize the writes,
    so no lock is needed).
    """
    token = _ACTIVE.set(profile)
    try:
        yield profile
    finally:
        _ACTIVE.reset(token)


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Attribute the enclosed block's wall time to stage ``name``.

    Free (a single ContextVar read) when no collector is active.
    """
    profile = _ACTIVE.get()
    if profile is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        profile.add(name, time.perf_counter() - start)
