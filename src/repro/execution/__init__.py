"""Unified execution layer (system S24 in DESIGN.md).

BatchZK's system half is a scheduling discipline: proof tasks flow
through interchangeable execution resources.  This package is that seam
for the functional half — one :class:`ProvingBackend` abstraction
(``prove_tasks(spec, tasks) -> (proofs, RuntimeStats)``) behind which
every proving entry point in the repository runs, with stock
substrates (:class:`SerialBackend`, the process-pool
:class:`PoolBackend`, the lane-vectorized :class:`LanedBackend`, the
stage-pipelined :class:`PipelinedBackend`), a string registry
(:func:`resolve_backend` understands ``"serial"``, ``"pool:8"``,
``"cluster:pool:4,pool:4"``) so CLIs, benches, and services select
substrates by name, and the replay side of the
correlated trace schema (:func:`request_lineage` rebuilds a request's
service → batch → backend → task span tree from one JSONL file).

One rate-proportional shard arithmetic
(:func:`largest_remainder_shares`) places tasks for the pipelined and
cluster layers.
"""

from .backend import (
    PoolBackend,
    ProvingBackend,
    SerialBackend,
)
from .laned import (
    AUTO_LANE_BUDGET,
    AUTO_LANE_CAP,
    LanedBackend,
    resolve_lane_width,
)
from .pipelined import PipelinedBackend, StageGroup, plan_stage_workers
from .registry import (
    available_backends,
    register_backend,
    resolve_backend,
)
from .sharding import largest_remainder_shares
from .trace import (
    RequestLineage,
    SpanNode,
    format_lineage,
    lineage_of,
    load_trace,
    request_lineage,
    span_index,
    stage_breakdown,
    stage_breakdown_of,
)

__apidoc__ = """\
**The backend contract.** A backend executes one uniform batch:
`prove_tasks(spec, tasks)` takes a picklable
`ProverSpec` (the circuit recipe — per-spec setup is cached inside the
backend, paid once per backend lifetime) and a list of `ProofTask`s, and
returns the proofs in task order plus a `RuntimeStats` report.  Optional
`trace=`/`parent=` keywords join the run to a correlated trace; both
default to the ambient span, so backends dispatched from inside the
proof service inherit the service's sink and batch span automatically.

**Selector strings.** `resolve_backend("serial")` proves inline;
`"pool"`/`"pool:8"` shard across a process pool;
`"lanes:64"`/`"lanes:auto"` prove same-circuit tasks in fused numpy
lane groups (S31; `"lanes:16:pool:4"` / `"lanes:16:pipelined:4"` give a
parallel substrate lane-group-sized dispatch units, and a composed
`"lanes:auto:pool:4"` hardens `auto` to `AUTO_LANE_CAP`);
`"cluster:pool:4,pool:4"` splits each batch across concurrent members
proportionally to their parallelism (largest-remainder rounding) and
fails over from a dead member (`repro.cluster`).  Instances
pass through unchanged, and `register_backend("gpu", factory)` adds new
selector heads.

**Correlated traces.** Every event in a shared JSONL sink carries
`span`, `parent`, and `kind` (`service` | `request` | `batch` |
`backend` | `task`).  `request_lineage(events, request_id)` (or
`lineage_of(path, id)`) reconstructs one request's full lifecycle —
which batch it rode, which backend run proved it, which task span timed
it — from that single file; `format_lineage` renders the chain for a
terminal.
"""

__all__ = [
    "AUTO_LANE_BUDGET",
    "AUTO_LANE_CAP",
    "LanedBackend",
    "PipelinedBackend",
    "PoolBackend",
    "ProvingBackend",
    "RequestLineage",
    "SerialBackend",
    "SpanNode",
    "StageGroup",
    "available_backends",
    "format_lineage",
    "largest_remainder_shares",
    "lineage_of",
    "plan_stage_workers",
    "load_trace",
    "register_backend",
    "request_lineage",
    "resolve_backend",
    "resolve_lane_width",
    "span_index",
    "stage_breakdown",
    "stage_breakdown_of",
]
