"""Stage-graph builders for the three ZKP modules (paper §3).

These translate each module's computation into the :class:`KernelStage`
lists the simulator schedules — one stage per Merkle layer (§3.1), one per
sum-check round (§3.2), and one per encoder pipeline stage (§3.3,
Figure 6).  Graphs are built analytically from the closed-form work counts
so that 2^22-scale workloads cost microseconds to construct.

Byte fields implement the dynamic load/store traffic of §3.1/§4: a task's
inputs enter at its first stage, and intermediate results stream back to
host memory as soon as the next layer is computed.

A ``max_stages`` knob merges the small tail stages into one, mirroring §4:
"Other 3 threads handle the remaining layers" — the real system does not
dedicate a kernel to each of the last single-digit-size layers.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..errors import PipelineError
from ..gpu.costs import GpuCostModel
from ..gpu.kernel import KernelStage, ModuleGraph

DIGEST_BYTES = 32
BLOCK_BYTES = 64
FIELD_BYTES = 32  # 256-bit elements, as benchmarked in the paper (§3.3)


def _merge_tail(stages: List[KernelStage], max_stages: Optional[int]) -> List[KernelStage]:
    """Merge trailing stages into one (keeps total work/bytes/memory)."""
    if max_stages is None or len(stages) <= max_stages:
        return stages
    if max_stages < 2:
        raise PipelineError("max_stages must be at least 2")
    head = stages[: max_stages - 1]
    tail = stages[max_stages - 1 :]
    merged = KernelStage(
        name=f"{tail[0].name}+tail",
        work_units=sum(s.work_units for s in tail),
        cycles_per_unit=tail[0].cycles_per_unit,
        bytes_in=sum(s.bytes_in for s in tail),
        bytes_out=sum(s.bytes_out for s in tail),
        memory_bytes=sum(s.memory_bytes for s in tail),
        unit=tail[0].unit,
    )
    return head + [merged]


def merkle_graph(
    num_blocks: int,
    costs: Optional[GpuCostModel] = None,
    max_stages: Optional[int] = None,
    name: str = "merkle",
) -> ModuleGraph:
    """Per-layer stage graph for one Merkle tree over ``num_blocks`` blocks.

    Layer 0 hashes the N data blocks into leaves (input: 64N bytes); layer
    k compresses N/2^k digests.  Each finished layer streams its digests
    back to the host (§3.1), and the resident footprint per stage is the
    stage's input layer — summing to the paper's ≈2N blocks.
    """
    if num_blocks < 2:
        raise PipelineError("a Merkle tree needs at least 2 blocks")
    costs = costs or GpuCostModel()
    stages: List[KernelStage] = []
    layer = 0
    work = num_blocks  # non-power-of-two inputs hash ceil(n/2^k) per layer
    while work >= 1:
        stages.append(
            KernelStage(
                name=f"{name}/layer{layer}",
                work_units=work,
                cycles_per_unit=costs.hash_cycles,
                bytes_in=BLOCK_BYTES * num_blocks if layer == 0 else 0,
                bytes_out=DIGEST_BYTES * work,
                memory_bytes=(BLOCK_BYTES if layer == 0 else 2 * DIGEST_BYTES)
                * work,
                unit="hash",
            )
        )
        if work == 1:
            break
        work = -(-work // 2)
        layer += 1
    return ModuleGraph(name=name, stages=_merge_tail(stages, max_stages))


def sumcheck_graph(
    num_vars: int,
    costs: Optional[GpuCostModel] = None,
    instances: int = 1,
    max_stages: Optional[int] = None,
    name: str = "sumcheck",
) -> ModuleGraph:
    """Per-round stage graph for sum-check over a 2^n table (§3.2).

    Round i updates 2^{n−i} entries (each: two reads, one multiply-add,
    one write — priced by the memory-bound effective entry cost).  The
    input table streams in at round 1; each stage's double-buffered
    working set is its read+write tables (Figure 5).

    ``instances`` scales per-round work for protocols that run many
    sum-check instances per proof (the paper's GKR-style layered proving).
    """
    if num_vars < 1:
        raise PipelineError("sum-check needs at least one variable")
    costs = costs or GpuCostModel()
    stages: List[KernelStage] = []
    table = 1 << num_vars
    for i in range(num_vars):
        # Work is counted in table-entry *reads* (the module is memory
        # bound, §3.2): round i touches all 2^{n−i} live entries.
        work = table >> i
        stages.append(
            KernelStage(
                name=f"{name}/round{i}",
                work_units=max(1, work) * instances,
                cycles_per_unit=costs.sumcheck_entry_cycles,
                bytes_in=FIELD_BYTES * table * instances if i == 0 else 0,
                bytes_out=2 * FIELD_BYTES * instances,  # the (π_i1, π_i2) pair
                # Read table + half-size write table (Figure 5's buffers).
                memory_bytes=(FIELD_BYTES * 3 * max(1, work) // 2) * instances,
                unit="entry",
            )
        )
    return ModuleGraph(name=name, stages=_merge_tail(stages, max_stages))


def encoder_stage_sizes(
    message_length: int,
    alpha: float = 0.25,
    inv_rate: int = 2,
    base_size: int = 32,
) -> List[dict]:
    """Closed-form stage sizes mirroring ``SpielmanEncoder._build``.

    Returns forward stages (message lengths), the base stage, and backward
    stages (parity lengths) in pipeline order.
    """
    if message_length < 1:
        raise PipelineError("message length must be positive")
    forward = []
    n = message_length
    while n > base_size:
        shrunk = max(1, math.ceil(alpha * n))
        parity = inv_rate * n - n - inv_rate * shrunk
        if parity <= 0:
            break
        forward.append({"n": n, "shrunk": shrunk, "parity": parity})
        n = shrunk
    out: List[dict] = []
    for k, st in enumerate(forward):
        out.append({"kind": "forward", "stage": k, "in": st["n"], "out": st["shrunk"]})
    out.append({"kind": "base", "stage": len(forward), "in": n, "out": (inv_rate - 1) * n})
    for k in range(len(forward) - 1, -1, -1):
        st = forward[k]
        out.append(
            {"kind": "backward", "stage": k, "in": st["shrunk"] * inv_rate, "out": st["parity"]}
        )
    return out


def encoder_graph(
    message_length: int,
    costs: Optional[GpuCostModel] = None,
    row_weight: int = 8,
    alpha: float = 0.25,
    inv_rate: int = 2,
    base_size: int = 32,
    max_stages: Optional[int] = None,
    name: str = "encoder",
) -> ModuleGraph:
    """Stage graph for the two-pass pipelined encoder (§3.3, Figure 6).

    Forward stages do ``row_weight · n_k`` sparse MACs, the base stage a
    dense ``n_base × (q−1)n_base`` multiply, and backward stages
    ``row_weight · |z_k|`` MACs.  The message streams in at the first
    stage; the codeword leaves from the last.
    """
    costs = costs or GpuCostModel()
    sizes = encoder_stage_sizes(message_length, alpha, inv_rate, base_size)
    stages: List[KernelStage] = []
    for spec in sizes:
        if spec["kind"] == "base":
            work = spec["in"] * spec["out"]  # dense generator
        else:
            work = row_weight * spec["in"]
        is_first = spec is sizes[0]
        is_last = spec is sizes[-1]
        stages.append(
            KernelStage(
                name=f"{name}/{spec['kind']}{spec['stage']}",
                work_units=max(1, work),
                cycles_per_unit=costs.encoder_mac_cycles,
                bytes_in=FIELD_BYTES * message_length if is_first else 0,
                bytes_out=FIELD_BYTES * inv_rate * message_length if is_last else 0,
                memory_bytes=FIELD_BYTES * (spec["in"] + spec["out"]),
                unit="mac",
            )
        )
    return ModuleGraph(name=name, stages=_merge_tail(stages, max_stages))
