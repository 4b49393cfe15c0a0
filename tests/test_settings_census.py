"""The serving stack's settings census (DESIGN decision 22).

A constructor option exists only if code outside the tests sets it to
something other than its default; every other value is a module-level
constant.  These tests pin each in-scope constructor's parameter names,
so adding an option is a deliberate edit here and a new row in the
census table, not a side effect.
"""

import inspect

import pytest

from repro.cluster import (
    Autoscaler,
    ClusterBackend,
    LoadModel,
    NodePool,
    NodeServer,
    RemoteBackend,
)
from repro.execution import (
    LanedBackend,
    PoolBackend,
    SerialBackend,
)
from repro.execution.pipelined import PipelinedBackend
from repro.resilience import ResilientBackend
from repro.runtime import ParallelProvingRuntime
from repro.service import (
    BatchPolicy,
    Fleet,
    FleetActuator,
    FleetSupervisor,
    ProofService,
    RuntimeProofBackend,
    launch_fleet,
)
from repro.zkml.service import MlaasService

CENSUS = [
    (ParallelProvingRuntime, [
        "spec", "workers", "chunk_size", "max_retries",
        "task_timeout_seconds", "fault_injector", "lane_width",
    ]),
    (SerialBackend, ["max_retries", "fault_injector"]),
    (PoolBackend, ["workers", "fault_injector"]),
    (LanedBackend, ["lane_width", "max_retries", "fault_injector"]),
    (PipelinedBackend, [
        "workers", "max_retries", "fault_injector", "lane_width",
    ]),
    (ResilientBackend, ["child", "verify_on_return", "fault_injector"]),
    (ClusterBackend, [
        "children", "hedge", "min_hedge_delay_seconds", "hedge_min_samples",
        "hedge_budget_per_second", "hedge_budget_burst",
    ]),
    (NodePool, ["backend"]),
    (NodeServer, ["host", "port", "backend", "chunk_size", "die_after"]),
    (RemoteBackend, ["host", "port", "connect_timeout", "io_timeout"]),
    (Autoscaler, [
        "model", "pool", "min_nodes", "max_nodes", "cooldown_seconds",
        "shrink_patience", "trace", "clock",
    ]),
    (LoadModel, ["per_proof_seconds", "node_parallelism"]),
    (LoadModel.from_stage_profile, ["stage_seconds", "node_parallelism"]),
    (RuntimeProofBackend, ["specs", "backend"]),
    (RuntimeProofBackend.from_specs, ["specs", "backend"]),
    (BatchPolicy, ["max_batch_size"]),
    (ProofService, [
        "backend", "policy", "max_queue", "keyer", "trace",
        "fault_injector", "start",
    ]),
    (FleetActuator, ["pool", "cluster", "trace"]),
    (FleetSupervisor, [
        "service", "scaler", "actuator", "interval_seconds", "trace",
    ]),
    (Fleet.supervise, [
        "service", "model", "min_nodes", "max_nodes", "interval_seconds",
        "shrink_patience",
    ]),
    (launch_fleet, ["node_backend", "initial_nodes", "trace"]),
    (MlaasService, ["model", "num_col_checks"]),
    (MlaasService.serve, ["backend", "policy"]),
]


def _parameters(target):
    fn = target.__init__ if inspect.isclass(target) else target
    return [
        name for name in inspect.signature(fn).parameters
        if name not in ("self", "cls")
    ]


@pytest.mark.parametrize(
    "target, names", CENSUS, ids=[t.__qualname__ for t, _ in CENSUS]
)
def test_parameters_are_pinned(target, names):
    assert _parameters(target) == names


def test_pool_backend_rejects_unknown_keyword():
    with pytest.raises(TypeError):
        PoolBackend(2, chunk_size=4)
    pool = PoolBackend(2)
    assert (pool.lane_width, pool.max_retries) == (None, 2)


def test_launch_fleet_rejects_unknown_keyword():
    # Bound, not called: a call that got past argument checking would
    # spawn node subprocesses.
    with pytest.raises(TypeError):
        inspect.signature(launch_fleet).bind("serial", hedge=False)
