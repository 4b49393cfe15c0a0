"""The simulation engine: executes module graphs under both disciplines.

Two runners share all device/cost plumbing:

* :func:`run_naive` — the intuitive kernel-per-task discipline of
  Figure 4a (what Simon, Icicle and "Ours-np" do): each task launches one
  kernel per stage in series; threads idle as stage work shrinks, and
  every stage pays a kernel launch + sync.
* :func:`run_pipelined` — the paper's discipline of Figure 4b: one
  persistent kernel per stage with a fixed thread allocation; tasks stream
  through, one entering and one leaving per beat, with transfers
  overlapped by multi-stream copy engines.

Both produce a :class:`SimResult` carrying throughput, latency, a sampled
core-utilization trace (Figure 9), the device-memory high-water mark
(Table 10) and the per-beat communication/computation split (Table 9).
The engine is analytic (event-granular, not cycle-granular) so batches of
2^22-element tasks simulate in microseconds of host time.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .costs import CpuCostModel, GpuCostModel
from .device import CpuSpec, GpuSpec
from .kernel import (
    ModuleGraph,
    allocate_threads_proportional,
)
from .stream import BeatTiming, TransferEngine


@dataclass
class SimResult:
    """Outcome of simulating a batch of tasks through one module graph."""

    scheduler: str
    device_name: str
    batch_size: int
    total_seconds: float
    latency_seconds: float  # per-task start-to-finish
    utilization_trace: List[Tuple[float, float]] = dc_field(default_factory=list)
    memory_high_water_bytes: int = 0
    beat: Optional[BeatTiming] = None
    thread_allocation: List[int] = dc_field(default_factory=list)
    #: Steady-state per-task interval (pipelined: one beat; naive: the
    #: amortized per-task time).  Excludes pipeline fill/drain, matching
    #: how the paper reports throughput.
    steady_interval_seconds: float = 0.0

    @property
    def throughput_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.batch_size / self.total_seconds

    @property
    def amortized_seconds(self) -> float:
        return self.total_seconds / self.batch_size

    @property
    def steady_throughput_per_second(self) -> float:
        if self.steady_interval_seconds <= 0:
            return self.throughput_per_second
        return 1.0 / self.steady_interval_seconds

    @property
    def steady_throughput_per_ms(self) -> float:
        return self.steady_throughput_per_second / 1e3

    @property
    def mean_utilization(self) -> float:
        if not self.utilization_trace:
            return 0.0
        return sum(u for _, u in self.utilization_trace) / len(
            self.utilization_trace
        )


def _trace_samples(
    segments: Sequence[Tuple[float, float, float]], num_samples: int
) -> List[Tuple[float, float]]:
    """Sample piecewise-constant (start, end, utilization) segments."""
    if not segments:
        return []
    end_time = max(end for _, end, _ in segments)
    if end_time <= 0:
        return []
    samples = []
    for i in range(num_samples):
        t = end_time * (i + 0.5) / num_samples
        util = 0.0
        for start, end, u in segments:
            if start <= t < end:
                util += u
        samples.append((t, min(1.0, util)))
    return samples


def run_naive(
    device: GpuSpec,
    module: ModuleGraph,
    batch_size: int,
    costs: Optional[GpuCostModel] = None,
    compute_penalty: float = 1.0,
    launch_seconds: Optional[float] = None,
    trace_samples: int = 200,
) -> SimResult:
    """Simulate the intuitive kernel-per-task discipline (Figure 4a).

    Each task allocates ``min(cores, max stage work)`` threads and walks
    its stages serially; ``m = cores // threads`` tasks run concurrently.
    ``compute_penalty`` models the baseline's per-unit inefficiencies (no
    register-resident hash state, unsorted sparse rows, …).
    """
    costs = costs or GpuCostModel()
    if batch_size <= 0:
        raise SimulationError("batch_size must be positive")
    launch = (
        costs.kernel_launch_seconds if launch_seconds is None else launch_seconds
    )
    max_work = max((s.work_units for s in module.stages), default=0)
    if max_work == 0:
        raise SimulationError("module has no work")
    threads = min(device.cuda_cores, max_work)
    concurrency = max(1, device.cuda_cores // threads)

    # Per-task serial schedule.
    stage_durations: List[float] = []
    stage_useful_cycles: List[float] = []
    for stage in module.stages:
        if stage.work_units == 0:
            continue
        cycles = stage.duration_cycles(min(threads, max(1, stage.work_units)))
        seconds = device.cycles_to_seconds(cycles * compute_penalty) + launch
        stage_durations.append(seconds)
        stage_useful_cycles.append(stage.total_cycles)
    task_seconds = sum(stage_durations)

    waves = -(-batch_size // concurrency)
    total_seconds = waves * task_seconds
    # Utilization = useful work cycles delivered per core-second (fraction
    # of peak sustained throughput).  The baseline loses utilization both
    # to idle threads as stage work shrinks (Figure 4a) and to its per-unit
    # penalty (non-register hash state, unsorted rows) and launch gaps.
    segments: List[Tuple[float, float, float]] = []
    for wave in range(waves):
        tasks_in_wave = min(concurrency, batch_size - wave * concurrency)
        t = wave * task_seconds
        for duration, useful in zip(stage_durations, stage_useful_cycles):
            spent_core_cycles = device.seconds_to_cycles(duration) * (
                device.cuda_cores
            )
            util = tasks_in_wave * useful / spent_core_cycles
            segments.append((t, t + duration, min(1.0, util)))
            t += duration
    # Memory: the intuitive scheme preloads every concurrent task's input.
    memory = sum(s.memory_bytes for s in module.stages) * concurrency

    return SimResult(
        scheduler="naive",
        device_name=device.name,
        batch_size=batch_size,
        total_seconds=total_seconds,
        latency_seconds=task_seconds,
        utilization_trace=_trace_samples(segments, trace_samples),
        memory_high_water_bytes=memory,
        thread_allocation=[threads] * len(module.stages),
        steady_interval_seconds=task_seconds / concurrency,
    )


def run_pipelined(
    device: GpuSpec,
    module: ModuleGraph,
    batch_size: int,
    costs: Optional[GpuCostModel] = None,
    total_threads: Optional[int] = None,
    multi_stream: bool = True,
    include_transfers: bool = True,
    allocator=allocate_threads_proportional,
    trace_samples: int = 200,
) -> SimResult:
    """Simulate the paper's fully pipelined discipline (Figure 4b).

    One persistent kernel per stage; a new task enters every beat and one
    leaves.  The beat is paced by the slowest stage; with the §4
    proportional allocation all stages finish together, so threads never
    idle in steady state.
    """
    costs = costs or GpuCostModel()
    if batch_size <= 0:
        raise SimulationError("batch_size must be positive")
    threads = total_threads or device.cuda_cores
    if threads > device.cuda_cores:
        raise SimulationError(
            f"{threads} threads exceed {device.cuda_cores} cores"
        )
    stages = [s for s in module.stages if s.work_units > 0]
    if not stages:
        raise SimulationError("module has no work")
    alloc = allocator(stages, threads)

    beat_cycles = max(
        stage.duration_cycles(a) for stage, a in zip(stages, alloc)
    )
    comp_seconds = device.cycles_to_seconds(beat_cycles) * (
        1.0 + costs.pipeline_sync_fraction
    )
    # Per-beat traffic: the entering task's inputs come down, every stage's
    # outbound intermediates go up (dynamic load/store, §3.1/§4).
    # ``include_transfers=False`` models a device-resident workload — how
    # the paper's standalone module benchmarks (Tables 3–6) are run.
    comm_bytes = (
        module.total_bytes_in() + module.total_bytes_out()
        if include_transfers
        else 0
    )
    engine = TransferEngine(device, multi_stream=multi_stream)
    beat = engine.beat(comm_bytes, comp_seconds)

    num_stages = len(stages)
    total_beats = batch_size + num_stages - 1
    total_seconds = total_beats * beat.overall_seconds
    latency_seconds = num_stages * beat.overall_seconds

    # Utilization = useful work cycles per core-beat: stage k delivers its
    # work every beat while a task occupies it — beats k … k+batch_size−1.
    beat_core_cycles = device.seconds_to_cycles(beat.overall_seconds) * (
        device.cuda_cores
    )
    stage_util = [
        stage.total_cycles / beat_core_cycles for stage in stages
    ]
    segments: List[Tuple[float, float, float]] = []
    beat_len = beat.overall_seconds
    for k, util in enumerate(stage_util):
        start = k * beat_len
        end = (k + batch_size) * beat_len
        segments.append((start, end, util))

    # Memory: exactly one task resident per stage (§3.1's ≈2N discipline).
    memory = sum(s.memory_bytes for s in stages)

    return SimResult(
        scheduler="pipelined",
        device_name=device.name,
        batch_size=batch_size,
        total_seconds=total_seconds,
        latency_seconds=latency_seconds,
        utilization_trace=_trace_samples(segments, trace_samples),
        memory_high_water_bytes=memory,
        beat=beat,
        thread_allocation=alloc,
        steady_interval_seconds=beat.overall_seconds,
    )


def run_cpu(
    cpu: CpuSpec,
    module: ModuleGraph,
    batch_size: int,
    costs: Optional[CpuCostModel] = None,
) -> SimResult:
    """Price the same module graph at the CPU baselines' aggregate rates."""
    costs = costs or CpuCostModel()
    if batch_size <= 0:
        raise SimulationError("batch_size must be positive")
    rate = {
        "hash": costs.hash_seconds,
        "entry": costs.sumcheck_entry_seconds,
        "mac": costs.encoder_mac_seconds,
    }
    task_seconds = 0.0
    for stage in module.stages:
        try:
            per_unit = rate[stage.unit]
        except KeyError:
            raise SimulationError(
                f"stage {stage.name}: CPU model has no rate for unit "
                f"{stage.unit!r}"
            ) from None
        task_seconds += stage.work_units * per_unit
    total = task_seconds * batch_size
    return SimResult(
        scheduler="cpu",
        device_name=cpu.name,
        batch_size=batch_size,
        total_seconds=total,
        latency_seconds=task_seconds,
        utilization_trace=[],
        memory_high_water_bytes=0,
        steady_interval_seconds=task_seconds,
    )
