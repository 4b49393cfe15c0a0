"""Resilience-layer tests (S25): chaos plane, breakers, failover,
quarantine, and the crash-safe journal."""

import json
import pickle

import pytest

from repro.core import (
    BatchProver,
    CircuitBuilder,
    ProofTask,
    SnarkProver,
    compile_builder,
    make_pcs,
    random_circuit,
)
from repro.core.serialize import serialize_proof
from repro.errors import (
    BackendUnavailableError,
    ExecutionError,
    InjectedFault,
    JournalError,
    QuarantinedTaskError,
    ResilienceError,
)
from repro.execution import SerialBackend, resolve_backend
from repro.field import DEFAULT_FIELD
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    HealthTracker,
    ProofJournal,
    ResilientBackend,
    apply_fault_plan,
    journaled_prove,
    split_results,
    task_key,
)
from repro.runtime import JsonlTraceSink, ProverSpec

F = DEFAULT_FIELD


# -- fixtures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def setup():
    cc = random_circuit(F, 48, seed=3)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(8)]
    return prover, spec, tasks


@pytest.fixture(scope="module")
def fault_free(setup):
    """The oracle: serial proofs with no chaos, on the wire."""
    _, spec, tasks = setup
    proofs, _ = SerialBackend().prove_tasks(spec, tasks)
    return _wire(proofs)


def _wire(proofs):
    return [serialize_proof(p, F) for p in proofs]


def _chain_setup(num_tasks=4, num_inputs=5):
    """One circuit, ``num_tasks`` *distinct* witnesses.

    The builder's structure depends only on the gate sequence, not the
    input values, so re-building with shifted inputs yields the same
    R1CS (same digest, same spec) but distinct witnesses — what the
    content-addressed journal tests need.
    """
    compiled = []
    for t in range(num_tasks):
        cb = CircuitBuilder(F)
        wires = cb.private_inputs([t * num_inputs + k + 1
                                   for k in range(num_inputs)])
        acc = wires[0]
        for wire in wires[1:]:
            acc = cb.mul(acc, wire)
        cb.expose_public(acc)
        compiled.append(compile_builder(cb))
    digests = {cc.r1cs.digest() for cc in compiled}
    assert len(digests) == 1  # same circuit, different witnesses
    cc0 = compiled[0]
    pcs = make_pcs(F, cc0.r1cs, num_col_checks=4)
    prover = SnarkProver(cc0.r1cs, pcs, public_indices=cc0.public_indices)
    spec = ProverSpec.from_prover(prover)
    tasks = [
        ProofTask(i, cc.witness, cc.public_values)
        for i, cc in enumerate(compiled)
    ]
    return spec, tasks


# -- fault-plan grammar -------------------------------------------------------

class TestFaultPlanParse:
    def test_rates_and_seed(self):
        plan = FaultPlan.parse("crash:0.1,corrupt:0.02,seed=7")
        assert plan.crash == 0.1
        assert plan.corrupt == 0.02
        assert plan.seed == 7
        assert plan.any_faults

    def test_down_grammar_variants(self):
        assert FaultPlan.parse("down=1").down == (1, 0, 1)
        assert FaultPlan.parse("down=0@2").down == (0, 2, 1)
        assert FaultPlan.parse("down=0@1x3").down == (0, 1, 3)

    def test_poison_tasks(self):
        assert FaultPlan.parse("poison=3").poison == (3,)
        assert FaultPlan.parse("poison=3+7").poison == (3, 7)

    def test_empty_plan_has_no_faults(self):
        assert not FaultPlan.parse("").any_faults
        assert FaultPlan.parse("crash:0.0").crash == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault kind"):
            FaultPlan.parse("meteor:0.5")

    def test_unknown_key_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault-plan key"):
            FaultPlan.parse("meteor=5")

    def test_bad_rate_rejected(self):
        with pytest.raises(ResilienceError, match="bad fault rate"):
            FaultPlan.parse("crash:lots")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ResilienceError, match="outside"):
            FaultPlan.parse("crash:1.5")

    def test_bare_token_rejected(self):
        with pytest.raises(ResilienceError, match="unparseable"):
            FaultPlan.parse("crash")

    def test_negative_slow_seconds_rejected(self):
        with pytest.raises(ResilienceError, match="slow_seconds"):
            FaultPlan.parse("slow:0.1,slow_seconds=-1")

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("crash:0.1,down=0@1x2,poison=3,seed=9")
        assert pickle.loads(pickle.dumps(plan)) == plan


# -- fault injector -----------------------------------------------------------

def _crash_grid(injector, tasks=20, attempts=3):
    """Which (task, attempt) cells the worker-side hook raises on."""
    crashed = set()
    for task_id in range(tasks):
        for attempt in range(1, attempts + 1):
            try:
                injector(task_id, attempt)
            except InjectedFault:
                crashed.add((task_id, attempt))
    return crashed


class TestFaultInjector:
    def test_decisions_are_deterministic(self):
        a = FaultInjector.from_plan("crash:0.3,seed=5")
        b = FaultInjector.from_plan("crash:0.3,seed=5")
        grid = _crash_grid(a)
        assert grid == _crash_grid(b)
        assert grid  # 0.3 over 60 cells hits something

    def test_seed_changes_decisions(self):
        a = FaultInjector.from_plan("crash:0.3,seed=5")
        b = FaultInjector.from_plan("crash:0.3,seed=6")
        assert _crash_grid(a) != _crash_grid(b)

    def test_crash_keyed_per_attempt(self):
        """A retry of the same task rolls fresh dice."""
        grid = _crash_grid(FaultInjector.from_plan("crash:0.4,seed=5"))
        tasks_hit = {t for t, _ in grid}
        # some crashed task must have a clean later attempt
        assert any(
            (t, 1) in grid and (t, 2) not in grid for t in tasks_hit
        )

    def test_pickled_copy_agrees(self):
        """Worker processes get copies; decisions must match."""
        injector = FaultInjector.from_plan("crash:0.3,slow:0.1,seed=5")
        clone = pickle.loads(pickle.dumps(injector))
        assert _crash_grid(injector) == _crash_grid(clone)

    def test_poison_always_raises(self):
        injector = FaultInjector.from_plan("poison=3,seed=1")
        for attempt in range(1, 5):
            with pytest.raises(InjectedFault) as exc_info:
                injector(3, attempt)
            assert exc_info.value.kind == "poison"
        injector(2, 1)  # non-poisoned task passes

    def test_forced_down_window_counts_calls(self):
        injector = FaultInjector.from_plan("down=1@1x2,seed=0")
        injector.check_outage(1, "one")              # call 0: before window
        for _ in range(2):                           # calls 1, 2: down
            with pytest.raises(BackendUnavailableError):
                injector.check_outage(1, "one")
        injector.check_outage(1, "one")              # call 3: recovered
        injector.check_outage(0, "zero")             # other child untouched

    def test_batch_fault_hook(self):
        always = FaultInjector.from_plan("batch:1.0,seed=0")
        with pytest.raises(InjectedFault):
            always.on_batch_dispatch(0)
        never = FaultInjector.from_plan("batch:0.0,seed=0")
        never.on_batch_dispatch(0)

    def test_maybe_corrupt_flips_commitment_root(self, setup, fault_free):
        _, spec, tasks = setup
        proofs, _ = SerialBackend().prove_tasks(spec, tasks[:1])
        injector = FaultInjector.from_plan("corrupt:1.0,seed=0")
        bad = injector.maybe_corrupt(proofs[0], 0)
        assert bad.commitment.root != proofs[0].commitment.root
        assert serialize_proof(bad, F) != fault_free[0]
        off = FaultInjector.from_plan("corrupt:0.0,seed=0")
        assert off.maybe_corrupt(proofs[0], 0) is proofs[0]

    def test_corrupt_keyed_per_delivery(self, setup):
        _, spec, tasks = setup
        proofs, _ = SerialBackend().prove_tasks(spec, tasks[:1])
        deliveries = []
        injector = FaultInjector.from_plan("corrupt:0.5,seed=2")
        for _ in range(12):
            out = injector.maybe_corrupt(proofs[0], 0)
            deliveries.append(out.commitment.root != proofs[0].commitment.root)
        assert True in deliveries and False in deliveries
        clone = FaultInjector.from_plan("corrupt:0.5,seed=2")
        redo = [
            clone.maybe_corrupt(proofs[0], 0).commitment.root
            != proofs[0].commitment.root
            for _ in range(12)
        ]
        assert redo == deliveries

    def test_injected_snapshot_counts(self):
        injector = FaultInjector.from_plan("poison=0,seed=0")
        with pytest.raises(InjectedFault):
            injector(0, 1)
        assert injector.injected_snapshot() == {"poison": 1}


# -- circuit breaker ----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _breaker(clock, **kwargs):
    kwargs.setdefault("failure_threshold", 2)
    kwargs.setdefault("cooldown_seconds", 1.0)
    return CircuitBreaker(clock=clock, **kwargs)


class TestCircuitBreaker:
    def test_starts_closed_and_admits(self):
        cb = _breaker(FakeClock())
        assert cb.state == CLOSED
        assert cb.acquire()

    def test_success_resets_failure_streak(self):
        cb = _breaker(FakeClock())
        cb.record_failure()
        cb.record_success()
        cb.record_failure()
        assert cb.state == CLOSED  # streak never reached 2

    def test_threshold_failures_trip_open(self):
        clock = FakeClock()
        cb = _breaker(clock)
        cb.record_failure()
        cb.record_failure()
        assert cb.state == OPEN
        assert not cb.acquire()
        assert cb.seconds_until_probe() == pytest.approx(1.0)
        clock.now = 0.4
        assert cb.seconds_until_probe() == pytest.approx(0.6)

    def test_cooldown_admits_limited_probes(self):
        clock = FakeClock()
        cb = _breaker(clock, half_open_probes=1)
        cb.record_failure()
        cb.record_failure()
        clock.now = 1.5
        assert cb.state == HALF_OPEN
        assert cb.acquire()        # the probe
        assert not cb.acquire()    # probe budget spent

    def test_probe_success_closes(self):
        clock = FakeClock()
        cb = _breaker(clock)
        cb.record_failure()
        cb.record_failure()
        clock.now = 1.5
        assert cb.acquire()
        cb.record_success()
        assert cb.state == CLOSED
        assert (HALF_OPEN, CLOSED) in cb.transitions

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        cb = _breaker(clock)
        cb.record_failure()
        cb.record_failure()
        clock.now = 1.5
        assert cb.acquire()
        cb.record_failure()
        assert cb.state == OPEN
        assert cb.seconds_until_probe() == pytest.approx(1.0)

    def test_release_returns_unused_probe_slot(self):
        clock = FakeClock()
        cb = _breaker(clock, half_open_probes=1)
        cb.record_failure()
        cb.record_failure()
        clock.now = 1.5
        assert cb.acquire()
        cb.release()               # planner placed nothing on this child
        assert cb.acquire()        # slot is back

    def test_transition_callback_sees_every_move(self):
        clock = FakeClock()
        seen = []
        cb = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=1.0, clock=clock,
            on_transition=lambda src, dst: seen.append((src, dst)),
        )
        cb.record_failure()
        clock.now = 1.5
        cb.acquire()
        cb.record_success()
        assert seen == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)
        ]
        assert cb.transitions == seen

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ResilienceError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ResilienceError):
            CircuitBreaker(cooldown_seconds=-1)
        with pytest.raises(ResilienceError):
            CircuitBreaker(half_open_probes=0)


class TestHealthTracker:
    def test_ledger_and_streak(self):
        h = HealthTracker("0:serial")
        h.record_failure("boom", now=1.0)
        h.record_failure("boom again", now=2.0)
        assert h.consecutive_failures == 2
        h.record_success(tasks=3)
        assert h.consecutive_failures == 0
        assert h.tasks_completed == 3
        assert h.total_calls == 3
        assert "0:serial" in h.summary()
        assert "1 ok / 2 failed" in h.summary()


# -- wiring the plan into a backend tree --------------------------------------

class TestApplyFaultPlan:
    def test_installs_injector_at_every_level(self):
        backend = resolve_backend("resilient:sharded:serial,serial")
        injector = FaultInjector.from_plan("crash:0.1,seed=1")
        apply_fault_plan(backend, injector, min_retries=2)
        assert backend.fault_injector is injector
        for child in backend.children:
            assert child.fault_injector is injector
            assert child.max_retries == 2

    def test_min_retries_reaches_pool_runtime_options(self):
        backend = resolve_backend("resilient:pool:2")
        injector = FaultInjector.from_plan("crash:0.1,seed=1")
        apply_fault_plan(backend, injector, min_retries=3)
        pool = backend.children[0]
        assert pool.fault_injector is injector
        assert pool.runtime_options["max_retries"] == 3

    def test_min_retries_never_lowers(self):
        backend = SerialBackend(max_retries=5)
        apply_fault_plan(
            backend, FaultInjector.from_plan("seed=0"), min_retries=2
        )
        assert backend.max_retries == 5


# -- chaos parity sweeps ------------------------------------------------------

class TestChaosParity:
    """Under seeded worker faults every backend must still produce the
    exact fault-free bytes — chaos may cost retries, never proofs."""

    @pytest.mark.parametrize("selector", [
        "serial",
        "pool:2",
        "pipelined:2",
        "lanes:4",
        "lanes:auto",
        "resilient:lanes:4",
        "sharded:serial,serial",
        "resilient:sharded:serial,serial",
        "resilient:pipelined:2",
        "lanes:4:pool:2",
        "lanes:4:pipelined:2",
        "resilient:serial",
    ])
    @pytest.mark.parametrize("seed", [5, 11])
    def test_crash_storm_preserves_bytes(
        self, setup, fault_free, selector, seed
    ):
        _, spec, tasks = setup
        backend = resolve_backend(selector)
        injector = FaultInjector.from_plan(
            f"crash:0.2,slow:0.05,slow_seconds=0.005,seed={seed}"
        )
        apply_fault_plan(backend, injector, min_retries=4)
        proofs, stats = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == fault_free
        assert stats.proofs_generated == len(tasks)

    def test_default_prove_all_matches_the_oracle(self, setup, fault_free):
        """The default batch path (lane groups) is part of the sweep."""
        prover, _, tasks = setup
        proofs, stats = BatchProver(prover).prove_all(tasks)
        assert _wire(proofs) == fault_free
        assert stats.proofs_generated == len(tasks)

    def test_corruption_is_caught_and_reproved(self, setup, fault_free):
        _, spec, tasks = setup
        backend = ResilientBackend(
            resolve_backend("sharded:serial,serial"),
            verify_on_return=True,
            max_reproves=4,
        )
        injector = FaultInjector.from_plan("corrupt:0.3,seed=13")
        apply_fault_plan(backend, injector, min_retries=2)
        proofs, _ = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == fault_free
        rstats = backend.last_resilience_stats
        assert rstats.faults_injected.get("corrupt", 0) >= 1
        assert rstats.re_proves >= 1


# -- resilient backend --------------------------------------------------------

class TestResilientBackend:
    def test_fault_free_run_matches_sharded_core(self, setup, fault_free):
        _, spec, tasks = setup
        backend = resolve_backend("resilient:sharded:serial,serial")
        proofs, stats = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == fault_free
        rstats = backend.last_resilience_stats
        assert rstats.rounds == 1
        assert rstats.failovers == 0
        assert rstats.child_failures == 0
        assert rstats.quarantined == 0
        assert stats.proofs_generated == len(tasks)

    def test_poison_task_quarantined_without_sinking_batch(
        self, setup, fault_free
    ):
        _, spec, tasks = setup
        backend = resolve_backend("resilient:sharded:serial,serial")
        injector = FaultInjector.from_plan("poison=3,seed=1")
        apply_fault_plan(backend, injector)
        results, _ = backend.prove_tasks(spec, tasks)
        verdict = results[3]
        assert isinstance(verdict, QuarantinedTaskError)
        assert verdict.task_id == 3
        assert len(verdict.tried_on) == 2  # failed on both children
        good = [r for i, r in enumerate(results) if i != 3]
        oracle = [w for i, w in enumerate(fault_free) if i != 3]
        assert _wire(good) == oracle
        assert backend.last_resilience_stats.quarantined == 1

    def test_poison_quarantined_through_pipelined_child(
        self, setup, fault_free
    ):
        """``resilient:pipelined:W`` composes: the pipelined child's
        exhausted-retry ProofError is attributed and the poison task
        quarantined, without losing the rest of the batch."""
        _, spec, tasks = setup
        backend = resolve_backend("resilient:pipelined:2")
        injector = FaultInjector.from_plan("poison=3,seed=1")
        apply_fault_plan(backend, injector)
        results, _ = backend.prove_tasks(spec, tasks)
        assert isinstance(results[3], QuarantinedTaskError)
        assert results[3].task_id == 3
        good = [r for i, r in enumerate(results) if i != 3]
        oracle = [w for i, w in enumerate(fault_free) if i != 3]
        assert _wire(good) == oracle
        assert backend.last_resilience_stats.quarantined == 1

    def test_forced_outage_fails_over_with_trace_lineage(
        self, setup, fault_free, tmp_path
    ):
        _, spec, tasks = setup
        backend = resolve_backend("resilient:sharded:serial,serial")
        injector = FaultInjector.from_plan("down=0@0x1,seed=2")
        apply_fault_plan(backend, injector)
        path = str(tmp_path / "failover.jsonl")
        with JsonlTraceSink(path) as sink:
            proofs, _ = backend.prove_tasks(spec, tasks, trace=sink)
        assert _wire(proofs) == fault_free
        rstats = backend.last_resilience_stats
        assert rstats.failovers >= 1
        assert rstats.child_failures == 1
        events = [json.loads(line) for line in open(path)]
        failures = [e for e in events if e["event"] == "child_failure"]
        assert failures and failures[0]["child"] == "0:serial"
        failovers = [e for e in events if e["event"] == "failover"]
        assert failovers
        assert all(e["to_child"] == "1:serial" for e in failovers)
        assert all("0:serial" in e["from_children"] for e in failovers)
        # the failed-over work completes under this backend's span
        root = next(e for e in events if e["event"] == "resilient_start")
        assert all(e["span"].startswith(root["span"]) for e in failovers)

    def test_dead_child_trips_breaker_then_recovers(self, setup, fault_free):
        _, spec, tasks = setup
        backend = ResilientBackend(
            resolve_backend("sharded:serial,serial"),
            failure_threshold=1,
            cooldown_seconds=0.01,
        )
        injector = FaultInjector.from_plan("down=0@0x1,seed=4")
        apply_fault_plan(backend, injector)
        proofs, _ = backend.prove_tasks(spec, tasks)
        assert _wire(proofs) == fault_free
        rstats = backend.last_resilience_stats
        assert ("0:serial", CLOSED, OPEN) in rstats.breaker_transitions
        assert rstats.breaker_opens >= 1
        assert backend.health[0].failures == 1
        # the breaker itself is usable again (cooldown is 10 ms)
        import time
        time.sleep(0.02)
        assert backend.breakers[0].acquire()

    def test_lifetime_stats_accumulate_across_runs(self, setup):
        _, spec, tasks = setup
        backend = resolve_backend("resilient:serial")
        backend.prove_tasks(spec, tasks[:2])
        backend.prove_tasks(spec, tasks[2:4])
        assert backend.resilience_stats.rounds == 2
        assert backend.last_resilience_stats.rounds == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ExecutionError):
            ResilientBackend([])
        with pytest.raises(ExecutionError):
            ResilientBackend(SerialBackend(), quarantine_threshold=0)
        with pytest.raises(ExecutionError):
            ResilientBackend(SerialBackend(), max_reproves=-1)
        with pytest.raises(ExecutionError):
            ResilientBackend([SerialBackend()], weights=[1.0, 2.0])

    def test_registry_selector(self):
        backend = resolve_backend("resilient:sharded:serial,serial")
        assert backend.name == "resilient:sharded:serial,serial"
        assert backend.parallelism == 2
        assert resolve_backend("resilient:pool:3").parallelism == 3
        with pytest.raises(ExecutionError, match="wraps an inner"):
            resolve_backend("resilient")

    def test_split_results_partitions(self):
        quarantined = QuarantinedTaskError(7, ["0:serial"], "poison")
        results = ["proof-a", quarantined, "proof-b"]
        proofs, bad = split_results(results)
        assert proofs == [(0, "proof-a"), (2, "proof-b")]
        assert bad == [quarantined]


# -- journal ------------------------------------------------------------------

class ExplodingBackend:
    """Proves ``survive`` calls, then dies — the mid-batch kill stand-in."""

    def __init__(self, inner, survive):
        self.inner = inner
        self.survive = survive
        self.calls = 0

    def prove_tasks(self, spec, tasks, *, trace=None, parent=None):
        if self.calls >= self.survive:
            raise RuntimeError("simulated kill -9")
        self.calls += 1
        return self.inner.prove_tasks(spec, tasks, trace=trace, parent=parent)


class TestTaskKey:
    def test_independent_of_task_id(self):
        spec, tasks = _chain_setup(num_tasks=1)
        relabeled = ProofTask(99, tasks[0].witness, tasks[0].public_values)
        assert task_key(spec, tasks[0]) == task_key(spec, relabeled)

    def test_distinct_witnesses_distinct_keys(self):
        spec, tasks = _chain_setup(num_tasks=4)
        keys = {task_key(spec, t) for t in tasks}
        assert len(keys) == 4


class TestProofJournal:
    def test_roundtrip_and_later_entries_win(self, tmp_path):
        spec, tasks = _chain_setup(num_tasks=2)
        path = str(tmp_path / "j.jsonl")
        keys = [task_key(spec, t) for t in tasks]
        with ProofJournal.create(path, spec) as journal:
            journal.append(keys[0], 0, b"\x01\x02")
            journal.append(keys[1], 1, b"\x03")
            journal.append(keys[0], 0, b"\xff")  # re-prove supersedes
        entries, torn = ProofJournal.load(path, spec)
        assert torn == 0
        assert entries == {keys[0]: b"\xff", keys[1]: b"\x03"}

    def test_header_records_circuit_and_field(self, tmp_path):
        spec, _ = _chain_setup(num_tasks=1)
        path = str(tmp_path / "j.jsonl")
        ProofJournal.create(path, spec).close()
        header = json.loads(open(path).readline())
        assert header["journal"] == "repro-proofs"
        assert header["spec"] == spec.r1cs.digest().hex()
        assert header["field"] == hex(F.modulus)

    def test_open_rejects_wrong_circuit(self, tmp_path):
        spec, _ = _chain_setup(num_tasks=1)
        path = str(tmp_path / "j.jsonl")
        ProofJournal.create(path, spec).close()
        cc = random_circuit(F, 32, seed=2)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
        other = ProverSpec.from_prover(
            SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        )
        with pytest.raises(JournalError, match="written for circuit"):
            ProofJournal.open(path, other)
        with pytest.raises(JournalError, match="different circuit"):
            ProofJournal.load(path, other)

    def test_rejects_non_journal_file(self, tmp_path):
        spec, _ = _chain_setup(num_tasks=1)
        path = tmp_path / "junk.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(JournalError, match="unparseable header"):
            ProofJournal.open(str(path), spec)
        path.write_text('{"some": "other file"}\n')
        with pytest.raises(JournalError, match="bad header tag"):
            ProofJournal.open(str(path), spec)

    def test_rejects_future_version(self, tmp_path):
        spec, _ = _chain_setup(num_tasks=1)
        path = tmp_path / "j.jsonl"
        header = {
            "journal": "repro-proofs", "version": 99,
            "spec": spec.r1cs.digest().hex(), "field": hex(F.modulus),
        }
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="version"):
            ProofJournal.open(str(path), spec)

    def test_torn_tail_tolerated_but_not_mid_file_corruption(self, tmp_path):
        spec, tasks = _chain_setup(num_tasks=2)
        path = tmp_path / "j.jsonl"
        keys = [task_key(spec, t) for t in tasks]
        with ProofJournal.create(str(path), spec) as journal:
            journal.append(keys[0], 0, b"\x01")
            journal.append(keys[1], 1, b"\x02")
        whole = path.read_text()
        lines = whole.splitlines(keepends=True)
        # crash mid-append: final line half-written
        path.write_text("".join(lines[:-1]) + lines[-1][:10])
        entries, torn = ProofJournal.load(str(path), spec)
        assert torn == 1
        assert entries == {keys[0]: b"\x01"}
        # the same damage mid-file is corruption, not a crash artifact
        path.write_text(lines[0] + lines[1][:10] + "\n" + lines[2])
        with pytest.raises(JournalError, match="not at tail"):
            ProofJournal.load(str(path), spec)

    @pytest.mark.parametrize("damage", [
        "header without spec", "non-hex spec", "integer spec",
        "array entry", "integer key", "non-UTF-8 header", "non-UTF-8 entry",
    ])
    def test_malformed_file_fails_typed(self, tmp_path, damage):
        spec, tasks = _chain_setup(num_tasks=1)
        header = {"journal": "repro-proofs", "version": 1,
                  "spec": spec.r1cs.digest().hex()}
        if damage == "header without spec":
            del header["spec"]
        elif damage in ("non-hex spec", "integer spec"):
            header["spec"] = "zz" if damage == "non-hex spec" else 7
        head = json.dumps(header).encode()
        if damage == "non-UTF-8 header":
            head = head[:-1] + b', "x": "\xff"}'
        key = task_key(spec, tasks[0])
        good = b'{"key": "%s", "task_id": 0, "proof": "01"}' % key.hex().encode()
        middle = {
            "array entry": b"[1, 2]",
            "integer key": good.replace(b'"key": "', b'"key": 5, "was": "'),
            "non-UTF-8 entry": good[:-1] + b', "x": "\xff"}',
        }.get(damage, good)
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"\n".join([head, middle, good]) + b"\n")
        with pytest.raises(JournalError):
            ProofJournal.load(str(path), spec)
        if middle == good:  # a header fault: open refuses the file too
            with pytest.raises(JournalError):
                ProofJournal.open(str(path), spec)
        else:  # the same bytes as the final line are a torn tail
            path.write_bytes(b"\n".join([head, good, middle]))
            assert ProofJournal.load(str(path), spec) == ({key: b"\x01"}, 1)


class TestJournaledProve:
    def test_fresh_run_journals_everything(self, tmp_path):
        spec, tasks = _chain_setup()
        path = str(tmp_path / "run.jsonl")
        results, stats, report = journaled_prove(
            SerialBackend(), spec, tasks, path
        )
        assert report.proved == len(tasks) and report.skipped == 0
        verifier = spec.build_verifier()
        assert all(
            verifier.verify(p, t.public_values)
            for p, t in zip(results, tasks)
        )
        assert stats.proofs_generated == len(tasks)

    def test_resume_reproves_zero_completed_tasks(self, tmp_path):
        spec, tasks = _chain_setup()
        path = str(tmp_path / "run.jsonl")
        first, _, _ = journaled_prove(SerialBackend(), spec, tasks, path)
        counting = ExplodingBackend(SerialBackend(), survive=0)
        results, stats, report = journaled_prove(
            counting, spec, tasks, path, resume=True
        )
        assert report.skipped == len(tasks) and report.proved == 0
        assert counting.calls == 0  # backend never invoked
        assert _wire(results) == _wire(first)
        assert stats.proofs_generated == 0

    def test_mid_run_kill_then_resume(self, tmp_path):
        spec, tasks = _chain_setup()
        path = str(tmp_path / "run.jsonl")
        dying = ExplodingBackend(SerialBackend(), survive=2)
        with pytest.raises(RuntimeError, match="kill"):
            journaled_prove(
                dying, spec, tasks, path, checkpoint_every=1
            )
        results, _, report = journaled_prove(
            SerialBackend(), spec, tasks, path, resume=True
        )
        assert report.skipped == 2      # the two checkpointed proofs
        assert report.proved == len(tasks) - 2
        verifier = spec.build_verifier()
        assert all(
            verifier.verify(p, t.public_values)
            for p, t in zip(results, tasks)
        )

    def test_resume_after_torn_tail(self, tmp_path):
        spec, tasks = _chain_setup()
        path = tmp_path / "run.jsonl"
        journaled_prove(SerialBackend(), spec, tasks, str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        results, _, report = journaled_prove(
            SerialBackend(), spec, tasks, str(path), resume=True
        )
        assert report.torn_lines == 1
        assert report.skipped == len(tasks) - 1
        assert report.proved == 1       # only the torn entry re-proved
        verifier = spec.build_verifier()
        assert all(
            verifier.verify(p, t.public_values)
            for p, t in zip(results, tasks)
        )

    def test_resume_matches_tasks_by_content_not_position(self, tmp_path):
        spec, tasks = _chain_setup()
        path = str(tmp_path / "run.jsonl")
        first, _, _ = journaled_prove(SerialBackend(), spec, tasks, path)
        shuffled = [tasks[2], tasks[0], tasks[3], tasks[1]]
        results, _, report = journaled_prove(
            SerialBackend(), spec, shuffled, path, resume=True
        )
        assert report.skipped == len(tasks)
        assert _wire(results) == [
            _wire(first)[2], _wire(first)[0], _wire(first)[3], _wire(first)[1]
        ]

    def test_quarantined_slots_are_not_journaled(self, tmp_path):
        spec, tasks = _chain_setup()

        class QuarantiningBackend:
            def prove_tasks(self, spec, batch, *, trace=None, parent=None):
                inner, stats = SerialBackend().prove_tasks(
                    spec, batch, trace=trace, parent=parent
                )
                results = [
                    QuarantinedTaskError(t.task_id, ["0:serial"], "poison")
                    if t.task_id == 1 else p
                    for t, p in zip(batch, inner)
                ]
                return results, stats

        path = str(tmp_path / "run.jsonl")
        results, _, report = journaled_prove(
            QuarantiningBackend(), spec, tasks, path, checkpoint_every=2
        )
        assert report.quarantined == 1
        assert report.proved == len(tasks) - 1
        assert isinstance(results[1], QuarantinedTaskError)
        # the quarantined task is still owed work on resume
        again, _, report2 = journaled_prove(
            SerialBackend(), spec, tasks, path, resume=True
        )
        assert report2.skipped == len(tasks) - 1
        assert report2.proved == 1
        verifier = spec.build_verifier()
        assert verifier.verify(again[1], tasks[1].public_values)

    def test_kill_and_resume_reattempts_poisoned_task(self, tmp_path):
        """Regression: a poison task's quarantined slot must never be
        mistaken for completed work on ``--resume``.

        Run 1 quarantines the poison task and is killed before the last
        chunk.  The resumed run must re-attempt the poison task (and
        re-quarantine it) — never silently skip it — and a final healthy
        resume proves it.
        """
        spec, tasks = _chain_setup()  # 4 tasks, distinct keys
        path = str(tmp_path / "run.jsonl")
        poison_key = task_key(spec, tasks[2])

        def poisoned():
            backend = resolve_backend("resilient:serial")
            injector = FaultInjector.from_plan("poison=2,seed=7")
            apply_fault_plan(backend, injector)
            return backend

        # Run 1: singleton chunks; tasks 0, 1 journal, task 2 is
        # quarantined, then the process dies before task 3's chunk.
        dying = ExplodingBackend(poisoned(), survive=3)
        with pytest.raises(RuntimeError, match="kill"):
            journaled_prove(
                dying, spec, tasks, path, checkpoint_every=1
            )
        entries, _ = ProofJournal.load(path, spec)
        assert poison_key not in entries  # the quarantine never journaled
        assert len(entries) == 2

        # Resume while still poisoned: the task is re-attempted and
        # re-quarantined, not served from the journal.
        results, _, report = journaled_prove(
            poisoned(), spec, tasks, path, resume=True,
            checkpoint_every=1,
        )
        assert report.skipped == 2
        assert report.quarantined == 1
        assert report.proved == 1  # task 3 finally lands
        assert isinstance(results[2], QuarantinedTaskError)
        entries, _ = ProofJournal.load(path, spec)
        assert poison_key not in entries

        # Resume once the poison clears: exactly the owed task is proved.
        final, _, report2 = journaled_prove(
            resolve_backend("resilient:serial"), spec, tasks, path,
            resume=True,
        )
        assert report2.skipped == 3 and report2.proved == 1
        verifier = spec.build_verifier()
        assert verifier.verify(final[2], tasks[2].public_values)

    def test_invalid_checkpoint_rejected(self, tmp_path):
        spec, tasks = _chain_setup(num_tasks=1)
        with pytest.raises(JournalError, match="checkpoint_every"):
            journaled_prove(
                SerialBackend(), spec, tasks,
                str(tmp_path / "x.jsonl"), checkpoint_every=0,
            )
