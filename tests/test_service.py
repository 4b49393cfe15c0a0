"""Streaming proof service tests (S23): admission, batching, cache, e2e."""

import hashlib
import threading
import time

import pytest

from repro.core import ProofTask, SnarkProver, make_pcs, random_circuit
from repro.core.serialize import serialize_proof
from repro.errors import (
    AdmissionError,
    ProofError,
    QuarantinedTaskError,
    ServiceError,
)
from repro.execution import SerialBackend
from repro.field import DEFAULT_FIELD
from repro.runtime import JsonlTraceSink, ProverSpec
from repro.service import (
    BatchPolicy,
    Priority,
    ProofRequest,
    ProofService,
    ResultCache,
    RuntimeProofBackend,
    Ticket,
    bursty_trace,
    poisson_trace,
    replay,
    spec_key,
)

F = DEFAULT_FIELD


# -- fixtures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def circuits():
    """Two distinct circuits so batches must group by circuit key."""
    built = {}
    for name, gates, seed in (("a", 32, 2), ("b", 48, 3)):
        cc = random_circuit(F, gates, seed=seed)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        spec = ProverSpec.from_prover(prover)
        built[name] = (cc, spec, spec_key(spec))
    return built


@pytest.fixture
def backend(circuits):
    return RuntimeProofBackend.from_specs(
        [spec for _, spec, _ in circuits.values()]
    )


def _task(cc, task_id=0):
    return ProofTask(task_id, cc.witness, cc.public_values)


def _wkey(i: int) -> bytes:
    """Distinct witness keys for logically distinct requests."""
    return hashlib.sha256(f"request-{i}".encode()).digest()


class GatedBackend:
    """Wraps a backend; holds the first prove_batch until released."""

    def __init__(self, inner):
        self.inner = inner
        self.release = threading.Event()
        self.entered = threading.Event()
        self.calls = []  # (circuit_key, batch_size)
        self._first = True

    def prove_batch(self, circuit_key, requests):
        if self._first:
            self._first = False
            self.entered.set()
            self.release.wait(timeout=30)
        self.calls.append((circuit_key, len(requests)))
        return self.inner.prove_batch(circuit_key, requests)


class FailingBackend:
    """Always raises — exercises the batch-failure path."""

    def prove_batch(self, circuit_key, requests):
        raise RuntimeError("prover farm on fire")


# -- tickets ------------------------------------------------------------------

class TestTicket:
    def test_lifecycle(self):
        t = Ticket(7, priority=Priority.INTERACTIVE)
        assert t.state == "pending" and not t.done()
        t._resolve("proof", source="proved")
        assert t.done() and t.state == "done"
        assert t.result() == "proof"
        assert t.source == "proved"

    def test_result_timeout_raises_service_error(self):
        t = Ticket(0)
        with pytest.raises(ServiceError, match="not done"):
            t.result(timeout=0.01)

    def test_failed_ticket_reraises(self):
        t = Ticket(0)
        t._fail(ProofError("boom"))
        assert t.state == "failed"
        with pytest.raises(ProofError, match="boom"):
            t.result()


# -- result cache -------------------------------------------------------------

class TestResultCache:
    KEY = (b"circuit", b"witness")

    def test_lead_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.claim(self.KEY, Ticket(0)) == ("lead", None)
        assert cache.fulfill(self.KEY, "proof") == []
        assert cache.claim(self.KEY, Ticket(1)) == ("hit", "proof")

    def test_single_flight_join_and_fulfill(self):
        cache = ResultCache(capacity=4)
        follower = Ticket(1)
        cache.claim(self.KEY, Ticket(0))
        assert cache.claim(self.KEY, follower) == ("joined", None)
        assert cache.fulfill(self.KEY, "proof") == [follower]
        assert cache.claim(self.KEY, Ticket(2)) == ("hit", "proof")

    def test_abandon_releases_claim(self):
        cache = ResultCache(capacity=4)
        follower = Ticket(1)
        cache.claim(self.KEY, Ticket(0))
        cache.claim(self.KEY, follower)
        assert cache.abandon(self.KEY) == [follower]
        # The key is claimable again — a retry can lead.
        assert cache.claim(self.KEY, Ticket(2)) == ("lead", None)

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        for i in range(3):
            key = (b"c", bytes([i]))
            cache.claim(key, Ticket(i))
            cache.fulfill(key, i)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.claim((b"c", b"\x02"), Ticket(7)) == ("hit", 2)
        assert cache.claim((b"c", b"\x00"), Ticket(8)) == ("lead", None)  # evicted

    def test_zero_capacity_keeps_single_flight_only(self):
        cache = ResultCache(capacity=0)
        follower = Ticket(1)
        cache.claim(self.KEY, Ticket(0))
        cache.claim(self.KEY, follower)
        assert cache.fulfill(self.KEY, "proof") == [follower]
        assert len(cache) == 0
        assert cache.claim(self.KEY, Ticket(2)) == ("lead", None)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServiceError):
            ResultCache(capacity=-1)


# -- batch policy (pure scheduling) -------------------------------------------

def _request(i, circuit=b"c", *, priority=Priority.BULK, submitted=0.0,
             deadline=None):
    return ProofRequest(
        request_id=i, payload=None, circuit_key=circuit, witness_key=None,
        priority=priority, submitted_at=submitted, deadline=deadline,
        ticket=Ticket(i),
    )


class TestBatchPolicy:
    def test_size_trigger(self):
        policy = BatchPolicy(max_batch_size=3)
        pending = [_request(i) for i in range(5)]
        batch = policy.select(pending)
        assert [r.request_id for r in batch] == [0, 1, 2]

    def test_single_request_dispatches_at_once(self):
        """Work-conserving: a lone request is a batch, nothing waits."""
        policy = BatchPolicy()
        request = _request(0, submitted=5.0)
        assert policy.select([request]) == [request]
        assert policy.select([]) is None

    def test_batches_are_circuit_uniform(self):
        policy = BatchPolicy(max_batch_size=4)
        pending = [_request(i, circuit=b"a" if i % 2 else b"b")
                   for i in range(6)]
        batch = policy.select(pending)
        assert len({r.circuit_key for r in batch}) == 1

    def test_interactive_group_wins_and_orders_first(self):
        policy = BatchPolicy(max_batch_size=4)
        pending = [
            _request(0, circuit=b"bulk", priority=Priority.BULK, submitted=0.0),
            _request(1, circuit=b"mix", priority=Priority.BULK, submitted=0.1),
            _request(2, circuit=b"mix", priority=Priority.INTERACTIVE,
                     submitted=0.2),
        ]
        batch = policy.select(pending)
        # The group containing the INTERACTIVE request dispatches first,
        # and the INTERACTIVE member leads the batch despite arriving last.
        assert [r.request_id for r in batch] == [2, 1]

    def test_earlier_deadline_orders_first_within_class(self):
        policy = BatchPolicy(max_batch_size=4)
        pending = [
            _request(0, submitted=0.0, deadline=9.0),
            _request(1, submitted=0.1, deadline=3.0),
            _request(2, submitted=0.2),  # no deadline sorts last
        ]
        batch = policy.select(pending)
        assert [r.request_id for r in batch] == [1, 0, 2]

    def test_requests_pile_up_only_while_backend_is_busy(
        self, circuits, backend
    ):
        """The first request proves alone; the six that arrive while it
        proves form the next batches, capped at max_batch_size."""
        cc, spec, key = circuits["a"]
        gated = GatedBackend(backend)
        policy = BatchPolicy(max_batch_size=4)
        with ProofService(gated, policy=policy, max_queue=64) as svc:
            submitted = time.monotonic()
            tickets = [svc.submit(_task(cc, 0), circuit_key=key)]
            assert gated.entered.wait(timeout=30)
            # An idle batcher dispatches at once; a 50 ms batching window
            # would have held this lone request back.
            assert time.monotonic() - submitted < 0.05
            tickets += [
                svc.submit(_task(cc, i), circuit_key=key) for i in range(1, 7)
            ]
            gated.release.set()
            proofs = [t.result(timeout=60) for t in tickets]
        assert [size for _, size in gated.calls] == [1, 4, 2]
        serial, _ = SerialBackend().prove_tasks(
            spec, [_task(cc, i) for i in range(7)]
        )
        assert [serialize_proof(p, F) for p in proofs] == [
            serialize_proof(p, F) for p in serial
        ]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ServiceError):
            BatchPolicy(max_batch_size=0)


# -- admission control ---------------------------------------------------------

class TestAdmission:
    """start=False keeps the batcher off so the queue only ever grows."""

    def _service(self, backend, **kwargs):
        kwargs.setdefault("start", False)
        return ProofService(backend, **kwargs)

    def test_queue_full_is_typed_not_blocking(self, circuits, backend):
        cc, _, key = circuits["a"]
        svc = self._service(backend, max_queue=4)
        for i in range(4):  # INTERACTIVE boards past the high watermark
            svc.submit(
                _task(cc, i), circuit_key=key, priority=Priority.INTERACTIVE
            )
        before = time.monotonic()
        with pytest.raises(AdmissionError) as err:
            svc.submit(_task(cc, 99), circuit_key=key)
        assert err.value.reason == "queue_full"
        assert time.monotonic() - before < 0.5  # rejected, never queued
        assert svc.stats.rejections["queue_full"] == 1

    def test_bulk_shed_spares_interactive(self, circuits, backend):
        cc, _, key = circuits["a"]
        svc = self._service(backend, max_queue=4)  # high watermark 3
        for i in range(3):
            svc.submit(_task(cc, i), circuit_key=key)
        with pytest.raises(AdmissionError) as err:
            svc.submit(_task(cc, 7), circuit_key=key, priority=Priority.BULK)
        assert err.value.reason == "bulk_shed"
        # Interactive traffic still boards while bulk is shed.
        svc.submit(
            _task(cc, 8), circuit_key=key, priority=Priority.INTERACTIVE
        )
        assert svc.queue_depth == 4

    def test_shedding_hysteresis_resumes_below_low_watermark(
        self, circuits, backend
    ):
        cc, _, key = circuits["a"]
        svc = self._service(backend, max_queue=8)  # watermarks 6 and 4
        assert (svc.high_watermark, svc.low_watermark) == (6, 4)
        for i in range(6):
            svc.submit(_task(cc, i), circuit_key=key)
        with pytest.raises(AdmissionError):
            svc.submit(_task(cc, 7), circuit_key=key)
        # Drain manually to just above the low watermark: still shedding.
        with svc._cond:
            svc._pending[:] = svc._pending[:5]
        with pytest.raises(AdmissionError):
            svc.submit(_task(cc, 8), circuit_key=key)
        # At/below the low watermark bulk admission resumes.
        with svc._cond:
            svc._pending[:] = svc._pending[:4]
        svc.submit(_task(cc, 9), circuit_key=key)

    def test_closed_service_rejects(self, circuits, backend):
        cc, _, key = circuits["a"]
        svc = ProofService(backend, max_queue=4)
        svc.close()
        with pytest.raises(AdmissionError) as err:
            svc.submit(_task(cc), circuit_key=key)
        assert err.value.reason == "service_closed"

    def test_invalid_configuration_rejected(self, backend):
        with pytest.raises(ServiceError):
            ProofService(backend, max_queue=0, start=False)

    def test_missing_keyer_and_key(self, circuits, backend):
        cc, _, _ = circuits["a"]
        svc = self._service(backend, max_queue=4)
        with pytest.raises(ServiceError, match="circuit_key"):
            svc.submit(_task(cc))


# -- live service flows --------------------------------------------------------

class TestServiceFlow:
    def test_proofs_verify_and_cache_hits_after_completion(
        self, circuits, backend
    ):
        cc, _, key = circuits["a"]
        policy = BatchPolicy(max_batch_size=4)
        with ProofService(backend, policy=policy, max_queue=64) as svc:
            tickets = [
                svc.submit(_task(cc, i), circuit_key=key, witness_key=_wkey(i))
                for i in range(6)
            ]
            assert svc.drain(timeout=60)
            repeat = svc.submit(
                _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
            )
            proofs = [t.result(timeout=30) for t in tickets]
            assert repeat.source == "cache"
            assert repeat.result() is proofs[0]
        verifier = backend.verifier_for(key)
        assert all(verifier.verify(p, cc.public_values) for p in proofs)
        assert svc.stats.cache_hits == 1
        assert svc.stats.cache_hit_rate > 0

    def test_single_flight_coalesces_inflight_duplicates(
        self, circuits, backend
    ):
        cc, _, key = circuits["a"]
        gated = GatedBackend(backend)
        policy = BatchPolicy(max_batch_size=2)
        with ProofService(gated, policy=policy, max_queue=64) as svc:
            lead = svc.submit(
                _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
            )
            time.sleep(0.05)  # let the batcher take the lead into a batch
            dups = [
                svc.submit(
                    _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
                )
                for _ in range(3)
            ]
            gated.release.set()
            proof = lead.result(timeout=60)
            for dup in dups:
                assert dup.result(timeout=60) is proof
                assert dup.source in ("coalesced", "cache")
        assert svc.stats.coalesced >= 1
        # One proof was generated for the four identical submissions.
        assert sum(size for _, size in gated.calls) == 1

    def test_batches_group_by_circuit_key(self, circuits, backend):
        gated = GatedBackend(backend)
        gated.release.set()  # no gating, just call recording
        policy = BatchPolicy(max_batch_size=8)
        # Queue all four before the batcher starts, so it sees both groups.
        with ProofService(
            gated, policy=policy, max_queue=64, start=False
        ) as svc:
            for i in range(4):
                name = "a" if i % 2 else "b"
                cc, _, key = circuits[name]
                svc.submit(_task(cc, i), circuit_key=key)
            svc._batcher.start()
            assert svc.drain(timeout=60)
        assert len(gated.calls) == 2
        assert {key for key, _ in gated.calls} == {
            circuits["a"][2], circuits["b"][2]
        }

    def test_backend_failure_fails_tickets_and_frees_cache(
        self, circuits, backend
    ):
        cc, _, key = circuits["a"]
        policy = BatchPolicy(max_batch_size=2)
        with ProofService(
            FailingBackend(), policy=policy, max_queue=16
        ) as svc:
            t = svc.submit(_task(cc, 0), circuit_key=key, witness_key=_wkey(0))
            with pytest.raises(ProofError, match="batch of"):
                t.result(timeout=30)
            assert svc.stats.failed == 1
            # The single-flight claim was released: resubmitting leads again
            # (it would be "joined" forever if the claim leaked).
            t2 = svc.submit(
                _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
            )
            with pytest.raises(ProofError):
                t2.result(timeout=30)

    def test_close_without_drain_fails_pending(self, circuits, backend):
        cc, _, key = circuits["a"]
        gated = GatedBackend(backend)
        policy = BatchPolicy(max_batch_size=1)
        svc = ProofService(gated, policy=policy, max_queue=64)
        first = svc.submit(_task(cc, 0), circuit_key=key)
        time.sleep(0.05)  # batcher is now blocked inside the gated batch
        stranded = [
            svc.submit(_task(cc, i), circuit_key=key) for i in range(1, 4)
        ]
        svc.close(drain=False, timeout=0.2)
        gated.release.set()
        svc._batcher.join(timeout=30)
        assert first.result(timeout=30) is not None  # in-flight completes
        for t in stranded:
            with pytest.raises(ServiceError, match="closed"):
                t.result(timeout=5)

    def test_deadline_miss_recorded_not_dropped(self, circuits, backend):
        cc, _, key = circuits["a"]
        gated = GatedBackend(backend)
        policy = BatchPolicy(max_batch_size=1)
        with ProofService(gated, policy=policy, max_queue=16) as svc:
            t = svc.submit(
                _task(cc, 0), circuit_key=key, deadline_seconds=0.01
            )
            time.sleep(0.05)
            gated.release.set()
            assert t.result(timeout=60) is not None  # still served
        assert svc.stats.deadline_misses >= 1

    def test_mismatched_backend_result_count_fails_batch(
        self, circuits, backend
    ):
        cc, _, key = circuits["a"]

        class ShortBackend:
            def prove_batch(self, circuit_key, requests):
                return []

        policy = BatchPolicy(max_batch_size=1)
        with ProofService(ShortBackend(), policy=policy, max_queue=4) as svc:
            t = svc.submit(_task(cc, 0), circuit_key=key)
            with pytest.raises(ProofError):
                t.result(timeout=30)

    def test_trace_events_cover_service_lifecycle(
        self, circuits, backend, tmp_path
    ):
        import json

        cc, _, key = circuits["a"]
        path = str(tmp_path / "svc.jsonl")
        policy = BatchPolicy(max_batch_size=2)
        with JsonlTraceSink(path) as sink:
            with ProofService(
                backend, policy=policy, max_queue=16, trace=sink
            ) as svc:
                for i in range(3):
                    svc.submit(
                        _task(cc, i), circuit_key=key, witness_key=_wkey(i)
                    )
                svc.drain(timeout=60)
                svc.submit(_task(cc, 0), circuit_key=key, witness_key=_wkey(0))
        kinds = {json.loads(line)["event"] for line in open(path)}
        assert {"svc_submit", "batch_form", "batch_done", "svc_cache_hit",
                "svc_close"} <= kinds

    def test_unknown_circuit_key_fails_cleanly(self, circuits, backend):
        cc, _, _ = circuits["a"]
        policy = BatchPolicy(max_batch_size=1)
        with ProofService(backend, policy=policy, max_queue=4) as svc:
            t = svc.submit(_task(cc, 0), circuit_key=b"\x00" * 32)
            with pytest.raises(ProofError, match="no ProverSpec"):
                t.result(timeout=30)


# -- workload generators -------------------------------------------------------

class TestWorkload:
    def test_poisson_trace_shape(self):
        events = poisson_trace(
            50, 100.0, seed=1, interactive_fraction=0.5,
            duplicate_fraction=0.2, deadline_seconds=1.0,
        )
        assert len(events) == 50
        offsets = [e.offset_seconds for e in events]
        assert offsets == sorted(offsets)
        assert {e.priority for e in events} == {
            Priority.INTERACTIVE, Priority.BULK
        }
        assert any(e.duplicate_of is not None for e in events)
        for e in events:
            if e.duplicate_of is not None:
                assert e.duplicate_of < events.index(e) + 1

    def test_bursty_trace_is_burstier_than_poisson(self):
        n, rate = 400, 200.0
        poisson = poisson_trace(n, rate, seed=7, duplicate_fraction=0.0)
        bursty = bursty_trace(
            n, rate, seed=7, burst_factor=8.0, burst_fraction=0.3,
            duplicate_fraction=0.0,
        )

        def cv2(events):  # squared coefficient of variation of gaps
            offs = [e.offset_seconds for e in events]
            gaps = [b - a for a, b in zip(offs, offs[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / (mean * mean)

        assert cv2(bursty) > cv2(poisson)

    def test_trace_parameter_validation(self):
        with pytest.raises(ServiceError):
            poisson_trace(5, 0.0)
        with pytest.raises(ServiceError):
            bursty_trace(5, -1.0)
        with pytest.raises(ServiceError):
            bursty_trace(5, 10.0, burst_factor=0.5)

    def test_replay_resubmits_duplicates_and_absorbs_rejections(
        self, circuits, backend
    ):
        cc, _, key = circuits["a"]
        events = poisson_trace(
            30, 2000.0, seed=5, duplicate_fraction=0.3
        )

        def make_request(i):
            return _task(cc, i), key, _wkey(i)

        policy = BatchPolicy(max_batch_size=8)
        with ProofService(backend, policy=policy, max_queue=64) as svc:
            tickets, rejected = replay(svc, events, make_request)
            svc.drain(timeout=120)
            results = [t.result(timeout=60) for t in tickets if t is not None]
        assert rejected == 0
        assert len(results) == 30
        assert svc.stats.coalesced + svc.stats.cache_hits >= 1


# -- the acceptance-criteria end-to-end run ------------------------------------

class TestEndToEnd:
    def test_streamed_load_batches_caches_rejects_and_verifies(
        self, circuits, backend
    ):
        """≥100 streamed requests, 2 priority classes, multiple batch
        sizes, cache hits, typed full-queue rejection, all proofs verify."""
        cc, _, key = circuits["a"]
        gated = GatedBackend(backend)
        policy = BatchPolicy(max_batch_size=16)
        svc = ProofService(gated, policy=policy, max_queue=50)
        svc.high_watermark = 50  # isolate the hard bound
        tickets, rejected = [], 0

        def push(i, priority):
            nonlocal rejected
            try:
                tickets.append(svc.submit(
                    _task(cc, i), circuit_key=key, witness_key=_wkey(i % 70),
                    priority=priority, deadline_seconds=120.0,
                ))
            except AdmissionError as exc:
                assert exc.reason == "queue_full"
                rejected += 1

        # Phase 1: burst into a blocked backend until the queue overflows.
        for i in range(70):
            push(i, Priority.INTERACTIVE if i % 3 == 0 else Priority.BULK)
        assert rejected > 0, "burst should overflow max_queue=50"
        gated.release.set()
        # Let phase 1 finish before replaying its keys: a repeat of an
        # *in-flight* request coalesces rather than cache-hits, so the
        # cache-hit assertions below need phase-1 results to be cached.
        assert svc.drain(timeout=300)

        # Phase 2: paced arrivals (varied batch sizes) incl. repeats of
        # phase-1 keys, which land as cache hits or coalesces.
        for i in range(70, 140):
            push(i, Priority.INTERACTIVE if i % 3 == 0 else Priority.BULK)
            if i % 10 == 0:
                time.sleep(0.01)
        assert svc.drain(timeout=300)
        svc.close()

        assert len(tickets) + rejected >= 140  # ≥100 streamed requests
        priorities = {t.priority for t in tickets}
        assert priorities == {Priority.INTERACTIVE, Priority.BULK}

        histogram = svc.stats.batch_size_histogram
        assert len(histogram) > 1, f"expected varied batch sizes: {histogram}"
        assert sum(histogram.values()) >= 2

        assert svc.stats.cache_hits > 0
        assert svc.stats.cache_hit_rate > 0
        assert svc.stats.rejections["queue_full"] == rejected

        verifier = backend.verifier_for(key)
        proofs = [t.result(timeout=120) for t in tickets]
        assert all(verifier.verify(p, cc.public_values) for p in proofs)
        assert svc.stats.completed == len(tickets)
        assert svc.stats.failed == 0


# -- failure recovery (S25 satellites) ----------------------------------------

class GatedFlakyBackend:
    """Holds the first prove_batch open, then fails the first N calls.

    The gate keeps the leader's batch in flight while followers coalesce
    onto its cache claim, which is the exact shape the single-flight
    retry path has to recover.
    """

    def __init__(self, inner, failures=1):
        self.inner = inner
        self.failures = failures
        self.release = threading.Event()
        self.calls = 0

    def prove_batch(self, circuit_key, requests):
        self.calls += 1
        if self.calls == 1:
            self.release.wait(timeout=30)
        if self.calls <= self.failures:
            raise RuntimeError("transient farm fault")
        return self.inner.prove_batch(circuit_key, requests)


class TestFailureRecovery:
    def test_follower_retries_independently_after_batch_failure(
        self, circuits, backend
    ):
        """A coalesced follower never had its own attempt: one batch
        failure must cost the leader, not every parked duplicate."""
        cc, _, key = circuits["a"]
        flaky = GatedFlakyBackend(backend, failures=1)
        policy = BatchPolicy(max_batch_size=4)
        with ProofService(flaky, policy=policy, max_queue=16) as svc:
            leader = svc.submit(
                _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
            )
            time.sleep(0.05)  # leader's batch is gated in flight
            follower = svc.submit(
                _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
            )
            flaky.release.set()
            with pytest.raises(ProofError, match="batch of"):
                leader.result(timeout=30)
            proof = follower.result(timeout=30)  # promoted retry proved it
            verifier = backend.verifier_for(key)
            assert verifier.verify(proof, cc.public_values)
        assert flaky.calls == 2
        assert svc.stats.follower_retries == 1
        assert svc.stats.failed == 1
        assert svc.stats.completed == 1

    def test_second_failure_fails_followers_too(self, circuits, backend):
        """One independent retry, not a loop: attempt 2 failing is
        terminal for the promoted follower and everyone parked on it."""
        cc, _, key = circuits["a"]
        flaky = GatedFlakyBackend(backend, failures=2)
        policy = BatchPolicy(max_batch_size=4)
        with ProofService(flaky, policy=policy, max_queue=16) as svc:
            leader = svc.submit(
                _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
            )
            time.sleep(0.05)
            followers = [
                svc.submit(
                    _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
                )
                for _ in range(2)
            ]
            flaky.release.set()
            for ticket in [leader] + followers:
                with pytest.raises(ProofError, match="batch of"):
                    ticket.result(timeout=30)
        assert flaky.calls == 2  # no third attempt
        assert svc.stats.follower_retries == 2
        assert svc.stats.failed == 3

    def test_quarantined_slot_fails_only_its_ticket(self, circuits, backend):
        cc, _, key = circuits["a"]

        class QuarantineOneBackend:
            def prove_batch(self, circuit_key, requests):
                results = backend.prove_batch(circuit_key, requests)
                return [
                    QuarantinedTaskError(13, ["0:serial"], "poison")
                    if r.payload.task_id == 13 else proof
                    for r, proof in zip(requests, results)
                ]

        policy = BatchPolicy(max_batch_size=2)
        with ProofService(
            QuarantineOneBackend(), policy=policy, max_queue=16
        ) as svc:
            good = svc.submit(
                _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
            )
            bad = svc.submit(
                _task(cc, 13), circuit_key=key, witness_key=_wkey(13)
            )
            verifier = backend.verifier_for(key)
            assert verifier.verify(good.result(timeout=30), cc.public_values)
            with pytest.raises(QuarantinedTaskError, match="task 13"):
                bad.result(timeout=30)
        assert svc.stats.completed == 1
        assert svc.stats.failed == 1

    def test_batcher_survives_dispatch_crash(self, circuits, backend):
        """A bug escaping _dispatch fails that batch's tickets and
        nothing else; the scheduler thread keeps serving the queue."""
        cc, _, key = circuits["a"]
        policy = BatchPolicy(max_batch_size=1)
        with ProofService(backend, policy=policy, max_queue=16) as svc:
            real_dispatch = svc._dispatch
            crashes = {"n": 0}

            def buggy_dispatch(batch):
                if crashes["n"] == 0:
                    crashes["n"] += 1
                    raise RuntimeError("scheduler bug")
                return real_dispatch(batch)

            svc._dispatch = buggy_dispatch
            doomed = svc.submit(
                _task(cc, 0), circuit_key=key, witness_key=_wkey(0)
            )
            with pytest.raises(ServiceError, match="dispatch crashed"):
                doomed.result(timeout=30)
            healthy = svc.submit(
                _task(cc, 1), circuit_key=key, witness_key=_wkey(1)
            )
            verifier = backend.verifier_for(key)
            assert verifier.verify(
                healthy.result(timeout=30), cc.public_values
            )
            assert svc._batcher.is_alive()
        assert svc.stats.batcher_errors == 1
        assert svc.stats.failed == 1
        assert svc.stats.completed == 1
