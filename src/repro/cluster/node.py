"""The proving node: a socket server wrapping any local backend.

``python -m repro node --listen HOST:PORT --backend pool:4`` turns one
host into a fleet member: the server speaks the framed protocol of
:mod:`repro.cluster.protocol`, executes each ``PROVE`` batch on the
wrapped :class:`~repro.execution.ProvingBackend`, and **streams**
results back — proofs leave the node in completed chunks while later
chunks are still proving, so the coordinator overlaps deserialization
and routing with remote proving (the paper's pipelining discipline,
applied across the wire).

Specs are canonicalized by value (:func:`~repro.kernels.spec_cache_key`)
before they reach the backend: every coordinator connection unpickles a
fresh :class:`~repro.runtime.ProverSpec` object, and without the memo
each request would build a new prover (and, for ``pool:N``, a new
process pool) behind the backend's identity-keyed caches.  With it, the
node pays one derivation per *circuit* per process — the cache-affinity
contract the coordinator's ring routing exists to exploit — and the
``STATS`` frame reports exactly how well that contract is holding:
per-task spec hits/misses plus the process-wide
:class:`~repro.kernels.SpecCache` / :class:`~repro.kernels.EncoderCache`
gauges.

``die_after`` is the chaos knob for failover drills: the node exits
hard (``os._exit``) after proving that many tasks, mid-batch and
without a goodbye frame — exactly what a kernel panic or an OOM kill
looks like from the coordinator's side.

The ``DRAIN`` frame is the opposite of ``die_after``: a peer (usually
the fleet supervisor about to scale in) asks the node to stop taking
work.  The node flips into draining mode — new ``PROVE`` batches are
refused with a typed *unavailable* error so the coordinator's breaker
routes around it — waits until every in-flight batch has streamed its
last ``RESULT``, then answers ``DRAIN_OK``.  Only after that
acknowledgement does the pool terminate the process, so a rolling
restart never loses a proof that was already being computed.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time
from typing import Dict, Optional, Tuple

from ..core.serialize import serialize_proof
from ..errors import (
    BackendUnavailableError,
    ProtocolMismatchError,
    QuarantinedTaskError,
)
from ..execution.registry import BackendSelector, resolve_backend
from ..kernels.spec_cache import (
    default_encoder_cache,
    default_spec_cache,
    spec_cache_key,
)
from ..runtime.spec import ProverSpec
from ..runtime.stats import RuntimeStats, merge_runtime_stats
from . import protocol
from .protocol import LIBRARY_VERSION


def _record_dicts(stats: RuntimeStats) -> list:
    """Wire form of a run's task records (plain dicts, no classes)."""
    return [
        {
            "task_id": r.task_id,
            "attempts": r.attempts,
            "prove_seconds": r.prove_seconds,
            "latency_seconds": r.latency_seconds,
            "worker": r.worker,
            "stage_seconds": dict(r.stage_seconds) if r.stage_seconds else None,
        }
        for r in stats.records
    ]


class NodeServer:
    """One fleet member: a threaded TCP server over a local backend.

    Args:
        host/port:   Listen address; port 0 binds an ephemeral port
                     (read it back from :attr:`port` — the test and
                     :class:`~repro.cluster.NodePool` path).
        backend:     Selector string or backend instance to wrap.
        chunk_size:  Tasks proved per streamed ``RESULT`` frame; the
                     default (``None``) streams in chunks of the
                     backend's parallelism, so a serial node streams
                     per-task and a ``pool:4`` node keeps its pool full.
        die_after:   Chaos knob — hard-exit the process after this many
                     proofs (``None`` = never).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: BackendSelector = "serial",
        *,
        chunk_size: Optional[int] = None,
        die_after: Optional[int] = None,
    ):
        self.backend = resolve_backend(backend)
        self.chunk_size = (
            max(1, chunk_size)
            if chunk_size
            else max(1, getattr(self.backend, "parallelism", 1))
        )
        self.die_after = die_after
        self.started_at = time.monotonic()
        self._lock = threading.Lock()
        #: Drain coordination: ``_in_flight`` counts PROVE batches being
        #: handled right now; ``_idle`` is notified as each one finishes
        #: so a DRAIN handler can wait for quiescence.
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        self._draining = False
        #: Value-keyed canonical spec per circuit (bounds the backend's
        #: identity caches; one prover / pool runtime per circuit).
        self._specs: Dict[Tuple, ProverSpec] = {}
        #: Per-task affinity ledger: a task is a hit when its circuit
        #: was already resident when the batch arrived.
        self.spec_hits = 0
        self.spec_misses = 0
        self.proofs_total = 0
        self.batches_total = 0

        node = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # pragma: no cover - thin shim
                node._serve_connection(self.request)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self.host, self.port = self._server.server_address[:2]

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "NodeServer":
        """Serve on a daemon thread (the in-process / test path)."""
        thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-node-{self.port}",
            daemon=True,
        )
        thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self._server.serve_forever()

    def close(self) -> None:
        """Stop accepting and tear the listener down."""
        self._server.shutdown()
        self._server.server_close()

    # -- stats -----------------------------------------------------------------

    def stats(self) -> dict:
        """The ``STATS_OK`` payload: identity, throughput, cache gauges."""
        spec_cache = default_spec_cache()
        encoder_cache = default_encoder_cache()
        with self._lock:
            hits, misses = self.spec_hits, self.spec_misses
            proofs, batches = self.proofs_total, self.batches_total
            draining, in_flight = self._draining, self._in_flight
        looked_up = hits + misses
        return {
            "version": LIBRARY_VERSION,
            "backend": self.backend.name,
            "parallelism": getattr(self.backend, "parallelism", 1),
            "uptime_seconds": time.monotonic() - self.started_at,
            "draining": draining,
            "in_flight": in_flight,
            "proofs_total": proofs,
            "batches_total": batches,
            "circuits_resident": len(self._specs),
            "spec_affinity": {
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / looked_up) if looked_up else 0.0,
            },
            "spec_cache": {
                "hits": spec_cache.hits,
                "misses": spec_cache.misses,
                "size": len(spec_cache),
            },
            "encoder_cache": {
                "hits": encoder_cache.hits,
                "misses": encoder_cache.misses,
                "evictions": encoder_cache.evictions,
                "size": len(encoder_cache),
            },
        }

    # -- connection loop -------------------------------------------------------

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            kind, payload = protocol.recv_frame(sock)
            if kind != protocol.HELLO:
                protocol.send_frame(
                    sock,
                    protocol.ERROR,
                    protocol.error_payload(
                        f"expected HELLO, got {protocol.KIND_NAMES[kind]}",
                        mismatch=True,
                    ),
                )
                return
            try:
                protocol.check_version(payload, "HELLO")
            except ProtocolMismatchError as exc:
                protocol.send_frame(
                    sock,
                    protocol.ERROR,
                    protocol.error_payload(str(exc), mismatch=True),
                )
                return
            protocol.send_frame(
                sock,
                protocol.HELLO,
                protocol.hello_payload(
                    "node",
                    backend=self.backend.name,
                    parallelism=getattr(self.backend, "parallelism", 1),
                ),
            )
            while True:
                kind, payload = protocol.recv_frame(sock)
                if kind == protocol.BYE:
                    return
                if kind == protocol.STATS:
                    protocol.send_frame(sock, protocol.STATS_OK, self.stats())
                elif kind == protocol.DRAIN:
                    self._handle_drain(sock, payload)
                elif kind == protocol.PROVE:
                    self._handle_prove(sock, payload)
                else:
                    protocol.send_frame(
                        sock,
                        protocol.ERROR,
                        protocol.error_payload(
                            f"unexpected {protocol.KIND_NAMES[kind]} frame"
                        ),
                    )
        except ProtocolMismatchError as exc:
            # A peer from another build: answer typed, then hang up.
            try:
                protocol.send_frame(
                    sock,
                    protocol.ERROR,
                    protocol.error_payload(str(exc), mismatch=True),
                )
            except Exception:
                pass
        except Exception:
            # Connection torn down mid-frame; nothing to answer to.
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass

    # -- draining --------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting batches; wait for in-flight work to finish.

        Returns ``True`` once the node is quiescent, ``False`` if
        in-flight batches were still running when ``timeout`` expired
        (the node stays in draining mode either way — drain is one-way).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            self._draining = True
            while self._in_flight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def _handle_drain(self, sock: socket.socket, payload: dict) -> None:
        timeout = payload.get("timeout")
        drained = self.drain(None if timeout is None else float(timeout))
        with self._lock:
            in_flight, proofs = self._in_flight, self.proofs_total
        protocol.send_frame(
            sock,
            protocol.DRAIN_OK,
            {
                "drained": drained,
                "in_flight": in_flight,
                "proofs_total": proofs,
                "version": LIBRARY_VERSION,
            },
        )

    # -- proving ---------------------------------------------------------------

    def _canonical_spec(self, spec: ProverSpec) -> Tuple[ProverSpec, bool]:
        """The node's one spec instance per circuit, plus residency."""
        key = spec_cache_key(spec)
        with self._lock:
            resident = key in self._specs
            if not resident:
                self._specs[key] = spec
            return self._specs[key], resident

    def _handle_prove(self, sock: socket.socket, payload: dict) -> None:
        try:
            protocol.check_version(payload, "PROVE")
        except ProtocolMismatchError as exc:
            protocol.send_frame(
                sock, protocol.ERROR,
                protocol.error_payload(str(exc), mismatch=True),
            )
            return
        with self._idle:
            if self._draining:
                protocol.send_frame(
                    sock, protocol.ERROR,
                    protocol.error_payload(
                        "node is draining — not accepting new batches",
                        unavailable=True,
                    ),
                )
                return
            self._in_flight += 1
        try:
            self._prove_batch(sock, payload)
        finally:
            with self._idle:
                self._in_flight -= 1
                self._idle.notify_all()

    def _prove_batch(self, sock: socket.socket, payload: dict) -> None:
        request = payload.get("request", 0)
        spec = payload["spec"]
        tasks = payload["tasks"]
        digest = spec.r1cs.digest().hex()
        if payload.get("digest") != digest:
            protocol.send_frame(
                sock, protocol.ERROR,
                protocol.error_payload(
                    f"routing digest {payload.get('digest')!r} does not "
                    f"match the shipped spec ({digest})",
                    mismatch=True,
                ),
            )
            return
        spec, resident = self._canonical_spec(spec)
        with self._lock:
            self.batches_total += 1
            if tasks:
                if resident:
                    self.spec_hits += len(tasks)
                else:
                    self.spec_misses += 1
                    self.spec_hits += len(tasks) - 1
        field = spec.r1cs.field
        part_stats = []
        start = time.perf_counter()
        try:
            for lo in range(0, len(tasks), self.chunk_size):
                batch = tasks[lo:lo + self.chunk_size]
                results, stats = self.backend.prove_tasks(spec, batch)
                part_stats.append(stats)
                entries = []
                for result in results:
                    if isinstance(result, QuarantinedTaskError):
                        entries.append({
                            "quarantined": {
                                "task_id": result.task_id,
                                "tried_on": list(result.tried_on),
                                "last_error": result.last_error,
                            }
                        })
                    else:
                        entries.append(
                            {"proof": serialize_proof(result, field)}
                        )
                with self._lock:
                    self.proofs_total += len(batch)
                    total = self.proofs_total
                if self.die_after is not None and total >= self.die_after:
                    # Crash drill: vanish mid-batch, no RESULT, no BYE.
                    os._exit(17)
                protocol.send_frame(
                    sock,
                    protocol.RESULT,
                    {
                        "request": request,
                        "start": lo,
                        "results": entries,
                        "records": _record_dicts(stats),
                    },
                )
        except BackendUnavailableError as exc:
            protocol.send_frame(
                sock, protocol.ERROR,
                protocol.error_payload(str(exc), unavailable=True),
            )
            return
        except Exception as exc:  # noqa: BLE001 - failure crosses the wire
            protocol.send_frame(
                sock, protocol.ERROR,
                protocol.error_payload(f"{type(exc).__name__}: {exc}"),
            )
            return
        merged = merge_runtime_stats(
            part_stats, total_seconds=time.perf_counter() - start
        )
        protocol.send_frame(
            sock,
            protocol.DONE,
            {
                "request": request,
                # Chunked dispatch would sum one worker per chunk; the
                # node's true concurrent capacity is its backend's.
                "workers": getattr(self.backend, "parallelism", 1),
                "retries": merged.retries,
                "timeouts": merged.timeouts,
                "busy_seconds": merged.busy_seconds,
                "total_seconds": merged.total_seconds,
                "fell_back_to_serial": merged.fell_back_to_serial,
            },
        )
