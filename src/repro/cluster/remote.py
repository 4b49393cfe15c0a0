"""The client half of the wire: a `ProvingBackend` over a TCP node.

``resolve_backend("remote:host:port")`` yields a backend whose
``prove_tasks`` ships the spec and tasks to a
:class:`~repro.cluster.NodeServer` and consumes the streamed ``RESULT``
frames — so the first proofs are being deserialized on this side while
the node is still proving the tail of the batch.  Proof bytes cross the
wire in the canonical :func:`~repro.core.serialize_proof` encoding and
are decoded against the locally derived PCS parameters (via the
process-wide :class:`~repro.kernels.SpecCache`), which is why a remote
proof is *byte-identical* to a local serial one: the node never ships
parameters, only prover messages.

Failure translation is the seam the cluster composes on: any
transport-level loss (connection refused, reset, EOF mid-frame) raises
:class:`~repro.errors.BackendUnavailableError` — the blameless node
outage :class:`~repro.cluster.ClusterBackend` fails over —
while a version skew raises the typed
:class:`~repro.errors.ProtocolMismatchError` (an operator error no
amount of retrying fixes), and a node-side proving failure re-raises as
an ordinary execution failure attributable to the tasks.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Optional, Sequence, Tuple

from ..core.batch import ProofTask
from ..core.proof import SnarkProof
from ..core.serialize import deserialize_proof
from ..errors import (
    BackendUnavailableError,
    ExecutionError,
    NodeConnectionError,
    ProofError,
    ProtocolMismatchError,
    QuarantinedTaskError,
)
from ..kernels.spec_cache import default_spec_cache
from ..runtime.lifecycle import record
from ..runtime.spec import ProverSpec
from ..runtime.stats import RuntimeStats
from ..runtime.trace import JsonlTraceSink, backend_span
from . import protocol


class RemoteBackend:
    """Execute batches on one remote proving node.

    The connection is persistent (one handshake per node lifetime, not
    per batch) and guarded by a lock: the backend protocol is not
    re-entrant, matching every other backend's contract.  ``parallelism``
    is learned from the node's ``HELLO`` and drives the coordinator's
    shard weights.

    Args:
        host/port:        The node's listen address.
        connect_timeout:  Seconds to wait for TCP connect + handshake.
        io_timeout:       Per-frame socket timeout while proving (a node
                          that stops answering counts as unavailable).

    The node streams results in its own chunk size (``node
    --chunk-size``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        io_timeout: float = 600.0,
    ):
        self.host = host
        self.port = int(port)
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.name = f"remote:{host}:{port}"
        #: Updated from the node's HELLO on first contact.
        self.parallelism = 1
        self.node_backend: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._requests = 0

    # -- connection ------------------------------------------------------------

    def _ensure_locked(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise BackendUnavailableError(
                f"{self.name}: connect failed: {exc}"
            ) from exc
        try:
            sock.settimeout(self.io_timeout)
            protocol.send_frame(sock, protocol.HELLO,
                                protocol.hello_payload("coordinator"))
            kind, payload = protocol.recv_frame(sock)
            if kind == protocol.ERROR:
                self._raise_error(payload)
            if kind != protocol.HELLO:
                raise ProtocolMismatchError(
                    f"{self.name}: expected HELLO, "
                    f"got {protocol.KIND_NAMES.get(kind, kind)}"
                )
            protocol.check_version(payload, f"{self.name} HELLO")
        except (NodeConnectionError, OSError) as exc:
            sock.close()
            raise BackendUnavailableError(
                f"{self.name}: handshake failed: {exc}"
            ) from exc
        except Exception:
            sock.close()
            raise
        self.parallelism = max(1, int(payload.get("parallelism") or 1))
        self.node_backend = payload.get("backend")
        self._sock = sock
        return sock

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Say goodbye and drop the connection (idempotent)."""
        with self._lock:
            if self._sock is not None:
                try:
                    protocol.send_frame(self._sock, protocol.BYE, {})
                except Exception:
                    pass
            self._drop_locked()

    @staticmethod
    def _raise_error(payload: dict) -> None:
        message = payload.get("message", "unspecified node error")
        if payload.get("mismatch"):
            raise ProtocolMismatchError(message)
        if payload.get("unavailable"):
            raise BackendUnavailableError(message)
        raise ExecutionError(f"node error: {message}")

    # -- liveness and gauges ---------------------------------------------------

    def _roundtrip(self, kind: int, payload: dict,
                   expect: int) -> dict:
        with self._lock:
            sock = self._ensure_locked()
            try:
                protocol.send_frame(sock, kind, payload)
                got, body = protocol.recv_frame(sock)
            except (NodeConnectionError, OSError) as exc:
                self._drop_locked()
                raise BackendUnavailableError(
                    f"{self.name}: {exc}"
                ) from exc
            if got == protocol.ERROR:
                self._raise_error(body)
            if got != expect:
                self._drop_locked()
                raise ProtocolMismatchError(
                    f"{self.name}: expected "
                    f"{protocol.KIND_NAMES[expect]}, "
                    f"got {protocol.KIND_NAMES.get(got, got)}"
                )
            return body

    def fetch_stats(self) -> dict:
        """The node's ``STATS`` payload (throughput + cache gauges)."""
        return self._roundtrip(protocol.STATS, {}, protocol.STATS_OK)

    def drain(self, timeout: Optional[float] = None) -> dict:
        """Ask the node to drain: refuse new batches, finish in-flight.

        Blocks until the node acknowledges with ``DRAIN_OK`` (its reply
        reports whether it reached quiescence within ``timeout``).  Use
        a *dedicated* client for this — the coordinator's persistent
        connection may be mid-batch, and drain should not queue behind
        a long prove.
        """
        return self._roundtrip(
            protocol.DRAIN, {"timeout": timeout}, protocol.DRAIN_OK
        )

    # -- proving ---------------------------------------------------------------

    def prove_tasks(
        self,
        spec: ProverSpec,
        tasks: Sequence[ProofTask],
        *,
        trace: Optional[JsonlTraceSink] = None,
        parent: Optional[str] = None,
    ) -> Tuple[List[SnarkProof], RuntimeStats]:
        tasks = list(tasks)
        ctx = backend_span(trace, parent)
        digest = spec.r1cs.digest()
        # Locally derived verification context: the PCS parameters the
        # proof blobs decode against (cached process-wide per circuit).
        params = default_spec_cache().get_pcs(spec).params
        field = spec.r1cs.field
        start = time.perf_counter()
        ctx.emit(
            "run_start", backend=self.name, node=self.name,
            tasks=len(tasks), workers=self.parallelism,
        )
        with self._lock:
            sock = self._ensure_locked()
            self._requests += 1
            request = self._requests
            results: List[Optional[SnarkProof]] = [None] * len(tasks)
            stats = RuntimeStats(workers=self.parallelism)
            try:
                protocol.send_frame(
                    sock,
                    protocol.PROVE,
                    {
                        "version": protocol.LIBRARY_VERSION,
                        "request": request,
                        "digest": digest.hex(),
                        "spec": spec,
                        "tasks": tasks,
                    },
                )
                while True:
                    kind, payload = protocol.recv_frame(sock)
                    if kind == protocol.ERROR:
                        self._raise_error(payload)
                    if kind == protocol.DONE:
                        stats.workers = max(
                            1, int(payload.get("workers") or 1)
                        )
                        stats.retries = int(payload.get("retries") or 0)
                        stats.timeouts = int(payload.get("timeouts") or 0)
                        stats.busy_seconds = float(
                            payload.get("busy_seconds") or 0.0
                        )
                        stats.fell_back_to_serial = bool(
                            payload.get("fell_back_to_serial")
                        )
                        break
                    if kind != protocol.RESULT:
                        raise ProtocolMismatchError(
                            f"{self.name}: unexpected "
                            f"{protocol.KIND_NAMES.get(kind, kind)} "
                            f"mid-batch"
                        )
                    lo = int(payload.get("start") or 0)
                    for offset, entry in enumerate(payload["results"]):
                        index = lo + offset
                        if index >= len(tasks):
                            raise ExecutionError(
                                f"{self.name}: result index {index} out "
                                f"of range for {len(tasks)} tasks"
                            )
                        quarantined = entry.get("quarantined")
                        if quarantined is not None:
                            results[index] = QuarantinedTaskError(
                                quarantined["task_id"],
                                quarantined["tried_on"],
                                quarantined.get("last_error", ""),
                            )
                        else:
                            results[index] = deserialize_proof(
                                entry["proof"], field, params
                            )
                    # The node's records, billed locally (the DONE
                    # frame's busy_seconds then supersedes the sum).
                    for entry in payload.get("records", ()):
                        record(
                            stats, ctx, [entry["task_id"]],
                            entry["prove_seconds"],
                            entry.get("stage_seconds"), entry["attempts"],
                            entry["latency_seconds"],
                            worker=entry.get("worker"), node=self.name,
                        )
            except (NodeConnectionError, OSError) as exc:
                # The stream died mid-batch: drop the socket so the next
                # call re-handshakes, and report a blameless outage.
                self._drop_locked()
                raise BackendUnavailableError(
                    f"{self.name}: connection lost mid-batch: {exc}"
                ) from exc
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise ProofError(
                f"{self.name}: node completed without results for task "
                f"indices {missing[:8]}"
            )
        stats.total_seconds = time.perf_counter() - start
        ctx.emit(
            "run_end", proofs=len(results), retries=stats.retries,
            seconds=stats.total_seconds, node=self.name,
        )
        if ctx.sink is not None:
            ctx.sink.flush()
        return results, stats  # type: ignore[return-value]
