"""The cluster wire format: length-prefixed, versioned frames over TCP.

One frame = a fixed header + a pickled payload dict::

    +-------+------------------+--------+--------------+  +---------+
    | MAGIC | protocol version |  kind  | payload len  |  | payload |
    | 4 B   | u16              |  u16   | u32          |  | pickle  |
    +-------+------------------+--------+--------------+  +---------+

The header is *not* pickled, so every compatibility check happens before
any payload byte is deserialized: a coordinator from a different build
fails with a typed :class:`~repro.errors.ProtocolMismatchError` naming
both versions, never a pickle explosion.  Two version gates apply:

* ``PROTOCOL_VERSION`` in the header pins the frame layout itself;
* the library version (``repro.__version__``) rides in every ``HELLO``
  and ``PROVE`` payload and is checked by the receiving side, because a
  pickled :class:`~repro.runtime.ProverSpec` is only portable between
  identical library builds.

``PROVE`` additionally carries the circuit digest alongside the pickled
spec; the node recomputes the digest from the spec it unpickled and
rejects any disagreement — the routing key and the payload can never
drift apart silently.

Frame kinds (client → node unless noted): ``HELLO`` (both directions,
handshake), ``PROVE`` (a task batch), ``RESULT`` (node → client, one
streamed chunk of finished proofs), ``DONE`` (node → client, end of a
batch with the run report), ``STATS``/``STATS_OK`` (cache and
throughput gauges), ``ERROR`` (node →
client, typed failure), ``BYE`` (orderly close), ``DRAIN`` /
``DRAIN_OK`` (graceful shutdown: the node stops accepting new batches,
finishes what is in flight, then acknowledges — the handshake behind
the fleet's drain-then-terminate shrink path).
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Dict, Tuple

from .. import __version__ as LIBRARY_VERSION
from ..errors import ClusterError, NodeConnectionError, ProtocolMismatchError

MAGIC = b"RPCL"
#: v2 added the DRAIN/DRAIN_OK graceful-shutdown frames.
PROTOCOL_VERSION = 2

#: magic, protocol version, frame kind, payload length.
HEADER = struct.Struct("<4sHHI")

#: Refuse absurd frames before allocating for them (1 GiB).
MAX_PAYLOAD = 1 << 30

# -- frame kinds ---------------------------------------------------------------

HELLO = 1
PROVE = 2
RESULT = 3
DONE = 4
STATS = 5
STATS_OK = 6
# 7 and 8 were PING/PONG, which nothing sent; numbers are never reused.
ERROR = 9
BYE = 10
DRAIN = 11
DRAIN_OK = 12

KIND_NAMES: Dict[int, str] = {
    HELLO: "HELLO",
    PROVE: "PROVE",
    RESULT: "RESULT",
    DONE: "DONE",
    STATS: "STATS",
    STATS_OK: "STATS_OK",
    ERROR: "ERROR",
    BYE: "BYE",
    DRAIN: "DRAIN",
    DRAIN_OK: "DRAIN_OK",
}


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`NodeConnectionError`."""
    parts = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise NodeConnectionError(f"socket error mid-frame: {exc}") from exc
        if not chunk:
            raise NodeConnectionError(
                f"peer closed the connection ({n - remaining}/{n} bytes read)"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def send_frame(sock: socket.socket, kind: int, payload: Dict[str, Any]) -> None:
    """Encode and transmit one frame."""
    if kind not in KIND_NAMES:
        raise ClusterError(f"unknown outbound frame kind {kind}")
    body = pickle.dumps(payload, protocol=4)
    if len(body) > MAX_PAYLOAD:
        raise ClusterError(f"frame payload too large: {len(body)} bytes")
    try:
        sock.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, len(body)) + body)
    except OSError as exc:
        raise NodeConnectionError(f"send failed: {exc}") from exc


def recv_frame(sock: socket.socket) -> Tuple[int, Dict[str, Any]]:
    """Receive one frame; every header check runs before unpickling.

    Raises :class:`ProtocolMismatchError` for a foreign magic, a frame
    layout from a different protocol revision, or an unknown frame kind;
    :class:`NodeConnectionError` when the peer hangs up mid-frame.
    """
    magic, version, kind, length = HEADER.unpack(recv_exact(sock, HEADER.size))
    if magic != MAGIC:
        raise ProtocolMismatchError(
            f"bad magic {magic!r} — peer is not a repro cluster endpoint"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolMismatchError(
            "frame protocol revision differs",
            ours=str(PROTOCOL_VERSION),
            theirs=str(version),
        )
    if kind not in KIND_NAMES:
        raise ProtocolMismatchError(f"unknown frame kind {kind}")
    if length > MAX_PAYLOAD:
        raise ClusterError(f"implausible frame length {length}")
    body = recv_exact(sock, length)
    try:
        payload = pickle.loads(body)
    except Exception as exc:  # corrupt body past a valid header
        raise ClusterError(f"undecodable {KIND_NAMES[kind]} payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ClusterError(
            f"{KIND_NAMES[kind]} payload must be a dict, "
            f"got {type(payload).__name__}"
        )
    return kind, payload


# -- handshake helpers ---------------------------------------------------------


def hello_payload(role: str, backend: str = "", parallelism: int = 0) -> dict:
    """The ``HELLO`` body each side sends: identity + library version."""
    return {
        "version": LIBRARY_VERSION,
        "role": role,
        "backend": backend,
        "parallelism": parallelism,
    }


def check_version(payload: Dict[str, Any], what: str) -> None:
    """Enforce the library-version gate on a ``HELLO``/``PROVE`` payload."""
    theirs = payload.get("version")
    if theirs != LIBRARY_VERSION:
        raise ProtocolMismatchError(
            f"{what} from a different library build",
            ours=LIBRARY_VERSION,
            theirs=str(theirs),
        )


def error_payload(message: str, *, unavailable: bool = False,
                  mismatch: bool = False) -> dict:
    """The ``ERROR`` body: message plus typed classification flags."""
    return {
        "message": message,
        "unavailable": bool(unavailable),
        "mismatch": bool(mismatch),
        "version": LIBRARY_VERSION,
    }
