"""String registry: select an execution backend by name.

The CLI, the benches, and the services all accept a backend *selector*
string so operators choose the execution substrate without touching
code::

    serial                      in-process, one cached prover
    pool                        process pool sized to the host
    pool:8                      process pool, 8 workers
    lanes:64                    lane-vectorized: 64 same-circuit tasks
                                proved per fused numpy dispatch (S31)
    lanes:auto                  lane width sized from the batch
    lanes:16:pool:4             4-worker pool, each dispatch proving a
                                16-lane group
    lanes:16:pipelined:4        stage-pipelined over 16-lane groups
    lanes:auto:pool:4           lanes:16:pool:4 — a composed 'auto'
                                hardens to AUTO_LANE_CAP (16) lanes
    lanes:auto:pipelined:4      lanes:16:pipelined:4, likewise
    pipelined:4                 stage-pipelined threads, 4 workers
    pipelined:auto              stage-pipelined, sized from the host
    cluster:pool:4,pool:4       two concurrent 4-worker pools behind
                                per-member breakers with failover (S28)
    cluster:pool:4,serial       heterogeneous members (weighted by
                                each member's parallelism)
    cluster:remote:h1:9100,remote:h2:9100
                                digest-routed fleet of nodes with
                                cache-affinity consistent hashing (S28)
    remote:127.0.0.1:9100       one proving node over TCP (S28)
    resilient:pool:4            singleton attribution, poison-task
                                quarantine and verify-and-re-prove
                                around one child (S25)
    resilient:cluster:pool:2,pool:2
                                both: node failover inside the
                                cluster, task discipline outside it

:func:`resolve_backend` also passes through an already-constructed
:class:`~repro.execution.ProvingBackend` unchanged, so programmatic
callers and string-driven callers share one code path.  New substrates
plug in through :func:`register_backend` — the extension point the
multi-backend scaling items on the roadmap build on.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, List, Union

from ..errors import ExecutionError
from .backend import PoolBackend, ProvingBackend, SerialBackend
from .laned import AUTO_LANE_CAP, LanedBackend

#: Factories keyed by selector head; each receives the text after the
#: first ``:`` (possibly empty) and returns a backend.
_FACTORIES: Dict[str, Callable[[str], ProvingBackend]] = {}

BackendSelector = Union[str, ProvingBackend]


def register_backend(
    head: str, factory: Callable[[str], ProvingBackend]
) -> None:
    """Register a selector head (e.g. ``"gpu"``) for :func:`resolve_backend`.

    ``factory`` receives the selector's argument text — everything after
    the first ``:``, which is empty when no argument was given.
    """
    key = head.strip().lower()
    if not key:
        raise ExecutionError("backend selector head must be non-empty")
    _FACTORIES[key] = factory


def available_backends() -> List[str]:
    """The registered selector heads, sorted (for CLI help and errors)."""
    return sorted(_FACTORIES)


def resolve_backend(selector: BackendSelector) -> ProvingBackend:
    """Turn a selector string (or a backend instance) into a backend.

    >>> resolve_backend("pool:2").name
    'pool:2'
    >>> resolve_backend("cluster:pool:2,serial").parallelism
    3
    """
    if not isinstance(selector, str):
        if isinstance(selector, ProvingBackend):
            return selector
        raise ExecutionError(
            f"backend selector must be a string or ProvingBackend, "
            f"got {type(selector).__name__}"
        )
    text = selector.strip()
    if not text:
        raise ExecutionError("empty backend selector")
    head, _, rest = text.partition(":")
    key = head.strip().lower()
    factory = _FACTORIES.get(key)
    if factory is None:
        message = (
            f"unknown backend {head!r}; available: "
            + ", ".join(available_backends())
        )
        close = difflib.get_close_matches(key, available_backends(), n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise ExecutionError(message)
    return factory(rest.strip())


def resolve_cached(
    selector: BackendSelector, cache: Dict[str, ProvingBackend]
) -> ProvingBackend:
    """:func:`resolve_backend`, memoising string selectors in ``cache``.

    Entry points that take a selector per call keep one ``cache`` so a
    repeated string reuses its backend: ``remote:``/``cluster:``
    connections persist and ``pool:N`` keeps its per-spec setup.
    """
    if not isinstance(selector, str):
        return resolve_backend(selector)
    backend = cache.get(selector)
    if backend is None:
        backend = cache[selector] = resolve_backend(selector)
    return backend


# -- stock factories -----------------------------------------------------------


def _make_serial(rest: str) -> SerialBackend:
    if rest:
        raise ExecutionError(f"'serial' takes no argument, got {rest!r}")
    return SerialBackend()


def _make_pool(rest: str) -> PoolBackend:
    if not rest:
        return PoolBackend()
    try:
        workers = int(rest)
    except ValueError:
        raise ExecutionError(
            f"'pool' wants an integer worker count, got {rest!r}"
        ) from None
    return PoolBackend(workers)


def _make_pipelined(rest: str) -> ProvingBackend:
    # Imported lazily: the pipelined module pulls in gpu.costs for its
    # sizer, which this registry's importers don't otherwise need.
    from .pipelined import PipelinedBackend

    if not rest or rest == "auto":
        return PipelinedBackend("auto")
    try:
        workers = int(rest)
    except ValueError:
        raise ExecutionError(
            f"'pipelined' wants an integer worker count or 'auto', "
            f"got {rest!r}"
        ) from None
    return PipelinedBackend(workers)


def _make_lanes(rest: str) -> ProvingBackend:
    if not rest or rest == "auto":
        return LanedBackend("auto")
    head, _, inner = rest.partition(":")
    if head == "auto" and inner:
        # A composed substrate dispatches fixed-size units, so 'auto'
        # hardens to the widest group lanes:auto would ever form.
        width = AUTO_LANE_CAP
    else:
        try:
            width = int(head)
        except ValueError:
            raise ExecutionError(
                f"'lanes' wants an integer lane width or 'auto', got {head!r}"
            ) from None
    if width < 1:
        raise ExecutionError(f"lane width must be >= 1, got {width}")
    if not inner:
        return LanedBackend(width)
    # Composition: 'lanes:W:pool:N' / 'lanes:W:pipelined:N' hand the
    # inner substrate lane-group-sized dispatch units.
    inner_head = inner.split(":", 1)[0].strip().lower()
    backend: ProvingBackend
    if inner_head == "pool":
        backend = _make_pool(inner.partition(":")[2].strip())
        backend.lane_width = width
    elif inner_head == "pipelined":
        from .pipelined import PipelinedBackend

        arg = inner.partition(":")[2].strip()
        backend = (
            PipelinedBackend("auto", lane_width=width)
            if not arg or arg == "auto"
            else PipelinedBackend(int(arg), lane_width=width)
        )
    else:
        raise ExecutionError(
            f"'lanes:{width}:' composes with 'pool' or 'pipelined', "
            f"got {inner!r}"
        )
    backend.name = f"lanes:{width}:{inner}"
    return backend


def _make_resilient(rest: str) -> ProvingBackend:
    # Imported lazily: repro.resilience imports this package for the
    # backend protocol, so a module-level import would be a cycle.
    from ..resilience import ResilientBackend

    if not rest:
        raise ExecutionError(
            "'resilient' wraps an inner selector, e.g. "
            "'resilient:cluster:pool:2,pool:2' or 'resilient:pool:4'"
        )
    return ResilientBackend(resolve_backend(rest))


def _make_remote(rest: str) -> ProvingBackend:
    # Imported lazily: repro.cluster imports this package for the
    # backend protocol and selector resolution (a node resolves its own
    # wrapped backend), so a module-level import would be a cycle.
    from ..cluster import RemoteBackend

    host, sep, port = rest.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ExecutionError(
            f"'remote' wants host:port, e.g. 'remote:127.0.0.1:9100', "
            f"got {rest!r}"
        )
    return RemoteBackend(host, int(port))


def _make_cluster(rest: str) -> ProvingBackend:
    from ..cluster import ClusterBackend

    if not rest:
        raise ExecutionError(
            "'cluster' needs comma-separated node selectors, e.g. "
            "'cluster:remote:127.0.0.1:9100,remote:127.0.0.1:9101'"
        )
    parts = [part.strip() for part in rest.split(",")]
    if any(not part for part in parts):
        raise ExecutionError(f"empty node in cluster selector {rest!r}")
    if any(part.split(":", 1)[0].lower() == "cluster" for part in parts):
        raise ExecutionError(
            "nested 'cluster' selectors are not expressible in the flat "
            "string form; compose ClusterBackend instances directly"
        )
    return ClusterBackend([resolve_backend(part) for part in parts])


register_backend("serial", _make_serial)
register_backend("pool", _make_pool)
register_backend("pipelined", _make_pipelined)
register_backend("lanes", _make_lanes)
register_backend("resilient", _make_resilient)
register_backend("remote", _make_remote)
register_backend("cluster", _make_cluster)
