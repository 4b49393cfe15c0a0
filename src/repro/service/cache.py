"""Result cache with single-flight deduplication.

A proving service billed per proof (§2.1) should never pay twice for the
same work: identical (circuit, witness) pairs produce identical proofs
because the whole pipeline is deterministically seeded
(:class:`~repro.runtime.ProverSpec`).  The cache exploits that two ways:

* **Completed results** are kept in a bounded LRU map and served without
  re-proving — a repeat query costs a dictionary lookup.
* **In-flight requests** are deduplicated *single-flight*: the first
  submission of a key becomes the *leader* and is enqueued; later
  identical submissions become *followers* whose tickets are resolved
  from the leader's result the moment it lands.  A thundering herd of N
  identical requests costs one proof, not N.

All methods are thread-safe behind one lock — submitters and the batcher
thread hit the cache concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ServiceError
from .request import Ticket

#: A cache key: (circuit digest, witness digest).
CacheKey = Tuple[bytes, bytes]


class ResultCache:
    """Bounded LRU of finished results plus a single-flight registry.

    >>> cache = ResultCache(capacity=2)
    >>> t = Ticket(0)
    >>> cache.claim((b"c", b"w"), t)
    ('lead', None)
    >>> cache.fulfill((b"c", b"w"), "proof")
    []
    >>> cache.claim((b"c", b"w"), Ticket(1))
    ('hit', 'proof')
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ServiceError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._values: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._inflight: Dict[CacheKey, List[Ticket]] = {}
        #: Entries dropped to stay within ``capacity``.
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def claim(
        self, key: CacheKey, ticket: Ticket
    ) -> Tuple[str, Optional[Any]]:
        """Route one submission through the cache.

        Returns one of:

        * ``("hit", value)`` — a finished result exists; the caller
          resolves the ticket immediately and nothing is enqueued.
        * ``("joined", None)`` — an identical request is already in
          flight; ``ticket`` was parked on it and will be resolved when
          the leader finishes.  Nothing is enqueued.
        * ``("lead", None)`` — first sighting of this key; the caller
          must enqueue the request and later call :meth:`fulfill` or
          :meth:`abandon`.
        """
        with self._lock:
            if key in self._values:
                self._values.move_to_end(key)
                return ("hit", self._values[key])
            if key in self._inflight:
                self._inflight[key].append(ticket)
                return ("joined", None)
            self._inflight[key] = []
            return ("lead", None)

    def fulfill(self, key: CacheKey, value: Any) -> List[Ticket]:
        """Record a finished result; returns the follower tickets to resolve."""
        with self._lock:
            followers = self._inflight.pop(key, [])
            if self.capacity > 0:
                self._values[key] = value
                self._values.move_to_end(key)
                while len(self._values) > self.capacity:
                    self._values.popitem(last=False)
                    self.evictions += 1
            return followers

    def abandon(self, key: CacheKey) -> List[Ticket]:
        """Drop an in-flight claim (the batch failed); returns followers.

        The key becomes claimable again so a retry can re-prove it.
        """
        with self._lock:
            return self._inflight.pop(key, [])
