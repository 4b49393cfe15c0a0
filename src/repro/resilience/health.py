"""Per-child health accounting and the circuit-breaker state machine.

A dead or flapping child backend must stop receiving work *quickly* (its
tasks fail over to siblings) but must also be *re-probed* once it may
have recovered — a transient outage should cost one cooldown, not the
child's membership.  That is the classic circuit breaker:

* **closed** — calls flow; ``failure_threshold`` consecutive failures
  trip the breaker open.
* **open** — calls are rejected without being attempted until
  ``cooldown_seconds`` have elapsed.
* **half-open** — after the cooldown, up to ``half_open_probes`` trial
  calls are admitted; one success closes the breaker (recovered), one
  failure re-opens it (still down, new cooldown).

:class:`CircuitBreaker` is clock-injected and lock-protected (shard
threads call it concurrently); every transition is recorded and
optionally reported through a callback so the cluster coordinator, which
keeps one breaker per member (DESIGN decision 28), can trace them.
:class:`HealthTracker` is the companion ledger of raw outcomes per
member — successes, failures, consecutive-failure streak, last error —
the operator-facing "which device is sick" view.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

from ..errors import ResilienceError

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Transition report: (from_state, to_state).
Transition = Tuple[str, str]


class HealthTracker:
    """Raw outcome ledger for one child backend."""

    def __init__(self, name: str):
        self.name = name
        self.successes = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.tasks_completed = 0
        self.last_error: Optional[str] = None
        self.last_failure_at: Optional[float] = None

    def record_success(self, tasks: int = 0) -> None:
        self.successes += 1
        self.tasks_completed += tasks
        self.consecutive_failures = 0

    def record_failure(self, error: str, now: Optional[float] = None) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        self.last_error = error
        self.last_failure_at = now if now is not None else time.monotonic()

    @property
    def total_calls(self) -> int:
        return self.successes + self.failures

    def summary(self) -> str:
        """One line for reports: name, call split, streak, last error."""
        text = (
            f"{self.name}: {self.successes} ok / {self.failures} failed"
            f" ({self.tasks_completed} tasks)"
        )
        if self.consecutive_failures:
            text += f", streak {self.consecutive_failures}"
        if self.last_error:
            text += f", last: {self.last_error[:60]}"
        return text


class CircuitBreaker:
    """Closed → open → half-open gate in front of one child backend.

    >>> clock = lambda: clock.now
    >>> clock.now = 0.0
    >>> cb = CircuitBreaker(failure_threshold=2, cooldown_seconds=1.0,
    ...                     clock=clock)
    >>> cb.acquire(), cb.state
    (True, 'closed')
    >>> cb.record_failure(); cb.record_failure(); cb.state
    'open'
    >>> cb.acquire()
    False
    >>> clock.now = 1.5
    >>> cb.acquire(), cb.state        # cooldown elapsed: probe admitted
    (True, 'half_open')
    >>> cb.record_success(); cb.state
    'closed'

    Args:
        failure_threshold: Consecutive failures that trip the breaker.
        cooldown_seconds:  Open-state dwell before probes are admitted.
        half_open_probes:  Trial calls admitted while half-open.
        clock:             Monotonic clock (injected for tests).
        on_transition:     Optional ``(from_state, to_state)`` callback,
                           invoked outside the lock.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        if failure_threshold < 1:
            raise ResilienceError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds < 0:
            raise ResilienceError(
                f"cooldown_seconds must be >= 0, got {cooldown_seconds}"
            )
        if half_open_probes < 1:
            raise ResilienceError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        #: Every (from, to) transition, in order.
        self.transitions: List[Transition] = []

    @property
    def state(self) -> str:
        """Current state, with open → half-open promotion applied lazily."""
        with self._lock:
            if self._cooldown_elapsed_locked():
                return HALF_OPEN  # an acquire() now would be admitted
            return self._state

    def _cooldown_elapsed_locked(self) -> bool:
        return (
            self._state == OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown_seconds
        )

    def _move_locked(self, to_state: str) -> Transition:
        transition = (self._state, to_state)
        self._state = to_state
        self.transitions.append(transition)
        return transition

    def _notify(self, transition: Optional[Transition]) -> None:
        if transition is not None and self._on_transition is not None:
            self._on_transition(*transition)

    def acquire(self) -> bool:
        """Ask to route one call through; True admits it.

        An admitted call MUST be concluded with :meth:`record_success`
        or :meth:`record_failure` (half-open probe slots are otherwise
        leaked).  Rejected calls consume nothing.
        """
        transition = None
        with self._lock:
            if self._state == OPEN and self._cooldown_elapsed_locked():
                transition = self._move_locked(HALF_OPEN)
                self._probes_in_flight = 0
            if self._state == CLOSED:
                admitted = True
            elif self._state == HALF_OPEN:
                admitted = self._probes_in_flight < self.half_open_probes
                if admitted:
                    self._probes_in_flight += 1
            else:
                admitted = False
        self._notify(transition)
        return admitted

    def record_success(self) -> None:
        """Conclude an admitted call successfully."""
        transition = None
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                transition = self._move_locked(CLOSED)
        self._notify(transition)

    def record_failure(self) -> None:
        """Conclude an admitted call with a failure."""
        transition = None
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._opened_at = self._clock()
                transition = self._move_locked(OPEN)
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                transition = self._move_locked(OPEN)
        self._notify(transition)

    def release(self) -> None:
        """Return an admitted-but-unused call (no outcome recorded).

        The failover planner acquires before it knows whether any task
        is assignable to this child; a half-open probe slot must not be
        leaked when nothing is dispatched.
        """
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def seconds_until_probe(self) -> float:
        """How long until an open breaker admits a probe (0 if admitting)."""
        with self._lock:
            if self._state != OPEN or self._opened_at is None:
                return 0.0
            remaining = (
                self.cooldown_seconds - (self._clock() - self._opened_at)
            )
            return max(0.0, remaining)
