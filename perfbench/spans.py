"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its own calls into each layer
(the program itself is not instrumented).  A span is ``(id, name, start,
end, parent, op)``; ``op`` is the request or task id the span belongs to.
They stay in memory until :meth:`Spans.write` dumps them as JSONL when
the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]
T = TypeVar("T")


class Spans:
    def __init__(self) -> None:
        self.rows: List[Span] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, op: Optional[int] = None
    ) -> Iterator[int]:
        sid = self._new_id()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.rows.append((sid, name, start, time.perf_counter(), parent, op))

    def timed(self, name: str, fn: Callable[[], T]) -> Tuple[T, float]:
        """Call ``fn`` inside a span; returns its result and the seconds."""
        with self.span(name):
            result = fn()
        _, _, start, end, _, _ = self.rows[-1]
        return result, end - start

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[int] = None,
    ) -> int:
        """Record a span whose endpoints were stamped elsewhere."""
        sid = self._new_id()
        self.rows.append((sid, name, start, end, parent, op))
        return sid

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.rows if n == name]

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus what its child spans cover."""
        covered: Dict[int, float] = {}
        for _, _, start, end, parent, _ in self.rows:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for sid, name, start, end, _, _ in self.rows:
            own = (end - start) - covered.get(sid, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in self.rows:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
