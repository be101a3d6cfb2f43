"""Exclusive-time profiler for sub-operator execution.

Attributes wall time to the operator currently executing, excluding time
spent pulling from upstream operators (a stack-based tracer around the
iterator protocol). Times are grouped by the operator's ``phase`` tag so
the join/GROUP BY breakdowns (paper Fig. 6a) fall out directly:
local_histogram / global_histogram / network_partitioning /
local_partitioning / build_probe / materialize / other.
"""
from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, Iterator


PHASES = (
    "local_histogram",
    "global_histogram",
    "network_partitioning",
    "local_partitioning",
    "build_probe",
    "materialize",
    "other",
)


class Profiler:
    """Thread-safe exclusive-time accumulator keyed by phase."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.phase_seconds: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _state(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.mark = perf_counter()
        return self._local

    def _tick(self, now: float) -> None:
        st = self._state()
        if st.stack:
            with self._lock:
                self.phase_seconds[st.stack[-1]] += now - st.mark
        st.mark = now

    def push(self, phase: str) -> None:
        st = self._state()
        self._tick(perf_counter())
        st.stack.append(phase)

    def pop(self) -> None:
        st = self._state()
        self._tick(perf_counter())
        st.stack.pop()

    def wrap(self, op, gen: Iterator) -> Iterator:
        """Wrap an operator's iterator so time inside its next() — minus
        time inside upstream next() calls — lands on its phase."""
        phase = getattr(op, "phase", "other")

        def inner():
            while True:
                self.push(phase)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    # also when the operator raises, so its phase does not
                    # absorb the thread's later time
                    self.pop()
                yield item

        return inner()

    def breakdown(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.phase_seconds)
