"""Deterministic discrete-event simulator.

This replaces the EC2 cluster the BOOM Analytics paper ran on: every node,
network link and failure is driven from a single virtual clock, so entire
distributed executions are reproducible from one seed.

Time is integer **milliseconds**.  Events scheduled for the same instant
run in schedule order (a monotone sequence number breaks ties), which keeps
runs deterministic regardless of hash seeds or dict ordering.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation.

    Wraps the event's heap entry ``[time, seq, action]``; cancelling
    clears the action in place (the ``heapq`` documentation's pattern), so
    the loop drops the entry when it surfaces."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[2] = None

    @property
    def time(self) -> int:
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None


class Simulator:
    """A single-threaded virtual-time event loop."""

    def __init__(self):
        self.now: int = 0
        # Heap of [time, seq, action] lists: list comparison orders them
        # by time, then schedule order; seq is unique, so it never
        # compares actions.  A cancelled entry's action is None.
        self._queue: list[list] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def schedule(self, delay_ms: int, action: Callable[[], None]) -> EventHandle:
        """Run ``action`` ``delay_ms`` milliseconds from now."""
        if delay_ms < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay_ms, action)

    def schedule_at(self, time_ms: int, action: Callable[[], None]) -> EventHandle:
        if time_ms < self.now:
            raise ValueError(
                f"cannot schedule at {time_ms}, current time is {self.now}"
            )
        entry = [time_ms, next(self._seq), action]
        heapq.heappush(self._queue, entry)
        return EventHandle(entry)

    def _pop_runnable(self, until: Optional[int]) -> Optional[list]:
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                return None
            entry = heapq.heappop(queue)
            if entry[2] is not None:
                return entry
        return None

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        entry = self._pop_runnable(until=None)
        if entry is None:
            return False
        self.now = entry[0]
        self.events_processed += 1
        entry[2]()
        return True

    def run_until(self, time_ms: int) -> None:
        """Process every event scheduled at or before ``time_ms``; the
        clock ends exactly at ``time_ms``."""
        while True:
            entry = self._pop_runnable(until=time_ms)
            if entry is None:
                break
            self.now = entry[0]
            self.events_processed += 1
            entry[2]()
        self.now = max(self.now, time_ms)

    def run_while(
        self,
        predicate: Callable[[], bool],
        max_time_ms: int,
    ) -> bool:
        """Run while ``predicate()`` holds, up to ``max_time_ms``.

        Returns True if the predicate became false (condition reached),
        False on timeout or queue exhaustion while it still held.
        """
        while predicate():
            entry = self._pop_runnable(until=max_time_ms)
            if entry is None:
                return not predicate()
            self.now = entry[0]
            self.events_processed += 1
            entry[2]()
        return True

    def run_until_condition(
        self, condition: Callable[[], bool], max_time_ms: int
    ) -> bool:
        """Run until ``condition()`` is true; see :meth:`run_while`."""
        return self.run_while(lambda: not condition(), max_time_ms)

    @property
    def pending_events(self) -> int:
        return sum(1 for entry in self._queue if entry[2] is not None)
