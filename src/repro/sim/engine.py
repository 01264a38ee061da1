"""A small discrete-event simulation engine.

The broadcast simulation's clock is *channel byte-time*: one unit is one
byte broadcast on the downlink (constant-bandwidth assumption, paper
Section 4.1).  The engine is nevertheless generic: a priority queue of
timestamped callbacks with stable FIFO ordering among simultaneous
events, and a run loop that drains it.

SimPy would normally fill this role; it is not installed in this offline
environment, so the needed subset is implemented here.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

EventCallback = Callable[[], None]


class EventQueue:
    """Calendar queue with a monotonic clock.

    The heap holds ``(time, priority, sequence, callback)``: the insertion
    sequence breaks (time, priority) ties first-in first-out, so two
    callbacks are never compared.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, EventCallback]] = []
        self._sequence = itertools.count()
        self.now = 0

    def schedule(self, time: int, callback: EventCallback, priority: int = 0) -> None:
        """Schedule *callback* at *time*; earlier priority runs first among
        simultaneous events, FIFO within equal (time, priority)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, clock is at {self.now}")
        heapq.heappush(self._heap, (time, priority, next(self._sequence), callback))

    def next_event_time(self) -> Optional[int]:
        """Time of the earliest pending event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def run(self) -> None:
        """Run events in order, advancing the clock, until none is left."""
        heap = self._heap
        while heap:
            time, _priority, _sequence, callback = heapq.heappop(heap)
            self.now = time
            callback()
