"""Property tests for the discrete-event engine."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import EventQueue


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 3)), max_size=40))
def test_events_fire_in_time_then_priority_then_fifo_order(schedule):
    """For any schedule, firing order is the stable sort by
    (time, priority, insertion order)."""
    queue = EventQueue()
    fired = []
    for index, (time, priority) in enumerate(schedule):
        queue.schedule(
            time,
            lambda i=index: fired.append(i),
            priority=priority,
        )
    queue.run()
    expected = [
        index
        for index, _ in sorted(
            enumerate(schedule), key=lambda pair: (pair[1][0], pair[1][1], pair[0])
        )
    ]
    assert fired == expected


@given(st.lists(st.integers(0, 500), min_size=1, max_size=30))
def test_clock_is_monotone(times):
    queue = EventQueue()
    observed = []
    for time in times:
        queue.schedule(time, lambda: observed.append(queue.now))
    queue.run()
    assert observed == sorted(observed)
    assert queue.now == max(times)


@given(st.integers(1, 8), st.integers(1, 30))
def test_self_rescheduling_chain_terminates(step, count):
    """An event chain rescheduling itself N times fires exactly N times."""
    queue = EventQueue()
    fired = []

    def tick():
        fired.append(queue.now)
        if len(fired) < count:
            queue.schedule(queue.now + step, tick)

    queue.schedule(0, tick)
    queue.run()
    assert fired == [i * step for i in range(count)]
