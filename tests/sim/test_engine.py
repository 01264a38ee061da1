"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import EventQueue


class TestScheduling:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        log = []
        queue.schedule(30, lambda: log.append("c"))
        queue.schedule(10, lambda: log.append("a"))
        queue.schedule(20, lambda: log.append("b"))
        queue.run()
        assert log == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        queue = EventQueue()
        log = []
        for name in "abc":
            queue.schedule(5, lambda n=name: log.append(n))
        queue.run()
        assert log == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        queue = EventQueue()
        log = []
        queue.schedule(5, lambda: log.append("late"), priority=1)
        queue.schedule(5, lambda: log.append("early"), priority=0)
        queue.run()
        assert log == ["early", "late"]

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        queue.schedule(10, lambda: queue.schedule(5, lambda: None))
        with pytest.raises(ValueError):
            queue.run()

    def test_next_event_time(self):
        queue = EventQueue()
        assert queue.next_event_time() is None
        queue.schedule(20, lambda: None)
        queue.schedule(10, lambda: None)
        assert queue.next_event_time() == 10
        queue.run()
        assert queue.next_event_time() is None


class TestRunLimits:
    def test_clock_advances(self):
        queue = EventQueue()
        queue.schedule(42, lambda: None)
        queue.run()
        assert queue.now == 42

    def test_events_scheduling_events(self):
        queue = EventQueue()
        counter = []

        def tick():
            if len(counter) < 5:
                counter.append(queue.now)
                queue.schedule(queue.now + 10, tick)

        queue.schedule(0, tick)
        queue.run()
        assert counter == [0, 10, 20, 30, 40]
