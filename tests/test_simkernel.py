"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.simkernel import EventQueue, SeededRng, SimClock, Simulator

from tests.oracles import ListEventQueue


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_rewind_rejected(self):
        clock = SimClock(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_advance_by(self):
        clock = SimClock(1.0)
        clock.advance_by(0.5)
        assert clock.now == 1.5

    def test_negative_delta_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().advance_by(-0.1)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        queue = EventQueue()
        fired = []
        for i in range(5):
            queue.push(1.0, lambda i=i: fired.append(i))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        handle.cancel()
        assert queue.pop() is None

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        handle.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(4.0, lambda: None)
        assert queue.peek_time() == 4.0

    def test_rearm_reuses_the_handle(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is handle
        queue.rearm(handle, 2.0)
        # Re-armed after the 2.0 push, so it fires after it (FIFO on ties).
        assert (handle.time, len(queue)) == (2.0, 2)
        assert queue.pop() is not handle
        handle.cancel()
        assert queue.pop() is None

    @given(
        st.lists(
            st.one_of(
                # A small set of times, so (time, seq) ties are common.
                st.tuples(st.just("push"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                st.tuples(st.just("cancel"), st.integers(0, 40)),
                st.tuples(st.sampled_from(["pop", "peek", "len"]), st.none()),
            ),
            max_size=60,
        )
    )
    def test_matches_list_oracle(self, ops):
        """Push / cancel / pop / peek / len agree with a sorted list."""
        queue, oracle = EventQueue(), ListEventQueue()
        handles = []
        for op, arg in ops:
            if op == "push":
                label = len(handles)
                handles.append(
                    (queue.push(arg, lambda: label), oracle.push(arg, lambda: label))
                )
            elif op == "cancel" and handles:
                for handle in handles[arg % len(handles)]:
                    handle.cancel()
            elif op == "pop":
                event, expected = queue.pop(), oracle.pop()
                assert (event is None) == (expected is None)
                if event is not None:
                    assert (event.time, event.seq, event.action()) == (
                        expected.time, expected.seq, expected.action()
                    )
            elif op == "peek":
                assert queue.peek_time() == oracle.peek_time()
            elif op == "len":
                assert len(queue) == len(oracle)
        # Draining fires whatever is left in the same order.
        drained = [(e.time, e.seq, e.action()) for e in iter(queue.pop, None)]
        assert drained == [(e.time, e.seq, e.action()) for e in iter(oracle.pop, None)]


class TestSimulator:
    def test_run_drains_queue(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(2.0, lambda: fired.append(2))
        assert sim.run() == 2
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_after_schedules_relative(self):
        sim = Simulator(start=10.0)
        sim.after(5.0, lambda: None)
        sim.run()
        assert sim.now == 15.0

    def test_past_scheduling_rejected(self):
        sim = Simulator(start=5.0)
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.after(1.0, chain)

        sim.at(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_every_repeats(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), until=5.0)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_every_handle_cancels_series_after_first_tick(self):
        sim = Simulator()
        ticks = []
        handle = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.at(2.5, handle.cancel)
        sim.run(until=6.0)
        assert ticks == [1.0, 2.0]
        assert sim.pending == 0

    def test_every_cancelled_from_its_own_action(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                handle.cancel()

        handle = sim.every(0.5, tick)
        sim.run(until=5.0)
        assert ticks == [0.5, 1.0, 1.5]

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.at(float(i + 1), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending == 7

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.at(1.0, nested)
        sim.run()
        assert len(errors) == 1

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_events_fire_in_order_property(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(fired)


class TestSeededRng:
    def test_deterministic(self):
        a = SeededRng(42).uniform(size=10)
        b = SeededRng(42).uniform(size=10)
        assert (a == b).all()

    def test_children_independent_of_registration_order(self):
        root1 = SeededRng(1)
        x = root1.child("x").uniform(size=4)
        root2 = SeededRng(1)
        _ = root2.child("y").uniform(size=4)
        x2 = root2.child("x").uniform(size=4)
        assert (x == x2).all()

    def test_different_seeds_differ(self):
        assert not (
            SeededRng(1).uniform(size=8) == SeededRng(2).uniform(size=8)
        ).all()

    def test_child_differs_from_parent(self):
        root = SeededRng(3)
        child = root.child("c")
        assert not (
            SeededRng(3).uniform(size=8) == child.uniform(size=8)
        ).all()
