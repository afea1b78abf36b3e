"""Tests for the discrete-event simulation kernel (clock, scheduler, process, rng)."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.clock import HostClock, SimClock
from repro.sim.process import Process, ProcessState
from repro.sim.rng import RngRegistry, RngStream
from repro.sim.scheduler import Scheduler


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_cannot_go_backwards(self):
        clock = SimClock(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)


class TestHostClock:
    def test_reads_apply_offset_and_drift(self):
        sim = SimClock(10.0)
        host = HostClock(sim, offset=1.0, drift=0.1)
        assert host.read() == pytest.approx(1.0 + 11.0)

    def test_read_counter(self):
        host = HostClock(SimClock())
        host.read()
        host.read()
        assert host.reads == 2


class TestScheduler:
    def test_events_run_in_time_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.schedule_at(2.0, lambda: order.append("b"))
        scheduler.schedule_at(1.0, lambda: order.append("a"))
        scheduler.run_all()
        assert order == ["a", "b"]

    def test_ties_broken_by_insertion_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.schedule_at(1.0, lambda: order.append("first"))
        scheduler.schedule_at(1.0, lambda: order.append("second"))
        scheduler.run_all()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        scheduler = Scheduler()
        seen = []
        scheduler.schedule_at(4.0, lambda: seen.append(scheduler.clock.now))
        scheduler.run_all()
        assert seen == [4.0]

    def test_schedule_after(self):
        scheduler = Scheduler()
        scheduler.clock.advance_to(10.0)
        event = scheduler.schedule_after(5.0, lambda: None)
        assert event.time == 15.0

    def test_cannot_schedule_in_the_past(self):
        scheduler = Scheduler()
        scheduler.clock.advance_to(5.0)
        with pytest.raises(SchedulingError):
            scheduler.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Scheduler().schedule_after(-1.0, lambda: None)

    def test_cancelled_event_does_not_run(self):
        scheduler = Scheduler()
        ran = []
        event = scheduler.schedule_at(1.0, lambda: ran.append(1))
        event.cancel()
        scheduler.run_all()
        assert ran == []

    def test_run_until_stops_at_horizon(self):
        scheduler = Scheduler()
        ran = []
        scheduler.schedule_at(1.0, lambda: ran.append(1))
        scheduler.schedule_at(10.0, lambda: ran.append(2))
        executed = scheduler.run_until(5.0)
        assert executed == 1
        assert ran == [1]
        assert scheduler.clock.now == 5.0
        assert scheduler.pending == 1

    def test_run_until_advances_clock_even_without_events(self):
        scheduler = Scheduler()
        scheduler.run_until(7.0)
        assert scheduler.clock.now == 7.0

    def test_events_scheduled_during_run(self):
        scheduler = Scheduler()
        order = []

        def first():
            order.append("first")
            scheduler.schedule_after(1.0, lambda: order.append("nested"))

        scheduler.schedule_at(1.0, first)
        scheduler.run_all()
        assert order == ["first", "nested"]

    def test_events_run_counter(self):
        scheduler = Scheduler()
        for i in range(5):
            scheduler.schedule_at(float(i), lambda: None)
        scheduler.run_all()
        assert scheduler.events_run == 5

    def test_run_all_detects_runaway(self):
        scheduler = Scheduler()

        def reschedule():
            scheduler.schedule_after(0.1, reschedule)

        scheduler.schedule_at(0.0, reschedule)
        with pytest.raises(SchedulingError):
            scheduler.run_all(max_events=50)

    def test_peek_time_skips_cancelled(self):
        scheduler = Scheduler()
        event = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        event.cancel()
        assert scheduler.peek_time() == 2.0


class TestProcess:
    def test_periodic_ticks(self):
        scheduler = Scheduler()
        ticks = []
        process = Process(scheduler, period=1.0, on_tick=lambda: ticks.append(scheduler.clock.now))
        process.start(delay=1.0)
        scheduler.run_until(5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_cancels_future_ticks(self):
        scheduler = Scheduler()
        ticks = []
        process = Process(scheduler, period=1.0, on_tick=lambda: ticks.append(1))
        process.start(delay=1.0)
        scheduler.run_until(2.5)
        process.stop()
        scheduler.run_until(10.0)
        assert len(ticks) == 2
        assert process.state is ProcessState.STOPPED

    def test_double_start_rejected(self):
        process = Process(Scheduler(), period=1.0)
        process.start()
        with pytest.raises(SimulationError):
            process.start()

    def test_non_positive_period_rejected(self):
        with pytest.raises(SimulationError):
            Process(Scheduler(), period=0.0)

    def test_tick_counter(self):
        scheduler = Scheduler()
        process = Process(scheduler, period=0.5, on_tick=lambda: None)
        process.start(delay=0.0)
        scheduler.run_until(2.0)
        assert process.ticks == 5  # t = 0, 0.5, 1.0, 1.5, 2.0

    def test_process_can_stop_itself(self):
        scheduler = Scheduler()
        seen = []

        process = Process(scheduler, period=1.0)
        def tick():
            seen.append(1)
            if len(seen) == 3:
                process.stop()
        process._on_tick = tick
        process.start(delay=1.0)
        scheduler.run_until(20.0)
        assert len(seen) == 3


class TestRng:
    def test_same_seed_same_sequence(self):
        a = RngStream(seed=7)
        b = RngStream(seed=7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_registry_streams_are_stable(self):
        reg1 = RngRegistry(seed=3)
        reg2 = RngRegistry(seed=3)
        assert reg1.stream("x").random() == reg2.stream("x").random()

    def test_registry_streams_are_independent(self):
        reg = RngRegistry(seed=3)
        a = [reg.stream("a").random() for _ in range(3)]
        b = [reg.stream("b").random() for _ in range(3)]
        assert a != b

    def test_stream_returned_is_cached(self):
        reg = RngRegistry(seed=0)
        assert reg.stream("x") is reg.stream("x")
        assert "x" in reg

    def test_uniform_respects_bounds(self):
        stream = RngStream(seed=2)
        for _ in range(100):
            value = stream.uniform(3.0, 4.0)
            assert 3.0 <= value < 4.0

    def test_randint_respects_bounds(self):
        stream = RngStream(seed=2)
        values = {stream.randint(1, 3) for _ in range(100)}
        assert values <= {1, 2, 3}

    def test_choice_and_shuffle_deterministic(self):
        a, b = RngStream(seed=9), RngStream(seed=9)
        items_a, items_b = list(range(10)), list(range(10))
        a.shuffle(items_a)
        b.shuffle(items_b)
        assert items_a == items_b
        assert a.choice([1, 2, 3]) == b.choice([1, 2, 3])
