"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule(30, lambda: fired.append("c"))
    eng.schedule(10, lambda: fired.append("a"))
    eng.schedule(20, lambda: fired.append("b"))
    eng.run()
    assert fired == ["a", "b", "c"]
    assert eng.now == 30


def test_same_time_events_fire_in_schedule_order():
    eng = Engine()
    fired = []
    for tag in range(5):
        eng.schedule(7, lambda t=tag: fired.append(t))
    eng.run()
    assert fired == [0, 1, 2, 3, 4]


def test_zero_delay_runs_after_current_cycle_events():
    eng = Engine()
    fired = []
    eng.schedule(0, lambda: fired.append(1))
    eng.schedule_call(0, fired.append, 2)
    eng.run()
    assert fired == [1, 2]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    eng = Engine()
    fired = []
    event = eng.schedule(5, lambda: fired.append("x"))
    event.cancel()
    eng.schedule(6, lambda: fired.append("y"))
    eng.run()
    assert fired == ["y"]


def test_run_until_stops_the_clock():
    eng = Engine()
    fired = []
    eng.schedule(100, lambda: fired.append("late"))
    eng.run(until=50)
    assert fired == []
    assert eng.now == 50
    eng.run()
    assert fired == ["late"]
    assert eng.now == 100


def test_events_scheduled_during_run_are_processed():
    eng = Engine()
    fired = []

    def first():
        fired.append("first")
        eng.schedule(5, lambda: fired.append("second"))

    eng.schedule(1, first)
    eng.run()
    assert fired == ["first", "second"]
    assert eng.now == 6


def test_run_max_events_guard():
    eng = Engine()

    def rearm():
        eng.schedule(1, rearm)

    eng.schedule(1, rearm)
    eng.run(max_events=10)
    assert eng.events_processed == 10


def test_pending_counts_only_live_events():
    eng = Engine()
    keep = eng.schedule(5, lambda: None)
    drop = eng.schedule(5, lambda: None)
    drop.cancel()
    assert eng.pending == 1
    keep.cancel()
    assert eng.pending == 0


def test_step_processes_one_event():
    eng = Engine()
    fired = []
    eng.schedule(1, lambda: fired.append(1))
    eng.schedule(2, lambda: fired.append(2))
    assert eng.step()
    assert fired == [1]
    assert eng.step()
    assert not eng.step()


def test_run_not_reentrant():
    eng = Engine()

    def recurse():
        eng.run()

    eng.schedule(1, recurse)
    with pytest.raises(SimulationError):
        eng.run()
