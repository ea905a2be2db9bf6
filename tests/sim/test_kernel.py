"""Simulator kernel: ordering, cancellation, recurrence, determinism."""

import pytest

from repro.sim.kernel import ScheduleError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator(seed=0)
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_ties_break_by_insertion():
    sim = Simulator(seed=0)
    order = []
    for tag in "abcde":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_negative_delay_rejected():
    sim = Simulator(seed=0)
    with pytest.raises(ScheduleError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator(seed=0)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator(seed=0)
    hits = []
    ev = sim.schedule(1.0, hits.append, "x")
    ev.cancel()
    sim.run()
    assert hits == []


def test_run_until_is_inclusive_and_advances_clock():
    sim = Simulator(seed=0)
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(2.0, hits.append, 2)
    sim.run(until=1.0)
    assert hits == [1]
    assert sim.now == 1.0
    sim.run(until=5.0)
    assert hits == [1, 2]
    assert sim.now == 5.0  # clock advances even though queue drained at 2.0


def test_run_for_composes():
    sim = Simulator(seed=0)
    hits = []
    sim.schedule(0.5, hits.append, "a")
    sim.schedule(1.5, hits.append, "b")
    sim.run_for(1.0)
    assert hits == ["a"]
    sim.run_for(1.0)
    assert hits == ["a", "b"]


def test_events_scheduled_during_run_execute():
    sim = Simulator(seed=0)
    hits = []

    def first():
        hits.append("first")
        sim.schedule(1.0, hits.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert hits == ["first", "second"]
    assert sim.now == 2.0


def test_call_soon_runs_at_current_time_after_queued():
    sim = Simulator(seed=0)
    hits = []

    def at_one():
        sim.call_soon(hits.append, "soon")
        hits.append("now")

    sim.schedule(1.0, at_one)
    sim.run()
    assert hits == ["now", "soon"]
    assert sim.now == 1.0


def test_every_recurs_and_stop_halts():
    sim = Simulator(seed=0)
    hits = []
    stop = sim.every(1.0, lambda: hits.append(sim.now))
    sim.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    stop()
    sim.run(until=10.0)
    assert hits == [1.0, 2.0, 3.0]


def test_every_until_bound():
    sim = Simulator(seed=0)
    hits = []
    sim.every(1.0, lambda: hits.append(sim.now), until=2.5)
    sim.run(until=10.0)
    assert hits == [1.0, 2.0]


def test_every_until_is_inclusive_at_exact_boundary():
    sim = Simulator(seed=0)
    hits = []
    sim.every(1.0, lambda: hits.append(sim.now), until=3.0)
    sim.run()
    assert hits == [1.0, 2.0, 3.0]  # the firing landing exactly at until runs


def test_every_never_arms_an_event_past_until():
    """A bounded recurrence must not drag the clock beyond its bound."""
    sim = Simulator(seed=0)
    hits = []
    sim.every(1.0, lambda: hits.append(sim.now), until=2.5)
    sim.run()  # unbounded run: only armed events advance the clock
    assert hits == [1.0, 2.0]
    assert sim.now == 2.0  # no ghost event at 3.0
    assert sim.pending == 0


def test_every_stop_cancels_already_armed_event():
    sim = Simulator(seed=0)
    hits = []
    stop = sim.every(1.0, lambda: hits.append(sim.now))
    stop()  # the t=1.0 firing is armed but must never run
    sim.run()
    assert hits == []
    assert sim.now == 0.0  # the cancelled event didn't advance the clock


def test_every_stop_from_inside_callback():
    sim = Simulator(seed=0)
    hits = []
    holder = {}

    def tick():
        hits.append(sim.now)
        if len(hits) == 2:
            holder["stop"]()

    holder["stop"] = sim.every(1.0, tick)
    sim.run(until=10.0)
    assert hits == [1.0, 2.0]


def test_max_events_bounds_run():
    sim = Simulator(seed=0)
    hits = []
    for i in range(10):
        sim.schedule(float(i + 1), hits.append, i)
    sim.run(max_events=4)
    assert hits == [0, 1, 2, 3]


def test_step_returns_false_when_drained():
    sim = Simulator(seed=0)
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_determinism_same_seed_same_trace():
    def run(seed):
        sim = Simulator(seed=seed)
        out = []
        for _ in range(50):
            sim.schedule(sim.rng.uniform(0, 10), out.append, sim.rng.randint(0, 99))
        sim.run()
        return out

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_events_dispatched_counter():
    for n in (5, 10_000):
        sim = Simulator(seed=0)
        for i in range(n):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_dispatched == n
