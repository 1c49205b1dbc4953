"""Unit tests for the discrete-event kernel: clock, processes, events."""

import pytest

from repro.errors import SimError
from repro.kernel import TIMEOUT, Event, Simulator, Timeout, run_to_completion


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield Timeout(5.0)
        return sim.now

    assert sim.run_process(proc()) == 5.0
    assert sim.now == 5.0


def test_timeouts_interleave_in_time_order():
    sim = Simulator()
    trace = []

    def proc(name, delay):
        yield Timeout(delay)
        trace.append((name, sim.now))

    sim.spawn(proc("b", 2.0))
    sim.spawn(proc("a", 1.0))
    sim.run()
    assert trace == [("a", 1.0), ("b", 2.0)]


def test_equal_time_events_fire_in_schedule_order():
    sim = Simulator()
    trace = []

    def proc(name):
        yield Timeout(1.0)
        trace.append(name)

    for name in "abc":
        sim.spawn(proc(name))
    sim.run()
    assert trace == ["a", "b", "c"]


def test_run_until_stops_clock_and_leaves_future_work():
    sim = Simulator()
    fired = []

    def proc():
        yield Timeout(10.0)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert fired == []
    sim.run()
    assert fired == [10.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.after(-1.0, lambda: None)


def test_event_trigger_wakes_waiter_with_value():
    sim = Simulator()
    ev = Event(sim)
    got = []

    def waiter():
        got.append((yield ev.wait()))

    def firer():
        yield Timeout(2.0)
        ev.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == ["payload"]
    assert sim.now == 2.0


def test_event_trigger_wakes_all_waiters():
    sim = Simulator()
    ev = Event(sim)
    got = []

    def waiter(i):
        got.append((i, (yield ev.wait())))

    def firer():
        yield Timeout(1.0)
        ev.trigger(7)

    for i in range(3):
        sim.spawn(waiter(i))
    sim.spawn(firer())
    sim.run()
    assert got == [(0, 7), (1, 7), (2, 7)]


def test_event_wait_timeout_returns_sentinel():
    sim = Simulator()
    ev = Event(sim)

    def waiter():
        result = yield ev.wait(timeout=4.0)
        return result

    assert sim.run_process(waiter()) is TIMEOUT
    assert sim.now == 4.0


def test_timed_out_waiter_not_woken_by_later_trigger():
    sim = Simulator()
    ev = Event(sim)
    resumes = []

    def waiter():
        resumes.append((yield ev.wait(timeout=1.0)))

    def firer():
        yield Timeout(5.0)
        ev.trigger("late")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert resumes == [TIMEOUT]


def test_trigger_before_timeout_cancels_timer():
    sim = Simulator()
    ev = Event(sim)

    def waiter():
        return (yield ev.wait(timeout=100.0))

    def firer():
        yield Timeout(1.0)
        ev.trigger("fast")

    proc = sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert proc.result == "fast"
    assert sim.now == 1.0  # the 100 s timer did not keep the sim alive


def test_latched_event_returns_immediately_to_late_waiter():
    sim = Simulator()
    ev = Event(sim, latch=True)
    ev.trigger(42)

    def waiter():
        return (yield ev.wait())

    assert sim.run_process(waiter()) == 42


def test_latched_event_double_trigger_is_error():
    sim = Simulator()
    ev = Event(sim, latch=True)
    ev.trigger(1)
    with pytest.raises(SimError):
        ev.trigger(2)


def test_process_join_returns_result():
    sim = Simulator()

    def child():
        yield Timeout(3.0)
        return "done"

    def parent():
        proc = sim.spawn(child())
        result = yield from proc.join()
        return result, sim.now

    assert sim.run_process(parent()) == ("done", 3.0)


def test_process_join_reraises_child_error():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        raise ValueError("boom")

    def parent():
        proc = sim.spawn(child())
        with pytest.raises(ValueError):
            yield from proc.join()
        return "caught"

    assert sim.run_process(parent()) == "caught"


def test_unjoined_process_failure_raises_from_run():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        raise ValueError("unobserved")

    sim.spawn(child())
    with pytest.raises(SimError):
        sim.run()


def test_run_raise_failures_false_collects():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        raise ValueError("collected")

    sim.spawn(child())
    sim.run(raise_failures=False)
    failures = sim.consume_failures()
    assert len(failures) == 1
    assert isinstance(failures[0][1], ValueError)


def test_kill_stops_process_without_error():
    sim = Simulator()
    ticks = []

    def daemon():
        while True:
            yield Timeout(1.0)
            ticks.append(sim.now)

    proc = sim.spawn(daemon())
    sim.run(until=3.5)
    proc.kill()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]
    assert not sim.consume_failures()


def test_yield_from_composes_subgenerators():
    sim = Simulator()

    def inner():
        yield Timeout(2.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert sim.run_process(outer()) == 20
    assert sim.now == 4.0


def test_bad_yield_value_fails_process():
    sim = Simulator()

    def proc():
        yield "not a timeout"

    sim.spawn(proc())
    with pytest.raises(SimError):
        sim.run()


def test_rng_streams_are_deterministic_and_independent():
    a1 = Simulator(seed=7).stream("clients").random()
    a2 = Simulator(seed=7).stream("clients").random()
    b = Simulator(seed=7).stream("daemons").random()
    c = Simulator(seed=8).stream("clients").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_stream_is_cached_per_name():
    sim = Simulator()
    assert sim.stream("x") is sim.stream("x")


def test_run_to_completion_helper():
    def root(sim):
        yield Timeout(1.0)
        return sim.now

    assert run_to_completion(root) == 1.0


def test_timer_cancel():
    sim = Simulator()
    fired = []
    timer = sim.after(5.0, lambda: fired.append(True))
    timer.cancel()
    sim.run()
    assert fired == []


def test_throw_injects_exception_at_suspension():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield Timeout(100.0)
        except RuntimeError as exc:
            caught.append(str(exc))

    proc = sim.spawn(victim())
    sim.run(until=1.0)
    proc.throw(RuntimeError("injected"))
    sim.run()
    assert caught == ["injected"]
