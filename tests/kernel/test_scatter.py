"""``gather_all``: the one bounded fan-out behind every 2PC coordinator
path, over ``rpc.call``/``rpc.cast`` generators."""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.errors import CrashedError, ReproError, SimError
from repro.host import HostConfig
from repro.kernel import Channel, Simulator, Timeout
from repro.kernel.rpc import call, cast, gather_all, serve_loop, wait_reply


def echo_server(sim, delay=0.0, name="server"):
    """A server that echoes payloads after ``delay``; a ReproError
    payload is raised remotely instead."""
    chan = Channel(sim)

    def dispatch(payload):
        if delay:
            yield Timeout(delay)
        if isinstance(payload, ReproError):
            raise payload
        return payload

    sim.spawn(serve_loop(chan, dispatch), name)
    return chan


def test_gather_all_runs_generators_concurrently():
    sim = Simulator()

    def worker(i):
        yield Timeout(5.0)
        return i

    def root():
        results = yield from gather_all(sim, [worker(i) for i in range(4)])
        return results, sim.now

    results, now = sim.run_process(root())
    assert results == [0, 1, 2, 3]   # in gens order, not finish order
    assert now == 5.0                # 4 workers overlapped, not 20s


def calls(sim, pairs):
    """One ``rpc.call`` generator per ``(channel, payload)`` pair."""
    return [call(sim, chan, payload) for chan, payload in pairs]


def test_scatter_overlaps_rpcs():
    sim = Simulator()
    chans = [echo_server(sim, delay=2.0, name=f"s{i}") for i in range(3)]

    def root():
        replies = yield from gather_all(
            sim, calls(sim, [(chan, f"req{i}")
                             for i, chan in enumerate(chans)]))
        return replies, sim.now

    replies, now = sim.run_process(root())
    assert replies == ["req0", "req1", "req2"]
    assert now == 2.0  # one round-trip, not three


def test_scatter_first_error_raised_after_full_drain():
    """One participant fails fast; the error only surfaces once every
    other reply has been consumed (no orphaned reply events)."""
    sim = Simulator()
    fast_fail = echo_server(sim, delay=1.0, name="bad")
    slow_ok = echo_server(sim, delay=6.0, name="slow")

    def root():
        with pytest.raises(ReproError, match="vote-no"):
            yield from gather_all(
                sim, calls(sim, [(slow_ok, "a"),
                                 (fast_fail, ReproError("vote-no")),
                                 (slow_ok, "c")]))
        return sim.now

    # slow_ok serves its two requests back to back: 6s + 6s.
    assert sim.run_process(root()) == 12.0
    assert sim.consume_failures() == []  # failures consumed, not leaked


def test_scatter_return_exceptions_reports_which_failed():
    sim = Simulator()
    good = echo_server(sim, name="good")
    bad = echo_server(sim, name="bad")

    def root():
        replies = yield from gather_all(
            sim, calls(sim, [(good, "ok"), (bad, ReproError("boom"))]),
            return_exceptions=True)
        return replies

    replies = sim.run_process(root())
    assert replies[0] == "ok"
    assert isinstance(replies[1], ReproError)
    assert sim.consume_failures() == []


def test_cast_fan_out_returns_after_sends_not_replies():
    """The E6 fan-out: control returns once every agent has RECEIVED its
    request; the replies are still outstanding."""
    sim = Simulator()
    chans = [echo_server(sim, delay=3.0, name=f"s{i}") for i in range(2)]

    def root():
        replies = yield from gather_all(
            sim, [cast(sim, chan, f"r{i}") for i, chan in enumerate(chans)])
        sent_at = sim.now
        results = []
        for reply in replies:
            results.append((yield from wait_reply(reply)))
        return sent_at, results, sim.now

    sent_at, results, done_at = sim.run_process(root())
    assert sent_at == 0.0       # idle agents rendezvous immediately
    assert results == ["r0", "r1"]
    assert done_at == 3.0


def test_join_after_unwaited_failure_absolves():
    """A process that dies before anyone waits on it is recorded as an
    unhandled failure; consuming the outcome later forgives it."""
    sim = Simulator()

    def boom():
        raise ReproError("early death")
        yield  # pragma: no cover

    proc = sim.spawn(boom(), "boom")

    def waiter():
        yield Timeout(1.0)  # proc finalizes with no waiter first
        with pytest.raises(ReproError, match="early death"):
            yield from proc.join()
        return True

    # run_process would raise SimError if the failure were still pending.
    assert sim.run_process(waiter()) is True
    assert sim.consume_failures() == []


def test_delay_fault_stalls_the_gather_window():
    plan = FaultPlan([FaultRule("fan.test", "delay", prob=1.0,
                                max_fires=1, delay=7.0)], name="t")
    sim = Simulator(injector=FaultInjector(plan))
    chans = [echo_server(sim, delay=2.0, name=f"s{i}") for i in range(2)]

    def root():
        replies = yield from gather_all(
            sim, calls(sim, [(chan, i) for i, chan in enumerate(chans)]),
            fault_point="fan.test")
        return replies, sim.now

    replies, now = sim.run_process(root())
    assert replies == [0, 1]
    assert now == 7.0  # the injected stall dominates the 2s round-trip


def test_crash_fault_in_window_drains_outstanding_replies():
    """The coordinator dies between scatter and gather: the error
    surfaces immediately and the workers consume the replies the
    gatherer will never collect."""
    plan = FaultPlan([FaultRule("fan.test", "crash", prob=1.0,
                                max_fires=1)], name="t")
    sim = Simulator(injector=FaultInjector(plan))
    chans = [echo_server(sim, delay=4.0, name=f"s{i}") for i in range(3)]

    def root():
        with pytest.raises(CrashedError):
            yield from gather_all(
                sim, calls(sim, [(chan, i) for i, chan in enumerate(chans)]),
                fault_point="fan.test", fault_node="host-db")
        return sim.now

    assert sim.run_process(root()) == 0.0  # crash beat every reply
    sim.run()  # let the workers finish the in-flight requests
    assert sim.consume_failures() == []


def test_bounded_workers_share_the_generators_in_order():
    """Two workers over four 5 s generators: two rounds, 10 s, and the
    results still come back in ``gens`` order, not finish order."""
    sim = Simulator()
    started = []

    def worker(i, delay):
        started.append((i, sim.now))
        yield Timeout(delay)
        return i

    def root():
        results = yield from gather_all(
            sim, [worker(i, 5.0) for i in range(4)], workers=2)
        return results, sim.now

    results, now = sim.run_process(root())
    assert results == [0, 1, 2, 3]
    assert now == 10.0
    assert started == [(0, 0.0), (1, 0.0), (2, 5.0), (3, 5.0)]


def test_one_worker_is_the_serial_coordinator():
    """``workers=1`` runs the RPCs back to back; a failure is captured in
    place and the next item still runs."""
    sim = Simulator()
    chans = [echo_server(sim, delay=2.0, name=f"s{i}") for i in range(3)]

    def root():
        replies = yield from gather_all(
            sim, calls(sim, [(chans[0], "a"), (chans[1], ReproError("no")),
                             (chans[2], "c")]),
            workers=1, return_exceptions=True)
        return replies, sim.now

    replies, now = sim.run_process(root())
    assert replies[0] == "a" and replies[2] == "c"
    assert isinstance(replies[1], ReproError)
    assert now == 6.0  # three round-trips, one after another
    assert sim.consume_failures() == []


def test_crash_with_one_worker_starts_no_further_item():
    """A dead coordinator sends nothing new: the one worker finishes the
    item it holds and stops; the other two requests are never sent."""
    plan = FaultPlan([FaultRule("fan.test", "crash", prob=1.0,
                                max_fires=1)], name="t")
    sim = Simulator(injector=FaultInjector(plan))
    served = []

    def dispatch(payload):
        served.append(payload)
        yield Timeout(1.0)
        return payload

    chan = Channel(sim)
    sim.spawn(serve_loop(chan, dispatch), "server")

    def root():
        with pytest.raises(CrashedError):
            yield from gather_all(
                sim, calls(sim, [(chan, i) for i in range(3)]), workers=1,
                fault_point="fan.test", fault_node="host-db")

    sim.run_process(root())
    sim.run()
    assert served == [0]
    assert sim.consume_failures() == []


def test_worker_count_must_be_positive():
    sim = Simulator()

    def root():
        yield from gather_all(sim, [], workers=0)

    with pytest.raises(SimError):
        sim.run_process(root())
    for bad in (0, -1):
        with pytest.raises(ValueError):
            HostConfig(fanout_workers=bad)
