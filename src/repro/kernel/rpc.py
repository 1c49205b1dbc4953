"""Request/reply messaging over channels.

``call`` is the synchronous RPC the DataLinks components use: send the
request (blocking until the peer's agent is ready to receive — faithful
to the paper, where a host agent's message send blocks while the DLFM
child agent is still busy) and wait for the reply. ``cast`` sends
without waiting for completion and returns the reply event — the
*asynchronous commit* mode whose distributed deadlock is experiment E6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.chaos.faults import DUP_KINDS
from repro.errors import ReproError, SimError
from repro.kernel.channel import Channel
from repro.kernel.sim import TIMEOUT, Event, Simulator, Timeout

#: 2PC verbs that are protocol-idempotent (the receiver answers
#: "already finished" on redelivery) and therefore legal targets for
#: duplicate-delivery injection.
IDEMPOTENT_VERBS = frozenset({"Commit", "Abort", "ListIndoubt"})


@dataclass
class Envelope:
    payload: Any
    reply: Event

    @property
    def nops(self) -> int:
        """Logical operations riding in this one physical message.

        A vectored payload (anything exposing an ``ops`` sequence, such
        as :class:`repro.dlfm.api.Batch`) counts each carried operation;
        a plain request counts 1. This is what the batching fast path
        optimises: many ops, one rendezvous.
        """
        ops = getattr(self.payload, "ops", None)
        return len(ops) if ops is not None else 1


def call(sim: Simulator, chan: Channel, payload: Any,
         timeout: Optional[float] = None):
    """Generator: synchronous RPC; re-raises the remote exception."""
    with sim.tracer.span("rpc.call", channel=chan.name,
                         request=type(payload).__name__,
                         nops=_payload_nops(payload)):
        reply = yield from cast(sim, chan, payload)
        return (yield from wait_reply(reply, timeout))


def cast(sim: Simulator, chan: Channel, payload: Any):
    """Generator: send the request; return the reply event immediately.

    The *send itself* still blocks until the peer agent issues a receive
    (rendezvous), which is exactly the hazard of asynchronous commit.
    A vectored payload changes nothing here: a Batch is still ONE
    blocking rendezvous, so the E6 deadlock preconditions are preserved.
    """
    reply = Event(sim, latch=True, name="rpc-reply")
    yield from chan.send(Envelope(payload, reply))
    verb = type(payload).__name__
    if sim.injector.enabled and verb in IDEMPOTENT_VERBS:
        rule = sim.injector.fire(f"rpc.dup:{verb}", DUP_KINDS)
        if rule is not None:
            # At-least-once transport: deliver the request a second time.
            # The duplicate carries its own reply event (a latched event
            # must not trigger twice); its outcome is discarded.
            shadow = Event(sim, latch=True, name="rpc-reply-dup")
            try:
                yield from chan.send(Envelope(payload, shadow))
            except ReproError:
                pass
    return reply


def _payload_nops(payload: Any) -> int:
    ops = getattr(payload, "ops", None)
    return len(ops) if ops is not None else 1


def gather_all(sim: Simulator, gens, *, workers: Optional[int] = None,
               name: str = "gather", return_exceptions: bool = False,
               fault_point: Optional[str] = None,
               fault_node: Optional[str] = None):
    """Generator: run ``gens`` concurrently and drain EVERY outcome.

    The one coordinator fan-out. ``workers=None`` spawns one process per
    generator; otherwise ``min(workers, len(gens))`` processes drain a
    shared ``(index, gen)`` iterator, so ``workers=1`` is the serial
    coordinator and a 32-participant commit occupies at most ``workers``
    concurrent processes. Results come back in ``gens`` order, and each
    failure is captured in place, so every outcome is consumed before
    this returns: no orphaned reply events, no unjoined-failure noise.
    With ``return_exceptions=False`` the first error (in ``gens`` order)
    is re-raised *after* the drain; with True the returned list carries
    the exception objects in place of results.

    ``fault_point``/``fault_node`` open a chaos window right after the
    spawn: a ``delay`` rule stalls the gatherer while the requests are
    in flight; a ``crash`` rule takes ``fault_node`` down mid-fan-out —
    the coordinator dies *between* scatter and gather, the window where
    parallel prepare leaves every participant in doubt at once. The
    crash is raised at once; the workers still finish the items they
    hold (capturing the outcomes nobody will read), but none starts a
    new one: a dead coordinator sends nothing new.
    """
    if workers is not None and workers < 1:
        raise SimError(f"fan-out {name} needs at least one worker")
    gens = list(gens)
    outcomes: list = [None] * len(gens)
    crashed = False

    def worker(items):
        for index, gen in items:
            try:
                outcomes[index] = yield from gen
            except Exception as error:  # incl. CrashedError: in place
                outcomes[index] = error
            if crashed:
                return

    if workers is None:
        queues = [iter([item]) for item in enumerate(gens)]
    else:
        queues = [iter(enumerate(gens))] * min(workers, len(gens))
    procs = [sim.spawn(worker(queue), f"{name}-{i}")
             for i, queue in enumerate(queues)]
    if fault_point is not None and sim.injector.enabled:
        try:
            rule = sim.injector.fire(fault_point, ("delay",))
            if rule is not None:
                yield Timeout(rule.delay)
            if fault_node is not None:
                sim.injector.maybe_crash(fault_point, fault_node)
        except ReproError:
            crashed = True
            raise
    for proc in procs:
        yield from proc.join()
    if not return_exceptions:
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
    return outcomes


def wait_reply(reply: Event, timeout: Optional[float] = None):
    """Generator: await a reply event from ``cast``."""
    outcome = yield reply.wait(timeout)
    if outcome is TIMEOUT:
        raise SimError("rpc reply timed out")
    kind, value = outcome
    if kind == "err":
        raise value
    return value


def serve_loop(chan: Channel, dispatch):
    """Generator: agent main loop — receive, dispatch, reply, repeat.

    ``dispatch`` is a generator callable(payload) → result. The loop ends
    when the channel closes. While a request is being processed the agent
    is NOT receiving, so further senders block (rendezvous) — the paper's
    message-send blocking behaviour.
    """
    from repro.chaos.faults import REPLY_KINDS
    from repro.errors import ChannelClosed, ReproError
    while True:
        try:
            envelope = yield from chan.recv()
        except ChannelClosed:
            return
        try:
            result = yield from dispatch(envelope.payload)
        except ReproError as error:
            outcome = ("err", error)
        else:
            outcome = ("ok", result)
        sim = chan.sim
        if sim.injector.enabled and sim.injector.fire(
                f"rpc.reply:{chan.name}", REPLY_KINDS) is not None:
            # Partition/heal: the request was delivered and fully
            # processed, but the reply is lost on the way back. The
            # caller is left hanging exactly as a healed network
            # partition would leave it — its state must be resolved by
            # re-drive (idempotent verbs) or the in-doubt poller.
            continue
        envelope.reply.trigger(outcome)
