"""Declarative, deterministic fault injection.

A :class:`FaultPlan` is a JSON-serializable list of :class:`FaultRule`
entries. Each rule names an **injection point** (fnmatch glob), a fault
*kind*, and firing discipline (skip the first N matches, fire at most M
times, fire with probability p). The injection points wired into the
stack:

========================== ========================= =====================
point                      kinds                     wired into
========================== ========================= =====================
``channel.send:<chan>``    drop, delay               kernel channel send
``rpc.dup:<Verb>``         dup                       idempotent 2PC verbs
``fs.<op>:<server>``       io_error                  create/read/write/
                                                     delete/rename/stat
``wal.force.before:<db>``  crash                     record appended, not
                                                     yet durable
``wal.force.after:<db>``   crash                     durable, ack lost
``wal.group:leader:<db>``  crash                     group-commit leader
                                                     between window expiry
                                                     and the shared force:
                                                     every member's record
                                                     is in the unforced
                                                     tail, none may ack
``lock.acquire:<db>``      lock_timeout,             forced victim at
                           lock_deadlock             lock-manager entry
``daemon.pass:<node>:<d>`` crash                     daemon pass entry
                                                     (copyd, gcd, delgrpd)
``daemon.worker:<node>:<d>`` crash                   pool-worker item
                                                     pickup (copyd,
                                                     retrieved, delgrpd):
                                                     after the claim/
                                                     dispatch, before the
                                                     work; for ``merged``,
                                                     after a merge pass
                                                     folded version chains
                                                     (all in memory,
                                                     nothing durable —
                                                     recovery must rebuild
                                                     the chains from WAL)
``rpc.reply:<chan>``       partition                 agent serve loop:
                                                     request delivered and
                                                     processed, REPLY
                                                     dropped (network
                                                     partition healing
                                                     after the work) —
                                                     the caller must
                                                     re-drive or resolve
                                                     via the in-doubt
                                                     poller
``twopc.fanout:<phase>``   delay, crash              2PC coordinator
                                                     scatter→gather window
                                                     (phase ``prepare`` or
                                                     ``phase2``): requests
                                                     in flight to every
                                                     participant, replies
                                                     not yet gathered;
                                                     crash node is the
                                                     host database
``twopc.forget:<db>``      crash                     coordinator forget of
                                                     a fully-acknowledged
                                                     decision appended but
                                                     left unforced (lazy
                                                     presumed-abort end
                                                     record): the crash
                                                     loses it and the
                                                     in-doubt resolver
                                                     re-drives the Commit
``shard.move:<step>``      crash                     online rebalancing
                                                     (repro.shard): after
                                                     ``exported`` (source
                                                     marked moving-out),
                                                     ``imported`` (both
                                                     sides staged) and
                                                     ``mapped`` (catalog
                                                     row flipped, decision
                                                     not yet durable);
                                                     crash node is the
                                                     host database
========================== ========================= =====================

Determinism: every probabilistic decision draws from a per-rule RNG
stream ``sim.stream("chaos:<rule_id>")``, so removing one rule from a
plan (shrinking) does not perturb the draws of the remaining rules.

Zero cost when disabled: the simulator carries :data:`NULL_INJECTOR`
(class attribute ``enabled = False``) by default and every call site
guards with ``if sim.injector.enabled:`` — the same pattern as
``NullTracer``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Optional

from repro.errors import CrashedError, ReproError, TransientIOError

#: Every fault kind a rule may carry.
KINDS = ("drop", "delay", "dup", "io_error", "lock_timeout",
         "lock_deadlock", "crash", "partition")

#: Kind groups the call sites ask for.
IO_KINDS = ("io_error",)
LOCK_KINDS = ("lock_timeout", "lock_deadlock")
CRASH_KINDS = ("crash",)
SEND_KINDS = ("drop", "delay")
DUP_KINDS = ("dup",)
#: Partition/heal: the request got through, the reply does not.
REPLY_KINDS = ("partition",)


class FaultPlanError(ReproError):
    """A fault plan failed validation or (de)serialization."""


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: where, what, and how often.

    ``skip`` counts *matching arrivals* before the rule becomes eligible;
    ``max_fires`` bounds actual firings (None → unbounded); ``prob``
    gates each eligible arrival through the rule's RNG stream. ``delay``
    is only meaningful for kind ``delay`` (seconds of added latency).
    """

    point: str
    kind: str
    prob: float = 1.0
    max_fires: Optional[int] = 1
    skip: int = 0
    delay: float = 0.0
    rule_id: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if not self.point:
            raise FaultPlanError("fault rule needs a non-empty point")
        if not 0.0 <= self.prob <= 1.0:
            raise FaultPlanError(f"prob {self.prob!r} outside [0, 1]")
        if self.skip < 0:
            raise FaultPlanError(f"negative skip {self.skip!r}")
        if self.delay < 0:
            raise FaultPlanError(f"negative delay {self.delay!r}")
        if self.max_fires is not None and self.max_fires < 0:
            raise FaultPlanError(f"negative max_fires {self.max_fires!r}")

    def matches(self, point: str) -> bool:
        return self.point == point or fnmatchcase(point, self.point)

    def to_doc(self) -> dict:
        return {"point": self.point, "kind": self.kind, "prob": self.prob,
                "max_fires": self.max_fires, "skip": self.skip,
                "delay": self.delay, "rule_id": self.rule_id}

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultRule":
        try:
            return cls(point=doc["point"], kind=doc["kind"],
                       prob=float(doc.get("prob", 1.0)),
                       max_fires=doc.get("max_fires", 1),
                       skip=int(doc.get("skip", 0)),
                       delay=float(doc.get("delay", 0.0)),
                       rule_id=str(doc.get("rule_id", "")))
        except (KeyError, TypeError, ValueError) as error:
            raise FaultPlanError(f"bad fault rule {doc!r}: {error}")


@dataclass
class FaultPlan:
    """An ordered collection of fault rules (first matching rule wins)."""

    rules: list[FaultRule] = field(default_factory=list)
    name: str = "plan"

    def with_ids(self) -> "FaultPlan":
        """A copy where every rule has a stable, unique ``rule_id``.

        Default ids are derived from (kind, point) plus a disambiguating
        ordinal among same-shaped rules — NOT from list position, so
        dropping an unrelated rule during shrinking leaves the ids (and
        therefore the RNG streams) of the survivors untouched.
        """
        used: dict[str, int] = {}
        rules = []
        for rule in self.rules:
            rid = rule.rule_id
            if not rid:
                base = f"{rule.kind}@{rule.point}"
                ordinal = used.get(base, 0)
                used[base] = ordinal + 1
                rid = base if ordinal == 0 else f"{base}#{ordinal + 1}"
            if rid in {r.rule_id for r in rules}:
                raise FaultPlanError(f"duplicate rule_id {rid!r}")
            rules.append(replace(rule, rule_id=rid))
        return FaultPlan(rules=rules, name=self.name)

    def to_doc(self) -> dict:
        return {"name": self.name,
                "rules": [rule.to_doc() for rule in self.rules]}

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict) or "rules" not in doc:
            raise FaultPlanError(f"fault plan document needs 'rules': {doc!r}")
        return cls(rules=[FaultRule.from_doc(r) for r in doc["rules"]],
                   name=str(doc.get("name", "plan")))

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except ValueError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}")
        return cls.from_doc(doc)


class NullInjector:
    """Do-nothing injector installed on every simulator by default.

    ``enabled`` is False as a *class* attribute, so the guard
    ``if sim.injector.enabled:`` at each call site costs two attribute
    loads and nothing else — the NullTracer discipline.
    """

    enabled = False

    def bind(self, sim) -> None:
        pass

    def register_crash(self, node: str, crash_fn) -> None:
        pass

    def fire(self, point: str, kinds) -> Optional[FaultRule]:
        return None

    def fs_check(self, point: str, path: str = "") -> None:
        pass

    def maybe_crash(self, point: str, node: str) -> None:
        pass


NULL_INJECTOR = NullInjector()


class FaultInjector(NullInjector):
    """Evaluates a :class:`FaultPlan` at the wired injection points.

    The campaign flips :attr:`enabled` off around setup, recovery,
    quiesce, and invariant checking so an unbounded probabilistic rule
    cannot starve the very recovery it is meant to exercise.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan.with_ids()
        self.enabled = True          # instance attr shadows the class's False
        self.fired: list[dict] = []  # deterministic schedule of firings
        self.crashes: list[dict] = []
        self._sim = None
        self._crash_fns: dict[str, object] = {}
        self._seen: dict[str, int] = {}
        self._fires: dict[str, int] = {}

    def bind(self, sim) -> None:
        self._sim = sim

    def register_crash(self, node: str, crash_fn) -> None:
        """Register the callable that crashes ``node`` (a db name)."""
        self._crash_fns[node] = crash_fn

    # -- the hot path ---------------------------------------------------------

    def fire(self, point: str, kinds) -> Optional[FaultRule]:
        """First rule of a matching kind that decides to fire, else None."""
        for rule in self.plan.rules:
            if rule.kind not in kinds or not rule.matches(point):
                continue
            rid = rule.rule_id
            fires = self._fires.get(rid, 0)
            if rule.max_fires is not None and fires >= rule.max_fires:
                continue
            seen = self._seen.get(rid, 0)
            self._seen[rid] = seen + 1
            if seen < rule.skip:
                continue
            if rule.prob < 1.0:
                rng = self._sim.stream(f"chaos:{rid}")
                if rng.random() >= rule.prob:
                    continue
            self._fires[rid] = fires + 1
            self.fired.append({"t": round(self._sim.now, 9), "point": point,
                               "kind": rule.kind, "rule": rid})
            self._sim.tracer.event("chaos.fault", point=point,
                                   kind=rule.kind, rule=rid)
            return rule
        return None

    # -- call-site helpers ----------------------------------------------------

    def fs_check(self, point: str, path: str = "") -> None:
        """Raise a transient I/O error if a rule fires at ``point``."""
        if self.fire(point, IO_KINDS) is not None:
            raise TransientIOError(f"injected I/O error at {point} ({path})")

    def maybe_crash(self, point: str, node: str) -> None:
        """Crash ``node`` (whole-process crash semantics) if a rule fires."""
        rule = self.fire(point, CRASH_KINDS)
        if rule is None:
            return
        self.crashes.append({"t": round(self._sim.now, 9), "node": node,
                             "point": point})
        crash_fn = self._crash_fns.get(node)
        if crash_fn is not None:
            crash_fn()
        raise CrashedError(f"injected crash of {node} at {point}")


def default_plan(seed: int = 0) -> FaultPlan:
    """The stock campaign plan: a little of everything, probabilistic.

    Rates are low enough that most operations succeed (so the workload
    makes progress and quiesce converges) but high enough that every
    injection-point family fires over a few hundred operations.
    """
    return FaultPlan(name=f"default-{seed}", rules=[
        FaultRule("channel.send:dlfm-agent", "drop", prob=0.02,
                  max_fires=None),
        FaultRule("channel.send:chownd", "drop", prob=0.01, max_fires=None),
        FaultRule("channel.send:dlfm-agent", "delay", prob=0.05,
                  max_fires=None, delay=0.25),
        FaultRule("rpc.dup:Commit", "dup", prob=0.05, max_fires=None),
        FaultRule("rpc.dup:Abort", "dup", prob=0.05, max_fires=None),
        # Partition/heal: the DLFM agent processes a request but its
        # reply is lost. The caller wedges until the round budget kills
        # it; quiesce's in-doubt poller then re-drives the idempotent
        # outcome against the healed (possibly restarted) shard.
        FaultRule("rpc.reply:dlfm-agent", "partition", prob=0.01,
                  max_fires=2),
        FaultRule("fs.create:*", "io_error", prob=0.01, max_fires=None),
        FaultRule("fs.stat:*", "io_error", prob=0.01, max_fires=None),
        FaultRule("lock.acquire:dlfm-*", "lock_timeout", prob=0.01,
                  max_fires=None),
        FaultRule("lock.acquire:dlfm-*", "lock_deadlock", prob=0.005,
                  max_fires=None),
        FaultRule("wal.force.before:dlfm-*", "crash", prob=0.002,
                  max_fires=2),
        FaultRule("wal.force.after:dlfm-*", "crash", prob=0.002,
                  max_fires=2),
        # Group-commit leader window (the campaign runs the local
        # databases with group_commit_window="auto", so leaders exist):
        # crash after the window expires but before the shared force —
        # the never-ack contract must fail every member of the group.
        FaultRule("wal.group:leader:dlfm-*", "crash", prob=0.02,
                  max_fires=2),
        FaultRule("wal.force.after:host-*", "crash", prob=0.001,
                  max_fires=1),
        FaultRule("daemon.pass:*:copyd", "crash", prob=0.01, max_fires=1),
        FaultRule("daemon.pass:*:delgrpd", "crash", prob=0.01, max_fires=1),
        # Pool-worker crashes land between claim/dispatch and the work —
        # the window the copyd claim protocol and the delgrpd restart
        # rescan must cover. (retrieved is left out: crashing a restore
        # worker strands its synchronous caller by design.)
        FaultRule("daemon.worker:*:copyd", "crash", prob=0.01, max_fires=1),
        FaultRule("daemon.worker:*:delgrpd", "crash", prob=0.01,
                  max_fires=1),
        # Version-merge daemon: crash right after a pass folded chains.
        # The fold is volatile bookkeeping, so restart recovery must
        # rebuild every chain a live snapshot could still need from the
        # WAL (the lost-committed-version invariant checks the result).
        FaultRule("daemon.worker:*:merged", "crash", prob=0.01,
                  max_fires=1),
        # 2PC fan-out windows: stall the coordinator while every
        # participant's request is in flight, and crash it there once per
        # phase — prepare-window crashes resolve by presumed abort, the
        # phase-2 window by dlk_indoubt re-drive at restart.
        FaultRule("twopc.fanout:prepare", "delay", prob=0.05,
                  max_fires=None, delay=0.25),
        FaultRule("twopc.fanout:prepare", "crash", prob=0.01, max_fires=1),
        FaultRule("twopc.fanout:phase2", "delay", prob=0.05,
                  max_fires=None, delay=0.25),
        FaultRule("twopc.fanout:phase2", "crash", prob=0.01, max_fires=1),
        # Lazy forget: crash the coordinator right after it forgot a
        # fully-acknowledged decision without forcing the log. The
        # decision survives the crash and the in-doubt re-drive must find
        # every participant already finished.
        FaultRule("twopc.forget:host-*", "crash", prob=0.01, max_fires=1),
        # Rebalance crash points (sharded campaigns only — the points
        # are never reached unsharded, so the rule's RNG stream is never
        # created and existing seeds keep their schedules byte-for-byte).
        # A crash mid-move must never strand a group: before the
        # decision is durable presumed abort restores the source, after
        # it the in-doubt re-drive finishes the flip.
        FaultRule("shard.move:*", "crash", prob=0.25, max_fires=2),
    ])
