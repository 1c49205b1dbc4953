"""Outside-in per-layer tracing for the benchmark's traced run.

The benchmark installs wrappers on named public functions of each layer
before it builds the deployment and removes them afterwards; the
program itself is not changed. A wrapper on a generator function drives
the inner generator by ``send``/``throw`` and times each resume, so its
wall time excludes the time the simulated process spends suspended in
the kernel. Self time is a wrapper's own time minus the time of wrapped
calls nested inside it (one resume stack for the whole interpreter: the
kernel steps one process at a time, so resumes nest strictly).

*Boundary* probes (host statements and commits, RPCs, DLFM ops, the
executor, local commits, daemon passes, LOAD) also record spans
``(id, name, start, end, parent, process, op, sim_start, sim_end)``,
kept in memory and written once at the end. The parent is the enclosing
open span of the same simulated process; the op id is the benchmark's
op the client process was running. Agent-side spans carry no op id:
following one host transaction into the DLFM agent needs a trace
context inside the program, which the program does not have yet.
*Hot* probes (locks, B+tree, buffer pool, heap, WAL, parser, planner,
spawns, channel sends) only count calls and accumulate time, so
tracing a lock-heavy query mix does not fill memory with spans.

Every accumulator is kept per phase (``setup``, ``timed``, ``check``);
the per-layer metrics use the timed phase unless their name says
``setup``.
"""

from __future__ import annotations

import gzip
import inspect
import json
from time import perf_counter

import repro.dlfm.daemons.chown
import repro.dlfm.daemons.retrieved
import repro.dlfm.daemons.upcall
import repro.dlfm.manager
import repro.host.hostdb
import repro.host.session
import repro.kernel.rpc
import repro.minidb.db
import repro.minidb.session
import repro.sql
import repro.sql.optimizer
import repro.sql.parser
from repro.dlfm.daemons.copyd import CopyDaemon
from repro.dlfm.daemons.delete_group import DeleteGroupDaemon
from repro.dlfm.daemons.gc import GarbageCollector
from repro.dlfm.daemons.version_merge import VersionMergeDaemon
from repro.dlfm.manager import DLFM
from repro.host.load import LoadUtility
from repro.host.session import HostSession
from repro.kernel.channel import Channel
from repro.kernel.sim import Simulator
from repro.minidb.btree import BTree
from repro.minidb.db import Database
from repro.minidb.locks import LockManager
from repro.minidb.storage import BufferPool, Heap
from repro.minidb.wal import LogManager
from repro.sql.executor import Executor

PHASES = ("setup", "timed", "check")

# (probe, kind, targets). A target is (owner, attribute); a module-level
# function also lists every module that imported it by name, since those
# modules hold their own reference to the unwrapped function.
PROBES = [
    ("host.execute", "span", [(HostSession, "execute")]),
    ("host.commit", "span", [(HostSession, "commit")]),
    ("host.load", "span", [(LoadUtility, "run")]),
    ("kernel.rpc", "span", [
        (repro.kernel.rpc, "call"),
        (repro.dlfm.daemons.chown, "call"),
        (repro.dlfm.daemons.retrieved, "call"),
        (repro.dlfm.daemons.upcall, "call")]),
    ("kernel.spawn", "hot", [(Simulator, "spawn")]),
    ("kernel.channel.send", "hot", [(Channel, "send")]),
    ("sql.parse", "hot", [
        (repro.sql.parser, "parse"), (repro.sql, "parse"),
        (repro.minidb.db, "parse"),
        (repro.minidb.session, "parse"),
        (repro.host.session, "parse_sql"), (repro.host.hostdb, "parse_sql"),
        (repro.dlfm.manager, "parse_sql")]),
    ("sql.plan", "hot", [(repro.sql.optimizer, "plan_statement"),
                         (repro.minidb.db, "plan_statement")]),
    ("sql.executor", "span", [
        (Executor, "run_select"), (Executor, "run_insert"),
        (Executor, "run_update"), (Executor, "run_delete")]),
    ("minidb.locks", "hot", [(LockManager, "acquire")]),
    ("minidb.btree.scan", "hot", [(BTree, "_scan_encoded")]),
    ("minidb.btree.insert", "hot", [(BTree, "insert")]),
    ("minidb.storage.pool", "hot", [(BufferPool, "fetch")]),
    ("minidb.storage.heap_fetch", "hot", [(Heap, "fetch")]),
    ("minidb.storage.heap", "hot", [
        (Heap, "insert"), (Heap, "update"), (Heap, "delete"),
        (Heap, "scan")]),
    ("minidb.wal", "hot", [(LogManager, "append"), (LogManager, "force")]),
    ("minidb.db.commit", "span", [(Database, "commit")]),
    ("dlfm.op.link", "span", [(DLFM, "op_link_file")]),
    ("dlfm.op.unlink", "span", [(DLFM, "op_unlink_file")]),
    ("dlfm.op.prepare", "span", [(DLFM, "op_prepare")]),
    ("dlfm.op.commit", "span", [(DLFM, "op_commit")]),
    ("dlfm.op.commit_piece", "span", [(DLFM, "op_commit_piece")]),
    ("dlfm.daemons.pass", "span", [
        (CopyDaemon, "sweep"), (GarbageCollector, "collect"),
        (DeleteGroupDaemon, "process_txn"),
        (VersionMergeDaemon, "run_pass")]),
]

#: Probes each workload must see called in its timed phase. A zero here
#: means a wrapper missed its target (for example a function some module
#: had already bound to a name of its own), so the run fails.
COVERAGE = {
    "link-mix": [
        "host.execute", "host.commit", "kernel.rpc", "kernel.spawn",
        "kernel.channel.send", "sql.executor", "minidb.locks",
        "minidb.btree.scan", "minidb.btree.insert", "minidb.storage.pool",
        "minidb.storage.heap_fetch", "minidb.storage.heap", "minidb.wal",
        "minidb.db.commit", "dlfm.op.link", "dlfm.op.unlink",
        "dlfm.op.prepare", "dlfm.op.commit", "dlfm.daemons.pass"],
    "catalog-scan": [
        "sql.parse", "sql.plan", "sql.executor", "minidb.locks",
        "minidb.btree.scan", "minidb.storage.pool",
        "minidb.storage.heap_fetch", "minidb.db.commit"],
    "fanout-load": [
        "host.execute", "host.commit", "host.load", "kernel.rpc",
        "kernel.spawn", "kernel.channel.send", "sql.executor",
        "minidb.locks", "minidb.btree.scan", "minidb.btree.insert",
        "minidb.storage.pool", "minidb.storage.heap", "minidb.wal",
        "minidb.db.commit", "dlfm.op.link", "dlfm.op.unlink",
        "dlfm.op.prepare", "dlfm.op.commit", "dlfm.op.commit_piece",
        "dlfm.daemons.pass"],
}


class Probe:
    """Calls and self time of one wrapped entry point, per phase."""

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.calls = dict.fromkeys(PHASES, 0)
        self.self_wall = dict.fromkeys(PHASES, 0.0)
        #: Timed phase: simulated duration of each completed call,
        #: keyed by the name of the enclosing span (None at top level).
        self.sim = {}
        #: Timed phase: rows returned (executor selects only).
        self.rows = 0


class NullTracer:
    """The untraced run: ops are not tagged, nothing is wrapped."""

    sim = None

    def begin_op(self, process: str) -> None:
        pass


class Tracer:
    """Installs the probes, collects spans and per-phase accounting."""

    def __init__(self):
        self.probes = {name: Probe(name, kind) for name, kind, _ in PROBES}
        self.phase = "setup"
        self.sim = None            # set by the workload runner
        self.spans: list = []
        self._stack: list = []     # resume stack: child-time accumulators
        self._open: dict = {}      # process name → open span ids
        self._ops: dict = {}       # process name → current op id
        self._next_op = 0
        self._installed: list = []

    # -- ops -------------------------------------------------------------------

    def begin_op(self, process: str) -> None:
        self._next_op += 1
        self._ops[process] = self._next_op

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for name, _, targets in PROBES:
            probe = self.probes[name]
            for owner, attr in targets:
                original = owner.__dict__[attr]
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, probe))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, probe: Probe):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                probe.calls[self.phase] += 1
                return self._drive(fn(*args, **kwargs), probe)
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        stack = self._stack

        def wrapper(*args, **kwargs):
            probe.calls[self.phase] += 1
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                probe.self_wall[self.phase] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        wrapper.__wrapped__ = fn
        return wrapper

    # -- generator driving -----------------------------------------------------------

    def _drive(self, inner, probe: Probe):
        """Generator: run ``inner`` step by step, timing each resume."""
        stack = self._stack
        phase = self.phase
        sim = self.sim
        sim_start = sim.now if sim is not None else 0.0
        span = self._open_span(probe) if probe.kind == "span" else None
        value, error = None, None
        while True:
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                if error is None:
                    item = inner.send(value)
                else:
                    item = inner.throw(error)
            except StopIteration as stop:
                self._account(probe, phase, frame, started)
                self._finish(probe, phase, span, sim_start, stop.value)
                return stop.value
            except BaseException:
                self._account(probe, phase, frame, started)
                self._finish(probe, phase, span, sim_start, None)
                raise
            self._account(probe, phase, frame, started)
            try:
                value, error = (yield item), None
            except GeneratorExit:
                inner.close()
                self._finish(probe, phase, span, sim_start, None)
                raise
            except BaseException as exc:  # delivered into the inner generator
                value, error = None, exc

    def _account(self, probe, phase, frame, started) -> None:
        elapsed = perf_counter() - started
        self._stack.pop()
        probe.self_wall[phase] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def _open_span(self, probe: Probe) -> list:
        sim = self.sim
        process = sim.process_name if sim is not None else "kernel"
        opened = self._open.setdefault(process, [])
        parent = opened[-1] if opened else None
        span = [len(self.spans), probe.name, perf_counter(), None,
                parent[0] if parent else None, process,
                self._ops.get(process),
                sim.now if sim is not None else 0.0, None,
                parent[1] if parent else None]
        self.spans.append(span)
        opened.append(span)
        return span

    def _finish(self, probe: Probe, phase: str, span, sim_start: float,
                result) -> None:
        sim_end = self.sim.now if self.sim is not None else 0.0
        parent = None
        if span is not None:
            span[3], span[8] = perf_counter(), sim_end
            parent = span[9]
            opened = self._open.get(span[5], [])
            if span in opened:
                opened.remove(span)
        if phase != "timed":
            return
        probe.sim.setdefault(parent, []).append(sim_end - sim_start)
        rows = getattr(result, "rows", None)
        if isinstance(rows, list):
            probe.rows += len(rows)

    # -- results --------------------------------------------------------------------------

    def calls(self, name: str, phase: str = "timed") -> int:
        return self.probes[name].calls[phase]

    def self_wall(self, name: str, phase: str = "timed") -> float:
        return self.probes[name].self_wall[phase]

    def sim_samples(self, name: str, parent=...) -> list:
        """Timed-phase simulated durations of ``name``; only those made
        inside a ``parent`` span when one is named."""
        by_parent = self.probes[name].sim
        if parent is not ...:
            return list(by_parent.get(parent, []))
        return [d for samples in by_parent.values() for d in samples]

    def total_self_wall(self, phase: str = "timed") -> float:
        return sum(p.self_wall[phase] for p in self.probes.values())

    def missing(self, workload: str) -> list:
        return [name for name in COVERAGE[workload]
                if self.probes[name].calls["timed"] == 0]

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(["id", "name", "start", "end", "parent",
                                  "process", "op", "sim_start", "sim_end"])
                      + "\n")
            for span in self.spans:
                out.write(json.dumps(span[:9]) + "\n")
