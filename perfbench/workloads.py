"""The benchmark's three workloads: deployment, seeded inputs, client loops
and correctness checks.

Each workload is a class with the same three steps, so ``run.py`` can
time them alike:

* ``setup()`` builds the deployment and seeds it (timed as ``setup_s``);
* ``run()`` drives the simulated clients (the timed phase) and returns a
  :class:`Outcome` with every op's simulated latency;
* ``verify()`` quiesces the deployment and checks the program's outputs
  against the benchmark's own tally; a failed check raises
  :class:`CheckFailed`.

Deployments are built only through public entry points (``System``,
``HostDB.session()``, ``HostSession.execute/commit``, ``LoadUtility``,
``Database.session()``, ``Session.prepare/execute``). Every DLFM runs
``DLFMConfig.tuned()`` and every database ``TimingModel.calibrated()``
unmodified; the host database gets the paper's DBA tuning (cursor
stability, no next-key locking) and no hand-made statistics: RUNSTATS
runs once after the set-up LOADs, and auto-RUNSTATS keeps the program's
default. Fast-path flags are never set, so a changed default shows up
here as a measured change.

Inputs come from ``random.Random`` streams keyed by the workload seed;
the program sees only the generated rows, paths and queries.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.chaos.invariants import check_invariants
from repro.dlfm import DLFMConfig
from repro.errors import ReproError
from repro.host import DatalinkSpec, HostConfig, build_url
from repro.host.load import LoadUtility
from repro.kernel.sim import Simulator, Timeout
from repro.minidb import Database
from repro.minidb.config import DBConfig, TimingModel
from repro.system import System


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own tally."""


#: Ops between two wall-clock marks of the timed phase.
MARK_EVERY = 50
#: Iterations of one reference loop (about 3 ms on a 2.1 GHz Xeon
#: virtual machine).
REFERENCE_ITERATIONS = 3_500


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_cell):
        self.key = key
        self.value = value
        self.next = next_cell


def reference_loop() -> int:
    """Fixed pure-Python work that uses none of the program, timed at
    every mark. It does what the simulation does most (dict updates,
    generator resumes, small objects, a heap, pointer chasing), so its
    wall time tracks how fast the machine runs the program at that
    moment, and ``run.py`` can take a shared machine's slow spells out
    of the ops rate."""
    def counter():
        total = 0
        while True:
            total += yield total

    resume = counter()
    next(resume)
    table, chains, batch, head = {}, {}, [], None
    for i in range(REFERENCE_ITERATIONS):
        key = ("k", i % 257)
        table[key] = table.get(key, 0) + resume.send(1)
        batch.append([i, str(i)])
        if len(batch) > 100:
            heapq.heapify(batch)
            del batch[:50]
        head = _Cell(i % 97, i, head if i % 8 else None)
        chains[head.key] = head
    total = 0
    for cell in chains.values():
        while cell is not None:
            total += cell.value
            cell = cell.next
    return total


@dataclass
class Outcome:
    """What one timed phase produced, on the simulated clock."""

    ops: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    sim_elapsed_s: float = 0.0
    #: Workload-specific facts for the human-readable summary.
    facts: dict = field(default_factory=dict)
    #: After every ``MARK_EVERY``-th op, ``(perf_counter(), wall seconds
    #: of one reference loop run right then)``. Ops finish in the same
    #: order in every repetition of a seed, so the work between two marks
    #: is the same in each; ``run.py`` times it segment by segment.
    #: Wall-clock only: not part of the sim-clock fingerprint.
    marks: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.ops + self.failed

    def done(self, latency: float) -> None:
        """Count one completed op and its simulated latency."""
        self.latencies.append(latency)
        self.ops += 1
        if self.ops % MARK_EVERY == 0:
            now = perf_counter()
            reference_loop()
            self.marks.append((now, perf_counter() - now))


def _deployment(seed: int, servers: tuple) -> System:
    timing = TimingModel.calibrated()
    host_db = DBConfig(isolation="CS", next_key_locking=False, timing=timing)
    return System(seed=seed, servers=servers,
                  dlfm_config=DLFMConfig.tuned(timing=timing),
                  host_config=HostConfig(db=host_db))


def _sleep(seconds: float):
    yield Timeout(seconds)


def _dirty(system: System):
    """Why the deployment still has work in flight (None when quiet)."""
    host = system.host
    if host.db.table_rows("dlk_indoubt") or host.pending_decisions():
        return "host decision rows"
    if host.db.txns.active:
        return "active host transactions"
    for name, dlfm in sorted(system.dlfms.items()):
        db = dlfm.db
        if db.table_rows("dfm_txn"):
            return f"{name}: dfm_txn rows"
        if db.table_rows("dfm_archive"):
            return f"{name}: pending archive entries"
        state = db.catalog.tables["dfm_file"].position("state")
        if any(row[state] == "unlinking" for row in db.table_rows("dfm_file")):
            return f"{name}: delayed updates unresolved"
        if db.txns.active:
            return f"{name}: active transactions"
    return None


def quiesce(system: System, step: float = 5.0, rounds: int = 240) -> None:
    """Advance virtual time until nothing is in flight (daemons drained,
    phase 2 finished), like the chaos campaign's quiesce step."""
    for _ in range(rounds):
        if _dirty(system) is None:
            return
        system.run(_sleep(step), "bench-quiesce")
    raise CheckFailed(f"deployment not quiet after {rounds * step:.0f} "
                      f"virtual s: {_dirty(system)}")


def _check_system(system: System, expected: dict) -> None:
    """Invariants hold and every host table holds exactly the
    acknowledged rows: ``expected`` maps table → {row id: datalink URL}."""
    violations = check_invariants(system)
    if violations:
        raise CheckFailed(f"{len(violations)} invariant violations, first: "
                          f"{violations[0]}")
    for table, want in sorted(expected.items()):
        cols = system.host.db.catalog.tables[table].column_names
        id_at, doc_at = cols.index("id"), cols.index("doc")
        rows = {row[id_at]: row[doc_at]
                for row in system.host.db.table_rows(table)}
        if rows != want:
            missing = len(want.keys() - rows.keys())
            extra = len(rows.keys() - want.keys())
            moved = sum(1 for k in want.keys() & rows.keys()
                        if want[k] != rows[k])
            raise CheckFailed(f"{table}: {missing} acknowledged rows "
                              f"missing, {extra} unacknowledged rows "
                              f"present, {moved} rows with the wrong file")


def _rollback(session):
    try:
        yield from session.rollback()
    except ReproError:
        pass


def _join_all(procs):
    for proc in procs:
        yield from proc.join()


# ---------------------------------------------------------------------- link-mix

class LinkMix:
    """The paper's system test (§3.2.1): 100 clients in a closed loop with
    exponential think time, 2:1 INSERT of a DATALINK row : UPDATE that
    re-links the row's file, one file server, recovery=yes."""

    name = "link-mix"
    clients = 100
    think_s = 13.3
    #: Virtual seconds of traffic; ~1,350 ops, enough for a p99 with
    #: more than ten samples beyond it.
    duration_s = 180.0
    insert_share = 2.0 / 3.0
    #: Rows LOADed per client before timing, so updates have targets.
    seed_rows = 3

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        system = self.system = _deployment(self.seed, ("fs1",))
        self.tracer.sim = system.sim
        host = system.host

        def ddl():
            yield from host.create_datalink_table(
                "media", [("id", "INT"), ("owner_name", "TEXT"),
                          ("attr", "TEXT"), ("doc", "TEXT")],
                {"doc": DatalinkSpec(access_control="full", recovery=True)})
            session = host.db.session()
            yield from session.execute(
                "CREATE UNIQUE INDEX media_id ON media (id)")
            yield from session.commit()

        system.run(ddl(), "bench-ddl")
        self.rows: dict = {}          # id → URL, acknowledged commits only
        self.owned: list = [[] for _ in range(self.clients)]
        self._files = 0
        entries = []
        for client in range(self.clients):
            for _ in range(self.seed_rows):
                row_id = len(self.rows) + 1
                url = self._new_file(client)
                self.rows[row_id] = url
                self.owned[client].append(row_id)
                entries.append(({"id": row_id, "owner_name": f"user{client}",
                                 "attr": "seed"}, url))
        system.run(LoadUtility(host, "media", "doc", entries,
                               piece_size=100).run(), "bench-seed-load")
        host.db.runstats("media")
        quiesce(system)

    def _new_file(self, client: int) -> str:
        self._files += 1
        path = f"/data/ingest-{self._files:08d}.obj"
        self.system.create_user_file("fs1", path, owner=f"user{client}",
                                     content=f"payload-{self._files}")
        return build_url("fs1", path)

    def run(self) -> Outcome:
        system, sim, tracer = self.system, self.system.sim, self.tracer
        out = Outcome()
        start = sim.now
        end = start + self.duration_s
        counts = {"inserts": 0, "updates": 0}
        self._ids = itertools.count(len(self.rows) + 1)

        def client(cid: int):
            rng = random.Random(f"link-mix:{self.seed}:{cid}")
            session = system.session()
            mine = self.owned[cid]
            proc = f"bench-client-{cid}"
            while True:
                think = rng.expovariate(1.0 / self.think_s)
                if sim.now + think >= end:
                    return
                yield Timeout(think)
                insert = rng.random() < self.insert_share
                url = self._new_file(cid)
                tracer.begin_op(proc)
                started = sim.now
                try:
                    if insert:
                        row_id = next(self._ids)
                        yield from session.execute(
                            "INSERT INTO media (id, owner_name, attr, doc) "
                            "VALUES (?, ?, ?, ?)",
                            (row_id, f"user{cid}", "new", url))
                    else:
                        row_id = rng.choice(mine)
                        yield from session.execute(
                            "UPDATE media SET doc = ?, attr = 'moved' "
                            "WHERE id = ?", (url, row_id))
                    yield from session.commit()
                except ReproError:
                    out.failed += 1
                    yield from _rollback(session)
                    continue
                out.done(sim.now - started)
                self.rows[row_id] = url
                if insert:
                    mine.append(row_id)
                    counts["inserts"] += 1
                else:
                    counts["updates"] += 1

        procs = [sim.spawn(client(c), f"bench-client-{c}")
                 for c in range(self.clients)]
        system.run(_join_all(procs), "bench-root")
        out.sim_elapsed_s = sim.now - start
        minutes = self.duration_s / 60.0
        out.facts = {
            "clients": self.clients,
            "loop": f"closed, exponential think time mean {self.think_s} s",
            "inserts_per_min": counts["inserts"] / minutes,
            "updates_per_min": counts["updates"] / minutes,
            "paper_inserts_per_min": 300,
            "paper_updates_per_min": 150,
        }
        return out

    def sizes(self) -> dict:
        host, dlfm = self.system.host.db, self.system.dlfms["fs1"].db
        return {"host_media_heap_pages": host.heaps["media"].npages,
                "host_pool_pages": host.config.buffer_pool_pages,
                "dlfm_file_heap_pages": dlfm.heaps["dfm_file"].npages,
                "dlfm_pool_pages": dlfm.config.buffer_pool_pages}

    def verify(self) -> None:
        quiesce(self.system)
        _check_system(self.system, {"media": self.rows})

    def databases(self) -> list:
        return [self.system.host.db] + [d.db for d in
                                        self.system.dlfms.values()]


# ---------------------------------------------------------------------- catalog-scan

Q_PATH = "SELECT file_id, state FROM mc_file WHERE path = ?"
Q_DATASET = "SELECT COUNT(*) FROM mc_file WHERE ds_id = ? AND state = ?"
Q_LINEAGE = "SELECT child_id FROM mc_lineage WHERE parent_id = ?"
Q_NAMESPACE = "SELECT ds_id, name FROM mc_dataset WHERE ns_id = ?"
STATES = ("linked", "linked", "linked", "archived")


class CatalogScan:
    """A MetaCat-shaped file-metadata catalog served through the DBMS
    (namespaces → datasets → files, plus lineage edges), larger than its
    buffer pool, read by one closed-loop client with no think time."""

    name = "catalog-scan"
    files = 10_000
    datasets = 100
    namespaces = 10
    lineage_every = 4
    #: The file heap (10,000 rows / 32 per page = 313 pages) is 2.6× the
    #: pool, so point lookups and dataset counts miss in the pool.
    pool_pages = 120
    #: A small statement cache, so the ad-hoc share evicts and re-binds.
    plan_cache = 64
    queries = 2_000
    #: No source gives this share; one query in five is a choice that
    #: keeps most traffic on prepared handles yet makes the parser and
    #: planner run about 300 times a repetition (see README.md).
    adhoc_share = 0.2
    piece = 1_000
    #: One of each query shape in turn, the 1:1:1:1 mix of the
    #: repository's MetaCat workload (``repro.workloads.metacat``).
    kinds = ("path", "dataset", "lineage", "namespace")

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def _generate(self) -> None:
        rng = random.Random(f"catalog-scan:{self.seed}:data")
        self.dataset_rows = [(ds, ds % self.namespaces, f"ds{ds}",
                              "active" if rng.random() < 0.9 else "frozen")
                             for ds in range(self.datasets)]
        self.file_rows = []
        for i in range(self.files):
            ds = rng.randrange(self.datasets)
            path = (f"dlfs://fs{1 + ds % 4}/ns{ds % self.namespaces}/ds{ds}/"
                    f"part-{i:06d}.dat")
            self.file_rows.append((i, ds, path, rng.choice(STATES),
                                   rng.randrange(1 << 30)))
        self.edges = [(rng.randrange(i), i)
                      for i in range(1, self.files)
                      if i % self.lineage_every == 0]

    def _answers(self) -> None:
        self.by_path = {r[2]: [(r[0], r[3])] for r in self.file_rows}
        self.counts: dict = {}
        for r in self.file_rows:
            self.counts[(r[1], r[3])] = self.counts.get((r[1], r[3]), 0) + 1
        self.children: dict = {}
        for parent, child in self.edges:
            self.children.setdefault(parent, []).append((child,))
        self.listing: dict = {}
        for ds, ns, name, _ in self.dataset_rows:
            self.listing.setdefault(ns, []).append((ds, name))

    def setup(self) -> None:
        self._generate()
        self._answers()
        sim = self.tracer.sim = Simulator(seed=self.seed)
        db = self.db = Database(sim, "catalog", DBConfig(
            isolation="CS", next_key_locking=False,
            buffer_pool_pages=self.pool_pages,
            plan_cache_size=self.plan_cache,
            timing=TimingModel.calibrated()))
        sim.run_process(self._ingest(db), "bench-ingest")
        for table in ("mc_namespace", "mc_dataset", "mc_file", "mc_lineage"):
            db.runstats(table)
        self.mix = self._query_mix()

    def _ingest(self, db):
        session = db.session()
        for sql in (
                "CREATE TABLE mc_namespace (ns_id INT, name TEXT)",
                "CREATE UNIQUE INDEX mc_ns_pk ON mc_namespace (ns_id)",
                "CREATE TABLE mc_dataset (ds_id INT, ns_id INT, name TEXT, "
                "state TEXT)",
                "CREATE UNIQUE INDEX mc_ds_pk ON mc_dataset (ds_id)",
                "CREATE INDEX mc_ds_ns ON mc_dataset (ns_id)",
                "CREATE TABLE mc_file (file_id INT, ds_id INT, path TEXT, "
                "state TEXT, bytes INT)",
                "CREATE UNIQUE INDEX mc_file_pk ON mc_file (file_id)",
                "CREATE UNIQUE INDEX mc_file_path ON mc_file (path)",
                "CREATE INDEX mc_file_ds ON mc_file (ds_id)",
                "CREATE TABLE mc_lineage (parent_id INT, child_id INT)",
                "CREATE INDEX mc_lin_parent ON mc_lineage (parent_id)"):
            yield from session.execute(sql)
        ins_ns = yield from session.prepare(
            "INSERT INTO mc_namespace (ns_id, name) VALUES (?, ?)")
        ins_ds = yield from session.prepare(
            "INSERT INTO mc_dataset (ds_id, ns_id, name, state) "
            "VALUES (?, ?, ?, ?)")
        ins_file = yield from session.prepare(
            "INSERT INTO mc_file (file_id, ds_id, path, state, bytes) "
            "VALUES (?, ?, ?, ?, ?)")
        ins_lin = yield from session.prepare(
            "INSERT INTO mc_lineage (parent_id, child_id) VALUES (?, ?)")
        for ns in range(self.namespaces):
            yield from ins_ns.execute((ns, f"ns{ns}"))
        for row in self.dataset_rows:
            yield from ins_ds.execute(row)
        yield from session.commit()
        for i, row in enumerate(self.file_rows, 1):
            yield from ins_file.execute(row)
            if i % self.piece == 0:
                yield from session.commit()
        for i, edge in enumerate(self.edges, 1):
            yield from ins_lin.execute(edge)
            if i % self.piece == 0:
                yield from session.commit()
        yield from session.commit()

    def _query_mix(self) -> list:
        """(kind, params, adhoc, expected rows) for every query."""
        rng = random.Random(f"catalog-scan:{self.seed}:queries")
        mix = []
        for n in range(self.queries):
            kind = self.kinds[n % len(self.kinds)]
            adhoc = rng.random() < self.adhoc_share
            if kind == "path":
                params = (self.file_rows[rng.randrange(self.files)][2],)
                expected = self.by_path[params[0]]
            elif kind == "dataset":
                params = (rng.randrange(self.datasets), rng.choice(STATES))
                expected = [(self.counts.get(params, 0),)]
            elif kind == "lineage":
                params = (rng.randrange(self.files),)
                expected = sorted(self.children.get(params[0], []))
            else:
                params = (rng.randrange(self.namespaces),)
                expected = sorted(self.listing.get(params[0], []))
            mix.append((kind, params, adhoc, expected))
        return mix

    @staticmethod
    def _literal_sql(kind: str, params: tuple) -> str:
        if kind == "path":
            return (f"SELECT file_id, state FROM mc_file "
                    f"WHERE path = '{params[0]}'")
        if kind == "dataset":
            return (f"SELECT COUNT(*) FROM mc_file WHERE ds_id = {params[0]} "
                    f"AND state = '{params[1]}'")
        if kind == "lineage":
            return (f"SELECT child_id FROM mc_lineage "
                    f"WHERE parent_id = {params[0]}")
        return f"SELECT ds_id, name FROM mc_dataset WHERE ns_id = {params[0]}"

    def run(self) -> Outcome:
        db, sim, tracer = self.db, self.db.sim, self.tracer
        out = Outcome()
        self.wrong: list = []

        def client():
            session = db.session()
            prepared = {}
            for kind, sql in (("path", Q_PATH), ("dataset", Q_DATASET),
                              ("lineage", Q_LINEAGE),
                              ("namespace", Q_NAMESPACE)):
                prepared[kind] = yield from session.prepare(sql)
            for n, (kind, params, adhoc, expected) in enumerate(self.mix):
                tracer.begin_op("bench-catalog-client")
                started = sim.now
                try:
                    if adhoc:
                        result = yield from session.execute(
                            self._literal_sql(kind, params))
                    else:
                        result = yield from prepared[kind].execute(params)
                    yield from session.commit()
                except ReproError:
                    out.failed += 1
                    yield from _rollback(session)
                    continue
                out.done(sim.now - started)
                rows = list(result.rows)
                if kind in ("lineage", "namespace"):
                    rows.sort()
                if rows != expected:
                    self.wrong.append((n, kind, params))

        start = sim.now
        sim.run_process(client(), "bench-catalog-client")
        out.sim_elapsed_s = sim.now - start
        out.facts = {
            "clients": 1,
            "loop": "closed, no think time",
            "adhoc_share": self.adhoc_share,
            "adhoc_queries": sum(1 for q in self.mix if q[2]),
        }
        return out

    def sizes(self) -> dict:
        heaps = self.db.heaps
        return {"file_heap_pages": heaps["mc_file"].npages,
                "catalog_heap_pages": sum(h.npages for h in heaps.values()),
                "pool_pages": self.db.config.buffer_pool_pages}

    def verify(self) -> None:
        if self.wrong:
            n, kind, params = self.wrong[0]
            raise CheckFailed(f"{len(self.wrong)} wrong query results, first:"
                              f" query {n} ({kind} {params!r})")
        sizes = self.sizes()
        if sizes["file_heap_pages"] < 2 * sizes["pool_pages"]:
            raise CheckFailed(f"catalog fits the pool: {sizes}")

    def databases(self) -> list:
        return [self.db]


# ---------------------------------------------------------------------- fanout-load

class FanoutLoad:
    """Link transactions across four file servers beside a concurrent
    LOAD: each transaction links one file on every server (four 2PC
    participants) or deletes a batch of rows it linked earlier (four
    unlinks, finished by the delayed-update phase 2). Closed loop, no
    think time.

    New links and the LOAD go to table ``fan``; the batches that delete
    transactions remove were linked during set-up into table ``aged``.
    Keeping deletes out of the insert target matters: an insert X-locks
    the first free heap slot, so in one shared table every inserter
    queues behind an uncommitted deleter's freed slot, and those convoys
    swing simulated throughput and p99 from seed to seed by more than
    any bound the benchmark may set (figures in README.md).
    """

    name = "fanout-load"
    servers = ("fs1", "fs2", "fs3", "fs4")
    clients = 6
    txns_per_client = 168
    #: Every third transaction deletes one of the client's aged batches
    #: (a fixed pattern: seeds vary timing and targets, not the mix).
    #: 2:1 link:unlink is the paper's system-test mix, where every
    #: UPDATE (one op in three) unlinks a file.
    delete_every = 3
    #: Clients start at seeded offsets within this many virtual seconds.
    stagger_s = 0.1
    load_rows = 300
    load_piece = 50
    columns = [("id", "INT"), ("batch", "INT"), ("owner", "TEXT"),
               ("doc", "TEXT")]

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        system = self.system = _deployment(self.seed, self.servers)
        self.tracer.sim = system.sim
        host = system.host
        spec = {"doc": DatalinkSpec(access_control="full", recovery=True)}

        def ddl():
            for table in ("fan", "aged"):
                yield from host.create_datalink_table(table, self.columns,
                                                      spec)
            session = host.db.session()
            for sql in ("CREATE UNIQUE INDEX fan_id ON fan (id)",
                        "CREATE INDEX fan_doc ON fan (doc)",
                        "CREATE UNIQUE INDEX aged_id ON aged (id)",
                        "CREATE INDEX aged_batch ON aged (batch)",
                        "CREATE INDEX aged_doc ON aged (doc)"):
                yield from session.execute(sql)
            yield from session.commit()

        system.run(ddl(), "bench-ddl")
        #: table → {id: URL} for acknowledged commits only.
        self.rows: dict = {"fan": {}, "aged": {}}
        self.members: dict = {}     # aged batch → its row ids
        self.batches: list = [[] for _ in range(self.clients)]
        self._files = 0
        self._next_id = 0
        self._next_batch = 0
        deletes = len(range(self.delete_every - 1, self.txns_per_client,
                            self.delete_every))
        seeded = []
        for client in range(self.clients):
            for _ in range(deletes):
                batch, rows = self._batch_rows(client)
                self.batches[client].append(batch)
                self.members[batch] = [r[0] for r in rows]
                seeded.append((f"c{client}", rows))

        def link_aged():
            # Each aged batch is linked the way clients link a batch: one
            # host transaction with a row on every server.
            session = system.session()
            for owner, rows in seeded:
                for row in rows:
                    yield from session.execute(
                        "INSERT INTO aged (id, batch, owner, doc) "
                        "VALUES (?, ?, ?, ?)", (row[0], row[1], owner, row[2]))
                yield from session.commit()

        system.run(link_aged(), "bench-seed-links")
        self.rows["aged"].update((i, url) for _, rows in seeded
                                 for i, _, url in rows)
        # An earlier LOAD of the same size gives ``fan`` rows, so RUNSTATS
        # measures both tables as a DBA would after loading them.
        earlier = self._load_entries("earlier")
        system.run(LoadUtility(host, "fan", "doc", earlier,
                               piece_size=self.load_piece).run(),
                   "bench-seed-load")
        self.rows["fan"].update((v["id"], url) for v, url in earlier)
        for table in ("fan", "aged"):
            host.db.runstats(table)
        # The timed phase's concurrent LOAD: its files exist up front.
        self.load_entries = self._load_entries("loader")
        quiesce(system)

    def _load_entries(self, owner: str) -> list:
        """``load_rows`` LOAD entries for new files on ``fs1``."""
        return [({"id": self._reserve_id(), "batch": 0, "owner": owner},
                 self._new_file("fs1", owner))
                for _ in range(self.load_rows)]

    def _reserve_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _new_file(self, server: str, owner: str) -> str:
        self._files += 1
        path = f"/fan/{owner}/f{self._files:08d}.dat"
        self.system.create_user_file(server, path, owner=owner,
                                     content=f"payload-{self._files}")
        return build_url(server, path)

    def _batch_rows(self, client: int):
        """A new batch: one ``(id, batch, url)`` row per server."""
        self._next_batch += 1
        return self._next_batch, [
            (self._reserve_id(), self._next_batch,
             self._new_file(server, f"c{client}"))
            for server in self.servers]

    def run(self) -> Outcome:
        system, sim, tracer = self.system, self.system.sim, self.tracer
        out = Outcome()
        counts = {"link_txns": 0, "delete_txns": 0}

        def client(cid: int):
            rng = random.Random(f"fanout-load:{self.seed}:{cid}")
            session = system.session()
            aged = self.batches[cid]
            proc = f"bench-client-{cid}"
            yield Timeout(rng.uniform(0.0, self.stagger_s))
            for n in range(self.txns_per_client):
                delete = n % self.delete_every == self.delete_every - 1
                rows = [] if delete else self._batch_rows(cid)[1]
                batch = rng.choice(aged) if delete else None
                tracer.begin_op(proc)
                started = sim.now
                try:
                    if delete:
                        yield from session.execute(
                            "DELETE FROM aged WHERE batch = ?", (batch,))
                    for row_id, b, url in rows:
                        yield from session.execute(
                            "INSERT INTO fan (id, batch, owner, doc) "
                            "VALUES (?, ?, ?, ?)", (row_id, b, f"c{cid}", url))
                    yield from session.commit()
                except ReproError:
                    out.failed += 1
                    yield from _rollback(session)
                    continue
                out.done(sim.now - started)
                if delete:
                    aged.remove(batch)
                    for row_id in self.members.pop(batch):
                        del self.rows["aged"][row_id]
                    counts["delete_txns"] += 1
                else:
                    self.rows["fan"].update((i, u) for i, _, u in rows)
                    counts["link_txns"] += 1

        load = LoadUtility(system.host, "fan", "doc", self.load_entries,
                           piece_size=self.load_piece)
        load_done = {}

        def loader():
            started = sim.now
            stats = yield from load.run()
            load_done["sim_s"] = sim.now - started
            load_done["rows"] = stats.rows_inserted

        start = sim.now
        procs = [sim.spawn(client(c), f"bench-client-{c}")
                 for c in range(self.clients)]
        procs.append(sim.spawn(loader(), "bench-loader"))
        system.run(_join_all(procs), "bench-root")
        out.sim_elapsed_s = sim.now - start
        self.rows["fan"].update((values["id"], url)
                                for values, url in self.load_entries)
        out.facts = {
            "clients": self.clients,
            "loop": "closed, no think time",
            "servers": len(self.servers),
            "load_rows": load_done["rows"],
            "load_sim_s": load_done["sim_s"],
            **counts,
        }
        return out

    def sizes(self) -> dict:
        host = self.system.host.db
        return {"host_fan_heap_pages": host.heaps["fan"].npages,
                "host_aged_heap_pages": host.heaps["aged"].npages,
                "host_pool_pages": host.config.buffer_pool_pages,
                "dlfm_file_heap_pages": max(
                    d.db.heaps["dfm_file"].npages
                    for d in self.system.dlfms.values()),
                "dlfm_pool_pages": self.system.dlfms["fs1"].db.config
                .buffer_pool_pages}

    def verify(self) -> None:
        quiesce(self.system)
        _check_system(self.system, self.rows)

    def databases(self) -> list:
        return [self.system.host.db] + [d.db for d in
                                        self.system.dlfms.values()]


WORKLOADS = {cls.name: cls for cls in (LinkMix, CatalogScan, FanoutLoad)}
