"""Performance harness for the fast paths (DESIGN.md §9).

Measures the two optimisations this repo carries behind config flags —
RPC batching with prepare piggyback (``HostConfig.batch_datalinks``) and
WAL group commit (``DBConfig.group_commit_window``) — and records the
trajectory in ``BENCH_PERF.json``:

* a bulk link/unlink microbenchmark run over four arms (baseline /
  batched / group_commit / fast) reporting host↔DLFM RPC envelopes,
  physical WAL forces, and simulated per-transaction latency
  percentiles;
* an E1-style multi-client workload with the flags off, on (fixed
  window), and with the self-tuning ``"auto"`` window — the fixed
  window's p95 latency tax at low concurrency is the trade-off auto
  exists to remove;
* a 100-client commit burst (no window vs auto) proving auto keeps the
  fixed window's forces-saved win where it matters;
* a ≥10k-file LOAD with per-row index maintenance vs the deferred
  sorted bottom-up bulk build (DB2's LOAD build phase);
* a shard sweep — the same per-client link workload over fleets of
  1 through 32 DLFM shards (decision piggybacking + bounded fan-out
  pool on), whose commit-throughput scaling from one shard to the
  largest fleet ``--check`` gates at ≥ 2x: the shards keep the strict
  RR/next-key local-DB defaults, under which one shard convoys every
  link on its ``dfm_file`` index tail (the E3 pathology) while N
  shards are N independent tails;
* a headline mixed-workload arm — bursty link transactions racing a
  concurrent LOAD — run under fixed+cold and auto+bulk, whose
  sustained ``headline_ops_per_sec`` is gated by ``--check`` against
  this label's previous run;
* an RR-vs-SI isolation arm — a 100-client half-readers/half-writers
  mix over a hot table, run once under strict RR/next-key locking
  (opposed lock orders → reader↔writer deadlocks and lock-wait
  convoys, the E2/E7 pathology) and once under SI snapshot reads
  (readers lock-free, writer conflicts first-writer-wins), whose
  deadlock+timeout counts and p95 ``--check`` gates strictly lower
  under SI;
* a time-to-first-commit-after-crash arm: the same ≥500-committed-txn
  WAL is recovered once with classic full-replay ARIES restart
  (``DBConfig.instant_recovery=False``) and once with the instant
  REDO-only restart (per-page log chains + lazy on-demand replay,
  DESIGN.md §11), measuring the simulated latency of the first link
  transaction committed after the crash;
* two sentinels proving the paper-faithful outcomes survive: the E6
  distributed deadlock still reproduces with the default (flags-off)
  configuration, and the E8 log-full/batched-local-commit contrast holds
  even with the fast paths enabled.

Everything except ``wall_clock_s`` is simulated and therefore
deterministic for a given seed: same seed → byte-identical JSON
(after dropping that one key).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from repro.dlfm.config import DLFMConfig
from repro.errors import TransactionAborted
from repro.host import DatalinkSpec, HostConfig, build_url
from repro.kernel.sim import Timeout
from repro.minidb.config import DBConfig, TimingModel
from repro.system import System


@dataclass
class BenchConfig:
    seed: int = 42
    #: Links per transaction in the bulk microbenchmark (the acceptance
    #: ratios are quoted at 100).
    links: int = 100
    #: Concurrent clients in the bulk microbenchmark.
    clients: int = 8
    #: Link transactions per client (each client also runs one bulk
    #: DELETE transaction that unlinks everything it inserted).
    txns: int = 2
    #: Group-commit window used by the group_commit/fast arms (seconds).
    #: Wide enough that a leader's window covers clients whose commits
    #: arrive pipelined ~16 ms apart (serialized on the shared dfm_file
    #: candidate slot under strict 2PL).
    group_commit_window: float = 0.05
    e1_clients: int = 16
    e1_duration: float = 300.0
    #: Archive backlog size for the daemon drain arm (the acceptance
    #: gate is quoted at ≥200 files).
    drain_files: int = 200
    #: Copy workers in the pooled drain arm (vs 1 in the serial arm).
    drain_workers: int = 4
    #: Concurrent restore callers in the restore-storm arm.
    storm_restores: int = 64
    #: Retrieve workers in the pooled storm arm (vs 1 serial).
    storm_workers: int = 4
    #: Concurrent clients in the multi-server commit arm.
    ms_clients: int = 6
    #: Commit transactions per client in the multi-server arm.
    ms_txns: int = 3
    #: Participant counts swept by the multi-server arm (the acceptance
    #: gate is quoted at the largest).
    ms_server_counts: tuple = (1, 2, 4)
    #: Committed link transactions seeded before the crash in the
    #: recovery arm (the acceptance gate is quoted at ≥500).
    recovery_txns: int = 500
    #: Fraction of the seed load after which the DLFM local DB takes its
    #: last checkpoint, so restart sees a realistic tail of post-
    #: checkpoint work in both arms.
    recovery_checkpoint_frac: float = 0.9
    #: Clients in the commit-burst arm (the adaptive-window acceptance
    #: gate is quoted at a 100-client burst).
    burst_clients: int = 100
    #: Commit transactions per burst client.
    burst_txns: int = 2
    #: Files ingested by the LOAD arm (the acceptance gate is quoted at
    #: ≥10k files).
    load_files: int = 10_000
    #: Rows per LOAD piece (one host transaction + CommitPiece each).
    load_piece: int = 500
    #: Per-entry index maintenance cost the LOAD and headline arms opt
    #: into (half a page IO — an index-leaf write). The engine default
    #: keeps ``TimingModel.index_entry`` at 0.0 so the historical
    #: calibration is untouched; these arms exist to expose the bulk
    #: build's win, so they charge the cost.
    load_index_entry: float = 0.002
    #: Concurrent clients in the shard-sweep arm (each owns its own host
    #: table, so its file group lands on ``grp_id % shards``).
    shard_clients: int = 12
    #: Commit transactions per shard-sweep client.
    shard_txns: int = 3
    #: Links per shard-sweep transaction.
    shard_links: int = 4
    #: Fleet sizes swept (the acceptance gate is quoted 1 → largest).
    shard_counts: tuple = (1, 2, 4, 8, 16, 32)
    #: Clients in the RR-vs-SI isolation arm (half readers, half
    #: writers; the acceptance gate is quoted at a 100-client mix).
    rr_si_clients: int = 100
    #: Transactions per RR-vs-SI client.
    rr_si_txns: int = 3
    #: Rows in the RR-vs-SI hot table (small on purpose: the readers'
    #: ascending S-locks and the writers' descending X-locks must
    #: actually collide under RR).
    rr_si_rows: int = 16
    #: Lock timeout for the RR-vs-SI arm (seconds): short enough that
    #: RR's convoyed waiters show up as timeouts, long enough that the
    #: deadlock detector usually fires first.
    rr_si_lock_timeout: float = 5.0
    #: Clients in the headline mixed-workload arm.
    headline_clients: int = 24
    #: Link transactions per headline client.
    headline_txns: int = 4
    #: Links per headline client transaction.
    headline_links: int = 3
    #: Files the headline arm's concurrent LOAD ingests.
    headline_load_files: int = 1_000
    #: Linked files in the MetaCat catalog arm (the prepared-statement
    #: acceptance gate is quoted on a 1M-file catalog; quick runs 100k).
    metacat_files: int = 1_000_000
    #: Metadata point queries per MetaCat phase (the same seeded mix
    #: runs once interpolated, once prepared).
    metacat_queries: int = 4_000
    #: Compile cost the MetaCat arm opts into. The engine default keeps
    #: ``TimingModel.compile_cpu`` at 0.0 (historical calibration); this
    #: arm exists to expose the per-execution compile tax of
    #: interpolated SQL, so it charges one.
    metacat_compile_cpu: float = 0.004
    quick: bool = False

    @classmethod
    def quick_config(cls, seed: int = 42) -> "BenchConfig":
        """CI-scale: the bulk and daemon arms are already cheap (<1 s
        wall each), so keep them at full scale and shrink only the E1
        workload and the MetaCat catalog."""
        return cls(seed=seed, e1_clients=6, e1_duration=60.0,
                   shard_counts=(1, 4, 8), metacat_files=100_000,
                   metacat_queries=2_000, quick=True)


#: arm name → (batch_datalinks, group_commit_window multiplier)
ARMS = ("baseline", "batched", "group_commit", "fast")


def _arm_flags(cfg: BenchConfig, arm: str) -> tuple[bool, float]:
    batch = arm in ("batched", "fast")
    window = cfg.group_commit_window if arm in ("group_commit",
                                                "fast") else 0.0
    return batch, window


def _build_system(seed: int, batch: bool, window: float) -> System:
    timing = TimingModel.calibrated()
    dlfm_config = DLFMConfig.tuned(timing=timing)
    dlfm_config.local_db.group_commit_window = window
    host_config = HostConfig(batch_datalinks=batch)
    host_config.db.timing = timing
    host_config.db.group_commit_window = window
    # The bench host DB gets the same DBA treatment the paper applies to
    # the DLFM local DB: with the RR/next-key-locking defaults, inserts
    # into ``dlk_indoubt`` next-key-lock the decision-row tail and
    # serialize concurrent commits (the E3 pathology, host edition),
    # which keeps committers out of each other's group-commit window.
    host_config.db.next_key_locking = False
    host_config.db.isolation = "CS"
    return System(seed=seed, dlfm_config=dlfm_config,
                  host_config=host_config)


def _percentile(values: list, pct: float):
    """Nearest-rank percentile (same rule as WorkloadReport)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return round(ordered[rank - 1], 6)


def _wal_snapshot(system: System) -> dict:
    keys = ("forces", "forces_saved", "group_commits", "auto_immediate",
            "auto_batched")
    out = dict.fromkeys(keys, 0)
    dbs = [system.host.db] + [d.db for d in system.dlfms.values()]
    for db in dbs:
        for key in keys:
            out[key] += getattr(db.wal.metrics, key)
    return out


# --------------------------------------------------------------------- bulk

def run_bulk_arm(cfg: BenchConfig, arm: str) -> dict:
    """N clients × (txns link-transactions of ``links`` inserts, then one
    bulk DELETE unlinking everything) against one DLFM."""
    batch, window = _arm_flags(cfg, arm)
    system = _build_system(cfg.seed, batch, window)

    def setup():
        yield from system.host.create_datalink_table(
            "bulk", [("id", "INT"), ("owner", "TEXT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})

    system.run(setup())

    latencies: list[float] = []

    def client(cid: int):
        session = system.session()
        for t in range(cfg.txns):
            started = system.sim.now
            for k in range(cfg.links):
                row_id = (cid * 1_000 + t) * 1_000 + k
                path = f"/bulk/c{cid}/t{t}/f{k:04d}"
                system.create_user_file("fs1", path, owner=f"c{cid}")
                yield from session.execute(
                    "INSERT INTO bulk (id, owner, doc) VALUES (?, ?, ?)",
                    (row_id, f"c{cid}", build_url("fs1", path)))
            yield from session.commit()
            latencies.append(system.sim.now - started)
        # Bulk unlink: ONE statement unlinks every row this client made.
        started = system.sim.now
        yield from session.execute(
            "DELETE FROM bulk WHERE owner = ?", (f"c{cid}",))
        yield from session.commit()
        latencies.append(system.sim.now - started)

    def root():
        procs = [system.sim.spawn(client(i), f"bulk-client-{i}")
                 for i in range(cfg.clients)]
        for proc in procs:
            yield from proc.join()

    system.run(root())

    dlfm = system.dlfms["fs1"]
    total_txns = cfg.clients * (cfg.txns + 1)
    wal = _wal_snapshot(system)
    return {
        "rpcs": dlfm.metrics.rpcs,
        "rpcs_per_txn": round(dlfm.metrics.rpcs / total_txns, 2),
        "batches": dlfm.metrics.batches,
        "batched_ops": dlfm.metrics.batched_ops,
        "wal_forces": wal["forces"],
        "wal_forces_saved": wal["forces_saved"],
        "wal_group_commits": wal["group_commits"],
        "txns": total_txns,
        "links": dlfm.metrics.links,
        "unlinks": dlfm.metrics.unlinks,
        "p50_txn_s": _percentile(latencies, 50),
        "p95_txn_s": _percentile(latencies, 95),
        "p99_txn_s": _percentile(latencies, 99),
        "sim_seconds": round(system.sim.now, 6),
    }


# --------------------------------------------------------------------- E1

def run_e1_arm(cfg: BenchConfig, mode: str) -> dict:
    """The E1-style workload at reduced scale.

    ``mode``: ``"off"`` = flags off (baseline), ``"on"`` = RPC batching +
    the fixed group-commit window (the historical fast arm), ``"auto"`` =
    RPC batching + the self-tuning window. The E1 client count is LOW
    concurrency for group commit — the fixed window taxes every commit's
    p95 here (the §9 trade-off), which is exactly what auto must avoid.
    """
    from repro.workloads.runner import SystemTestConfig, run_system_test

    batch = mode != "off"
    window: object = {"off": 0.0, "on": cfg.group_commit_window,
                      "auto": "auto"}[mode]
    timing = TimingModel.calibrated()
    dlfm_config = DLFMConfig.tuned(timing=timing)
    dlfm_config.local_db.group_commit_window = window
    host_config = HostConfig(batch_datalinks=batch)
    host_config.db.group_commit_window = window
    report = run_system_test(SystemTestConfig(
        clients=cfg.e1_clients, duration=cfg.e1_duration, seed=cfg.seed,
        dlfm_config=dlfm_config, host_config=host_config))
    system = report.system
    dlfm = system.dlfms["fs1"]
    wal = _wal_snapshot(system)
    return {
        "inserts_per_min": round(report.inserts_per_minute, 1),
        "updates_per_min": round(report.updates_per_minute, 1),
        "aborts": report.total_aborts,
        "rpcs": dlfm.metrics.rpcs,
        "wal_forces": wal["forces"],
        "wal_forces_saved": wal["forces_saved"],
        "auto_immediate": wal["auto_immediate"],
        "auto_batched": wal["auto_batched"],
        "p50_latency_s": report.latency_percentile(50),
        "p95_latency_s": report.latency_percentile(95),
        "p99_latency_s": report.latency_percentile(99),
    }


# --------------------------------------------------------------------- burst

def run_burst_arm(cfg: BenchConfig, window) -> dict:
    """``burst_clients`` committers released at once against ONE minidb
    WAL — the regime where group commit pays. Auto must keep the fixed
    window's forces-saved win here (its EWMA sees the dense arrivals and
    opens batching windows)."""
    from repro.kernel.sim import Simulator
    from repro.minidb import Database, DBConfig as MiniDBConfig

    sim = Simulator(seed=cfg.seed)
    db = Database(sim, "burst", MiniDBConfig(
        group_commit_window=window, next_key_locking=False,
        isolation="CS", timing=TimingModel.calibrated()))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        for k in range(cfg.burst_clients):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, ?)", (k, "init"))
        yield from session.commit()
        db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})

    sim.run_process(setup())
    forces_before = db.wal.metrics.forces
    latencies: list[float] = []

    def committer(k: int):
        session = db.session()
        for t in range(cfg.burst_txns):
            started = sim.now
            yield from session.execute(
                "UPDATE t SET v = ? WHERE k = ?", (f"v{t}", k))
            yield from session.commit()
            latencies.append(sim.now - started)

    def root():
        procs = [sim.spawn(committer(k), f"burst-{k}")
                 for k in range(cfg.burst_clients)]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    metrics = db.wal.metrics
    return {
        "window": window,
        "clients": cfg.burst_clients,
        "txns": cfg.burst_clients * cfg.burst_txns,
        "wal_forces": metrics.forces - forces_before,
        "wal_forces_saved": metrics.forces_saved,
        "wal_group_commits": metrics.group_commits,
        "auto_immediate": metrics.auto_immediate,
        "auto_batched": metrics.auto_batched,
        "p50_commit_s": _percentile(latencies, 50),
        "p95_commit_s": _percentile(latencies, 95),
    }


def run_burst(cfg: BenchConfig) -> dict:
    """No-window vs auto under the 100-client burst."""
    off = run_burst_arm(cfg, 0.0)
    auto = run_burst_arm(cfg, "auto")
    return {
        "off": off,
        "auto": auto,
        "force_reduction": round(
            off["wal_forces"] / max(auto["wal_forces"], 1), 2),
    }


# ------------------------------------------------------------------- metacat

def run_metacat(cfg: BenchConfig) -> dict:
    """The MetaCat catalog arm: interpolated vs prepared statement
    throughput over a 100k/1M-file catalog, plus the auto-RUNSTATS
    vs cold-statistics plan proof (no ``set_stats`` anywhere)."""
    from repro.workloads.metacat import (MetaCatConfig, cold_stats_probe,
                                         run_metacat as run_workload)

    mc = MetaCatConfig(seed=cfg.seed, files=cfg.metacat_files,
                       queries=cfg.metacat_queries,
                       compile_cpu=cfg.metacat_compile_cpu)
    doc = run_workload(mc)
    doc["cold"] = cold_stats_probe(mc)
    return doc


# ------------------------------------------------------------------- rr-vs-si

def run_rr_vs_si_arm(cfg: BenchConfig, isolation: str) -> dict:
    """``rr_si_clients`` mixed readers/writers against ONE minidb under
    ``isolation``. Readers scan two rows in ascending key order; writers
    update two rows in DESCENDING order — under RR (strict 2PL, next-key
    locking) the opposed lock orders build reader↔writer deadlock cycles
    and queue-time blowups (the E2/E7 pathology); under SI the readers
    take no locks at all, so the only conflicts left are writer↔writer,
    and those all lock descending → no cycles. First-writer-wins aborts
    surface as TransactionAborted and are retried like deadlock victims.
    """
    from repro.kernel.sim import Simulator
    from repro.minidb import Database, DBConfig as MiniDBConfig

    sim = Simulator(seed=cfg.seed)
    db = Database(sim, "rrsi", MiniDBConfig(
        isolation=isolation, next_key_locking=True,
        lock_timeout=cfg.rr_si_lock_timeout, deadlock_check_interval=1.0,
        timing=TimingModel.calibrated()))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        for k in range(cfg.rr_si_rows):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, ?)", (k, "init"))
        yield from session.commit()
        db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})

    sim.run_process(setup())
    latencies: list[float] = []
    aborts = [0]
    rng = sim.stream("rr-vs-si")

    def reader(cid: int):
        session = db.session()
        for t in range(cfg.rr_si_txns):
            a = rng.randrange(cfg.rr_si_rows - 1)
            b = rng.randrange(a + 1, cfg.rr_si_rows)
            started = sim.now
            while True:
                try:
                    yield from session.execute(
                        "SELECT v FROM t WHERE k = ?", (a,))
                    yield from session.execute(
                        "SELECT v FROM t WHERE k = ?", (b,))
                    yield from session.commit()
                    break
                except TransactionAborted:
                    aborts[0] += 1
                    yield from session.rollback()
                    yield Timeout(0.01)
            latencies.append(sim.now - started)

    def writer(cid: int):
        session = db.session()
        for t in range(cfg.rr_si_txns):
            a = rng.randrange(cfg.rr_si_rows - 1)
            b = rng.randrange(a + 1, cfg.rr_si_rows)
            started = sim.now
            while True:
                try:
                    # Descending: opposed to the readers' ascending order
                    # under RR, but a consistent global order among the
                    # writers themselves.
                    yield from session.execute(
                        "UPDATE t SET v = ? WHERE k = ?", (f"w{cid}.{t}", b))
                    yield from session.execute(
                        "UPDATE t SET v = ? WHERE k = ?", (f"w{cid}.{t}", a))
                    yield from session.commit()
                    break
                except TransactionAborted:
                    aborts[0] += 1
                    yield from session.rollback()
                    yield Timeout(0.01)
            latencies.append(sim.now - started)

    def root():
        procs = []
        for i in range(cfg.rr_si_clients):
            body = writer if i % 2 else reader
            procs.append(sim.spawn(body(i), f"rrsi-{isolation}-{i}"))
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    merged = db.merge_versions() if db.config.mvcc else 0
    metrics = db.locks.metrics
    return {
        "isolation": isolation,
        "clients": cfg.rr_si_clients,
        "txns": cfg.rr_si_clients * cfg.rr_si_txns,
        "deadlocks": metrics.deadlocks,
        "timeouts": metrics.timeouts,
        "escalations": metrics.escalations,
        "lock_waits": metrics.waits,
        "aborts": aborts[0],
        "versions_merged": merged,
        "live_chains": db.live_chains(),
        "p50_txn_s": _percentile(latencies, 50),
        "p95_txn_s": _percentile(latencies, 95),
        "sim_seconds": round(sim.now, 6),
    }


def run_rr_vs_si(cfg: BenchConfig) -> dict:
    """RR vs SI over the identical reader/writer mix (same seed, same
    key draws)."""
    rr = run_rr_vs_si_arm(cfg, "RR")
    si = run_rr_vs_si_arm(cfg, "SI")
    return {
        "rr": rr,
        "si": si,
        "p95_improvement": round(
            (rr["p95_txn_s"] or 0) / max(si["p95_txn_s"] or 1e-9, 1e-9), 2),
    }


# ---------------------------------------------------------------------- load

def _load_timing(cfg: BenchConfig) -> TimingModel:
    timing = TimingModel.calibrated()
    timing.index_entry = cfg.load_index_entry
    return timing


def run_load_arm(cfg: BenchConfig, bulk: bool, files: int,
                 seed_offset: int = 0) -> dict:
    """One LOAD of ``files`` files into an indexed datalink table, with
    per-row index maintenance (cold) or the deferred sorted bottom-up
    build (bulk). The host DB charges ``load_index_entry`` per index
    entry so the maintenance strategy is visible in simulated time."""
    from repro.host.load import LoadUtility

    dlfm_config = DLFMConfig.tuned(timing=TimingModel.calibrated())
    host_config = HostConfig(batch_datalinks=True)
    host_config.db.timing = _load_timing(cfg)
    host_config.db.next_key_locking = False
    host_config.db.isolation = "CS"
    system = System(seed=cfg.seed + seed_offset, dlfm_config=dlfm_config,
                    host_config=host_config)
    host = system.host

    def setup():
        yield from host.create_datalink_table(
            "assets", [("id", "INT"), ("name", "TEXT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        session = host.db.session()
        yield from session.execute("CREATE INDEX assets_id ON assets (id)")
        yield from session.execute(
            "CREATE INDEX assets_doc ON assets (doc)")
        yield from session.commit()

    system.run(setup())
    host.db.set_table_stats("assets", card=1_000_000,
                            colcard={"id": 1_000_000, "doc": 1_000_000})
    entries = []
    for i in range(files):
        path = f"/load/f{i:05d}"
        system.create_user_file("fs1", path, owner="load")
        entries.append(({"id": i, "name": f"n{i}"},
                        build_url("fs1", path)))
    utility = LoadUtility(host, "assets", "doc", entries,
                          piece_size=cfg.load_piece, bulk=bulk)
    started = system.sim.now
    stats = system.run(utility.run(), "load")
    return {
        "mode": "bulk" if bulk else "cold",
        "files": files,
        "rows": stats.rows_inserted,
        "linked": stats.linked,
        "pieces": stats.pieces,
        "bulk_merged": stats.bulk_merged,
        "load_sim_s": round(system.sim.now - started, 6),
    }


def run_load(cfg: BenchConfig) -> dict:
    """Cold vs bulk index maintenance over the identical LOAD."""
    cold = run_load_arm(cfg, bulk=False, files=cfg.load_files)
    bulk = run_load_arm(cfg, bulk=True, files=cfg.load_files)
    return {
        "cold": cold,
        "bulk": bulk,
        "speedup": round(cold["load_sim_s"]
                         / max(bulk["load_sim_s"], 1e-9), 2),
    }


# ------------------------------------------------------------------ headline

def run_headline_arm(cfg: BenchConfig, adaptive: bool) -> dict:
    """The raw-speed headline: a sustained mixed workload — bursty link
    transactions from ``headline_clients`` clients racing a concurrent
    LOAD — under the OLD commit path (fixed group-commit window + cold
    per-row LOAD index maintenance) or the NEW one (auto window + bulk
    build). Reports sustained operations per simulated second."""
    from repro.host.load import LoadUtility

    window: object = "auto" if adaptive else cfg.group_commit_window
    dlfm_config = DLFMConfig.tuned(timing=TimingModel.calibrated())
    dlfm_config.local_db.group_commit_window = window
    host_config = HostConfig(batch_datalinks=True,
                             bulk_load_indexes=adaptive)
    host_config.db.timing = _load_timing(cfg)
    host_config.db.group_commit_window = window
    host_config.db.next_key_locking = False
    host_config.db.isolation = "CS"
    system = System(seed=cfg.seed, dlfm_config=dlfm_config,
                    host_config=host_config)
    host = system.host

    def setup():
        yield from host.create_datalink_table(
            "media", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        session = host.db.session()
        yield from session.execute("CREATE INDEX media_id ON media (id)")
        yield from session.execute("CREATE INDEX media_doc ON media (doc)")
        yield from session.commit()

    system.run(setup())
    host.db.set_table_stats("media", card=1_000_000,
                            colcard={"id": 1_000_000, "doc": 1_000_000})
    entries = []
    for i in range(cfg.headline_load_files):
        path = f"/hl/load/f{i:05d}"
        system.create_user_file("fs1", path, owner="load")
        entries.append(({"id": 1_000_000 + i}, build_url("fs1", path)))
    ops = {"count": 0}

    def loader():
        utility = LoadUtility(host, "media", "doc", entries,
                              piece_size=cfg.load_piece)
        stats = yield from utility.run()
        ops["count"] += stats.rows_inserted

    def client(cid: int):
        session = system.session()
        for t in range(cfg.headline_txns):
            for k in range(cfg.headline_links):
                row_id = (cid * 1_000 + t) * 100 + k
                path = f"/hl/c{cid}/t{t}/f{k}"
                system.create_user_file("fs1", path, owner=f"c{cid}")
                yield from session.execute(
                    "INSERT INTO media (id, doc) VALUES (?, ?)",
                    (row_id, build_url("fs1", path)))
                ops["count"] += 1
            yield from session.commit()
            ops["count"] += 1

    started = system.sim.now

    def root():
        procs = [system.sim.spawn(loader(), "hl-loader")]
        procs += [system.sim.spawn(client(i), f"hl-client-{i}")
                  for i in range(cfg.headline_clients)]
        for proc in procs:
            yield from proc.join()

    system.run(root())
    elapsed = system.sim.now - started
    wal = _wal_snapshot(system)
    return {
        "mode": "adaptive" if adaptive else "fixed",
        "ops": ops["count"],
        "sim_seconds": round(elapsed, 6),
        "ops_per_sec": round(ops["count"] / max(elapsed, 1e-9), 1),
        "wal_forces": wal["forces"],
        "wal_forces_saved": wal["forces_saved"],
        "auto_immediate": wal["auto_immediate"],
        "auto_batched": wal["auto_batched"],
    }


def run_headline(cfg: BenchConfig) -> dict:
    """Fixed+cold vs auto+bulk over the identical mixed workload."""
    fixed = run_headline_arm(cfg, adaptive=False)
    adaptive = run_headline_arm(cfg, adaptive=True)
    return {
        "fixed": fixed,
        "adaptive": adaptive,
        "headline_ops_per_sec": adaptive["ops_per_sec"],
        "speedup": round(adaptive["ops_per_sec"]
                         / max(fixed["ops_per_sec"], 1e-9), 2),
    }


# --------------------------------------------------------------------- daemons

def run_archive_drain_arm(cfg: BenchConfig, workers: int) -> dict:
    """A backlog of ``drain_files`` recovery=yes links drained by ONE
    Copy-daemon sweep. The archive server charges simulated transfer
    time, so the sweep's duration measures how well the claimed batch
    pipelines across the worker pool (serial: backlog × per-file cost)."""
    dlfm_config = DLFMConfig.tuned()
    dlfm_config.copy_workers = workers
    # Keep the periodic sweeper out of the measured window; the arm
    # drives the sweep directly.
    dlfm_config.copy_period = 1e6
    system = System(seed=cfg.seed, dlfm_config=dlfm_config,
                    archive_charge_time=True)

    def setup():
        yield from system.host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=True)})
        session = system.session()
        for i in range(cfg.drain_files):
            path = f"/docs/f{i:05d}"
            system.create_user_file("fs1", path, owner="load",
                                    content="x" * 500)
            yield from session.execute(
                "INSERT INTO docs (id, doc) VALUES (?, ?)",
                (i, build_url("fs1", path)))
            if (i + 1) % 50 == 0:
                yield from session.commit()
        yield from session.commit()

    system.run(setup())
    dlfm = system.dlfms["fs1"]
    started = system.sim.now
    archived = system.run(dlfm.copyd.sweep(), "drain")
    return {
        "workers": workers,
        "backlog": cfg.drain_files,
        "archived": archived,
        "drain_sim_s": round(system.sim.now - started, 6),
        "claimed": dlfm.copyd.claimed,
        "queue_max_depth": dlfm.copyd.pool.metrics.max_depth,
    }


def run_restore_storm_arm(cfg: BenchConfig, workers: int) -> dict:
    """``storm_restores`` concurrent restore() callers against a
    pre-seeded archive (the post-PIT-restore storm of §3.5); each
    restore pays an archive fetch plus a Chown handoff, so workers
    pipeline fetches that a serial daemon serves one at a time."""
    dlfm_config = DLFMConfig.tuned()
    dlfm_config.retrieve_workers = workers
    system = System(seed=cfg.seed, dlfm_config=dlfm_config,
                    archive_charge_time=True)
    dlfm = system.dlfms["fs1"]

    def seed_archive():
        for i in range(cfg.storm_restores):
            yield from dlfm.archive.store(
                "fs1", f"/lost/f{i:05d}", f"rid{i:05d}", "y" * 500,
                owner="alice", group="users", mode=0o640)

    system.run(seed_archive())
    started = system.sim.now
    latencies: list[float] = []

    def one_restore(i: int):
        t0 = system.sim.now
        yield from dlfm.retrieved.restore(f"/lost/f{i:05d}", f"rid{i:05d}")
        latencies.append(system.sim.now - t0)

    def storm():
        procs = [system.sim.spawn(one_restore(i), f"restore-{i}")
                 for i in range(cfg.storm_restores)]
        for proc in procs:
            yield from proc.join()

    system.run(storm())
    return {
        "workers": workers,
        "restores": cfg.storm_restores,
        "restored": dlfm.retrieved.restored,
        "drain_sim_s": round(system.sim.now - started, 6),
        "p50_restore_s": _percentile(latencies, 50),
        "p95_restore_s": _percentile(latencies, 95),
    }


def run_daemon_arms(cfg: BenchConfig) -> dict:
    """Serial-vs-pooled arms for the parallel daemon work."""
    drain = {"serial": run_archive_drain_arm(cfg, 1),
             "pooled": run_archive_drain_arm(cfg, cfg.drain_workers)}
    drain["speedup"] = round(
        drain["serial"]["drain_sim_s"]
        / max(drain["pooled"]["drain_sim_s"], 1e-9), 2)
    storm = {"serial": run_restore_storm_arm(cfg, 1),
             "pooled": run_restore_storm_arm(cfg, cfg.storm_workers)}
    storm["speedup"] = round(
        storm["serial"]["drain_sim_s"]
        / max(storm["pooled"]["drain_sim_s"], 1e-9), 2)
    return {"archive_drain": drain, "restore_storm": storm}


# ------------------------------------------------------------------- recovery

def run_recovery_arm(cfg: BenchConfig, instant: bool) -> dict:
    """Seed ``recovery_txns`` committed link transactions (checkpointing
    the DLFM local DB at ``recovery_checkpoint_frac`` of the load), crash
    the DLFM, restart it, and measure the simulated time until the FIRST
    new link transaction commits.

    With classic recovery the first commit pays the full-log REDO scan,
    every touched page's read, and the full-heap index rebuilds (all
    parked in ``unbilled_io`` by restart). With instant recovery it pays
    only the post-checkpoint tail scan, the checkpoint index images, and
    the one page the new insert actually touches — the rest drains in the
    background replayer while the commit is already done.
    """
    timing = TimingModel.calibrated()
    dlfm_config = DLFMConfig.tuned(timing=timing)
    dlfm_config.local_db.instant_recovery = instant
    host_config = HostConfig(batch_datalinks=True)
    host_config.db.timing = timing
    host_config.db.next_key_locking = False
    host_config.db.isolation = "CS"
    system = System(seed=cfg.seed, dlfm_config=dlfm_config,
                    host_config=host_config)
    dlfm = system.dlfms["fs1"]
    checkpoint_at = max(1, int(cfg.recovery_txns
                               * cfg.recovery_checkpoint_frac))

    def seed_load():
        yield from system.host.create_datalink_table(
            "docs", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        session = system.session()
        for i in range(cfg.recovery_txns):
            path = f"/docs/f{i:05d}"
            system.create_user_file("fs1", path, owner="load")
            yield from session.execute(
                "INSERT INTO docs (id, doc) VALUES (?, ?)",
                (i, build_url("fs1", path)))
            yield from session.commit()
            if i + 1 == checkpoint_at:
                dlfm.db.checkpoint()

    system.run(seed_load())
    log_records = len(dlfm.db.wal.records)
    dlfm.crash()
    started = system.sim.now
    summary = dlfm.restart()

    def first_commit():
        session = system.session()
        path = "/docs/after-crash"
        system.create_user_file("fs1", path, owner="probe")
        yield from session.execute(
            "INSERT INTO docs (id, doc) VALUES (?, ?)",
            (cfg.recovery_txns, build_url("fs1", path)))
        yield from session.commit()

    system.run(first_commit())
    return {
        "mode": "instant" if instant else "classic",
        "seed_txns": cfg.recovery_txns,
        "log_records": log_records,
        "redone": summary["redone"],
        "undone": summary["undone"],
        "first_commit_s": round(system.sim.now - started, 6),
        "pages_replayed": dlfm.db.metrics.pages_replayed,
        "pages_replayed_bg": dlfm.metrics.pages_replayed_bg,
    }


def run_recovery(cfg: BenchConfig) -> dict:
    """Classic-vs-instant restart over the identical WAL."""
    classic = run_recovery_arm(cfg, instant=False)
    instant = run_recovery_arm(cfg, instant=True)
    return {
        "classic": classic,
        "instant": instant,
        "speedup": round(classic["first_commit_s"]
                         / max(instant["first_commit_s"], 1e-9), 2),
    }


# --------------------------------------------------------------- multi-server

def run_multi_server_arm(cfg: BenchConfig, n_servers: int,
                         workers: Optional[int]) -> dict:
    """K clients, each transaction linking one file on EVERY server, so
    commit fans 2PC out to ``n_servers`` participants. The serial
    coordinator (``workers=1``) pays each participant's prepare and
    phase-2 commit cost sequentially; the unbounded fan-out
    (``workers=None``) overlaps them, so commit latency approaches the
    slowest single participant instead of the sum."""
    servers = tuple(f"fs{i + 1}" for i in range(n_servers))
    timing = TimingModel.calibrated()
    dlfm_config = DLFMConfig.tuned(timing=timing)
    host_config = HostConfig(batch_datalinks=True, sync_commit=True,
                             fanout_workers=workers)
    host_config.db.timing = timing
    host_config.db.next_key_locking = False
    host_config.db.isolation = "CS"
    system = System(seed=cfg.seed, servers=servers,
                    dlfm_config=dlfm_config, host_config=host_config)

    def setup():
        yield from system.host.create_datalink_table(
            "ms", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})

    system.run(setup())
    commit_latencies: list[float] = []

    def client(cid: int):
        session = system.session()
        for t in range(cfg.ms_txns):
            for s, server in enumerate(servers):
                row_id = (cid * 1_000 + t) * 10 + s
                path = f"/ms/c{cid}/t{t}/s{s}"
                system.create_user_file(server, path, owner=f"c{cid}")
                yield from session.execute(
                    "INSERT INTO ms (id, doc) VALUES (?, ?)",
                    (row_id, build_url(server, path)))
            started = system.sim.now
            yield from session.commit()
            commit_latencies.append(system.sim.now - started)

    def root():
        procs = [system.sim.spawn(client(i), f"ms-client-{i}")
                 for i in range(cfg.ms_clients)]
        for proc in procs:
            yield from proc.join()

    system.run(root())
    return {
        "servers": n_servers,
        "mode": "serial" if workers == 1 else "scatter",
        "txns": cfg.ms_clients * cfg.ms_txns,
        "p50_commit_s": _percentile(commit_latencies, 50),
        "p95_commit_s": _percentile(commit_latencies, 95),
        "sim_seconds": round(system.sim.now, 6),
    }


def run_multi_server(cfg: BenchConfig) -> dict:
    """Serial-vs-scatter 2PC commit latency at 1/2/4 participants."""
    out = {}
    for n in cfg.ms_server_counts:
        serial = run_multi_server_arm(cfg, n, workers=1)
        fanned = run_multi_server_arm(cfg, n, workers=None)
        out[str(n)] = {
            "serial": serial,
            "scatter": fanned,
            "p95_speedup": round(
                serial["p95_commit_s"]
                / max(fanned["p95_commit_s"], 1e-9), 2),
        }
    return out


# --------------------------------------------------------------- shard sweep

def run_shard_sweep_arm(cfg: BenchConfig, n_shards: int) -> dict:
    """K clients, each linking into its OWN host table, over an N-shard
    fleet with decision piggybacking and the bounded fan-out pool on.

    The shards run their local DBs at the ENGINE DEFAULTS — RR with
    next-key locking, the strict DB2 configuration the paper started
    from. Under it every link INSERT X-locks the ``dfm_file`` index tail
    to phase 2 (ARIES/KVL next-key), so one shard convoys the whole
    fleet's link traffic and feeds the E3 deadlock storm; the paper's
    single-node answer was weakening the config (``tuned()`` drops
    next-key locking). Sharding is the scale-out answer that KEEPS the
    strict config: N shards are N independent index tails, so groups
    spread over them stop contending. Clients retry deadlock victims
    with a linear backoff, as real DB2 applications do — throughput
    counts each transaction once, when it finally commits."""
    from repro.shard import ShardedSystem

    timing = TimingModel.calibrated()
    dlfm_config = DLFMConfig(local_db=DBConfig(timing=timing))
    host_config = HostConfig(batch_datalinks=True, sync_commit=True,
                             decision_piggyback=True, fanout_workers=8)
    host_config.db.timing = timing
    host_config.db.next_key_locking = False
    host_config.db.isolation = "CS"
    system = ShardedSystem(seed=cfg.seed, shards=n_shards,
                           dlfm_config=dlfm_config,
                           host_config=host_config)

    def setup():
        # One table (hence one file group) per client: host-side inserts
        # hit distinct heaps, so the only convoy left is the shard's.
        for cid in range(cfg.shard_clients):
            yield from system.host.create_datalink_table(
                f"sw{cid}", [("id", "INT"), ("doc", "TEXT")],
                {"doc": DatalinkSpec(recovery=False)})

    system.run(setup())
    commit_latencies: list[float] = []
    retries = [0]

    def client(cid: int):
        session = system.session()
        for t in range(cfg.shard_txns):
            for k in range(cfg.shard_links):
                system.create_user_file(system.fs_name,
                                        f"/sw/c{cid}/t{t}/k{k}",
                                        owner=f"c{cid}")
            attempt = 0
            while True:
                started = system.sim.now
                try:
                    for k in range(cfg.shard_links):
                        path = f"/sw/c{cid}/t{t}/k{k}"
                        yield from session.execute(
                            f"INSERT INTO sw{cid} (id, doc) VALUES (?, ?)",
                            (t * cfg.shard_links + k,
                             build_url(system.fs_name, path)))
                    yield from session.commit()
                    commit_latencies.append(system.sim.now - started)
                    break
                except TransactionAborted:
                    yield from session.rollback()
                    retries[0] += 1
                    attempt += 1
                    yield Timeout(0.005 * attempt)
        session.close()

    begun = system.sim.now

    def root():
        procs = [system.sim.spawn(client(i), f"sw-client-{i}")
                 for i in range(cfg.shard_clients)]
        for proc in procs:
            yield from proc.join()

    system.run(root())
    elapsed = system.sim.now - begun
    txns = cfg.shard_clients * cfg.shard_txns
    deadlocks = sum(d.db.locks.metrics.deadlocks
                    for d in system.dlfms.values())
    lock_waits = sum(d.db.locks.metrics.waits
                     for d in system.dlfms.values())
    return {
        "shards": n_shards,
        "txns": txns,
        "txns_per_sec": round(txns / max(elapsed, 1e-9), 2),
        "p50_commit_s": _percentile(commit_latencies, 50),
        "p95_commit_s": _percentile(commit_latencies, 95),
        "deadlocks": deadlocks,
        "lock_waits": lock_waits,
        "retries": retries[0],
        "sim_seconds": round(elapsed, 6),
    }


def run_shard_sweep(cfg: BenchConfig) -> dict:
    """Commit throughput across fleet sizes; scaling is quoted largest
    over single-shard."""
    out = {}
    for n in cfg.shard_counts:
        out[str(n)] = run_shard_sweep_arm(cfg, n)
    lo = out[str(min(cfg.shard_counts))]
    hi = out[str(max(cfg.shard_counts))]
    out["scaling"] = round(
        hi["txns_per_sec"] / max(lo["txns_per_sec"], 1e-9), 2)
    return out


# --------------------------------------------------------------------- sentinels

def run_e6_sentinel(horizon: float = 300.0) -> dict:
    """Mini-E6 with the DEFAULT (flags-off) configuration: asynchronous
    phase-2 commit must still distributed-deadlock, synchronous must
    complete — the fast paths are opt-in and must not perturb this."""

    def scenario(sync_commit: bool) -> dict:
        dlfm_config = DLFMConfig.tuned()
        dlfm_config.local_db.isolation = "RR"
        dlfm_config.local_db.next_key_locking = True
        dlfm_config.local_db.lock_timeout = 60.0
        host_config = HostConfig(sync_commit=sync_commit)
        host_config.db.lock_timeout = 1e9
        system = System(seed=5, dlfm_config=dlfm_config,
                        host_config=host_config)
        done = {"T1": None, "T11": None, "T2": None}

        def setup():
            yield from system.host.create_datalink_table(
                "t", [("id", "INT"), ("f", "TEXT")], {"f": DatalinkSpec()})
            for name in ("a", "b", "c"):
                system.create_user_file("fs1", f"/d/{name}", owner="u")
            session = system.host.db.session()
            yield from session.execute("CREATE TABLE hot (id INT, v INT)")
            yield from session.execute(
                "INSERT INTO hot (id, v) VALUES (1, 0)")
            yield from session.commit()
            system.host.db.set_table_stats("hot", card=1_000_000,
                                           colcard={"id": 1_000_000})

        system.run(setup())

        def application_a():
            session = system.session()
            yield from session.execute(
                "INSERT INTO t (id, f) VALUES (?, ?)",
                (1, build_url("fs1", "/d/a")))
            yield Timeout(0.5)
            yield from session.commit()
            done["T1"] = system.sim.now
            try:
                yield from session.execute(
                    "UPDATE hot SET v = 1 WHERE id = 1")
                yield from session.execute(
                    "INSERT INTO t (id, f) VALUES (?, ?)",
                    (2, build_url("fs1", "/d/b")))
                yield from session.commit()
                done["T11"] = system.sim.now
            except TransactionAborted:
                yield from session.rollback()

        def application_b():
            session = system.session()
            yield Timeout(0.1)
            try:
                yield from session.execute(
                    "INSERT INTO t (id, f) VALUES (?, ?)",
                    (3, build_url("fs1", "/d/c")))
                yield Timeout(2.0)
                yield from session.execute(
                    "UPDATE hot SET v = 2 WHERE id = 1")
                yield from session.commit()
                done["T2"] = system.sim.now
            except TransactionAborted:
                yield from session.rollback()

        def root():
            system.sim.spawn(application_a(), "app-a")
            system.sim.spawn(application_b(), "app-b")
            yield Timeout(horizon)

        system.run(root(), until=horizon)
        dlfm = system.dlfms["fs1"]
        return {
            "completed": sum(1 for v in done.values() if v is not None),
            "commit_retries": dlfm.metrics.commit_retries,
        }

    async_mode = scenario(sync_commit=False)
    sync_mode = scenario(sync_commit=True)
    preserved = (async_mode["completed"] < 3
                 and async_mode["commit_retries"] >= 2
                 and sync_mode["completed"] == 3)
    return {
        "async_completed": async_mode["completed"],
        "async_commit_retries": async_mode["commit_retries"],
        "sync_completed": sync_mode["completed"],
        "preserved": preserved,
    }


def run_e8_sentinel(cfg: BenchConfig, files: int = 200,
                    wal_capacity: int = 120,
                    horizon: float = 300.0) -> dict:
    """Mini-E8 WITH the fast paths on: the delete-group daemon's
    log-full/batched-local-commit contrast is orthogonal to RPC batching
    and group commit and must survive them."""

    def arm(batch_n: int) -> dict:
        dlfm_config = DLFMConfig.tuned()
        dlfm_config.local_db.wal_capacity = wal_capacity
        dlfm_config.local_db.group_commit_window = cfg.group_commit_window
        dlfm_config.batch_commit_n = batch_n
        dlfm_config.commit_retry_delay = 5.0
        host_config = HostConfig(batch_datalinks=True)
        host_config.db.group_commit_window = cfg.group_commit_window
        system = System(seed=2, dlfm_config=dlfm_config,
                        host_config=host_config)
        dlfm = system.dlfms["fs1"]

        def setup():
            yield from system.host.create_datalink_table(
                "bulk", [("id", "INT"), ("doc", "TEXT")],
                {"doc": DatalinkSpec(recovery=False)})
            session = system.session()
            for i in range(files):
                path = f"/bulk/f{i:06d}"
                system.create_user_file("fs1", path, owner="load")
                yield from session.execute(
                    "INSERT INTO bulk (id, doc) VALUES (?, ?)",
                    (i, build_url("fs1", path)))
                if (i + 1) % 50 == 0:
                    yield from session.commit()
            yield from session.commit()

        system.run(setup())

        def drop_and_wait():
            session = system.session()
            yield from session.drop_table("bulk")
            yield from session.commit()
            yield Timeout(horizon)

        system.run(drop_and_wait(), until=horizon + 60)
        return {
            "log_fulls": dlfm.db.wal.metrics.log_fulls,
            "completed": dlfm.linked_count() == 0,
        }

    unbatched = arm(files * 10)
    batched = arm(50)
    preserved = (unbatched["log_fulls"] > 0
                 and not unbatched["completed"]
                 and batched["completed"]
                 and batched["log_fulls"] == 0)
    return {
        "unbatched_log_fulls": unbatched["log_fulls"],
        "unbatched_completed": unbatched["completed"],
        "batched_log_fulls": batched["log_fulls"],
        "batched_completed": batched["completed"],
        "preserved": preserved,
    }


# --------------------------------------------------------------------- driver

#: The history row this tree's harness writes. Bump per PR so the
#: BENCH_PERF.json ``history`` grows one row per PR (re-running the same
#: tree only refreshes its own row).
HISTORY_LABEL = "lazy-presumed-abort-forget"


def update_history(history: list | None, entry: dict) -> list:
    """Append ``entry`` to the trajectory, replacing (in place in the
    ordering) an existing row with the same label. Rows from other PRs
    are preserved — the whole point of the trajectory."""
    updated = []
    replaced = False
    for row in history or []:
        if row.get("label") == entry["label"]:
            updated.append(entry)
            replaced = True
        else:
            updated.append(row)
    if not replaced:
        updated.append(entry)
    return updated


def headline_reference(history: list | None) -> float | None:
    """The ``headline_ops_per_sec`` the headline gate compares against.

    THIS label's previous run (the row about to be replaced), so a
    regression in the commit path fails --check even before the
    trajectory is rewritten. A label's first run compares against the
    newest row that has a headline, so a new label cannot pass the gate
    by having nothing to compare with.
    """
    rows = [row for row in history or []
            if row.get("headline_ops_per_sec") is not None]
    prior = next((row for row in rows if row.get("label") == HISTORY_LABEL),
                 rows[-1] if rows else None)
    return prior["headline_ops_per_sec"] if prior else None


def run_bench(cfg: BenchConfig, history: list | None = None) -> dict:
    """Run the whole harness and return the BENCH_PERF document."""
    started = time.monotonic()
    arms = {arm: run_bulk_arm(cfg, arm) for arm in ARMS}
    base, fast = arms["baseline"], arms["fast"]
    ratios = {
        "rpc_reduction": round(base["rpcs"] / max(fast["rpcs"], 1), 2),
        "wal_force_reduction": round(
            base["wal_forces"] / max(fast["wal_forces"], 1), 2),
    }
    daemons = run_daemon_arms(cfg)
    multi_server = run_multi_server(cfg)
    shard_sweep = run_shard_sweep(cfg)
    recovery = run_recovery(cfg)
    top = str(max(cfg.ms_server_counts))
    e1 = {"off": run_e1_arm(cfg, "off"),
          "on": run_e1_arm(cfg, "on"),
          "auto": run_e1_arm(cfg, "auto")}
    burst = run_burst(cfg)
    rr_vs_si = run_rr_vs_si(cfg)
    load = run_load(cfg)
    metacat = run_metacat(cfg)
    headline_arm = run_headline(cfg)
    sentinels = {"e6": run_e6_sentinel(),
                 "e8": run_e8_sentinel(cfg)}
    top_shards = max(cfg.shard_counts)
    headline = (
        f"sharded fleet scales commit throughput {shard_sweep['scaling']}x "
        f"from 1 to {top_shards} shards (decision piggybacking + pooled "
        f"fan-out); adaptive commit path "
        f"{headline_arm['headline_ops_per_sec']} ops/s sustained; bulk "
        f"LOAD {load['speedup']}x at {cfg.load_files} files; "
        f"{burst['force_reduction']}x fewer WAL forces under a "
        f"{cfg.burst_clients}-client burst with auto; SI snapshot reads "
        f"cut the {cfg.rr_si_clients}-client mixed arm's "
        f"deadlocks+timeouts "
        f"{rr_vs_si['rr']['deadlocks'] + rr_vs_si['rr']['timeouts']}→"
        f"{rr_vs_si['si']['deadlocks'] + rr_vs_si['si']['timeouts']} and "
        f"p95 {rr_vs_si['p95_improvement']}x vs RR; prepared statements "
        f"{metacat['prepared_speedup']}x over interpolated SQL on the "
        f"{cfg.metacat_files}-file MetaCat catalog with auto-RUNSTATS "
        f"index plans ({metacat['auto_probe_plan']})")
    headline_ref = headline_reference(history)
    entry = {
        "label": HISTORY_LABEL,
        "headline": headline,
        "rpc_reduction": ratios["rpc_reduction"],
        "wal_force_reduction": ratios["wal_force_reduction"],
        "archive_drain_speedup": daemons["archive_drain"]["speedup"],
        "restore_storm_speedup": daemons["restore_storm"]["speedup"],
        "multi_server_p95_speedup": multi_server[top]["p95_speedup"],
        "shard_scaling": shard_sweep["scaling"],
        "shard_top_txns_per_sec":
            shard_sweep[str(top_shards)]["txns_per_sec"],
        "recovery_speedup": recovery["speedup"],
        "recovery_first_commit_instant_s":
            recovery["instant"]["first_commit_s"],
        "recovery_first_commit_classic_s":
            recovery["classic"]["first_commit_s"],
        "e1_p95_on_s": e1["on"]["p95_latency_s"],
        "e1_p95_off_s": e1["off"]["p95_latency_s"],
        "e1_p95_auto_s": e1["auto"]["p95_latency_s"],
        "burst_force_reduction": burst["force_reduction"],
        "load_speedup": load["speedup"],
        "headline_ops_per_sec": headline_arm["headline_ops_per_sec"],
        "rr_si_deadlocks_rr": rr_vs_si["rr"]["deadlocks"],
        "rr_si_deadlocks_si": rr_vs_si["si"]["deadlocks"],
        "rr_si_timeouts_rr": rr_vs_si["rr"]["timeouts"],
        "rr_si_timeouts_si": rr_vs_si["si"]["timeouts"],
        "rr_si_p95_rr_s": rr_vs_si["rr"]["p95_txn_s"],
        "rr_si_p95_si_s": rr_vs_si["si"]["p95_txn_s"],
        "rr_si_p95_improvement": rr_vs_si["p95_improvement"],
        "metacat_prepared_speedup": metacat["prepared_speedup"],
        "metacat_prepared_stmts_per_s":
            metacat["prepared"]["stmts_per_s"],
        "metacat_interpolated_stmts_per_s":
            metacat["interpolated"]["stmts_per_s"],
        "metacat_auto_probe_plan": metacat["auto_probe_plan"],
        "metacat_auto_runstats_runs":
            metacat["ingest"]["auto_runstats_runs"],
    }
    history = update_history(history, entry)
    return {
        "schema": 1,
        "seed": cfg.seed,
        "config": {
            "links": cfg.links,
            "clients": cfg.clients,
            "txns": cfg.txns,
            "group_commit_window": cfg.group_commit_window,
            "e1_clients": cfg.e1_clients,
            "e1_duration": cfg.e1_duration,
            "drain_files": cfg.drain_files,
            "drain_workers": cfg.drain_workers,
            "storm_restores": cfg.storm_restores,
            "storm_workers": cfg.storm_workers,
            "ms_clients": cfg.ms_clients,
            "ms_txns": cfg.ms_txns,
            "ms_server_counts": list(cfg.ms_server_counts),
            "shard_clients": cfg.shard_clients,
            "shard_txns": cfg.shard_txns,
            "shard_links": cfg.shard_links,
            "shard_counts": list(cfg.shard_counts),
            "recovery_txns": cfg.recovery_txns,
            "recovery_checkpoint_frac": cfg.recovery_checkpoint_frac,
            "burst_clients": cfg.burst_clients,
            "burst_txns": cfg.burst_txns,
            "rr_si_clients": cfg.rr_si_clients,
            "rr_si_txns": cfg.rr_si_txns,
            "rr_si_rows": cfg.rr_si_rows,
            "rr_si_lock_timeout": cfg.rr_si_lock_timeout,
            "load_files": cfg.load_files,
            "load_piece": cfg.load_piece,
            "load_index_entry": cfg.load_index_entry,
            "headline_clients": cfg.headline_clients,
            "headline_txns": cfg.headline_txns,
            "headline_links": cfg.headline_links,
            "headline_load_files": cfg.headline_load_files,
            "metacat_files": cfg.metacat_files,
            "metacat_queries": cfg.metacat_queries,
            "metacat_compile_cpu": cfg.metacat_compile_cpu,
            "quick": cfg.quick,
        },
        "bulk": {"arms": arms, "ratios": ratios},
        "daemons": daemons,
        "multi_server": multi_server,
        "shard_sweep": shard_sweep,
        "recovery": recovery,
        "e1": e1,
        "burst": burst,
        "rr_vs_si": rr_vs_si,
        "load": load,
        "metacat": metacat,
        "headline_arm": headline_arm,
        "headline_ops_per_sec": headline_arm["headline_ops_per_sec"],
        "headline_ops_per_sec_ref": headline_ref,
        "sentinels": sentinels,
        "history": history,
        "headline": headline,
        "wall_clock_s": round(time.monotonic() - started, 3),
    }


def check(doc: dict) -> list[str]:
    """Acceptance gates; returns a list of failure strings (empty = pass)."""
    failures = []
    ratios = doc["bulk"]["ratios"]
    if ratios["rpc_reduction"] < 10:
        failures.append(
            f"rpc_reduction {ratios['rpc_reduction']} < 10x")
    if ratios["wal_force_reduction"] < 2:
        failures.append(
            f"wal_force_reduction {ratios['wal_force_reduction']} < 2x")
    daemons = doc.get("daemons", {})
    drain = daemons.get("archive_drain", {})
    if drain.get("speedup", 0) < 3:
        failures.append(
            f"archive_drain speedup {drain.get('speedup')} < 3x with "
            f"{drain.get('pooled', {}).get('workers')} copy workers")
    storm = daemons.get("restore_storm", {})
    if storm.get("speedup", 0) < 2:
        failures.append(
            f"restore_storm speedup {storm.get('speedup')} < 2x with "
            f"{storm.get('pooled', {}).get('workers')} retrieve workers")
    four = doc.get("multi_server", {}).get("4", {})
    if four.get("p95_speedup", 0) < 2.5:
        failures.append(
            f"multi_server p95 commit speedup {four.get('p95_speedup')} "
            f"< 2.5x at 4 participants")
    sweep = doc.get("shard_sweep", {})
    if sweep and sweep.get("scaling", 0) < 2:
        counts = doc.get("config", {}).get("shard_counts", [])
        failures.append(
            f"shard-sweep commit-throughput scaling {sweep.get('scaling')} "
            f"< 2x from 1 to {max(counts) if counts else '?'} shards")
    recovery = doc.get("recovery", {})
    if recovery.get("speedup", 0) < 3:
        failures.append(
            f"instant-recovery first-commit speedup "
            f"{recovery.get('speedup')} < 3x")
    if recovery.get("classic", {}).get("seed_txns", 0) < 500:
        failures.append(
            f"recovery arm seeded only "
            f"{recovery.get('classic', {}).get('seed_txns')} committed "
            f"txns (< 500)")
    e1 = doc.get("e1", {})
    if "auto" in e1:
        off_p95 = e1["off"]["p95_latency_s"] or 0
        auto_p95 = e1["auto"]["p95_latency_s"] or 0
        if auto_p95 > 2 * off_p95:
            failures.append(
                f"E1 auto-window p95 {auto_p95}s > 2x the no-window "
                f"baseline {off_p95}s at low concurrency")
    burst = doc.get("burst", {})
    if burst and burst.get("force_reduction", 0) < 2:
        failures.append(
            f"burst force_reduction {burst.get('force_reduction')} < 2x "
            f"under the {burst.get('off', {}).get('clients')}-client "
            f"burst with auto")
    rr_si = doc.get("rr_vs_si", {})
    if rr_si:
        rr, si = rr_si["rr"], rr_si["si"]
        rr_stuck = rr["deadlocks"] + rr["timeouts"]
        si_stuck = si["deadlocks"] + si["timeouts"]
        if not rr_stuck:
            failures.append(
                "rr-vs-si arm built no contention under RR (0 deadlocks "
                "+ timeouts) — the comparison is vacuous")
        if si_stuck >= rr_stuck:
            failures.append(
                f"SI deadlocks+timeouts ({si_stuck}) not strictly below "
                f"RR ({rr_stuck}) in the rr-vs-si arm")
        if (si["p95_txn_s"] or 0) >= (rr["p95_txn_s"] or 0):
            failures.append(
                f"SI p95 {si['p95_txn_s']}s not below RR p95 "
                f"{rr['p95_txn_s']}s in the rr-vs-si arm")
    load = doc.get("load", {})
    if load:
        if load.get("cold", {}).get("files", 0) < 10_000:
            failures.append(
                f"LOAD arm ingested only "
                f"{load.get('cold', {}).get('files')} files (< 10k)")
        if load.get("speedup", 0) < 2:
            failures.append(
                f"bulk LOAD speedup {load.get('speedup')} < 2x")
    metacat = doc.get("metacat", {})
    if metacat:
        speedup = metacat.get("prepared_speedup") or 0
        if speedup < 5:
            failures.append(
                f"metacat prepared-statement speedup {speedup} < 5x over "
                f"interpolated SQL (compile_cpu="
                f"{doc.get('config', {}).get('metacat_compile_cpu')})")
        if metacat.get("auto_probe_plan") != "index_scan":
            failures.append(
                f"metacat probe plan {metacat.get('auto_probe_plan')!r} "
                f"did not flip to index_scan under auto-RUNSTATS")
        if metacat.get("auto_stats", {}).get("manual"):
            failures.append(
                "metacat auto arm has MANUAL statistics — the flip must "
                "come from auto-RUNSTATS, not set_stats pinning")
        if metacat.get("ingest", {}).get("auto_runstats_runs", 0) < 1:
            failures.append(
                "metacat ingest triggered zero auto-RUNSTATS refreshes")
        if metacat.get("cold", {}).get("probe_plan") != "table_scan":
            failures.append(
                f"metacat cold-statistics control plan "
                f"{metacat.get('cold', {}).get('probe_plan')!r} is not "
                f"table_scan — the comparison is vacuous")
    ops = doc.get("headline_ops_per_sec")
    if ops is not None and ops <= 0:
        failures.append(f"headline_ops_per_sec {ops} <= 0")
    ref = doc.get("headline_ops_per_sec_ref")
    if ops is not None and ref and ops < 0.9 * ref:
        failures.append(
            f"headline_ops_per_sec {ops} is more than 10% below the "
            f"reference run ({ref})")
    for name, sentinel in doc["sentinels"].items():
        if not sentinel["preserved"]:
            failures.append(f"sentinel {name} outcome NOT preserved")
    return failures
