"""The host database node (the paper's "host DB2").

Owns the user tables (on minidb), the DATALINK column registry, group
ids, recovery-id generation, access-token issuing, and the durable 2PC
decision table ``dlk_indoubt`` (presumed abort: a decision row exists iff
the transaction committed and phase 2 has not been fully acknowledged).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.dlff.filter import AccessToken
from repro.dlfm import api
from repro.errors import DataLinkError
from repro.host.datalink import DatalinkSpec, parse_url, shadow_column
from repro.host.ids import RecoveryIdGenerator
from repro.kernel import rpc
from repro.kernel.sim import Simulator
from repro.minidb import Database, DBConfig
from repro.minidb import wal as walmod
from repro.sql.parser import parse as parse_sql


@dataclass
class HostConfig:
    db: DBConfig = field(default_factory=DBConfig)
    #: Phase-2 commit synchronous w.r.t. the application's SQL commit.
    #: The paper's lesson says this MUST be True; False reproduces the
    #: distributed deadlock of experiment E6.
    sync_commit: bool = True
    #: RPC batching fast path: buffer the transaction's link/unlink/
    #: delete-group requests per server and ship them as ordered
    #: :class:`~repro.dlfm.api.Batch` envelopes, flushed at COMMIT with
    #: phase-1 Prepare piggybacked on the final batch. Cuts an N-link
    #: transaction from N+3 host↔DLFM messages to 2. Off by default: the
    #: paper-faithful experiments count (and block on) individual
    #: messages, and with batching ON a DLFM statement error surfaces at
    #: the commit-time flush (aborting the transaction) instead of at the
    #: originating statement (statement-level backout). See DESIGN.md §9.
    batch_datalinks: bool = False
    #: LOAD utility: defer per-row index maintenance on the target table
    #: and fold the run into each B+tree with one sorted bottom-up build
    #: at the end (DB2's LOAD "build phase"). Loaded rows are invisible
    #: to index scans until the build, mirroring DB2's load-pending
    #: state; a crash discards the deferral and restart rebuilds the
    #: indexes from durable state.
    bulk_load_indexes: bool = False
    token_expiry: float = 600.0
    indoubt_poll_period: float = 5.0
    #: Isolation level for the host's own internal readers (today: the
    #: in-doubt resolver's cached session). ``"default"`` keeps the host
    #: engine's configured level; ``"SI"`` makes the poll SELECT a
    #: lock-free snapshot read so resolution passes never queue behind
    #: application transactions writing ``dlk_indoubt``.
    read_isolation: str = "default"
    #: Decision piggybacking: record the 2PC commit decision as a payload
    #: on the host transaction's own COMMIT log record instead of logged
    #: INSERTs into ``dlk_indoubt`` — one WAL force carries both the
    #: commit and the decision, taking the decision write off the commit
    #: critical path. Forgetting appends an unforced FORGET record (a
    #: lost FORGET merely re-drives an idempotent phase-2 Commit after
    #: restart). Off by default: the paper-faithful experiments (and the
    #: seed tests) observe the decision table directly.
    decision_piggyback: bool = False
    #: Coordinator fan-out width: every 2PC fan-out (Prepare, Commit,
    #: Abort, XA and in-doubt re-drive) runs through
    #: :func:`repro.kernel.rpc.gather_all` with at most this many
    #: concurrent processes. ``None`` is unbounded (one process per
    #: participant, ~1 round-trip per phase instead of N); ``1`` is the
    #: historical serial coordinator, the multi-server bench's baseline.
    #: Protocol outcomes are identical at every width — a no-vote still
    #: aborts everyone, including participants that already prepared
    #: (§3.3).
    fanout_workers: Optional[int] = None

    def __post_init__(self):
        if self.fanout_workers is not None and self.fanout_workers < 1:
            raise ValueError(
                f"fanout_workers must be None or >= 1, "
                f"not {self.fanout_workers!r}")


@dataclass
class HostMetrics:
    commits: int = 0
    rollbacks: int = 0
    links_sent: int = 0
    unlinks_sent: int = 0
    batches_sent: int = 0
    batched_ops_sent: int = 0
    statement_backouts: int = 0
    prepare_failures: int = 0
    #: Participants that answered phase 1 with the read-only vote and
    #: were released without a decision row or a phase-2 Commit.
    readonly_votes: int = 0
    #: XA branches released whole at phase 1 (XA_RDONLY): every
    #: participant voted read-only and the local transaction wrote
    #: nothing, so the TM skips phase 2 for the entire branch.
    readonly_branches: int = 0
    indoubt_commits: int = 0
    indoubt_aborts: int = 0
    tokens_issued: int = 0


class HostDB:
    def __init__(self, sim: Simulator, dbid: str, dlfms: dict,
                 config: Optional[HostConfig] = None):
        self.sim = sim
        self.dbid = dbid
        self.dlfms = dict(dlfms)  # server name → DLFM
        self.config = config or HostConfig()
        self.db = Database(sim, f"host-{dbid}", self.config.db)
        self.recovery_ids = RecoveryIdGenerator(sim, dbid)
        self.metrics = HostMetrics()
        #: table → column → DatalinkSpec (the datalink engine's registry).
        self.datalink_columns: dict[str, dict[str, DatalinkSpec]] = {}
        self.group_ids: dict[tuple[str, str], int] = {}
        self._grp_counter = itertools.count(1)
        self._backup_counter = itertools.count(1)
        self.backups: dict[int, dict] = {}
        #: gtrid → XAPrepareResult for branches this incarnation
        #: prepared (volatile; xa_recover degrades gracefully without it).
        self.xa_votes: dict[str, object] = {}
        #: Piggybacked 2PC decisions not yet forgotten: txn_id → tuple of
        #: participant servers. In-memory mirror of the COMMIT-payload
        #: decisions in the WAL; rebuilt from the log at restart.
        self._decisions: dict[int, tuple] = {}
        #: Shard router (``repro.shard.ShardMap``) — None on an unsharded
        #: host, where datalink ops address DLFMs by file-server name.
        self.shard_map = None
        #: Reused in-doubt resolver session (keeps the poll SELECT and
        #: per-txn forget DELETE on cached plans across poller passes).
        self._indoubt_session = None
        self._bootstrap_schema()

    def _bootstrap_schema(self) -> None:
        self.db.ddl(parse_sql(
            "CREATE TABLE dlk_indoubt (txn_id INT, server TEXT)"))
        self.db.ddl(parse_sql(
            "CREATE INDEX dlk_indoubt_txn ON dlk_indoubt (txn_id)"))
        # The coordinator's decision table is tiny but hot: without
        # hand-crafted statistics the optimizer table-scans it on every
        # phase-2 delete and concurrent committers deadlock — the paper's
        # E4 lesson applies to the host side too.
        self.db.set_table_stats("dlk_indoubt", card=100_000,
                                colcard={"txn_id": 100_000})
        # Shard-map catalog (repro.shard): file group → owning shard,
        # with a fencing epoch bumped by every rebalance. Present (and
        # empty) even on unsharded hosts so the schema is uniform.
        self.db.ddl(parse_sql(
            "CREATE TABLE dlk_shardmap (grp_id INT, shard TEXT, "
            "epoch INT)"))
        self.db.ddl(parse_sql(
            "CREATE UNIQUE INDEX dlk_shardmap_grp ON dlk_shardmap "
            "(grp_id)"))
        self.db.set_table_stats("dlk_shardmap", card=100_000,
                                colcard={"grp_id": 100_000})

    # ------------------------------------------------------------------ decisions

    def record_decision(self, txn_id: int, servers) -> None:
        """Note a piggybacked commit decision (already durable: it rode
        on the host transaction's COMMIT record)."""
        self._decisions[txn_id] = tuple(servers)

    def forget_decision(self, txn_id: int) -> None:
        """Forget a piggybacked decision after phase 2 fully acked.

        Appends an *unforced* FORGET record — losing it in a crash only
        re-drives an idempotent phase-2 Commit at restart.
        """
        if txn_id in self._decisions:
            self.db.wal.append(walmod.FORGET, None,
                               payload={"txn": txn_id})
            del self._decisions[txn_id]

    def pending_decisions(self) -> dict:
        """txn_id → tuple(servers) for piggybacked, unforgotten decisions."""
        return dict(self._decisions)

    def decision_rows(self):
        """Every live commit decision as (txn_id, server) pairs — the
        union of the durable ``dlk_indoubt`` table and the piggybacked
        COMMIT-payload decisions."""
        rows = [tuple(row) for row in self.db.table_rows("dlk_indoubt")]
        for txn_id, servers in sorted(self._decisions.items()):
            rows.extend((txn_id, server) for server in servers)
        return rows

    def fan_out(self, gens, name: str, **kwargs):
        """Generator: the coordinator's 2PC fan-out —
        :func:`rpc.gather_all` at ``config.fanout_workers`` width; a
        crash rule in its fault window takes this host down."""
        return (yield from rpc.gather_all(
            self.sim, gens, workers=self.config.fanout_workers, name=name,
            fault_node=self.db.name, **kwargs))

    def _rescan_decisions(self) -> None:
        """Rebuild the piggybacked-decision map from the durable log."""
        pending: dict[int, tuple] = {}
        for record in self.db.wal.records:
            payload = record.payload
            if not isinstance(payload, dict):
                continue
            if record.kind == walmod.COMMIT and payload.get("indoubt"):
                pending[record.txn_id] = tuple(payload["indoubt"])
            elif record.kind == walmod.FORGET:
                pending.pop(payload.get("txn"), None)
        self._decisions = pending

    # ------------------------------------------------------------------ sessions

    def session(self):
        from repro.host.session import HostSession
        return HostSession(self)

    # ------------------------------------------------------------------ DDL

    def create_datalink_table(self, name: str,
                              columns: list[tuple[str, str]],
                              datalink: dict[str, DatalinkSpec],
                              session=None):
        """Generator: CREATE TABLE with DATALINK columns.

        Datalink columns are stored as TEXT URLs plus an engine-maintained
        shadow column carrying the link's recovery id (real DB2 embeds
        this inside the DATALINK value). File groups — one per datalink
        column — are registered on every DLFM under 2PC.

        With an explicit ``session`` the group registrations join that
        session's transaction and the CALLER commits (or rolls back) —
        used by callers that need to recover from mid-DDL failures.
        """
        column_names = {n for n, _ in columns}
        for col in datalink:
            if col not in column_names:
                raise DataLinkError(f"datalink column {col!r} not in table")
        parts = [f"{n} {t}" for n, t in columns]
        parts += [f"{shadow_column(c)} TEXT" for c in datalink]
        self.db.ddl(parse_sql(f"CREATE TABLE {name} ({', '.join(parts)})"))
        self.datalink_columns[name] = dict(datalink)
        for col in datalink:
            self.group_ids[(name, col)] = next(self._grp_counter)

        own_session = session is None
        if own_session:
            session = self.session()
        for col in datalink:
            grp_id = self.group_ids[(name, col)]
            if self.shard_map is not None:
                # Sharded fleet: the group lives on exactly one shard
                # (hash-assigned); the catalog row and the registration
                # commit in the same host transaction.
                shard = self.shard_map.assign(grp_id)
                yield from self.shard_map.insert(session, grp_id, shard)
                yield from session.dlfm_call(shard, api.RegisterGroup(
                    self.dbid, session.txn_id_for(shard), grp_id, name,
                    col, epoch=1))
            else:
                for server in sorted(self.dlfms):
                    yield from session.dlfm_call(server, api.RegisterGroup(
                        self.dbid, session.txn_id_for(server), grp_id,
                        name, col))
        if own_session:
            yield from session.commit()

    def apply_drop(self, name: str) -> None:
        """Finalize a datalink table drop at commit time."""
        self.db.ddl(parse_sql(f"DROP TABLE {name}"))
        for col in self.datalink_columns.pop(name, {}):
            grp_id = self.group_ids.pop((name, col), None)
            if grp_id is not None and self.shard_map is not None:
                self.shard_map.forget(grp_id)

    # ------------------------------------------------------------------ tokens

    def issue_token(self, url: str) -> AccessToken:
        """Mint the access token an application needs to read a file
        linked under full access control (paper Fig. 3 flow)."""
        server, path = parse_url(url)
        dlfm = self.dlfms.get(server)
        if dlfm is None and self.shard_map is not None:
            # Sharded fleet: the URL names the (shared) file server, not
            # a shard; every shard's filter shares one token secret.
            dlfm = self.shard_map.any_shard()
        if dlfm is None:
            raise DataLinkError(f"unknown file server {server!r}")
        self.metrics.tokens_issued += 1
        return AccessToken.sign(dlfm.filter.token_secret, path,
                                self.sim.now + self.config.token_expiry)

    # ------------------------------------------------------------------ crash / restart

    def crash(self) -> None:
        self.db.crash()
        self.xa_votes.clear()
        self._decisions.clear()
        self._indoubt_session = None

    def restart(self):
        """Generator: restart + distributed recovery (paper §3.3).

        Replays forgotten phase-2 commits from the decision log — the
        ``dlk_indoubt`` table plus piggybacked COMMIT-payload decisions
        rescanned from the WAL — then resolves every DLFM's remaining
        prepared transactions to abort (presumed abort: no decision →
        the host never committed).
        """
        from repro.host.indoubt import resolve_indoubts
        self.db.restart()
        self._indoubt_session = None
        self._rescan_decisions()
        if self.shard_map is not None:
            self.shard_map.reload()
        result = yield from resolve_indoubts(self)
        return result
