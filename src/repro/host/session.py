"""Application sessions on the host database, with the datalink engine.

``HostSession.execute`` accepts ordinary SQL. For tables with DATALINK
columns the datalink engine intercepts DML exactly as in the paper (§2):

* INSERT — each non-NULL datalink value triggers a LinkFile to the DLFM
  named in the URL, in the same transaction;
* DELETE — the engine pre-reads the affected rows' datalink values (FOR
  UPDATE) and sends UnlinkFile for each;
* UPDATE of a datalink column — UnlinkFile(old) + LinkFile(new), the
  same-transaction unlink/relink the paper calls an important customer
  requirement.

Statement failures are compensated with in_backout requests plus a host
savepoint rollback; severe errors (deadlock at either side) roll back the
full transaction. COMMIT runs the 2PC coordinator: Prepare to every
participant, durable decision row, then phase-2 Commit — synchronously by
default (lesson §4), asynchronously only for experiment E6.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Optional

from repro.dlfm import api
from repro.errors import (DataLinkError, ReproError, StaleRouteError,
                          TransactionAborted)
from repro.host.datalink import parse_url, shadow_column
from repro.host.render import count_params, render_expr
from repro.kernel import rpc
from repro.kernel.sim import Timeout
from repro.sql import ast
from repro.sql.parser import parse as parse_sql


class HostSession:
    _ids = itertools.count(1)

    def __init__(self, host):
        self.host = host
        self.sim = host.sim
        self.session = host.db.session()
        self.id = next(HostSession._ids)
        self._chans: dict[str, object] = {}   # server → DLFM child channel
        self.participants: set[str] = set()
        self.txn_id: Optional[int] = None
        self.pending_drops: list[str] = []
        #: RPC-batching fast path (config.batch_datalinks): ordered
        #: per-server op buffers, shipped as one api.Batch per server at
        #: commit with Prepare piggybacked on the final envelope.
        self._buffered: dict[str, list] = {}
        self._stmt_seq = itertools.count(1)
        self._parse_cache: dict[str, ast.Statement] = {}
        #: Cached session for phase-2 decision forgetting (sync mode):
        #: opening a fresh host session per committed transaction was
        #: pure overhead. Lazily created, dropped on error.
        self._decision_session = None
        #: Set once the 2PC commit decision is durable (decision rows +
        #: local commit). From then on the transaction IS committed:
        #: phase-2 failures are resolved by in-doubt re-drive, never by
        #: sending Abort to the participants.
        self._decided = False

    # ------------------------------------------------------------------ txn plumbing

    def _ensure_txn(self) -> int:
        txn = self.session._require_txn()
        self.txn_id = txn.id
        return txn.id

    def txn_id_for(self, server: str) -> int:
        return self._ensure_txn()

    def _channel(self, server: str):
        chan = self._chans.get(server)
        if chan is None or chan.closed:
            dlfm = self.host.dlfms.get(server)
            if dlfm is None:
                raise DataLinkError(f"unknown file server {server!r}")
            chan = dlfm.connect()
            self._chans[server] = chan
        return chan

    def dlfm_call(self, server: str, req):
        """Generator: send a transactional op, opening the sub-transaction
        on first contact (BeginTxn carries the host transaction id)."""
        txn_id = self._ensure_txn()
        chan = self._channel(server)
        if server not in self.participants:
            yield from rpc.call(self.sim, chan,
                                api.BeginTxn(self.host.dbid, txn_id))
            self.participants.add(server)
        result = yield from rpc.call(self.sim, chan, req)
        return result

    def _send_control(self, server: str, req):
        """Generator: 2PC verbs — no BeginTxn, no participant tracking."""
        chan = self._channel(server)
        result = yield from rpc.call(self.sim, chan, req)
        return result

    # ------------------------------------------------------------------ shard routing

    def _route(self, grp_id: int, server: str):
        """Resolve a datalink op's target: (server, route_epoch).

        Unsharded hosts address the DLFM named in the URL (epoch 0 =
        no validation); sharded hosts resolve the file group through
        the shard-map cache and fence the op with the cached epoch.
        """
        shard_map = self.host.shard_map
        if shard_map is None:
            return server, 0
        return shard_map.resolve(grp_id)

    def _routed_call(self, server: str, req):
        """Generator: dlfm_call with stale-route retry.

        When a shard answers StaleRouteError (its group epoch disagrees
        with the route we cached — a move_group committed under us), the
        map is reloaded from the catalog and the op re-resolved. Returns
        the final ``(server, req)`` actually applied, which is what a
        statement backout must compensate.
        """
        shard_map = self.host.shard_map
        if shard_map is None:
            yield from self.dlfm_call(server, req)
            return server, req
        for attempt in range(5):
            try:
                yield from self.dlfm_call(server, req)
                return server, req
            except StaleRouteError:
                if attempt == 4:
                    raise
                # A mid-move group stays *moving* from the source's
                # prepare until phase 2 lands on both shards; back off a
                # little so the retries span that window instead of
                # burning out against the same moving state.
                yield Timeout(0.05 * (attempt + 1))
                shard_map.reload()
                server, epoch = shard_map.resolve(req.grp_id)
                req = replace(req, route_epoch=epoch)
        raise AssertionError("unreachable")

    def _send_batch(self, server: str, txn_id: int, ops, prepare=False):
        """Generator: ship buffered ops as ONE api.Batch rendezvous. The
        batch opens the sub-transaction implicitly — no BeginTxn trip."""
        chan = self._channel(server)
        # Register the participant BEFORE the call, like the classic
        # path does at BeginTxn: even a failed Batch leaves an implicit
        # local transaction on the server that our Abort must roll back
        # (presumed abort makes this harmless if the batch never arrived).
        self.participants.add(server)
        result = yield from rpc.call(self.sim, chan, api.Batch(
            self.host.dbid, txn_id, tuple(ops), prepare=prepare))
        self.host.metrics.batches_sent += 1
        self.host.metrics.batched_ops_sent += len(ops)
        for op in ops:
            if isinstance(op, api.UnlinkFile):
                self.host.metrics.unlinks_sent += 1
            elif isinstance(op, api.LinkFile):
                self.host.metrics.links_sent += 1
        return result

    def flush_datalinks(self):
        """Generator: ship all buffered datalink ops now (one Batch per
        server) without waiting for commit — a mid-transaction sync
        point. Errors follow batch semantics: the failing server's local
        transaction is as if the batch never arrived, and the caller
        decides whether to abort."""
        txn_id = self._ensure_txn()
        for server in sorted(self._buffered):
            ops = self._buffered.pop(server)
            if ops:
                yield from self._send_batch(server, txn_id, ops)

    # ------------------------------------------------------------------ execute

    def execute(self, sql: str, params: tuple = ()):
        """Generator: run one SQL statement with datalink interception."""
        stmt = self._parse_cache.get(sql)
        if stmt is None:
            stmt = parse_sql(sql)
            self._parse_cache[sql] = stmt
        specs = None
        table = getattr(stmt, "table", None)
        if isinstance(table, str):
            specs = self.host.datalink_columns.get(table)
        if specs:
            if isinstance(stmt, ast.Insert):
                return (yield from self._insert_datalink(stmt, params, specs))
            if isinstance(stmt, ast.Delete):
                return (yield from self._delete_datalink(stmt, sql, params,
                                                         specs))
            if isinstance(stmt, ast.Update):
                touched = [c for c, _ in stmt.assignments if c in specs]
                if touched:
                    return (yield from self._update_datalink(stmt, params,
                                                             specs))
        result = yield from self.session.execute(sql, params)
        return result

    def query_one(self, sql: str, params: tuple = ()):
        row = yield from self.session.query_one(sql, params)
        return row

    def fetch_with_tokens(self, sql: str, params: tuple = ()):
        """Generator: SELECT returning (ResultSet, {url: AccessToken}).

        The paper's application flow (Fig. 3): the database hands the
        application URLs plus the tokens needed to open the files.
        """
        result = yield from self.session.execute(sql, params)
        tokens = {}
        for row in result.rows:
            for value in row:
                if isinstance(value, str) and value.startswith("dlfs://"):
                    tokens[value] = self.host.issue_token(value)
        return result, tokens

    # ------------------------------------------------------------------ datalink DML

    @staticmethod
    def _eval_value(expr: ast.Expr, params: tuple):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Param):
            return params[expr.index]
        raise DataLinkError(
            "datalink column values must be literals or parameters")

    def _insert_datalink(self, stmt: ast.Insert, params: tuple, specs):
        if stmt.more_rows:
            raise DataLinkError(
                "multi-row INSERT is not supported for DATALINK tables")
        txn_id = self._ensure_txn()
        links = []   # (LinkFile request, server)
        extra_cols, extra_params = [], []
        for col, spec in specs.items():
            if col not in stmt.columns:
                continue
            value = self._eval_value(
                stmt.values[stmt.columns.index(col)], params)
            if value is None:
                continue
            server, path = parse_url(value)
            recovery_id = self.host.recovery_ids.next()
            grp_id = self.host.group_ids[(stmt.table, col)]
            server, epoch = self._route(grp_id, server)
            links.append((server, api.LinkFile(
                self.host.dbid, txn_id, path, grp_id, recovery_id,
                access_ctl=spec.access_control,
                recovery=spec.recovery_flag, route_epoch=epoch)))
            extra_cols.append(shadow_column(col))
            extra_params.append(recovery_id)

        # The shadow recovery-id values travel as parameters, never as
        # interpolated literals: the rebuilt text depends only on the
        # statement's SHAPE, so every datalink INSERT of the same shape
        # shares one bound plan. The original VALUES exprs re-render with
        # their ``?`` markers intact (in order), so appending markers at
        # the end keeps the original parameter indexes stable.
        columns = ", ".join(list(stmt.columns) + extra_cols)
        values = ", ".join([render_expr(v) for v in stmt.values]
                           + ["?"] * len(extra_params))
        new_sql = f"INSERT INTO {stmt.table} ({columns}) VALUES ({values})"
        return (yield from self._run_with_backout(
            new_sql, tuple(params) + tuple(extra_params), links,
            unlinks=[]))

    def _delete_datalink(self, stmt: ast.Delete, sql: str, params: tuple,
                         specs):
        txn_id = self._ensure_txn()
        where_text = (f" WHERE {render_expr(stmt.where)}"
                      if stmt.where is not None else "")
        sel_cols = []
        for col in specs:
            sel_cols += [col, shadow_column(col)]
        pre = yield from self.session.execute(
            f"SELECT {', '.join(sel_cols)} FROM {stmt.table}{where_text} "
            "FOR UPDATE", params)
        unlinks = []
        for row in pre.rows:
            for i, col in enumerate(specs):
                url = row[2 * i]
                if url is None:
                    continue
                server, path = parse_url(url)
                grp_id = self.host.group_ids[(stmt.table, col)]
                server, epoch = self._route(grp_id, server)
                unlinks.append((server, api.UnlinkFile(
                    self.host.dbid, txn_id, path,
                    self.host.recovery_ids.next(), grp_id=grp_id,
                    route_epoch=epoch)))
        return (yield from self._run_with_backout(
            sql, params, links=[], unlinks=unlinks))

    def _update_datalink(self, stmt: ast.Update, params: tuple, specs):
        txn_id = self._ensure_txn()
        dl_assignments = {c: e for c, e in stmt.assignments if c in specs}
        n_set_params = sum(count_params(e) for _, e in stmt.assignments)
        where_params = params[n_set_params:]
        where_text = (f" WHERE {render_expr(stmt.where)}"
                      if stmt.where is not None else "")

        sel_cols = []
        for col in dl_assignments:
            sel_cols += [col, shadow_column(col)]
        pre = yield from self.session.execute(
            f"SELECT {', '.join(sel_cols)} FROM {stmt.table}{where_text} "
            "FOR UPDATE", where_params)

        unlinks, links = [], []
        sets = [f"{c} = {render_expr(e)}" for c, e in stmt.assignments]
        shadow_params = []
        for col, expr in dl_assignments.items():
            new_url = self._eval_value(expr, params)
            new_recid = None
            if new_url is not None:
                server, path = parse_url(new_url)
                new_recid = self.host.recovery_ids.next()
                grp_id = self.host.group_ids[(stmt.table, col)]
                server, epoch = self._route(grp_id, server)
                # one link per qualifying row — linking the same file for
                # several rows fails, as it must (a file has one link)
                for _ in pre.rows:
                    links.append((server, api.LinkFile(
                        self.host.dbid, txn_id, path, grp_id, new_recid,
                        access_ctl=specs[col].access_control,
                        recovery=specs[col].recovery_flag,
                        route_epoch=epoch)))
            # Parameter marker, not a spliced literal (NULL included):
            # the rebuilt text is one shared, cacheable shape per
            # statement template instead of one plan per recovery id.
            sets.append(f"{shadow_column(col)} = ?")
            shadow_params.append(new_recid)
        for row in pre.rows:
            for i, col in enumerate(dl_assignments):
                old_url = row[2 * i]
                if old_url is None:
                    continue
                server, path = parse_url(old_url)
                grp_id = self.host.group_ids[(stmt.table, col)]
                server, epoch = self._route(grp_id, server)
                unlinks.append((server, api.UnlinkFile(
                    self.host.dbid, txn_id, path,
                    self.host.recovery_ids.next(), grp_id=grp_id,
                    route_epoch=epoch)))

        # Marker order in the rebuilt text: original SET markers, then
        # the shadow-column markers, then the WHERE markers — the shadow
        # parameters slot in between the two halves of ``params``.
        new_sql = (f"UPDATE {stmt.table} SET {', '.join(sets)}{where_text}")
        new_params = (tuple(params[:n_set_params]) + tuple(shadow_params)
                      + tuple(where_params))
        return (yield from self._run_with_backout(
            new_sql, new_params, links, unlinks))

    def _run_with_backout(self, sql: str, params: tuple, links, unlinks):
        """Execute the host statement + its datalink ops atomically at
        statement level: on failure, compensate completed DLFM ops with
        in_backout requests and roll the host statement back (§3.2)."""
        if self.host.config.batch_datalinks:
            return (yield from self._run_buffered(sql, params, links,
                                                  unlinks))
        savepoint = f"dlstmt-{next(self._stmt_seq)}"
        self.session.savepoint(savepoint)
        done = []
        try:
            count = yield from self.session.execute(sql, params)
            # Unlink before link: the same-file unlink+relink case needs
            # the linked slot freed first.
            for server, req in unlinks:
                server, req = yield from self._routed_call(server, req)
                self.host.metrics.unlinks_sent += 1
                done.append((server, req))
            for server, req in links:
                server, req = yield from self._routed_call(server, req)
                self.host.metrics.links_sent += 1
                done.append((server, req))
            return count
        except TransactionAborted:
            # Severe failure (deadlock/timeout at host or DLFM): the whole
            # transaction dies on both sides (§3.2).
            yield from self._abort_everything()
            raise
        except ReproError:
            yield from self._statement_backout(savepoint, done)
            raise

    def _run_buffered(self, sql: str, params: tuple, links, unlinks):
        """Batching fast path: the statement's datalink ops are buffered
        per server (unlinks before links, preserving the unlink+relink
        order) only AFTER the host statement succeeds, so a failing
        statement has nothing to compensate — no ops were sent yet. The
        buffers travel at commit (or flush_datalinks) as one Batch per
        server."""
        try:
            count = yield from self.session.execute(sql, params)
        except TransactionAborted:
            yield from self._abort_everything()
            raise
        for server, req in unlinks:
            self._buffered.setdefault(server, []).append(req)
        for server, req in links:
            self._buffered.setdefault(server, []).append(req)
        return count

    def _statement_backout(self, savepoint: str, done):
        self.host.metrics.statement_backouts += 1
        try:
            for server, req in reversed(done):
                yield from self.dlfm_call(server,
                                          replace(req, in_backout=True))
            self.session.rollback_to_savepoint(savepoint)
        except ReproError:
            # "It is not possible to rollback a rollback": any error while
            # backing out forces a full transaction rollback (§3.2).
            yield from self._abort_everything()
            raise

    def _abort_everything(self):
        if self._decided:
            # The commit decision is durable and the local transaction is
            # already committed: there is nothing to abort. A phase-2
            # failure lands here when the application reacts to the error
            # with ROLLBACK — sending Abort now would undo links of a
            # COMMITTED transaction on a live DLFM. The dlk_indoubt rows
            # re-drive phase 2 instead.
            self._reset()
            return
        if self.host.db.crashed:
            # The host database died under us, possibly inside the very
            # commit force that hardens the decision — whether this
            # transaction committed is unknowable here. Restart recovery
            # owns the outcome (re-drive from dlk_indoubt, presumed abort
            # for the rest); sending Abort now could undo the links of a
            # transaction whose decision IS in the durable log.
            self._reset()
            return
        txn_id = self.txn_id
        self._buffered.clear()   # unflushed ops never reached any DLFM
        gens = []
        for server in sorted(self.participants):
            try:
                gens.append(rpc.call(self.sim, self._channel(server),
                                     api.Abort(self.host.dbid, txn_id)))
            except ReproError:
                pass  # participant down; presumed abort resolves it later
        # A down participant's error is ignored (presumed abort resolves
        # it later), so every reply is drained and none is raised.
        yield from self.host.fan_out(gens, f"abort-{txn_id}",
                                     return_exceptions=True)
        yield from self.session.rollback()
        self._reset()
        self.host.metrics.rollbacks += 1

    def _reset(self) -> None:
        self.participants = set()
        self.txn_id = None
        self.pending_drops = []
        self._buffered = {}
        self._decided = False

    # ------------------------------------------------------------------ DDL with datalinks

    def drop_table(self, name: str):
        """Generator: transactional DROP of a datalink table — groups are
        marked deleted now; files unlink asynchronously after commit."""
        specs = self.host.datalink_columns.get(name)
        if not specs:
            self.host.db.ddl(parse_sql(f"DROP TABLE {name}"))
            return
        txn_id = self._ensure_txn()
        for col in specs:
            grp_id = self.host.group_ids[(name, col)]
            if self.host.shard_map is not None:
                # Sharded fleet: the group lives on one shard; retire its
                # catalog row in the same transaction.
                target, epoch = self._route(grp_id, None)
                targets = [target]
                yield from self.session.execute(
                    "DELETE FROM dlk_shardmap WHERE grp_id = ?", (grp_id,))
            else:
                targets, epoch = sorted(self.host.dlfms), 0
            for server in targets:
                req = api.DeleteGroup(self.host.dbid, txn_id, grp_id,
                                      route_epoch=epoch)
                if self.host.config.batch_datalinks:
                    self._buffered.setdefault(server, []).append(req)
                else:
                    yield from self.dlfm_call(server, req)
        self.pending_drops.append(name)

    # ------------------------------------------------------------------ commit / rollback

    def commit(self):
        """Generator: application COMMIT — the 2PC coordinator."""
        if (self.session.txn is None and not self.participants
                and not self._buffered):
            return
        txn_id = self.txn_id
        phase1 = sorted(set(self.participants) | set(self._buffered))
        if not phase1:
            yield from self.session.commit()
            for name in self.pending_drops:
                self.host.apply_drop(name)
            self._reset()
            self.host.metrics.commits += 1
            return

        # ---- phase 1: prepare every participant, ``fanout_workers`` at
        # a time; with batching on, a server's buffered ops ride in one
        # Batch with Prepare piggybacked. One no-vote aborts everyone,
        # including those already prepared (§3.3).
        workers = self.host.config.fanout_workers
        with self.sim.tracer.span("prepare.fanout", n=len(phase1),
                                  workers=workers):
            prepared = yield from self._phase1(txn_id, phase1)
        # ``prepared`` pairs each reply with the server that actually
        # prepared — a stale batched route may have landed on a different
        # shard than the one the op was buffered under.
        for server, reply in prepared:
            if (reply or {}).get("vote", "commit") == "read-only":
                # Read-only participant optimization: the server hardened
                # nothing and was released at end of phase 1 — it gets no
                # dlk_indoubt decision row and no phase-2 Commit.
                self.participants.discard(server)
                self.host.metrics.readonly_votes += 1

        # ---- decision: durable with the local commit ------------------
        participants = sorted(self.participants)
        if participants and self.host.config.decision_piggyback:
            # Piggybacked decision: the participant list rides on the
            # local COMMIT record itself — one WAL force carries both,
            # no logged INSERTs on the commit critical path.
            yield from self.session.commit(
                payload={"indoubt": list(participants)})
            self.host.record_decision(txn_id, participants)
        else:
            # Classic decision table: ONE multi-row INSERT covers every
            # write participant.
            if participants:
                marks = ", ".join(["(?, ?)"] * len(participants))
                args = tuple(v for server in participants
                             for v in (txn_id, server))
                yield from self.session.execute(
                    f"INSERT INTO dlk_indoubt (txn_id, server) "
                    f"VALUES {marks}", args)
            yield from self.session.commit()
        self._decided = True
        for name in self.pending_drops:
            self.host.apply_drop(name)
        self.host.metrics.commits += 1

        # ---- phase 2 (read-only voters already released) ----------------
        if not participants:
            pass  # everyone voted read-only: nothing is in doubt
        elif self.host.config.sync_commit:
            with self.sim.tracer.span("phase2.fanout", n=len(participants),
                                      workers=workers):
                yield from self._phase2_commit(txn_id, participants)
        else:
            # E6 mode: every Commit verb is SENT (each child agent has
            # received it and started processing), but the application
            # regains control without waiting for the replies — so its
            # next transaction's sends queue behind the still-running
            # commit processing. The fan-out overlaps the N sends; each
            # send still blocks on its rendezvous.
            gens = [rpc.cast(self.sim, self._channel(server),
                             api.Commit(self.host.dbid, txn_id))
                    for server in participants]
            with self.sim.tracer.span("phase2.fanout", n=len(participants),
                                      workers=workers):
                replies = yield from self.host.fan_out(
                    gens, f"phase2-cast-{txn_id}",
                    fault_point="twopc.fanout:phase2")
            self.sim.spawn(self._phase2_finish(txn_id, replies),
                           f"async-phase2-{txn_id}")
        self._reset()

    def _prepare_one(self, server: str, txn_id: int):
        """Generator: phase-1 prepare of one participant; returns the
        ``(server, reply)`` pair that actually prepared.

        With batching on, a stale route is only discovered HERE — the
        ops were buffered under whatever shard the cache named and the
        true owner first speaks up when the Batch applies. A failed
        Batch leaves the wrong shard's sub-transaction as if it never
        arrived, so it can be retried: abort the wrong shard, reload the
        map, and re-send the whole bucket (Prepare still piggybacked) to
        the new owner. A bucket whose groups re-resolve to several
        shards, or to a shard this transaction is already preparing
        concurrently, cannot be re-bucketed mid phase 1 — the stale
        error propagates and aborts the transaction instead.
        """
        ops = self._buffered.pop(server, None)
        if not ops:
            reply = yield from self._send_control(
                server, api.Prepare(self.host.dbid, txn_id))
            return server, reply
        shard_map = self.host.shard_map
        for attempt in range(5):
            try:
                reply = yield from self._send_batch(server, txn_id, ops,
                                                    prepare=True)
                return server, (reply.get("prepare") or {})
            except StaleRouteError:
                if shard_map is None or attempt == 4:
                    raise
                yield Timeout(0.05 * (attempt + 1))
                shard_map.reload()
                routes = {shard_map.resolve(op.grp_id) for op in ops
                          if getattr(op, "grp_id", None) is not None}
                if len(routes) != 1:
                    raise  # groups split across new owners: cannot re-bucket
                (new_server, epoch), = routes
                if new_server != server:
                    if new_server in self._phase1_targets:
                        raise  # already preparing there concurrently
                    # The wrong shard holds an untouched open sub-txn
                    # (the Batch compensated itself): close it out.
                    yield from self._send_control(
                        server, api.Abort(self.host.dbid, txn_id))
                    self.participants.discard(server)
                    self._phase1_targets.add(new_server)
                ops = [replace(op, route_epoch=epoch) for op in ops]
                server = new_server
        raise AssertionError("unreachable")

    def _phase1(self, txn_id: int, phase1: list[str]):
        """Generator: run phase 1; returns ``(server, reply)`` pairs in
        ``phase1`` order (the server is the one that actually prepared
        after any stale-route re-bucketing)."""
        self._phase1_targets = set(phase1)
        gens = [self._prepare_one(server, txn_id) for server in phase1]
        try:
            outcomes = yield from self.host.fan_out(
                gens, f"prepare-{txn_id}", return_exceptions=True,
                fault_point="twopc.fanout:prepare")
        except ReproError as error:
            # The coordinator itself died in the scatter→gather window;
            # the workers finish the prepares they hold, participants
            # resolve by presumed abort / in-doubt re-drive after restart.
            abort = yield from self._phase1_failed("(coordinator)", error)
            raise abort from error
        for server, outcome in zip(phase1, outcomes):
            if isinstance(outcome, ReproError):
                abort = yield from self._phase1_failed(server, outcome)
                raise abort from outcome
            if isinstance(outcome, BaseException):
                raise outcome  # non-protocol error: a bug, surface it
        return outcomes

    def _phase1_failed(self, server: str, error: ReproError):
        """Generator: back out of a failed phase 1, build the abort."""
        self.host.metrics.prepare_failures += 1
        yield from self._abort_everything()
        return TransactionAborted(
            f"participant {server} failed to prepare: {error}",
            reason="prepare")

    def _phase2_commit(self, txn_id: int, servers: list[str]):
        gens = [rpc.call(self.sim, self._channel(server),
                         api.Commit(self.host.dbid, txn_id))
                for server in servers]
        yield from self.host.fan_out(gens, f"phase2-{txn_id}",
                                     fault_point="twopc.fanout:phase2")
        yield from self._forget_decision(txn_id)

    def _phase2_finish(self, txn_id: int, replies: list):
        for reply in replies:
            yield from rpc.wait_reply(reply)
        yield from self._forget_decision(txn_id, reuse=False)

    def _forget_decision(self, txn_id: int, reuse: bool = True):
        """Generator: forget a fully-acknowledged commit decision.

        Presumed abort's end record is written lazily: a piggybacked
        decision appends an unforced FORGET record, a decision-table
        decision commits its DELETE without forcing the log. A crash
        before the next force loses the forget, the decision survives,
        and the in-doubt resolver re-drives a Commit every participant
        answers ``already-finished``.
        """
        if txn_id in self.host._decisions:
            self.host.forget_decision(txn_id)
        else:
            # Synchronous commits on a HostSession are serial, so they
            # share one cached session; the E6 async finishers run
            # concurrently with later transactions and take their own.
            if reuse:
                session = self._decision_session
                if session is None:
                    session = self._decision_session = self.host.db.session()
            else:
                session = self.host.db.session()
            try:
                yield from session.execute(
                    "DELETE FROM dlk_indoubt WHERE txn_id = ?", (txn_id,))
                yield from session.commit(force=False)
            except ReproError:
                self._decision_session = None  # do not reuse a poisoned one
                raise
        injector = self.sim.injector
        if injector.enabled:
            # Crash with the forget appended but not yet durable.
            injector.maybe_crash(f"twopc.forget:{self.host.db.name}",
                                 self.host.db.name)

    def rollback(self):
        """Generator: application ROLLBACK."""
        if (self.session.txn is None and not self.participants
                and not self._buffered):
            return
        yield from self._abort_everything()

    def close(self) -> None:
        for chan in self._chans.values():
            chan.close()
        self._chans = {}
