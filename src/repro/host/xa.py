"""XA (global/distributed) transactions at the host database (§3.3).

"In the case of an XA transaction, the host database also generates a
local transaction id that is different from the global XA transaction
id. ... [the local] id is passed to the DLFM in each of the API
invocation."

Here the host is itself a *participant* of an external transaction
manager while remaining the *coordinator* of its DLFMs:

* :func:`xa_prepare` — durably registers the gtrid → (local txn id,
  participant servers) mapping, prepares every DLFM sub-transaction, and
  prepares the host's own local transaction (PREPARE log record, locks
  kept). From then on the outcome belongs to the TM.
* :func:`xa_commit` / :func:`xa_rollback` — the TM's verdict. Commit
  makes the local commit record the durable decision, then drives
  phase 2 at the DLFMs; a crash in between is repaired by
  :func:`xa_recover` + :func:`xa_finish_pending`.

Note what the DLFMs see: only the LOCAL transaction id — monotonically
increasing per host database — never the gtrid. That is the paper's
design point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dlfm import api
from repro.errors import DataLinkError, ReproError, TransactionAborted
from repro.kernel import rpc


@dataclass(frozen=True)
class XAPrepareResult:
    """Phase-1 outcome the external TM sees for this host branch.

    ``vote == "commit"``: the branch is indoubt and the TM must call
    :func:`xa_commit` or :func:`xa_rollback`. ``vote == "read-only"``
    (XA_RDONLY): the whole branch — every DLFM participant and the
    host's own local transaction — read without writing, so it was
    released at phase 1: no PREPARE record, no ``xa_pending`` rows, and
    the TM must NOT drive phase 2 for it. ``readonly_servers`` lists
    the participants individually released by their read-only vote
    (phase 2 skips them even when the branch as a whole votes commit).
    """

    txn_id: int
    vote: str
    readonly_servers: tuple = ()


def _bootstrap(host) -> None:
    if "xa_pending" not in host.db.catalog.tables:
        from repro.sql.parser import parse as parse_sql
        host.db.ddl(parse_sql(
            "CREATE TABLE xa_pending (gtrid TEXT, txn_id INT, server TEXT)"))
        host.db.ddl(parse_sql(
            "CREATE INDEX xa_pending_g ON xa_pending (gtrid)"))
        host.db.set_table_stats("xa_pending", card=100_000,
                                colcard={"gtrid": 100_000})


def xa_prepare(session, gtrid: str):
    """Generator: phase 1 of the global transaction for this host branch.

    Returns an :class:`XAPrepareResult` carrying the LOCAL transaction
    id (distinct from ``gtrid``) and this branch's vote.
    """
    host = session.host
    _bootstrap(host)
    if session.session.txn is None and not session.participants:
        raise DataLinkError(f"nothing to prepare for gtrid {gtrid!r}")
    txn_id = session._ensure_txn()

    # 1. Durable registration BEFORE voting yes anywhere.
    reg = host.db.session()
    yield from reg.execute(
        "INSERT INTO xa_pending (gtrid, txn_id, server) VALUES (?, ?, ?)",
        (gtrid, txn_id, "*"))
    for server in sorted(session.participants):
        yield from reg.execute(
            "INSERT INTO xa_pending (gtrid, txn_id, server) "
            "VALUES (?, ?, ?)", (gtrid, txn_id, server))
    yield from reg.commit()

    # 2. Prepare the DLFM sub-transactions (they see the local txn id),
    # fanned out. Read-only voters are released at end of phase 1 and
    # pruned from the pending registration so the TM's eventual commit
    # skips them in phase 2.
    servers = sorted(session.participants)
    try:
        replies = yield from host.fan_out(
            [rpc.call(host.sim, session._channel(server),
                      api.Prepare(host.dbid, txn_id))
             for server in servers], f"xa-prepare-{txn_id}")
    except ReproError as error:
        yield from xa_rollback(host, gtrid, session=session)
        raise TransactionAborted(
            f"gtrid {gtrid!r}: participant failed prepare: {error}",
            reason="prepare") from error
    readonly = [server for server, reply in zip(servers, replies)
                if (reply or {}).get("vote") == "read-only"]
    if readonly:
        prune = host.db.session()
        for server in readonly:
            session.participants.discard(server)
            host.metrics.readonly_votes += 1
            yield from prune.execute(
                "DELETE FROM xa_pending WHERE gtrid = ? AND server = ?",
                (gtrid, server))
        yield from prune.commit()

    local_txn = session.session.txn
    if not session.participants and (local_txn is None
                                     or local_txn.last_lsn is None):
        # 3a. Read-only fast path: every participant voted read-only and
        # the local transaction wrote nothing — release the whole branch
        # at phase 1 (XA_RDONLY). Read locks drop now, no PREPARE record
        # is forced, the registration is erased, and the TM never drives
        # phase 2 for this gtrid.
        if local_txn is not None:
            yield from host.db.commit(local_txn)
        session.session.txn = None
        yield from _forget(host, gtrid)
        host.metrics.readonly_branches += 1
        result = XAPrepareResult(txn_id, "read-only", tuple(readonly))
        host.xa_votes[gtrid] = result
        return result

    # 3. Prepare the host's own local transaction.
    yield from host.db.prepare(local_txn)
    session.session.txn = None  # the session must not touch it any more
    result = XAPrepareResult(txn_id, "commit", tuple(readonly))
    host.xa_votes[gtrid] = result
    return result


def _pending_rows(host, gtrid: str):
    reader = host.db.session()
    rows = yield from reader.execute(
        "SELECT txn_id, server FROM xa_pending WHERE gtrid = ?", (gtrid,))
    yield from reader.commit()
    if not rows.rows:
        raise DataLinkError(f"unknown gtrid {gtrid!r}")
    txn_id = rows.rows[0][0]
    servers = sorted(s for _, s in rows.rows if s != "*")
    return txn_id, servers


def xa_commit(host, gtrid: str):
    """Generator: the TM decided commit for this branch.

    Returns ``{"txn_id", "servers", "readonly"}`` — the participants
    phase 2 was driven to, and those already released at phase 1 by
    their read-only vote (no phase-2 message goes to them).
    """
    txn_id, servers = yield from _pending_rows(host, gtrid)
    txn = host.db.find_prepared(txn_id)
    # The local COMMIT record (forced) is the branch's durable decision.
    yield from host.db.commit(txn)
    yield from _drive_phase2(host, gtrid, txn_id, servers)
    vote = host.xa_votes.pop(gtrid, None)
    return {"txn_id": txn_id, "servers": tuple(servers),
            "readonly": vote.readonly_servers if vote is not None else ()}


def xa_rollback(host, gtrid: str, session=None):
    """Generator: the TM decided rollback for this branch."""
    txn_id, servers = yield from _pending_rows(host, gtrid)
    chans = []
    for server in servers:
        try:
            chans.append(host.dlfms[server].connect())
        except ReproError:
            pass  # participant down; presumed abort mops up on restart
    try:
        # Fan the Aborts out; a down participant's error is swallowed
        # (presumed abort will mop up when it comes back).
        yield from host.fan_out(
            [rpc.call(host.sim, chan, api.Abort(host.dbid, txn_id))
             for chan in chans],
            f"xa-abort-{txn_id}", return_exceptions=True)
    finally:
        for chan in chans:
            chan.close()
    try:
        txn = host.db.find_prepared(txn_id)
    except ReproError:
        txn = None  # never reached local prepare (prepare-phase failure)
    if txn is not None:
        yield from host.db.rollback(txn)
    elif session is not None:
        yield from session.session.rollback()
    yield from _forget(host, gtrid)
    host.xa_votes.pop(gtrid, None)
    return txn_id


def _drive_phase2(host, gtrid: str, txn_id: int, servers):
    chans = [host.dlfms[server].connect() for server in servers]
    try:
        yield from host.fan_out(
            [rpc.call(host.sim, chan, api.Commit(host.dbid, txn_id))
             for chan in chans], f"xa-phase2-{txn_id}")
    finally:
        for chan in chans:
            chan.close()
    yield from _forget(host, gtrid)


def _forget(host, gtrid: str):
    cleaner = host.db.session()
    yield from cleaner.execute("DELETE FROM xa_pending WHERE gtrid = ?",
                               (gtrid,))
    yield from cleaner.commit()


def xa_recover(host):
    """Generator: classify surviving branches (after a host restart too).

    Returns ``{gtrid: {"state", "txn_id", "readonly"}}``:

    * ``state == "indoubt"`` — the local transaction is still prepared;
      the TM must call :func:`xa_commit` or :func:`xa_rollback`.
    * ``state == "commit-pending"`` — the local commit happened but
      phase 2 never finished; :func:`xa_finish_pending` re-drives it.

    ``readonly`` lists participants released at phase 1 by a read-only
    vote (best effort: the vote record is volatile, so after a restart
    it is empty — correctly so, since those participants were already
    pruned from the durable registration and need no phase 2). Branches
    that voted read-only as a whole never appear here: they finished at
    phase 1 and left no ``xa_pending`` rows behind.
    """
    if "xa_pending" not in host.db.catalog.tables:
        return {}
    reader = host.db.session()
    rows = yield from reader.execute(
        "SELECT gtrid, txn_id FROM xa_pending WHERE server = ?", ("*",))
    yield from reader.commit()
    prepared_ids = {t.id for t in host.db.indoubt_transactions()}
    status = {}
    for gtrid, txn_id in rows.rows:
        vote = host.xa_votes.get(gtrid)
        status[gtrid] = {
            "state": ("indoubt" if txn_id in prepared_ids
                      else "commit-pending"),
            "txn_id": txn_id,
            "readonly": vote.readonly_servers if vote is not None else ()}
    return status


def xa_finish_pending(host):
    """Generator: re-drive phase 2 for every committed-but-unfinished
    branch (idempotent at the DLFMs)."""
    status = yield from xa_recover(host)
    finished = []
    for gtrid, info in sorted(status.items()):
        if info["state"] != "commit-pending":
            continue
        txn_id, servers = yield from _pending_rows(host, gtrid)
        yield from _drive_phase2(host, gtrid, txn_id, servers)
        finished.append(gtrid)
    return finished
