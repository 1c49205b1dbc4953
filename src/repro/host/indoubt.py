"""Indoubt-transaction resolution (paper §3.3).

"If DLFM fails after prepare then that transaction remains in an indoubt
state. It is the host database's responsibility for resolving the
indoubt transactions with the DLFM. Either host database restart
processing does it, or, if DLFM is unavailable at restart, host database
spawns a daemon whose sole purpose is to poll the DLFM periodically and
resolve the indoubts when the DLFM is up."
"""

from __future__ import annotations

from repro.dlfm import api
from repro.errors import ReproError
from repro.kernel import rpc
from repro.kernel.sim import Timeout


def _resolver_session(host):
    """The host's cached resolver session: keeps the poll SELECT and the
    per-transaction forget DELETE on cached plans across poller passes
    instead of re-preparing them on a fresh session every time."""
    session = host._indoubt_session
    if session is None:
        if host.config.read_isolation == "SI":
            session = host.db.session("SI")
        else:
            session = host.db.session()
        host._indoubt_session = session
    return session


def resolve_indoubts(host):
    """Generator: one full resolution pass. Returns a summary dict.

    Presumed abort: first, re-drive phase 2 for every transaction with a
    durable commit decision — ``dlk_indoubt`` rows and piggybacked
    COMMIT-payload decisions alike; then every transaction a DLFM still
    reports as prepared has no decision and is aborted. The re-drive
    fans out across all (transaction, server) pairs at once, at the
    coordinator's ``fanout_workers`` width: after a crash mid-fan-out
    many transactions are in doubt together, and re-driving them
    serially would stretch recovery by a round-trip per pair. A
    transaction is forgotten — ONE ``DELETE ... WHERE txn_id = ?``
    covering all its decision rows, one FORGET record for a piggybacked
    decision, both left unforced — only when every one of its
    participants acknowledged; partially-acked transactions keep their
    decision intact and the poller re-drives the idempotent Commits on
    the next pass.
    """
    committed = aborted = 0

    # 1. Collect every live decision: durable table rows ∪ piggybacked.
    session = _resolver_session(host)
    try:
        rows = yield from session.execute(
            "SELECT txn_id, server FROM dlk_indoubt")
        yield from session.commit()
    except ReproError:
        host._indoubt_session = None  # do not reuse a poisoned session
        raise
    decisions: dict[int, set] = {}
    table_txns = set()
    for txn_id, server in rows.rows:
        decisions.setdefault(txn_id, set()).add(server)
        table_txns.add(txn_id)
    for txn_id, servers in host.pending_decisions().items():
        decisions.setdefault(txn_id, set()).update(servers)

    # 2. Re-drive phase 2, all (txn, server) pairs at once.
    pending = sorted((txn_id, server)
                     for txn_id, servers in decisions.items()
                     for server in servers)
    first_error = None
    if pending:
        acked: dict[int, set] = {}
        chans = [host.dlfms[server].connect() for _, server in pending]
        try:
            outcomes = yield from host.fan_out(
                [rpc.call(host.sim, chan, api.Commit(host.dbid, txn_id))
                 for chan, (txn_id, _) in zip(chans, pending)],
                "indoubt-commit", return_exceptions=True)
        finally:
            for chan in chans:
                chan.close()
        for (txn_id, server), outcome in zip(pending, outcomes):
            if isinstance(outcome, BaseException):
                if first_error is None:
                    first_error = outcome
                continue
            acked.setdefault(txn_id, set()).add(server)
            committed += 1
            host.metrics.indoubt_commits += 1
        # 3. Forget fully-acknowledged transactions — one prepared
        #    DELETE executed per transaction.
        try:
            forget = yield from session.prepare(
                "DELETE FROM dlk_indoubt WHERE txn_id = ?")
            for txn_id in sorted(acked):
                if acked[txn_id] != decisions[txn_id]:
                    continue  # partial ack: keep the decision, retry later
                if txn_id in table_txns:
                    yield from forget.execute((txn_id,))
                host.forget_decision(txn_id)
            # Unforced, like the coordinator's own forget: a lost DELETE
            # only re-drives an idempotent Commit on the next pass.
            yield from session.commit(force=False)
        except ReproError:
            host._indoubt_session = None
            raise
    if first_error is not None:
        raise first_error

    # 4. Anything still prepared at a DLFM has no decision → abort.
    counts = yield from host.fan_out(
        [_sweep_server(host, server) for server in sorted(host.dlfms)],
        "indoubt-sweep")
    aborted = sum(counts)
    return {"committed": committed, "aborted": aborted}


def _sweep_server(host, server: str):
    """Generator: abort one server's decision-less prepared txns."""
    chan = host.dlfms[server].connect()
    aborted = 0
    try:
        indoubt = yield from rpc.call(host.sim, chan,
                                      api.ListIndoubt(host.dbid))
        for txn_id in indoubt:
            yield from rpc.call(host.sim, chan,
                                api.Abort(host.dbid, txn_id))
            aborted += 1
            host.metrics.indoubt_aborts += 1
    finally:
        chan.close()
    return aborted


def indoubt_poller(host, server: str):
    """Generator (daemon): poll an unavailable DLFM until it comes back,
    then resolve. Spawn with ``sim.spawn(indoubt_poller(host, name))``."""
    while True:
        try:
            result = yield from resolve_indoubts(host)
            return result
        except ReproError:
            yield Timeout(host.config.indoubt_poll_period)
