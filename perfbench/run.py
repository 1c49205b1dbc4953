"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload link-mix --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
One run repeats the workload (build, seed, timed phase, checks) on the
same seed as often as fits in ``--seconds``, at least three times.
``setup_s`` is the shortest set-up of the repetitions. The timed phase
is cut into segments of ``workloads.MARK_EVERY`` ops, which hold the
same work in every repetition, and a fixed reference loop runs (untimed
by the segments) between two segments. Each segment's wall time is
divided by the mean time of the reference loops on either side, which
takes out how fast the machine ran Python just then, and
``ops_per_ref_s`` divides the ops by the sum over segments of each
segment's fastest such time across repetitions (in ``ref_s``, see
``REF_S_LOOPS``). Sim-clock metrics must be identical in every
repetition, so they are reported once. ``--trace 1`` runs the workload
untraced at least twice, then once more with per-layer probes
installed, and reports the per-layer metrics instead (see
``README.md``).

The last line of standard output is the result object; earlier lines
are a human-readable summary. A failed check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: One ``ref_s`` is the wall time of this many reference loops
#: (``workloads.reference_loop``): about one second on a 2.1 GHz Xeon
#: virtual machine when nothing else competes for its cores.
REF_S_LOOPS = 350


def _import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads
    return workloads, tracing


@dataclass
class Rep:
    setup_s: float
    #: Wall seconds of each segment of the timed phase (see ``Outcome``),
    #: reference loops excluded.
    segments: list
    #: Per segment, the mean wall seconds of the reference loops run
    #: just before and just after it.
    reference: list
    outcome: object
    before: dict
    after: dict
    sizes: dict

    @property
    def delta(self) -> dict:
        return {k: v - self.before.get(k, 0) for k, v in self.after.items()}

    @property
    def timed_s(self) -> float:
        return sum(self.segments)

    @property
    def ops_per_wall_s(self) -> float:
        return self.outcome.ops / self.timed_s

    @property
    def segments_ref_s(self) -> list:
        """Each segment's wall time in ``ref_s``."""
        return [wall / (ref * REF_S_LOOPS)
                for wall, ref in zip(self.segments, self.reference)]

    def fingerprint(self) -> dict:
        """Every sim-clock quantity and engine count of the repetition."""
        out = self.outcome
        return {"ops": out.ops, "failed": out.failed,
                "sim_elapsed_s": out.sim_elapsed_s,
                "latencies": out.latencies, "before": self.before,
                "after": self.after, "sizes": self.sizes}


def _fields(prefix: str, obj, out: dict) -> None:
    for key, value in vars(obj).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}.{key}"] = value


def engine_counts(workload) -> dict:
    """Flat ``group/owner.field`` snapshot of the engine's own metrics."""
    out: dict = {}
    for db in workload.databases():
        _fields(f"db/{db.name}", db.metrics, out)
        _fields(f"locks/{db.name}", db.locks.metrics, out)
        _fields(f"wal/{db.name}", db.wal.metrics, out)
        _fields(f"buffer/{db.name}", db.pool.metrics, out)
    system = getattr(workload, "system", None)
    if system is not None:
        _fields(f"host/{system.host.dbid}", system.host.metrics, out)
        for name, dlfm in sorted(system.dlfms.items()):
            _fields(f"dlfm/{name}", dlfm.metrics, out)
            for pool in (dlfm.copyd.pool, dlfm.retrieved.pool,
                         dlfm.delete_groupd.pool, dlfm.replayd):
                _fields(f"workers/{pool.name}", pool.metrics, out)
    return out


def total(counts: dict, group: str, field: str) -> float:
    return sum(v for k, v in counts.items()
               if k.startswith(group + "/") and k.endswith("." + field))


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_rep(workloads, cls, seed: int, tracer) -> Rep:
    gc.collect()
    tracer.phase = "setup"
    workload = cls(seed, tracer)
    started = perf_counter()
    workload.setup()
    setup_s = perf_counter() - started
    before = engine_counts(workload)
    tracer.phase = "timed"
    started = perf_counter()
    outcome = workload.run()
    ended = perf_counter()
    # Segment k runs from the end of reference loop k - 1 to the start of
    # reference loop k.
    loops = [ref for _, ref in outcome.marks]
    starts = [started] + [at + ref for at, ref in outcome.marks]
    ends = [at for at, _ in outcome.marks] + [ended]
    segments = [end - start for start, end in zip(starts, ends)]
    reference = [statistics.fmean(loops[max(0, k - 1):k + 1])
                 for k in range(len(segments))]
    after = engine_counts(workload)
    tracer.phase = "check"
    workload.verify()
    if outcome.ops < 1000:
        raise workloads.CheckFailed(
            f"only {outcome.ops} ops completed; a run needs 1000")
    return Rep(setup_s, segments, reference, outcome, before, after,
               workload.sizes())


def end_to_end(reps: list) -> dict:
    out = reps[0].outcome
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fastest = sum(map(min, zip(*(r.segments_ref_s for r in reps))))
    return {
        "setup_s": (min(r.setup_s for r in reps), "s"),
        "ops_per_ref_s": (out.ops / fastest, "1/ref_s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_ops_per_s": (out.ops / out.sim_elapsed_s, "1/sim_s"),
        "sim_latency_p50_s": (percentile(out.latencies, 50), "sim_s"),
        "sim_latency_p99_s": (percentile(out.latencies, 99), "sim_s"),
    }


def per_layer(rep: Rep, tracer, untraced_ops_per_wall_s: float) -> dict:
    d, ops = rep.delta, rep.outcome.ops
    t = tracer
    facts = rep.outcome.facts

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    commit_sim = t.sim_samples("host.commit", parent=None)
    hits, misses = total(d, "buffer", "hits"), total(d, "buffer", "misses")
    plan_hits, binds = total(d, "db", "plan_hits"), total(d, "db",
                                                         "plan_binds")
    forces, saved = total(d, "wal", "forces"), total(d, "wal",
                                                     "forces_saved")
    m = {
        "kernel.rpc.envelopes_per_txn": (
            ratio(total(d, "dlfm", "rpcs"), ops), "count/op"),
        "kernel.rpc.calls": (t.calls("kernel.rpc"), "count"),
        "kernel.rpc.self_wall_s": (t.self_wall("kernel.rpc"), "s"),
        "kernel.spawns_per_txn": (ratio(t.calls("kernel.spawn"), ops),
                                  "count/op"),
        "kernel.channel.sends_per_txn": (
            ratio(t.calls("kernel.channel.send"), ops), "count/op"),
        "kernel.pool.busy_sim_s": (total(d, "workers", "busy_time"),
                                   "sim_s"),
        "sql.parse.calls": (t.calls("sql.parse"), "count"),
        "sql.parse.self_wall_s": (t.self_wall("sql.parse"), "s"),
        "sql.plan.calls": (t.calls("sql.plan"), "count"),
        "sql.plan.self_wall_s": (t.self_wall("sql.plan"), "s"),
        "sql.plan_cache.hit_ratio": (ratio(plan_hits, plan_hits + binds),
                                     "ratio"),
        "sql.plan_cache.evictions": (total(d, "db", "plan_evictions"),
                                     "count"),
        "sql.executor.self_wall_s": (t.self_wall("sql.executor"), "s"),
        "sql.executor.heap_fetches_per_row": (
            ratio(t.calls("minidb.storage.heap_fetch"),
                  t.probes["sql.executor"].rows), "count/row"),
        "minidb.locks.acquires_per_op": (
            ratio(total(d, "locks", "acquires"), ops), "count/op"),
        "minidb.locks.self_wall_s": (t.self_wall("minidb.locks"), "s"),
        "minidb.locks.wait_sim_s": (sum(t.sim_samples("minidb.locks")),
                                    "sim_s"),
        "minidb.locks.waits": (total(d, "locks", "waits"), "count"),
        "minidb.locks.deadlocks": (total(d, "locks", "deadlocks"), "count"),
        "minidb.locks.timeouts": (total(d, "locks", "timeouts"), "count"),
        "minidb.locks.escalations": (total(d, "locks", "escalations"),
                                     "count"),
        "minidb.btree.scan_calls": (t.calls("minidb.btree.scan"), "count"),
        "minidb.btree.scan_self_wall_s": (t.self_wall("minidb.btree.scan"),
                                          "s"),
        "minidb.btree.insert_self_wall_s": (
            t.self_wall("minidb.btree.insert"), "s"),
        "minidb.btree.setup_insert_self_wall_s": (
            t.self_wall("minidb.btree.insert", "setup"), "s"),
        "minidb.storage.buffer_hit_ratio": (ratio(hits, hits + misses),
                                            "ratio"),
        "minidb.storage.fetches_per_op": (ratio(hits + misses, ops),
                                          "count/op"),
        "minidb.storage.self_wall_s": (
            t.self_wall("minidb.storage.pool")
            + t.self_wall("minidb.storage.heap_fetch")
            + t.self_wall("minidb.storage.heap"), "s"),
        "minidb.storage.page_writes_per_op": (
            ratio(total(d, "buffer", "page_writes"), ops), "count/op"),
        "minidb.wal.forces_per_commit": (
            ratio(forces, total(d, "db", "commits")), "ratio"),
        "minidb.wal.forces_saved_ratio": (ratio(saved, forces + saved),
                                          "ratio"),
        "minidb.wal.appends_per_txn": (ratio(total(d, "wal", "appends"),
                                             ops), "count/op"),
        "minidb.wal.self_wall_s": (t.self_wall("minidb.wal"), "s"),
        "minidb.db.statements_per_txn": (
            ratio(total(d, "db", "statements"), ops), "count/op"),
        "minidb.db.commit_sim_s": (mean(t.sim_samples("minidb.db.commit")),
                                   "sim_s"),
        "minidb.db.prepare_sim_s": (mean(t.sim_samples(
            "minidb.db.commit", parent="dlfm.op.prepare")), "sim_s"),
        "dlfm.phase2_sim_s": (mean(t.sim_samples("dlfm.op.commit")),
                              "sim_s"),
        "dlfm.commit_retries_per_txn": (
            ratio(total(d, "dlfm", "commit_retries"), ops), "count/op"),
        "dlfm.link_errors": (total(d, "dlfm", "link_errors"), "count"),
        "dlfm.backouts": (total(d, "dlfm", "backouts"), "count"),
        "dlfm.daemons.pass_self_wall_s": (t.self_wall("dlfm.daemons.pass"),
                                          "s"),
        "dlfm.daemons.archived_per_link": (
            ratio(total(d, "dlfm", "files_archived"),
                  total(d, "dlfm", "links")), "ratio"),
        "dlfm.daemons.gc_entries_removed": (
            total(d, "dlfm", "gc_entries_removed"), "count"),
        "host.execute.self_wall_s": (t.self_wall("host.execute"), "s"),
        "host.commit.self_wall_s": (t.self_wall("host.commit"), "s"),
        "host.commit.sim_p50_s": (
            percentile(commit_sim, 50) if commit_sim else 0.0, "sim_s"),
        "host.commit.sim_p99_s": (
            percentile(commit_sim, 99) if commit_sim else 0.0, "sim_s"),
        "host.load.rows_per_sim_s": (
            ratio(facts.get("load_rows", 0), facts.get("load_sim_s", 0.0)),
            "1/sim_s"),
        "host.load.self_wall_s": (t.self_wall("host.load"), "s"),
        "host.statement_backouts": (total(d, "host", "statement_backouts"),
                                    "count"),
        "host.prepare_failures": (total(d, "host", "prepare_failures"),
                                  "count"),
        "unattributed_wall_s": (rep.timed_s - t.total_self_wall(), "s"),
        "trace.overhead_frac": (
            1.0 - rep.ops_per_wall_s / untraced_ops_per_wall_s, "ratio"),
        "trace.spans": (len(t.spans), "count"),
    }
    for kind in ("link", "unlink", "prepare", "commit", "commit_piece"):
        m[f"dlfm.op.{kind}.self_wall_s"] = (
            t.self_wall(f"dlfm.op.{kind}"), "s")
    return m


def summary(name: str, reps: list, traced=None) -> None:
    out = reps[0].outcome
    print(f"{name}: {len(reps)} untraced repetitions, {out.ops} ops and "
          f"{out.failed} failed each, {len(out.latencies)} latency samples")
    print(f"  sizes: {json.dumps(reps[0].sizes)}")
    print(f"  traffic: {json.dumps(out.facts)}")
    for r in reps:
        print(f"  rep: setup {r.setup_s:.3f} s, timed {r.timed_s:.3f} s, "
              f"{r.ops_per_wall_s:.1f} ops/wall-s, "
              f"{out.ops / sum(r.segments_ref_s):.1f} ops/ref-s")
    if traced is not None:
        print(f"  traced rep: timed {traced.timed_s:.3f} s, "
              f"{traced.ops_per_wall_s:.1f} ops/wall-s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads, tracing = _import_program()
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    min_reps = 2 if args.trace else 3
    budget = args.seconds / 2 if args.trace else args.seconds
    reps, traced, problems = [], None, []
    null = tracing.NullTracer()
    started = perf_counter()
    try:
        # Start another repetition only if one as long as the longest so
        # far still ends within the budget.
        longest = 0.0
        while len(reps) < min_reps or (
                perf_counter() - started + longest <= budget):
            rep_started = perf_counter()
            reps.append(run_rep(workloads, cls, args.seed, null))
            longest = max(longest, perf_counter() - rep_started)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_rep(workloads, cls, args.seed, tracer)
            finally:
                tracer.uninstall()
    except workloads.CheckFailed as failure:
        problems.append(f"check failed: {failure}")
    except Exception as error:   # a failed run reports, never tracebacks
        problems.append(f"run failed: {type(error).__name__}: {error}")

    if not problems:
        first = reps[0].fingerprint()
        for i, rep in enumerate(reps[1:] + ([traced] if traced else []), 1):
            if rep.fingerprint() != first:
                what = "traced run" if rep is traced else f"repetition {i}"
                problems.append(f"{what} differs from repetition 0 on the "
                                f"sim clock or in engine counts")
        if traced is not None:
            missing = tracer.missing(args.workload)
            if missing:
                problems.append(f"probes saw no calls: {', '.join(missing)}")

    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        done = reps[0].outcome if reps else None
        print(json.dumps({"correct": False,
                          "attempted": max(1, done.attempted if done else 1),
                          "failed": done.failed if done else 0,
                          "metrics": {}}))
        return 1

    summary(args.workload, reps, traced)
    if traced is not None:
        untraced = statistics.median(r.ops_per_wall_s for r in reps)
        metrics = per_layer(traced, tracer, untraced)
        out_dir = HERE / "out"
        os.makedirs(out_dir, exist_ok=True)
        spans = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write_spans(spans)
        print(f"  spans: {len(tracer.spans)} written to "
              f"{spans.relative_to(HERE.parent)}")
    else:
        metrics = end_to_end(reps)
    out = reps[0].outcome
    print(json.dumps({
        "correct": True, "attempted": out.attempted, "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
