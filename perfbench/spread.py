"""Run the benchmark over workloads and seeds; print every metric and,
across seeds, each metric's spread.

    python3 perfbench/spread.py --workload all --seeds 1
    python3 perfbench/spread.py --workload all --seeds 1-10 --save a.json
    python3 perfbench/spread.py --workload all --seeds 1-10 --against a.json

Run from the repository root. Runs ``perfbench/run.py`` once per
workload and seed, one run at a time, and prints each run's metrics by
name with their units. With two or more seeds it then prints, for every
metric, the median over the seeds and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median; an end-to-end metric is "steady" when that share is below a
third of its bound in ``BENCHMARK.json``. ``--save`` writes the medians
to a file; ``--against`` compares them with a saved set and flags every
end-to-end metric whose median got worse by more than its bound. Exits
1 if a run fails, a spread is too wide or a median drifted too far.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path,
                        help="write the medians over seeds to this file")
    parser.add_argument("--against", type=Path,
                        help="compare the medians with a saved file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    before = json.loads(args.against.read_text()) if args.against else {}
    medians: dict = {}
    ok = True
    for workload in names:
        values: dict = {}
        for seed in seeds(args.seeds):
            try:
                result = run(spec, workload, seed, args.trace)
            except RuntimeError as error:
                print(error, file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in sorted(result["metrics"].items()):
                values.setdefault(name, []).append(metric["value"])
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
            sys.stdout.flush()
        if len(seeds(args.seeds)) < 2:
            continue
        print(f"{workload}: spread over {len(seeds(args.seeds))} seeds")
        for name, vals in sorted(values.items()):
            median = statistics.median(vals)
            medians.setdefault(workload, {})[name] = median
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            verdict = ""
            if name in bounds:
                steady = spread < bounds[name] / 3
                ok = ok and steady
                verdict = "steady" if steady else "TOO WIDE"
            old = before.get(workload, {}).get(name)
            if name in bounds and old:
                change = median / old - 1
                worse = -change if better[name] == "higher" else change
                kept = worse <= bounds[name]
                ok = ok and kept
                verdict += (f"  median {change:+.2%} vs saved "
                            f"{'ok' if kept else 'WORSE THAN BOUND'}")
            print(f"  {name:40s} median {median:12.6g}  spread "
                  f"{spread:7.2%} {verdict}")
    if args.save:
        args.save.write_text(json.dumps(medians, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
