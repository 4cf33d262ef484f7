#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, judged end to end.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seed S --out DIR

Pair i runs `perfbench/run.py --workload W --seed S+i --trace 0` once in
each checkout, the parent first in even pairs and the change first in
odd ones, for the run length that CHANGE_DIR/BENCHMARK.json sets.  Each
run's result file goes to DIR/{parent,change}-<seed>.json.

For every end-to-end metric of BENCHMARK.json the script prints each
side's median and quartiles, how many pairs the change won (ties count
for neither side), and whether the gain rule holds: the change wins at
least nine tenths of the pairs and the medians differ, in the metric's
better direction, by more than the parent's interquartile spread.  It
also prints the failed share of operations on each side.  Exits 1 when
a run fails or reports incorrect outputs.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    """The last-line summary of one benchmark run, plus its result file."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(vals):
    """(q1, median, q3); the quartiles fall back to the median below 2 runs."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def judge(name: str, better: str, parent, change) -> bool:
    """Print one metric's row; True when the gain rule holds."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - pmed)
    holds = wins >= math.ceil(0.9 * len(parent)) and gain > pq3 - pq1
    rel = gain / abs(pmed) if pmed else float("nan")
    print(f"{name:<14} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
          f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
          f"better by {rel:+.1%}  wins {wins}/{len(parent)}  "
          f"gain rule {'holds' if holds else 'fails'}")
    return holds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)
    runs = {side: [] for side in SIDES}
    bad = False
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            res = run_once(checkout.resolve(), args.workload, seed, seconds,
                           (args.out / f"{side}-{seed}.json").resolve())
            runs[side].append(res)
            bad |= not res["correct"]
            print(f"# pair {i} seed {seed} {side}: correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} " +
                  " ".join(f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)

    print(f"# {args.workload}: {args.pairs} pairs, {seconds:g} s per run, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}")
    for m in bench["end_to_end"]:
        name = m["name"]
        judge(name, m["better"],
              [r["metrics"][name]["value"] for r in runs["parent"]],
              [r["metrics"][name]["value"] for r in runs["change"]])
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side:<7} failed {failed}/{attempted} operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
