#!/usr/bin/env python3
"""cProfile of one warm pass over a benchmark workload's corpus.

    python3 scripts/profile_pass.py WORKLOAD [--sort tottime|cumtime] [--top N] [--seed S]

WORKLOAD is a name from perfbench/workloads.py (solve-16x8, solve-48x6,
distance-128), which is imported and not changed; S seeds the order in
which each pass visits the corpus, as in `perfbench/run.py --seed S`.

A first pass runs unprofiled, to warm up, and counts the calls of
`SiteMap._anchor` and `disks_intersection` against their distinct
arguments: (map, point) and (region, sites, radius), distinct within one
operation.  The second pass runs under cProfile; the script prints its
top N functions by the chosen sort key, then the two repeat counts.  An
operation that raises is counted by error class and skipped, as the
benchmark counts it.
"""
import argparse
import cProfile
import os
import pstats
import random
import sys
import warnings
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from twocenter import disks, region  # noqa: E402


class Repeats:
    """Calls and distinct arguments of one function, summed over operations."""

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.distinct = 0
        self.seen = set()

    def note(self, key) -> None:
        self.calls += 1
        if key not in self.seen:
            self.seen.add(key)
            self.distinct += 1

    def line(self) -> str:
        share = 1.0 - self.distinct / self.calls if self.calls else 0.0
        return (f"{self.name}: {self.calls} calls, {self.distinct} distinct, "
                f"{100 * share:.1f} % repeats")


def counting_pass(ops, anchor: Repeats, inter: Repeats) -> Counter:
    """Run ops with both functions wrapped; returns `run`'s error count."""
    plain_anchor = region.SiteMap._anchor
    plain_inter = disks.disks_intersection

    def counted_anchor(self, x):
        anchor.note((id(self), x[0], x[1]))
        return plain_anchor(self, x)

    def counted_inter(reg, sites, r):
        inter.note((id(reg), tuple((s[0], s[1]) for s in sites), r))
        return plain_inter(reg, sites, r)

    holders = [m for name, m in list(sys.modules.items())
               if name.startswith("twocenter.")
               and getattr(m, "disks_intersection", None) is plain_inter]
    region.SiteMap._anchor = counted_anchor
    for m in holders:
        m.disks_intersection = counted_inter
    try:
        return run(ops, fresh=(anchor, inter))
    finally:
        region.SiteMap._anchor = plain_anchor
        for m in holders:
            m.disks_intersection = plain_inter


def run(ops, fresh=()) -> Counter:
    """Run each operation once, emptying the distinct-argument sets of the
    Repeats in `fresh` before each; returns the class names of the errors
    raised."""
    errors = Counter()
    for _oid, thunk in ops:
        for rep in fresh:
            rep.seen.clear()
        try:
            thunk()
        except Exception as exc:  # a raised error is a counted failure, as in the benchmark
            errors[type(exc).__name__] += 1
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    for problem in wl.load(workloads.load_refs()["workloads"][wl.name]):
        print(f"# PROBLEM {problem}")
    warnings.simplefilter("ignore")
    rng = random.Random(args.seed)

    anchor, inter = Repeats("SiteMap._anchor"), Repeats("disks_intersection")
    warm_errors = counting_pass(wl.ops(rng), anchor, inter)

    ops = wl.ops(rng)
    prof = cProfile.Profile()
    prof.enable()
    errors = run(ops)
    prof.disable()

    print(f"# {wl.name}, seed {args.seed}: {len(ops)} operations per pass; raised "
          f"in the profiled pass {dict(errors)}, in the warm one {dict(warm_errors)}")
    pstats.Stats(prof, stream=sys.stdout).sort_stats(args.sort).print_stats(args.top)
    print(anchor.line())
    print(inter.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
