#!/usr/bin/env python3
"""cProfile of one warm pass over a benchmark workload's corpus.

    python3 scripts/profile_pass.py WORKLOAD [--sort tottime|cumtime] [--top N] [--seed S]

WORKLOAD is a name from perfbench/workloads.py (solve-16x8, solve-48x6,
distance-128), which is imported and not changed; S seeds the order in
which each pass visits the corpus, as in `perfbench/run.py --seed S`.

A first pass runs unprofiled, to warm up, and counts the calls of
`disks_intersection`, `disks._disk2` and `disks._solve3` against their
distinct arguments: (region, sites, radius) and (region, ordered
points), distinct within one operation, and how many of the `_disk2` and
`_solve3` calls solved their basis rather than reading it from the
region's cache.  It counts the `SiteMap` reads (`distance`, `anchor`,
`path`) and the distinct walks they made (`SiteMap._walk`, one per map
and point not read before), the walks grouped by the function that
called the read, and the calls of `geom.orientation`,
`Region._ray_enters` (one per extension ray `Region.tree` tests) and
`disks.compute_events`.  It also counts the `SiteMap` builds and the
triangles their walks expanded (`SiteMap._expand`), against the
triangles of all the maps built, which shows how much of each map its
queries needed, the `seg_point_distance` calls, the `RingIndex` queries by kind (classify,
near), the `decide` calls with how many of them computed a fresh
`chain_side` (one that grew its split's `PairChains.sides`) and how many
the bound exit (`decision.below_bound`) answered before any `chain_side`
call, and the chart circles `disks._charts` built around ring corners
against the corners it was offered, and the probe rounds of
`optimize.narrow_interval`: run (it called `_event_signature`), skipped
(it reached a split with free points and returned without one, its
largest probe failing `chain_infeasible`) or settled by the bound
(returned without one otherwise: its other probes are below L_ij and
`decide` rejects the largest).  It counts the `one_center` calls, and
the solves among them (calls that grew the region's one-center cache),
by the function that called `one_center` (`chain_radius`, `pair_chains`,
`shared_vertex_decide`, `hull_center`, ...; a call through
`decision.chain_center` is named by its caller), and the skips of the
gates that spare one: the chain splits whose balance
`driver.split_order` never solved, the shared-vertex tries skipped on
`PairChains.far`, the `pair_coincidence_radius` calls answered from a
chain-plus-one-point one-center (`PairChains.reach`), and the
`one_center` coverage tests that `disks._within` answered from the
Euclidean distance.  Each counted function is one row of `counting_pass`'s table,
rebound for the first pass only.  The second pass runs under cProfile;
the script prints its top N functions by the chosen sort key, then the
counts of the first pass.  An operation that raises is counted by error
class and skipped, as the benchmark counts it.
"""
import argparse
import cProfile
import functools
import math
import os
import pstats
import random
import sys
import warnings
from collections import Counter
from contextlib import contextmanager
from typing import Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from twocenter import decision, disks, geom, region  # noqa: E402

# the functions whose `_within` calls are `one_center`'s coverage tests
ONE_CENTER_FRAMES = ("one_center", "mtf1", "mtf2")

# the `SiteMap` methods that read a point's anchor, walking on a miss
READ_METHODS = ("distance", "anchor", "path")

# their code and `_anchor`'s, which a walk's reader is looked for above, and
# that of the reader of a split's one-centers, which a call's caller is
# looked for above
SKIPPED_CODES = ({vars(region.SiteMap)[name].__code__ for name in READ_METHODS + ("_anchor",)}
                 | {decision.chain_center.__code__})


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


def caller() -> str:
    """Name of the function that made the counted call: the first frame
    up the stack that is not this script's (the counters and the thin
    functions that call them), nor a `SiteMap` read method or `_anchor`
    (so that a walk is named by the function that made the read), nor
    `decision.chain_center` (so that a `one_center` call is named by the
    function that read the split), nor a comprehension."""
    frame = sys._getframe(1)
    while (frame.f_globals is globals() or frame.f_code in SKIPPED_CODES
           or frame.f_code.co_name.startswith("<")):
        frame = frame.f_back
    return frame.f_code.co_name


@contextmanager
def rebound(rows):
    """Rebind each row's target (spelled as in `tracing.TARGETS`) to a
    thin function calling `counter(original, *args)`: a class attribute
    on its class, a function in every module of the package that holds
    it.  Every binding replaced is restored on exit, in reverse."""
    def thin(counter, plain):
        @functools.wraps(plain)
        def call(*args, **kwargs):
            return counter(plain, *args, **kwargs)
        return call

    mods = tracing.package_modules().values()
    replaced = []
    try:
        for target, counter in rows:
            owner, attr, plain = tracing._resolve(target)
            holders = ([(owner, attr)] if isinstance(owner, type) else
                       [(m, name) for m in mods for name, val in list(vars(m).items())
                        if val is plain])
            call = thin(counter, plain)
            for holder, name in holders:
                setattr(holder, name, call)
                replaced.append((holder, name, plain))
        yield
    finally:
        for holder, name, plain in reversed(replaced):
            setattr(holder, name, plain)


def counting_pass(ops, inter: Repeats, basis: Tuple[Repeats, Repeats],
                  calls: Counter) -> Counter:
    """Run ops with the counted functions rebound; returns `run`'s error
    count.  `calls` counts the `SiteMap` reads ("read.<method>") and walks
    ("walk.<reader>"), builds and expanded triangles, the `orientation`,
    `_ray_enters` and `compute_events` calls, the `_disk2` and `_solve3`
    calls that solved their basis, `seg_point_distance`, the `RingIndex`
    queries, the `decide` calls, those of them that grew their split's
    `PairChains.sides` and those the bound exit answered without a
    `chain_side` call, the `_charts` calls with their corner circles and
    the ring corners offered, the probe rounds run, skipped and settled
    by the bound with the `_event_signature` calls, the `one_center` calls
    ("call.<function>") and solves ("solve.<function>") by caller and the
    gates' skips."""
    disk2, solve3 = basis

    def count(key):
        def counter(plain, *args, **kwargs):
            calls[key] += 1
            return plain(*args, **kwargs)
        return counter

    def noted(repeats: Repeats, key):
        def counter(plain, *args, **kwargs):
            repeats.note(key(*args, **kwargs))
            return plain(*args, **kwargs)
        return counter

    def walk(plain, self, x):
        calls["walk." + caller()] += 1
        return plain(self, x)

    def build(plain, self, tp, source):
        calls["maps.builds"] += 1
        calls["maps.triangles"] += len(tp.triangles)
        plain(self, tp, source)

    def decide(plain, h, i, j, r):
        calls["decide"] += 1
        side_cache = decision.pair_chains(h, i, j).sides
        before, sides = len(side_cache), calls["chain_side"]
        res = plain(h, i, j, r)
        calls["decide.fresh_side"] += len(side_cache) > before
        calls["decide.bound"] += (res.branch == "forced-overload"
                                  and calls["chain_side"] == sides)
        return res

    def charts(plain, reg, q, r):
        out = plain(reg, q, r)
        calls["charts"] += 1
        calls["charts.circles"] += len(out) - 1    # the site's own is not a corner's
        calls["charts.corners"] += len(reg.corners)
        return out

    def narrow(plain, h, i, j, iv):
        before = calls["signature"]
        try:
            out = plain(h, i, j, iv)
        finally:
            calls["probe.run"] += calls["signature"] > before
        pc = decision.pair_chains(h, i, j)
        if calls["signature"] == before and pc.free:
            gap = out[0]    # the gap, returned with the decision at its upper end
            top = gap.lo + (gap.hi - gap.lo) * (1 - 1e-9)    # the largest probe
            calls["probe.skipped" if decision.chain_infeasible(h, pc, top)
                  else "probe.settled"] += 1
        return out

    def one_center(plain, space, pts):
        cache = disks._as_region(space)._onecenter_cache
        before, name = len(cache), caller()
        out = plain(space, pts)
        calls["call." + name] += 1
        calls["solve." + name] += len(cache) > before
        return out

    def order(plain, h):
        calls["splits"] += h.k * (h.k - 1) // 2
        for split in plain(h):
            calls["splits.yielded"] += 1
            yield split

    def shared(plain, h, i, j, r):
        pc = decision.pair_chains(h, i, j)
        tols = h.ambient.tol
        vxs = len(geom.unique_points([h.extreme(i), h.extreme(i + 1),
                                      h.extreme(j), h.extreme(j + 1)]))
        calls["shared.tries"] += 2 * vxs
        calls["shared.skipped"] += vxs * sum(far > r + tols.radius + tols.near
                                             for far in pc.far)
        return plain(h, i, j, r)

    def coincidence(plain, h, i, j, t, q1, q2, iv):
        pc = decision.pair_chains(h, i, j)
        cap = iv.hi + h.ambient.tol.near
        calls["coincidence"] += 1
        calls["coincidence.gated"] += any(
            decision.chain_center(h.region, pc, t - 1, [q]).radius > cap for q in (q1, q2))
        return plain(h, i, j, t, q1, q2, iv)

    def within(plain, reg, q, x, r, tol):
        if caller() in ONE_CENTER_FRAMES:
            calls["covers"] += 1
            calls["covers.euclidean"] += math.hypot(x[0] - q.x, x[1] - q.y) > r + tol
        return plain(reg, q, x, r, tol)

    rows = [(f"region.SiteMap.{name}", count("read." + name)) for name in READ_METHODS]
    rows += [
        ("region.SiteMap._walk", walk),
        ("region.SiteMap.__init__", build),
        ("region.SiteMap._expand", count("maps.expanded")),
        ("geom.orientation", count("orientation")),
        ("region.Region._ray_enters", count("ray_enters")),
        ("disks.compute_events", count("compute_events")),
        ("disks.disks_intersection", noted(inter, lambda reg, sites, r: (
            id(reg), tuple((s[0], s[1]) for s in sites), r))),
        ("disks._disk2", noted(disk2, lambda reg, a, b: (
            id(reg), a[0], a[1], b[0], b[1]))),
        ("disks._solve3", noted(solve3, lambda reg, a, b, c: (
            id(reg), a[0], a[1], b[0], b[1], c[0], c[1]))),
        ("disks._path_midpoint_disk", count("disk2.solved")),
        ("disks._triple_disk", count("solve3.solved")),
        ("geom.seg_point_distance", count("seg_point_distance")),
        ("geom.RingIndex.classify", count("RingIndex.classify")),
        ("geom.RingIndex.near", count("RingIndex.near")),
        ("decision.decide", decide),
        ("decision.chain_side", count("chain_side")),
        ("disks._charts", charts),
        ("optimize.narrow_interval", narrow),
        ("optimize._event_signature", count("signature")),
        ("disks.one_center", one_center),
        ("driver.split_order", order),
        ("driver._balance", count("splits.balanced")),
        ("decision.shared_vertex_decide", shared),
        ("optimize.pair_coincidence_radius", coincidence),
        ("disks._within", within),
    ]
    with rebound(rows):
        return run(ops, fresh=(inter,) + basis)


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

    inter = Repeats("disks_intersection")
    basis = Repeats("_disk2"), Repeats("_solve3")
    calls = Counter()
    warm_errors = counting_pass(wl.ops(rng), inter, basis, calls)

    ops = wl.ops(rng)
    prof = cProfile.Profile()
    prof.enable()
    errors = run(ops)
    prof.disable()

    print(f"# {wl.name}, seed {args.seed}: {len(ops)} operations per pass; raised "
          f"in the profiled pass {dict(errors)}, in the warm one {dict(warm_errors)}")
    pstats.Stats(prof, stream=sys.stdout).sort_stats(args.sort).print_stats(args.top)
    reads = {name: calls["read." + name] for name in READ_METHODS}
    walks = sorted(((n, key[len("walk."):]) for key, n in calls.items()
                    if key.startswith("walk.")), reverse=True)
    print(f"SiteMap: {sum(reads.values())} reads ("
          + ", ".join(f"{name} {n}" for name, n in reads.items())
          + f"), {sum(n for n, _f in walks)} distinct walks; walks by reader "
          + ", ".join(f"{f} {n}" for n, f in walks))
    print(f"orientation: {calls['orientation']} calls; Region._ray_enters: "
          f"{calls['ray_enters']} calls; compute_events: {calls['compute_events']} calls")
    print(inter.line())
    for rep, solved in zip(basis, ("disk2.solved", "solve3.solved")):
        print(f"{rep.line()}, {calls[solved]} solved")
    built, expanded = calls["maps.triangles"], calls["maps.expanded"]
    print(f"SiteMap: {calls['maps.builds']} builds, {expanded} of {built} triangles "
          f"expanded ({100 * (expanded / built if built else 0.0):.1f} %)")
    print(f"seg_point_distance: {calls['seg_point_distance']} calls")
    print(f"RingIndex: {calls['RingIndex.classify']} classify, "
          f"{calls['RingIndex.near']} near queries")
    print(f"decide: {calls['decide']} calls, {calls['decide.fresh_side']} computed "
          f"a fresh chain_side, {calls['decide.bound']} answered by the bound "
          f"before any chain_side")
    print(f"_charts: {calls['charts']} calls, {calls['charts.circles']} corner circles "
          f"built of {calls['charts.corners']} ring corners offered")
    print(f"probe rounds: {calls['probe.run']} run ({calls['signature']} "
          f"_event_signature calls), {calls['probe.skipped']} skipped, "
          f"{calls['probe.settled']} settled by the bound")
    by_caller = sorted(((n, key[len("call."):]) for key, n in calls.items()
                        if key.startswith("call.")), reverse=True)
    print(f"one_center: {sum(n for n, _f in by_caller)} calls, "
          f"{sum(calls['solve.' + f] for _n, f in by_caller)} solves; by caller "
          + ", ".join(f"{f} {n} ({calls['solve.' + f]})" for n, f in by_caller))
    print(f"gates: {calls['splits'] - calls['splits.balanced']} of {calls['splits']} "
          f"chain splits never balanced ({calls['splits.yielded']} yielded); "
          f"{calls['shared.skipped']} of {calls['shared.tries']} shared-vertex tries "
          f"skipped; {calls['coincidence.gated']} of {calls['coincidence']} "
          f"pair_coincidence_radius calls gated; {calls['covers.euclidean']} of "
          f"{calls['covers']} one_center coverage tests answered by the Euclidean "
          f"distance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
