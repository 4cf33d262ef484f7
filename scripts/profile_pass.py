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
`disks.compute_events`.  It also counts the
`SiteMap` builds and the triangles their walks expanded
(`SiteMap._expand`), against the triangles of all the maps built, which shows how much of each map its queries needed, the
`seg_point_distance` calls, the `RingIndex` queries by kind (classify,
near), the `decide` calls with how many of them computed a fresh
`chain_side` (one its hull's side cache did not hold yet) and how many
the bound exit (`decision.below_bound`) answered before any `chain_side`
call, and the chart circles `disks._charts` built around ring corners
against the corners it was offered, and the probe rounds of
`optimize.narrow_interval`: run (it called `_event_signature`), skipped
(it reached a split with free points and returned without one, its
largest probe failing `chain_infeasible`) or settled by the bound
(returned without one otherwise: its other probes are below L_ij and
`decide` rejects the largest).  It counts the `one_center` solves (calls
that grew the region's one-center cache) by the function that called
`one_center` (`chain_radius`, `pair_chains`, `shared_vertex_decide`,
`pair_coincidence_radius`, `hull_center`, ...),
and the skips of the gates that spare one: the chain splits whose
balance `driver.split_order` never solved, the shared-vertex tries
skipped on `PairChains.far`, the `pair_coincidence_radius` calls
answered from a chain-plus-one-point one-center, and the `one_center`
coverage tests that `disks._within` answered from the Euclidean
distance.  The second pass runs under cProfile;
the script prints its top N functions by the chosen sort key, then the
counts of the first pass.  An operation that raises is counted by error class and skipped,
as the benchmark counts it.
"""
import argparse
import cProfile
import math
import os
import pstats
import random
import sys
import warnings
from collections import Counter
from typing import Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from twocenter import decision, disks, driver, geom, optimize, region  # noqa: E402

# the functions whose `_within` calls are `one_center`'s coverage tests
ONE_CENTER_FRAMES = ("one_center", "mtf1", "mtf2")

# the `SiteMap` methods that read a point's anchor, walking on a miss
READ_METHODS = ("distance", "anchor", "path")


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


class Expansion:
    """`SiteMap` builds, their triangles and the triangles expanded."""

    def __init__(self):
        self.builds = 0
        self.triangles = 0
        self.expanded = 0

    def line(self) -> str:
        share = self.expanded / self.triangles if self.triangles else 0.0
        return (f"SiteMap: {self.builds} builds, {self.expanded} of "
                f"{self.triangles} triangles expanded ({100 * share:.1f} %)")


def reader(frame, skip) -> str:
    """Name of the function that made the `SiteMap` read whose walk runs
    in `frame`: the first caller whose code is not in `skip` (the map's
    read methods and their counting wrappers) nor a comprehension."""
    while frame.f_code in skip or frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def counting_pass(ops, inter: Repeats, basis: Tuple[Repeats, Repeats],
                  maps: Expansion, calls: Counter) -> Counter:
    """Run ops with the counted functions wrapped; returns `run`'s error
    count.  `calls` counts the `SiteMap` reads ("read.<method>") and walks
    ("walk.<caller>"), the `orientation`, `_ray_enters` and
    `compute_events` calls, the `_disk2` and `_solve3` calls that solved
    their basis, `seg_point_distance`, the `RingIndex` queries,
    the `decide` calls, those of them that grew their hull's side cache
    and those the bound exit answered without a `chain_side` call, the
    `_charts` calls with their corner circles and the ring corners
    offered, the probe rounds run, skipped and settled by the bound
    with the `_event_signature` calls, the `one_center` solves by caller
    ("solve.<function>") and the gates' skips."""
    plain_reads = {name: getattr(region.SiteMap, name) for name in READ_METHODS}
    plain_walk = region.SiteMap._walk
    plain_orientation = geom.orientation
    plain_enters = region.Region._ray_enters
    plain_events = disks.compute_events
    plain_inter = disks.disks_intersection
    plain_init = region.SiteMap.__init__
    plain_expand = region.SiteMap._expand
    plain_spd = geom.seg_point_distance
    plain_classify = geom.RingIndex.classify
    plain_near = geom.RingIndex.near
    plain_decide = decision.decide
    plain_side = decision.chain_side
    plain_charts = disks._charts
    plain_narrow = optimize.narrow_interval
    plain_signature = optimize._event_signature
    plain_disk2, plain_solve3 = disks._disk2, disks._solve3
    plain_one_center = disks.one_center
    plain_order, plain_balance = driver.split_order, driver._balance
    plain_shared = decision.shared_vertex_decide
    plain_coincidence = optimize.pair_coincidence_radius
    plain_within = disks._within
    plain_pair, plain_triple = disks._path_midpoint_disk, disks._triple_disk
    disk2, solve3 = basis

    def counted_read(name):
        plain = plain_reads[name]

        def read(self, x):
            calls["read." + name] += 1
            return plain(self, x)
        return read

    skip = {f.__code__ for f in plain_reads.values()}
    skip |= {region.SiteMap._anchor.__code__, counted_read(READ_METHODS[0]).__code__}

    def counted_walk(self, x):
        calls["walk." + reader(sys._getframe(1), skip)] += 1
        return plain_walk(self, x)

    def counted_orientation(a, b, c):
        calls["orientation"] += 1
        return plain_orientation(a, b, c)

    def counted_enters(self, origin, direction):
        calls["ray_enters"] += 1
        return plain_enters(self, origin, direction)

    def counted_events(reg, boundary, interior):
        calls["compute_events"] += 1
        return plain_events(reg, boundary, interior)

    def counted_init(self, tp, source):
        maps.builds += 1
        maps.triangles += len(tp.triangles)
        plain_init(self, tp, source)

    def counted_expand(self, t):
        maps.expanded += 1
        plain_expand(self, t)

    def counted_inter(reg, sites, r):
        inter.note((id(reg), tuple((s[0], s[1]) for s in sites), r))
        return plain_inter(reg, sites, r)

    def counted_disk2(reg, a, b):
        disk2.note((id(reg), a[0], a[1], b[0], b[1]))
        return plain_disk2(reg, a, b)

    def counted_solve3(reg, a, b, c):
        solve3.note((id(reg), a[0], a[1], b[0], b[1], c[0], c[1]))
        return plain_solve3(reg, a, b, c)

    def counted_pair(reg, a, b):
        calls["disk2.solved"] += 1
        return plain_pair(reg, a, b)

    def counted_triple(reg, a, b, c):
        calls["solve3.solved"] += 1
        return plain_triple(reg, a, b, c)

    def counted_spd(p, a, b):
        calls["seg_point_distance"] += 1
        return plain_spd(p, a, b)

    def counted_classify(self, p, eps=geom.EPS):
        calls["RingIndex.classify"] += 1
        return plain_classify(self, p, eps)

    def counted_near(self, p, eps):
        calls["RingIndex.near"] += 1
        return plain_near(self, p, eps)

    def counted_decide(h, i, j, r):
        calls["decide"] += 1
        side_cache = h.hull_region._side_cache
        before, sides = len(side_cache), calls["chain_side"]
        res = plain_decide(h, i, j, r)
        calls["decide.fresh_side"] += len(side_cache) > before
        calls["decide.bound"] += (res.branch == "forced-overload"
                                  and calls["chain_side"] == sides)
        return res

    def counted_side(h, pc, chain, r):
        calls["chain_side"] += 1
        return plain_side(h, pc, chain, r)

    def counted_charts(reg, q, r):
        charts, ext_segs = plain_charts(reg, q, r)
        calls["charts"] += 1
        calls["charts.circles"] += len(charts) - 1    # the site's own is not a corner's
        calls["charts.corners"] += len(reg.corners)
        return charts, ext_segs

    def counted_narrow(h, i, j, iv):
        before = calls["signature"]
        try:
            out = plain_narrow(h, i, j, iv)
        finally:
            calls["probe.run"] += calls["signature"] > before
        pc = decision.pair_chains(h, i, j)
        if calls["signature"] == before and pc.free:
            gap = out[0]    # the gap, returned with the decision at its upper end
            top = gap.lo + (gap.hi - gap.lo) * (1 - 1e-9)    # the largest probe
            calls["probe.skipped" if decision.chain_infeasible(h, pc, top)
                  else "probe.settled"] += 1
        return out

    def counted_one_center(space, pts):
        cache = disks._as_region(space)._onecenter_cache
        before = len(cache)
        out = plain_one_center(space, pts)
        if len(cache) > before:
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):    # a comprehension's
                frame = frame.f_back
            calls["solve." + frame.f_code.co_name] += 1
        return out

    def counted_order(h):
        calls["splits"] += h.k * (h.k - 1) // 2
        for split in plain_order(h):
            calls["splits.yielded"] += 1
            yield split

    def counted_balance(h, i, j):
        calls["splits.balanced"] += 1
        return plain_balance(h, i, j)

    def counted_shared(h, i, j, r):
        pc = decision.pair_chains(h, i, j)
        tols = h.ambient.tol
        vxs = len(geom.unique_points([h.extreme(i), h.extreme(i + 1),
                                      h.extreme(j), h.extreme(j + 1)]))
        calls["shared.tries"] += 2 * vxs
        calls["shared.skipped"] += vxs * sum(far > r + tols.radius + tols.near
                                             for far in pc.far)
        return plain_shared(h, i, j, r)

    def counted_coincidence(h, i, j, t, q1, q2, iv):
        pc = decision.pair_chains(h, i, j)
        chain = pc.chain1 if t == 1 else pc.chain2
        calls["coincidence"] += 1
        calls["coincidence.gated"] += any(
            plain_one_center(h.region, list(chain) + [q]).radius > iv.hi + h.ambient.tol.near
            for q in (q1, q2))
        return plain_coincidence(h, i, j, t, q1, q2, iv)

    def counted_within(reg, q, x, r, tol):
        if sys._getframe(1).f_code.co_name in ONE_CENTER_FRAMES:
            calls["covers"] += 1
            calls["covers.euclidean"] += math.hypot(x[0] - q.x, x[1] - q.y) > r + tol
        return plain_within(reg, q, x, r, tol)

    def counted_signature(h, pc, r):
        calls["signature"] += 1
        return plain_signature(h, pc, r)

    mods = [m for name, m in list(sys.modules.items()) if name.startswith("twocenter.")]
    holders = [m for m in mods if getattr(m, "disks_intersection", None) is plain_inter]
    spd_holders = [m for m in mods if getattr(m, "seg_point_distance", None) is plain_spd]
    orientation_holders = [m for m in mods
                           if getattr(m, "orientation", None) is plain_orientation]
    events_holders = [m for m in mods if getattr(m, "compute_events", None) is plain_events]
    decide_holders = [m for m in mods if getattr(m, "decide", None) is plain_decide]
    side_holders = [m for m in mods if getattr(m, "chain_side", None) is plain_side]
    one_center_holders = [m for m in mods
                          if getattr(m, "one_center", None) is plain_one_center]
    for name in READ_METHODS:
        setattr(region.SiteMap, name, counted_read(name))
    region.SiteMap._walk = counted_walk
    region.Region._ray_enters = counted_enters
    region.SiteMap.__init__ = counted_init
    region.SiteMap._expand = counted_expand
    geom.RingIndex.classify = counted_classify
    geom.RingIndex.near = counted_near
    disks._charts = counted_charts
    optimize.narrow_interval = counted_narrow
    optimize._event_signature = counted_signature
    disks._disk2, disks._solve3 = counted_disk2, counted_solve3
    disks._path_midpoint_disk, disks._triple_disk = counted_pair, counted_triple
    driver.split_order, driver._balance = counted_order, counted_balance
    decision.shared_vertex_decide = counted_shared
    optimize.pair_coincidence_radius = counted_coincidence
    disks._within = counted_within
    for m in one_center_holders:
        m.one_center = counted_one_center
    for m in holders:
        m.disks_intersection = counted_inter
    for m in spd_holders:
        m.seg_point_distance = counted_spd
    for m in orientation_holders:
        m.orientation = counted_orientation
    for m in events_holders:
        m.compute_events = counted_events
    for m in decide_holders:
        m.decide = counted_decide
    for m in side_holders:
        m.chain_side = counted_side
    try:
        return run(ops, fresh=(inter,) + basis)
    finally:
        for name, plain in plain_reads.items():
            setattr(region.SiteMap, name, plain)
        region.SiteMap._walk = plain_walk
        region.Region._ray_enters = plain_enters
        region.SiteMap.__init__ = plain_init
        region.SiteMap._expand = plain_expand
        geom.RingIndex.classify = plain_classify
        geom.RingIndex.near = plain_near
        disks._charts = plain_charts
        optimize.narrow_interval = plain_narrow
        optimize._event_signature = plain_signature
        disks._disk2, disks._solve3 = plain_disk2, plain_solve3
        disks._path_midpoint_disk, disks._triple_disk = plain_pair, plain_triple
        driver.split_order, driver._balance = plain_order, plain_balance
        decision.shared_vertex_decide = plain_shared
        optimize.pair_coincidence_radius = plain_coincidence
        disks._within = plain_within
        for m in one_center_holders:
            m.one_center = plain_one_center
        for m in holders:
            m.disks_intersection = plain_inter
        for m in spd_holders:
            m.seg_point_distance = plain_spd
        for m in orientation_holders:
            m.orientation = plain_orientation
        for m in events_holders:
            m.compute_events = plain_events
        for m in decide_holders:
            m.decide = plain_decide
        for m in side_holders:
            m.chain_side = plain_side


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
    maps = Expansion()
    calls = Counter()
    warm_errors = counting_pass(wl.ops(rng), inter, basis, maps, calls)

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
    print(maps.line())
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
    solves = sorted(((n, key[len("solve."):]) for key, n in calls.items()
                     if key.startswith("solve.")), reverse=True)
    print(f"one_center: {sum(n for n, _f in solves)} solves; by caller "
          + ", ".join(f"{f} {n}" for n, f in solves))
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
