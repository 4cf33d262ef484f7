"""Per-pair radius optimization.

For one chain split (i, j) the optimal radius r*_ij is pinned down in
three moves: narrow an interval to the radii between two neighbouring
structure-change candidates, collect the finitely many radii at which
two point circles can meet on the boundary, then search those below the
gap's upper end, which is decided once, with the decision procedure.
Every search is `_leftmost_feasible`, which gallops up from the first
value that `decision.chain_infeasible` passes: r*_ij is never below
either chain's one-center radius, and the optimum usually sits at or
just above that floor.  The same floor, and the split's one-center
lower bound L_ij (`decision.below_bound`), skip the probe round of
`narrow_interval` wherever it could not move the gap's upper end.  Each
site's anchor chart is read once per piece between its own
shortest-path-map cuts of a ring segment (`_segment_charts`), and the
boundary radii of two sites look both up.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .decision import (DecisionResult, PairChains, below_bound, chain_center,
                       chain_infeasible, chain_side, decide, pair_chains)
from .disks import one_center
from .errors import InfeasibleInterval
from .geom import Point2, dist, quadratic_roots
from .hull import GeodesicHull
from .region import Region


@dataclass(frozen=True)
class RadiusInterval:
    lo: float          # exclusive
    hi: float          # inclusive

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi}]")

    def contains(self, r: float) -> bool:
        return self.lo < r <= self.hi


def _segment_cuts(ring: Region, s: Point2) -> List[Set[float]]:
    """Per segment of the ring, the parameters t in (0, 1) of s's
    shortest-path-map points (`Region.spm_points`) within tol.near of it;
    empty for a segment of zero length."""
    near = ring.tp.tol.near
    index = ring.ring_index
    out: List[Set[float]] = [set() for _ in index.segs]
    for p, _d in ring.spm_points(s):
        for i in index.near(p, near):
            u, v = index.segs[i]
            ex, ey = v.x - u.x, v.y - u.y
            ee = ex * ex + ey * ey
            if ee != 0.0:
                t = ((p.x - u.x) * ex + (p.y - u.y) * ey) / ee
                if 0.0 < t < 1.0:
                    out[i].add(t)
    return out


# per ring segment, the sorted parameters 0, a site's cuts on it and 1,
# with the anchor chart (last bend, its distance) of each piece between
# two neighbouring ones; empty for a segment of zero length
SegmentCharts = List[Tuple[List[float], List[Tuple[Point2, float]]]]


def _segment_charts(ring: Region, s: Point2) -> SegmentCharts:
    """s's anchor chart on each piece between its own `_segment_cuts`,
    read once at the piece's midpoint."""
    sm = ring.site_map(s)
    out: SegmentCharts = []
    for (u, v), cs in zip(ring.ring_index.segs, _segment_cuts(ring, s)):
        ex, ey = v.x - u.x, v.y - u.y
        if ex * ex + ey * ey == 0.0:
            out.append(([], []))
            continue
        ts = sorted({0.0, 1.0} | cs)
        out.append((ts, [sm.anchor(Point2(u.x + ex * tm, u.y + ey * tm))
                         for tm in ((t0 + t1) / 2 for t0, t1 in zip(ts, ts[1:]))]))
    return out


def _boundary_pair_radii(ring: Region, charts_a: SegmentCharts,
                         charts_b: SegmentCharts) -> List[float]:
    """Radii at which the circles of sites a and b meet on a segment of
    the ring.  Their `_segment_charts` cut each segment into pieces on
    which both distances are anchor charts |x - w| + d; each sub-piece
    between the cuts of either site looks up both charts by bisection at
    its midpoint.  Ordered so that c = d_b - d_a >= 0 (a first on a tie),
    the crossing squares to c |x - w_b| = L(x), L linear (the bisector
    L = 0 when c = 0), and once more to a quadratic; its roots in the
    piece with L >= 0 are the crossings."""
    out = []
    for (u, v), (ts_a, ch_a), (ts_b, ch_b) in zip(ring.ring_index.segs, charts_a, charts_b):
        if not ts_a:
            continue
        ex, ey = v.x - u.x, v.y - u.y
        ee = ex * ex + ey * ey
        ts = sorted(set(ts_a) | set(ts_b))
        for t0, t1 in zip(ts, ts[1:]):
            tm = (t0 + t1) / 2
            # bisecting the inner cuts only keeps a midpoint that rounds
            # onto 1.0 in the last piece
            wa, da = ch_a[bisect_right(ts_a, tm, 1, len(ch_a)) - 1]
            wb, db = ch_b[bisect_right(ts_b, tm, 1, len(ch_b)) - 1]
            if db < da:
                wa, da, wb, db = wb, db, wa, da
            # with x = u + t e: L(x) / 2 = h1 t + h0
            cc = (db - da) * (db - da)
            dx, dy = wb.x - wa.x, wb.y - wa.y
            bx, by = u.x - wb.x, u.y - wb.y
            h1 = ex * dx + ey * dy
            h0 = (dx * (u.x - wa.x + bx) + dy * (u.y - wa.y + by) - cc) / 2
            roots = (quadratic_roots(0.0, h1 / 2, h0) if cc == 0.0 else
                     [t for t in quadratic_roots(cc * ee - h1 * h1,
                                                 cc * (bx * ex + by * ey) - h1 * h0,
                                                 cc * (bx * bx + by * by) - h0 * h0)
                      if h1 * t + h0 >= 0.0])
            out += [dist(Point2(u.x + ex * t, u.y + ey * t), wa) + da
                    for t in set(roots) if t0 <= t <= t1]
    return out


def _boundary_pairs(pc: PairChains) -> List[Tuple[Point2, Point2]]:
    """The site pairs whose boundary radii `interval_candidates` reads:
    two points of one chain, a chain point and a free point, or two free
    points."""
    free = pc.free
    pairs = [(x, y) for chain in (pc.chain1, pc.chain2)
             for a, x in enumerate(chain) for y in chain[a + 1:] + free]
    return pairs + [(x, y) for a, x in enumerate(free) for y in free[a + 1:]]


def interval_candidates(h: GeodesicHull, i: int, j: int) -> List[float]:
    """Radii at which the boundary structure of either side can change.

    Each chain is taken with the free points; what depends only on the
    free points (their corner distances and the boundary radii of two
    free points) is the same for both chains and computed once.  Each
    one-center read here is `pair_chains`'s; a chain's own radius stands
    for those of its extremes' subsets, no larger and never decided."""
    pc = pair_chains(h, i, j)
    region, ring, free = h.region, h.hull_region, pc.free
    vals = [oc.radius for oc in pc.centers + pc.reach[0] + pc.reach[1]]
    vals += [0.5 * region.site_map(q).distance(e)
             for chain in (pc.chain1, pc.chain2) for q in free for e in chain]
    pts = pc.chain1 + pc.chain2 + free
    charts = {p: _segment_charts(ring, p) for p in pts}
    # radii at which an arc endpoint crosses a hull corner, read from the
    # maps `_segment_charts` queried
    for x in pts:
        sx = ring.site_map(x)
        vals.extend(sx.distance(w) for w in ring.corners)
    for x, y in _boundary_pairs(pc):
        vals.extend(_boundary_pair_radii(ring, charts[x], charts[y]))
    return vals


def _event_signature(h: GeodesicHull, pc: PairChains, r: float):
    """Owner/flag multisets of both event sets at radius r, read through
    `chain_side`, so that a later `decide` at r reuses them."""
    sig = []
    for chain in (pc.chain1, pc.chain2):
        tag, side = chain_side(h, pc, chain, r)
        sig.append(tuple(sorted(((q.x, q.y), flag) for q, flag in side.events))
                   if tag == "arcs" else (tag,))
    return tuple(sig)


def _leftmost_feasible(h: GeodesicHull, i: int, j: int, values: Sequence[float]
                       ) -> Tuple[int, Optional[DecisionResult]]:
    """Galloping search of the ascending values for the first one `decide`
    accepts, taken as monotone in r: its index and decision, or
    (len(values), None) when it accepts none.  It starts at the first
    value that `chain_infeasible` passes, since `decide` answers "no" at
    every value below it, and decides at start, start + 1, start + 3,
    start + 7, ... until one is accepted, then binary searches the last
    bracket; values below start are never decided."""
    pc = pair_chains(h, i, j)
    a = probe = start = bisect_left(values, True,
                                    key=lambda r: not chain_infeasible(h, pc, r))
    b, step = len(values), 1
    best: Optional[DecisionResult] = None
    while probe < b:
        res = decide(h, i, j, values[probe])
        if res.feasible:
            b, best = probe, res
            break
        a, step = probe + 1, 2 * step
        probe = start + step - 1
    while a < b:
        mid = (a + b) // 2
        res = decide(h, i, j, values[mid])
        if res.feasible:
            b, best = mid, res
        else:
            a = mid + 1
    return a, best


def narrow_interval(h: GeodesicHull, i: int, j: int, iv: RadiusInterval
                    ) -> Tuple[RadiusInterval, DecisionResult]:
    """Shrink iv around r*_ij to the gap between two neighbouring
    structure-change candidates; return it with the decision at its
    upper end (the opening one at iv.hi, or the one that accepted it).
    When the event signatures at three probes inside that gap differ,
    the probes are searched once more; the result is not checked again.
    That search starts at the chain floor, so when the largest probe
    fails `chain_infeasible` it would skip every probe: the probe round
    is skipped and the gap returned as is.  The same holds when the
    other two probes are `below_bound` (below L_ij, where `decide`
    answers "no" at once) and `decide` rejects the largest; when it
    accepts it, the search closes below it."""
    top = decide(h, i, j, iv.hi)
    if not top.feasible:
        raise InfeasibleInterval(f"pair ({i},{j}) infeasible at {iv.hi}")
    pc = pair_chains(h, i, j)
    eps = h.ambient.tol.radius

    def search(cands: Sequence[float], lo: float, hi: float, at_hi: DecisionResult):
        inside = sorted(v for v in set(cands)
                        if lo < v < hi and iv.lo + eps < v < iv.hi - eps)
        k, res = _leftmost_feasible(h, i, j, inside)
        if k < len(inside):
            hi, at_hi = inside[k], res
        return RadiusInterval(inside[k - 1] if k else lo, hi), at_hi

    out, top = search(interval_candidates(h, i, j), iv.lo, iv.hi, top)
    if not pc.free:
        return out, top
    probes = [out.lo + (out.hi - out.lo) * f for f in (1e-3, 0.5, 1 - 1e-9)]
    if chain_infeasible(h, pc, probes[-1]):
        return out, top    # a search from the chain floor would skip every probe
    hi, at_hi = out.hi, top
    if below_bound(h, pc, probes[-2]):
        res = decide(h, i, j, probes[-1])
        if not res.feasible:
            return out, top    # that search would answer "no" at every probe
        if probes[-1] < iv.hi - eps:    # else that search would not decide it
            hi, at_hi = probes[-1], res
    sig = _event_signature(h, pc, probes[0])
    if all(_event_signature(h, pc, r) == sig for r in probes[1:]):
        return out, top
    return search(probes, out.lo, hi, at_hi)


def pair_coincidence_radius(h: GeodesicHull, i: int, j: int, t: int, q1: Point2,
                            q2: Point2, iv: RadiusInterval) -> Optional[float]:
    """Smallest radius whose side-t disk intersection can host both q1's
    and q2's circles through one point; None unless both points determine
    it, a chain extreme pins it to the arcs, and it lies in iv.

    None comes without solving chain + q1 + q2 when chain + q1 or chain +
    q2, read from `PairChains.reach`, exceeds iv.hi + tol.near: the
    larger set's radius, less tol.near of rounding, is no smaller."""
    if q1 == q2:
        raise ValueError("q1 == q2")
    pc = pair_chains(h, i, j)
    chain = pc.chain1 if t == 1 else pc.chain2
    region = h.region
    cap = iv.hi + region.tp.tol.near
    if any(chain_center(region, pc, t - 1, [q]).radius > cap for q in (q1, q2)):
        return None
    oc = one_center(region, list(chain) + [q1, q2])
    tol = region.tp.tol.check

    def pinned(pts) -> bool:
        return abs(max(region.site_map(e).distance(oc.center) for e in pts)
                   - oc.radius) <= tol

    if pinned([q1]) and pinned([q2]) and (not chain or pinned(chain)):
        return oc.radius if iv.contains(oc.radius) else None
    return None


def critical_radius_set(h: GeodesicHull, i: int, j: int,
                        iv: RadiusInterval) -> List[float]:
    """iv.hi and every pair coincidence radius in iv, ascending, without
    a value within tol.radius above the one before it."""
    pc = pair_chains(h, i, j)
    vals = [iv.hi]
    free = list(pc.free)
    for t in (1, 2):
        for a in range(len(free)):
            for b in range(a + 1, len(free)):
                rho = pair_coincidence_radius(h, i, j, t, free[a], free[b], iv)
                if rho is not None:
                    vals.append(rho)
    eps = h.ambient.tol.radius
    out: List[float] = []
    for v in sorted(vals):
        if not out or v - out[-1] > eps:
            out.append(v)
    return out


def optimize_pair(h: GeodesicHull, i: int, j: int, iv: RadiusInterval
                  ) -> Optional[Tuple[float, Point2, Point2]]:
    """r*_ij with witness centers, or None when iv.hi is infeasible.  Only
    the `critical_radius_set` values below the narrowed gap's upper end
    are searched; when none is accepted, r*_ij is that end."""
    try:
        nv, best = narrow_interval(h, i, j, iv)
    except InfeasibleInterval:
        return None
    values = [v for v in critical_radius_set(h, i, j, nv) if v < nv.hi]
    k, res = _leftmost_feasible(h, i, j, values)
    r, best = (values[k], res) if res is not None else (nv.hi, best)
    assert best.centers is not None
    return r, best.centers[0], best.centers[1]
