"""Per-pair radius optimization.

For one chain split (i, j) the optimal radius r*_ij is pinned down in
three moves: narrow an interval until the intersection-boundary event
structure is constant, collect the finitely many radii at which two
point circles can meet on the boundary, then binary search that set
with the decision procedure.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .decision import (DecisionResult, PairChains, chain_side, decide,
                       pair_chains)
from .disks import one_center
from .errors import InfeasibleInterval
from .geom import Point2, dist, quadratic_roots, seg_point_distance
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


@dataclass
class CriticalRadiusSet:
    values: List[float] = field(default_factory=list)
    tags: List[str] = field(default_factory=list)

    def add(self, v: float, tag: str):
        self.values.append(v)
        self.tags.append(tag)

    def sorted_unique(self, eps: float) -> List[float]:
        out: List[float] = []
        for v in sorted(self.values):
            if not out or v - out[-1] > eps:
                out.append(v)
        return out


def _boundary_pair_radii(ring: Region, a: Point2, b: Point2) -> List[float]:
    """Radii at which the circles of a and b meet on a segment of the ring.

    The sites' shortest-path-map points cut each segment into pieces on
    which both distances are anchor charts |x - w| + d, read at the
    piece's midpoint.  Ordered so that c = d_b - d_a >= 0, the crossing
    squares to c |x - w_b| = L(x), L linear (the bisector L = 0 when
    c = 0), and once more to a quadratic; its roots in the piece with
    L >= 0 are the crossings.
    """
    near = ring.tp.tol.near
    cuts = [p for s in (a, b) for p, _d in ring.spm_points(s)]
    out = []
    for u, v in ring.ring_segments():
        ex, ey = v.x - u.x, v.y - u.y
        ee = ex * ex + ey * ey
        if ee == 0.0:
            continue
        proj = (((p.x - u.x) * ex + (p.y - u.y) * ey) / ee
                for p in cuts if seg_point_distance(p, u, v) <= near)
        ts = sorted({0.0, 1.0} | {t for t in proj if 0.0 < t < 1.0})
        for t0, t1 in zip(ts, ts[1:]):
            tm = (t0 + t1) / 2
            mid = Point2(u.x + ex * tm, u.y + ey * tm)
            (wa, da), (wb, db) = sorted((ring.site_map(s).anchor(mid) for s in (a, b)),
                                        key=lambda wd: wd[1])
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


def interval_candidates(h: GeodesicHull, i: int, j: int) -> List[float]:
    """Radii at which the boundary structure of either side can change."""
    pc = pair_chains(h, i, j)
    region = h.region
    vals: List[float] = []
    for chain in (pc.chain1, pc.chain2):
        ext = list(chain)
        for a in range(len(ext)):
            for b in range(a + 1, len(ext)):
                vals.append(one_center(region, [ext[a], ext[b]]).radius)
                for c in range(b + 1, len(ext)):
                    vals.append(one_center(region, [ext[a], ext[b], ext[c]]).radius)
        for q in pc.free:
            for e in ext:
                vals.append(0.5 * region.site_map(q).distance(e))
            vals.append(one_center(region, ext + [q]).radius)
        pts = ext + list(pc.free)
        # radii at which an arc endpoint crosses a hull corner
        for w in h.hull_region.corners:
            sw = region.site_map(w)
            for x in pts:
                vals.append(sw.distance(x))
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                vals.extend(_boundary_pair_radii(h.hull_region, pts[a], pts[b]))
    return vals


def _event_signature(h: GeodesicHull, pc: PairChains, r: float):
    """Owner/flag multisets of both event sets at radius r, read through
    `chain_side`, so that a later `decide` at r reuses them."""
    sig = []
    for chain in (pc.chain1, pc.chain2):
        tag, side = chain_side(h, pc, chain, r)
        sig.append(tuple(sorted(((e.owner.x, e.owner.y), e.flag)
                                for e in side.events)) if tag == "arcs" else (tag,))
    return tuple(sig)


def narrow_interval(h: GeodesicHull, i: int, j: int,
                    iv: RadiusInterval) -> RadiusInterval:
    """Shrink iv around r*_ij until no structure-change radius is inside."""
    if not decide(h, i, j, iv.hi).feasible:
        raise InfeasibleInterval(f"pair ({i},{j}) infeasible at {iv.hi}")
    pc = pair_chains(h, i, j)
    eps = h.ambient.tol.radius

    def search(cands: Sequence[float]) -> RadiusInterval:
        inside = sorted(v for v in set(cands) if iv.lo + eps < v < iv.hi - eps)
        lo, hi = iv.lo, iv.hi
        a, b = 0, len(inside)        # candidates in (lo, hi)
        while a < b:
            mid = (a + b) // 2
            if decide(h, i, j, inside[mid]).feasible:
                hi = inside[mid]
                b = mid
            else:
                lo = inside[mid]
                a = mid + 1
        return RadiusInterval(lo, hi)

    cands = interval_candidates(h, i, j)
    out = search(cands)
    if not pc.free:
        return out
    for attempt in range(2):
        width = out.hi - out.lo
        probes = [out.lo + width * f for f in (1e-3, 0.5, 1 - 1e-9)]
        sigs = [_event_signature(h, pc, r) for r in probes]
        if all(s == sigs[0] for s in sigs):
            return out
        if attempt == 0:
            cands = list(cands) + probes
            out = search(cands)
    warnings.warn(
        f"event structure varies inside narrowed interval ({out.lo}, {out.hi}] "
        f"for pair ({i},{j}); optimization falls back to direct decision search",
        RuntimeWarning)
    return out


def pair_coincidence_radius(h: GeodesicHull, i: int, j: int, t: int, q1: Point2,
                            q2: Point2, iv: RadiusInterval) -> Optional[float]:
    """Smallest radius whose side-t disk intersection can host both q1's
    and q2's circles through one point; None unless both points determine
    it, a chain extreme pins it to the arcs, and it lies in iv."""
    if q1 == q2:
        raise ValueError("q1 == q2")
    pc = pair_chains(h, i, j)
    chain = pc.chain1 if t == 1 else pc.chain2
    region = h.region
    oc = one_center(region, list(chain) + [q1, q2])
    tol = region.tp.tol.check

    def pinned(pts) -> bool:
        return abs(max(region.site_map(e).distance(oc.center) for e in pts)
                   - oc.radius) <= tol

    if pinned([q1]) and pinned([q2]) and (not chain or pinned(chain)):
        return oc.radius if iv.contains(oc.radius) else None
    return None


def critical_radius_set(h: GeodesicHull, i: int, j: int,
                        iv: RadiusInterval) -> CriticalRadiusSet:
    pc = pair_chains(h, i, j)
    out = CriticalRadiusSet()
    free = list(pc.free)
    for t in (1, 2):
        for a in range(len(free)):
            for b in range(a + 1, len(free)):
                rho = pair_coincidence_radius(h, i, j, t, free[a], free[b], iv)
                if rho is not None:
                    out.add(rho, "pair")
    out.add(iv.hi, "endpoint")
    return out


def optimize_pair(h: GeodesicHull, i: int, j: int, iv: RadiusInterval
                  ) -> Optional[Tuple[float, Point2, Point2]]:
    """r*_ij with witness centers, or None when iv.hi is infeasible."""
    try:
        nv = narrow_interval(h, i, j, iv)
    except InfeasibleInterval:
        return None
    eps = h.ambient.tol.radius
    crit = critical_radius_set(h, i, j, nv)
    values = crit.sorted_unique(eps)
    # leftmost feasible value; monotone in r
    lo_i, hi_i = 0, len(values) - 1
    best: Optional[DecisionResult] = None
    best_r = values[-1]
    while lo_i <= hi_i:
        mid = (lo_i + hi_i) // 2
        res = decide(h, i, j, values[mid])
        if res.feasible:
            best = res
            best_r = values[mid]
            hi_i = mid - 1
        else:
            lo_i = mid + 1
    if best is None:    # narrow_interval decided nv.hi feasible
        best, best_r = decide(h, i, j, nv.hi), nv.hi
    assert best.centers is not None
    return best_r, best.centers[0], best.centers[1]
