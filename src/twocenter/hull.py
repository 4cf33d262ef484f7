"""Geodesic convex hulls of point sets inside a polygon.

The hull of Q is traced as a closed (weakly simple) ring: extreme points
of Q in clockwise order joined by geodesic paths.  Chains, subregions
between two boundary points, and their one-center radii live here too.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .disks import OneCenterResult, one_center
from .errors import HullConvergenceError, PointOutsidePolygon
from .geom import (Point2, convex_hull_ccw, ring_area2, ring_contains,
                   unique_points)
from .polygon import TriangulatedPolygon, point_in_polygon
from .region import Region


class GeodesicHull:
    """Extreme cycle v_1..v_k (clockwise) with its traced boundary."""

    def __init__(self, tp: TriangulatedPolygon, extremes: List[Point2],
                 all_points: List[Point2]):
        self.ambient = tp
        self.region = Region.of(tp)
        self.extremes = extremes
        self.k = len(extremes)
        ring, self.pos = _trace_ring(self.region, extremes)
        self.ring: Tuple[Point2, ...] = tuple(ring)
        self.hull_region = Region(tp, self.ring)
        ex_keys = {(p.x, p.y) for p in extremes}
        self.interior_points: List[Point2] = []
        self.boundary_points: List[Point2] = []
        for q in all_points:
            if (q.x, q.y) in ex_keys:
                continue
            side = self.hull_region.classify(q, tp.tol.near)
            if side == "inside":
                self.interior_points.append(q)
            else:
                # construction guarantees not outside; anything else is on
                self.boundary_points.append(q)
        # decision.pair_chains results keyed by (i, j)
        self._chain_cache: Dict[Tuple[int, int], object] = {}

    def extreme(self, i: int) -> Point2:
        return self.extremes[i % self.k]

    def chain_extremes(self, a: int, b: int) -> List[Point2]:
        """v_a, v_{a+1}, ..., v_b clockwise, inclusive."""
        a %= self.k
        b %= self.k
        out = [self.extremes[a]]
        i = a
        while i != b:
            i = (i + 1) % self.k
            out.append(self.extremes[i])
        return out

    def boundary_portion(self, a: int, b: int) -> List[Point2]:
        """Ring points clockwise from v_a to v_b, inclusive."""
        a %= self.k
        b %= self.k
        i = self.pos[a]
        j = self.pos[b]
        n = len(self.ring)
        out = [self.ring[i]]
        while i != j:
            i = (i + 1) % n
            out.append(self.ring[i])
        return out

    def chain_radius(self, a: int, b: int) -> float:
        """One-center radius of the subregion between the clockwise
        boundary portion v_a -> v_b and the geodesic from v_b back to v_a.

        Every other corner of that subregion lies on a geodesic between two
        of the extremes v_a..v_b, and geodesic distance is convex along
        geodesics (Pollack, Sharir and Rote 1989), so the extremes alone
        set the radius."""
        if (a - b) % self.k == 0:
            return 0.0
        return one_center(self.region, self.chain_extremes(a, b)).radius

    def hull_center(self) -> OneCenterResult:
        """Smallest disk covering the whole hull.

        A geodesic disk is geodesically convex (Pollack, Sharir and Rote
        1989), and the hull is the smallest geodesically convex set that
        holds the extremes, so a disk that covers the extremes covers the
        hull: the extremes alone set the disk, as in `chain_radius`."""
        return one_center(self.region, self.extremes)

    def __repr__(self):
        return f"GeodesicHull(k={self.k}, interior={len(self.interior_points)})"


def _trace_ring(region: Region, extremes: List[Point2]) -> Tuple[List[Point2], List[int]]:
    """The extremes joined by geodesics, and each extreme's ring index."""
    if len(extremes) == 1:
        return [extremes[0]], [0]
    ring: List[Point2] = []
    pos: List[int] = []
    k = len(extremes)
    for i in range(k):
        pos.append(len(ring))
        ring.extend(region.site_map(extremes[i]).path(extremes[(i + 1) % k])[:-1])
    return ring, pos


def geodesic_hull(tp: TriangulatedPolygon, Q: Sequence[Point2]) -> GeodesicHull:
    """Geodesic convex hull of Q inside the polygon.

    Starts from the Euclidean hull order, joins consecutive extremes by
    geodesics, then alternates inserting points left outside the traced
    ring (at the position of least perimeter increase) and dropping
    extremes engulfed by the rest, until stable.
    """
    region = Region.of(tp)
    pts = [Point2(float(q[0]), float(q[1])) for q in Q]
    for p in pts:
        if point_in_polygon(tp.polygon, p) == "outside":
            raise PointOutsidePolygon(f"{p} outside the polygon")
    pts = unique_points(pts)
    if not pts:
        raise ValueError("no points")
    if len(pts) == 1:
        return GeodesicHull(tp, [pts[0]], pts)

    hull_ccw = convex_hull_ccw(pts)
    extremes: List[Point2] = list(reversed(hull_ccw))
    eps = tp.tol.near

    guard = 0
    limit = 4 * len(pts) * len(pts) + 16
    while True:
        guard += 1
        if guard > limit:
            raise HullConvergenceError("hull construction did not stabilize")
        ring, _ = _trace_ring(region, extremes)
        ex_keys = {(p.x, p.y) for p in extremes}
        outside = [q for q in pts if (q.x, q.y) not in ex_keys
                   and ring_contains(q, ring, eps) == "outside"]
        if outside:
            # bring in the worst offender at the cheapest boundary slot
            def slack(q):
                best = None
                for i in range(len(extremes)):
                    a = extremes[i]
                    b = extremes[(i + 1) % len(extremes)]
                    sa = region.site_map(a)
                    inc = sa.distance(q) + region.site_map(q).distance(b) \
                        - sa.distance(b)
                    if best is None or inc < best[0]:
                        best = (inc, i)
                return best
            q = max(outside, key=lambda q: slack(q)[0])
            _, slot = slack(q)
            extremes.insert(slot + 1, q)
            continue
        if len(extremes) > 2:
            removed = False
            for i in range(len(extremes)):
                rest = extremes[:i] + extremes[i + 1:]
                rring, _ = _trace_ring(region, rest)
                if ring_contains(extremes[i], rring, eps) != "outside":
                    extremes.pop(i)
                    removed = True
                    break
            if removed:
                continue
        break

    ring, _ = _trace_ring(region, extremes)
    if ring_area2(ring) > 0:
        extremes.reverse()
    start = min(range(len(extremes)), key=lambda i: (extremes[i].x, extremes[i].y))
    extremes = extremes[start:] + extremes[:start]
    return GeodesicHull(tp, extremes, pts)
