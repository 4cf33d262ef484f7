"""Geodesic convex hulls of point sets inside a polygon.

The hull of Q (its relative convex hull in the polygon) is traced as a
closed (weakly simple) ring: extreme points of Q in clockwise order
joined by geodesic paths.  The extremes are found by gift wrapping along
shortest paths, each step read from the current extreme's shortest-path
map.  Chains, subregions between two boundary points, and their
one-center radii live here too.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .disks import OneCenterResult, one_center
from .errors import HullConvergenceError, PointOutsidePolygon
from .geom import Point2, orientation, unique_points
from .polygon import TriangulatedPolygon
from .region import Region, SiteMap


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


def _left_of(sm: SiteMap, pa: List[Point2], pb: List[Point2]) -> bool:
    """Whether path pa from sm's source runs left of path pb.

    The paths share a prefix and part at its last vertex; the one that
    leaves it to the left of the other is the left one.  A straight turn
    means one end lies on the other's path, and the farther end wins."""
    t = 1
    while t < len(pa) and t < len(pb) and pa[t] == pb[t]:
        t += 1
    if t < len(pa) and t < len(pb):
        turn = orientation(pa[t - 1], pb[t], pa[t])
        if turn:
            return turn > 0
    return sm.distance(pa[-1]) > sm.distance(pb[-1])


def geodesic_hull(tp: TriangulatedPolygon, Q: Sequence[Point2]) -> GeodesicHull:
    """Geodesic convex hull of Q inside the polygon, by gift wrapping.

    The wrap starts at the point of Q farthest from Q[0]: geodesic
    distance is convex along geodesics (Pollack, Sharir and Rote 1989),
    so that point is an extreme.  From each extreme v it steps to the
    point whose shortest path from v is leftmost, which leaves every
    other point on its right, until it is back at the start (Toussaint
    1986).  Every map it reads is a point of Q's.
    """
    region = Region.of(tp)
    pts = [Point2(float(q[0]), float(q[1])) for q in Q]
    for p in pts:
        if region.classify(p) == "outside":
            raise PointOutsidePolygon(f"{p} outside the polygon")
    pts = unique_points(pts)
    if not pts:
        raise ValueError("no points")
    if len(pts) == 1:
        return GeodesicHull(tp, [pts[0]], pts)

    sm = region.site_map(pts[0])
    start = max(pts, key=lambda q: (sm.distance(q), q.x, q.y))
    extremes = [start]
    while True:
        v = extremes[-1]
        sm = region.site_map(v)
        best, pb = None, None
        for q in pts:
            if q != v:
                pq = sm.path(q)
                if pb is None or _left_of(sm, pq, pb):
                    best, pb = q, pq
        if best == start:
            break
        if len(extremes) == len(pts):
            raise HullConvergenceError("hull gift wrap did not close")
        extremes.append(best)
    first = min(range(len(extremes)), key=lambda i: (extremes[i].x, extremes[i].y))
    return GeodesicHull(tp, extremes[first:] + extremes[:first], pts)
