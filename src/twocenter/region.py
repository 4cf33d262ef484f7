"""Geodesic shortest paths inside a simple polygon.

Paths from a site are read from its shortest-path map (`SiteMap`): one
funnel sweep over the triangulation's dual tree from the site.  A path
between two arbitrary points runs the two-point funnel algorithm over the
corridor of triangles joining them.  A Region bundles the triangulated
polygon with a boundary ring; the ring may differ from the polygon
boundary (a geodesically convex subregion traced as a cycle, possibly
with repeated vertices), in which case geodesic queries still run in the
full polygon but membership and ray casts use the ring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PointOutsidePolygon
from .geom import (Point2, dist, orientation, polyline_length, ray_segment_hit,
                   ring_contains, unique_points)
from .polygon import TriangulatedPolygon, point_in_polygon

Key = Tuple[float, float]


def _key(p) -> Key:
    return (p[0], p[1])


def _same(a, b) -> bool:
    return a[0] == b[0] and a[1] == b[1]


def _portals(tp: TriangulatedPolygon, ts: int, tt: int):
    """(left, right) portal endpoints for each crossing from triangle ts
    to triangle tt, climbing the rooted dual tree from both ends.

    Crossing a child's gate u -> v upward puts v on the traveller's left
    and u on the right; crossing it downward puts u on the left.
    """
    V, up, depth, gate = tp.vertices, tp.up, tp.depth, tp.gate
    rise, fall = [], []
    while ts != tt:
        if depth[ts] >= depth[tt]:
            u, v = gate[ts]
            rise.append((V[v], V[u]))
            ts = up[ts]
        else:
            u, v = gate[tt]
            fall.append((V[u], V[v]))
            tt = up[tt]
        if ts < 0 or tt < 0:
            raise ValueError("triangles in different pieces of the dual graph")
    return rise + fall[::-1]


def _narrows_right(apex, right, p) -> bool:
    if _same(apex, right):
        return True
    o = orientation(apex, right, p)
    if o > 0:
        return True
    return o == 0 and dist(apex, p) < dist(apex, right)


def _narrows_left(apex, left, p) -> bool:
    if _same(apex, left):
        return True
    o = orientation(apex, left, p)
    if o < 0:
        return True
    return o == 0 and dist(apex, p) < dist(apex, left)


def _past_left(apex, left, p) -> bool:
    if _same(apex, left):
        return False
    o = orientation(apex, left, p)
    if o > 0:
        return True
    # collinear but beyond the left point: the path grazes it exactly
    return o == 0 and dist(apex, p) > dist(apex, left)


def _past_right(apex, right, p) -> bool:
    if _same(apex, right):
        return False
    o = orientation(apex, right, p)
    if o < 0:
        return True
    return o == 0 and dist(apex, p) > dist(apex, right)


def _funnel(portals, s: Point2, t: Point2) -> List[Point2]:
    pts = [(s, s)] + list(portals) + [(t, t)]
    path = [s]
    apex, ai = s, 0
    left, li = s, 0
    right, ri = s, 0
    i = 1
    while i < len(pts):
        pl, pr = pts[i]
        if _narrows_right(apex, right, pr):
            if _same(apex, right) or not _past_left(apex, left, pr):
                right, ri = pr, i
            else:
                if not _same(path[-1], left):
                    path.append(left)
                apex, ai = left, li
                left, right = apex, apex
                li = ri = ai
                i = ai + 1
                continue
        if _narrows_left(apex, left, pl):
            if _same(apex, left) or not _past_right(apex, right, pl):
                left, li = pl, i
            else:
                if not _same(path[-1], right):
                    path.append(right)
                apex, ai = right, ri
                left, right = apex, apex
                li = ri = ai
                i = ai + 1
                continue
        i += 1
    if not _same(path[-1], t):
        path.append(t)
    return path


def _wrap(P, chain, ai: int, x) -> int:
    """Position in `chain` of the funnel vertex that the path to x leaves
    from: walk outward from the apex while x lies past the next vertex,
    with `_funnel`'s tests and collinear rule."""
    i, w = ai, P[chain[ai]]
    while i > 0:
        nxt = P[chain[i - 1]]
        if not _past_left(w, nxt, x):
            break
        i, w = i - 1, nxt
    if i == ai:
        last = len(chain) - 1
        while i < last:
            nxt = P[chain[i + 1]]
            if not _past_right(w, nxt, x):
                break
            i, w = i + 1, nxt
    return i


class SiteMap:
    """Shortest-path map of one source over the whole polygon (Guibas,
    Hershberger, Leven, Sharir and Tarjan 1987).

    One walk over the dual tree from the source's triangles splits each
    triangle's funnel at its far corner.  `funnels[t]` is the funnel at
    the edge by which the walk entered triangle t: vertex indices from
    the edge's left end through the apex to its right end, and the
    apex's position in that list.  A triangle that holds the source, or
    has it as a corner, has an empty funnel; one the walk never reaches
    (another piece of the dual graph) has None.  Index n, one past the
    polygon's vertices, is the source.  `parent[v]` is v's predecessor
    on its path and `dist[v]` the path's length, summed from the source
    as `polyline_length` sums it.
    """

    def __init__(self, tp: TriangulatedPolygon, source):
        V, T, across = tp.vertices, tp.triangles, tp.across
        n = len(V)
        s = Point2(source[0], source[1])
        self.tp = tp
        self.points = P = V + (s,)
        self.parent = parent = [-1] * (n + 1)
        self.dist = d = [math.inf] * n + [0.0]
        self.funnels: List[Optional[Tuple[List[int], int]]] = [None] * len(T)
        funnels = self.funnels
        # a funnel side from a source on a polygon vertex to that vertex
        # has no direction; the vertex sees its whole fan straight instead
        k = next((k for k in range(n) if _same(V[k], s)), -1)
        direct = {tp.locate(s)} | {t for t, tri in enumerate(T) if k in tri}
        for t in direct:
            funnels[t] = ([], 0)
        stack = []
        for t in sorted(direct):
            tri = T[t]
            for i, v in enumerate(tri):
                if parent[v] < 0:
                    parent[v], d[v] = n, dist(s, V[v])
                nb = across[t][i]
                if nb >= 0 and funnels[nb] is None:
                    funnels[nb] = ([tri[(i + 1) % 3], n, tri[i]], 1)
                    stack.append(nb)
        while stack:
            t = stack.pop()
            chain, ai = funnels[t]
            # t is (left, right, c) counterclockwise from its entry edge
            tri = T[t]
            i = tri.index(chain[0])
            c = tri[(i + 2) % 3]
            j = _wrap(P, chain, ai, V[c])
            w = chain[j]
            parent[c], d[c] = w, d[w] + dist(P[w], V[c])
            nb = across[t][(i + 1) % 3]     # edge right -> c: c on the left
            if nb >= 0 and funnels[nb] is None:
                funnels[nb] = ([c] + chain[j:], max(ai, j) - j + 1)
                stack.append(nb)
            nb = across[t][(i + 2) % 3]     # edge c -> left: c on the right
            if nb >= 0 and funnels[nb] is None:
                funnels[nb] = (chain[:j + 1] + [c], min(ai, j))
                stack.append(nb)

    def _anchor(self, x) -> int:
        """Index of the last point before x on the path from the source."""
        f = self.funnels[self.tp.locate(x)]
        if f is None:
            raise ValueError("triangles in different pieces of the dual graph")
        chain, ai = f
        if not chain:
            return len(self.points) - 1
        w = chain[_wrap(self.points, chain, ai, x)]
        if self.parent[w] >= 0 and _same(self.points[w], x):
            w = self.parent[w]
        return w

    def anchor(self, x) -> Tuple[Point2, float]:
        """The last bend of the path to x (the source when there is none)
        and the path's length up to it."""
        w = self._anchor(x)
        return self.points[w], self.dist[w]

    def distance(self, x) -> float:
        w = self._anchor(x)
        return self.dist[w] + dist(self.points[w], x)

    def path(self, x) -> List[Point2]:
        x = Point2(x[0], x[1])
        w = self._anchor(x)
        # the anchor is x itself only when x is the source
        out = [] if _same(self.points[w], x) else [x]
        while w >= 0:
            out.append(self.points[w])
            w = self.parent[w]
        out.reverse()
        return out


@dataclass
class ShortestPathTree:
    """Distances and predecessors from one source to a set of corners.

    `ext` maps each corner whose path, extended straight past it, runs
    into the region to the point where that extension meets the ring.
    """
    source: Point2
    dist: Dict[Key, float]
    parent: Dict[Key, Optional[Point2]]
    ext: Dict[Key, Point2]

    def distance_to(self, p) -> float:
        return self.dist[_key(p)]

    def parent_of(self, p) -> Optional[Point2]:
        return self.parent[_key(p)]


class Region:
    """Geodesic queries restricted to a ring inside a triangulated polygon."""

    def __init__(self, tp: TriangulatedPolygon, ring: Optional[Sequence[Point2]] = None):
        self.tp = tp
        self.ring: Tuple[Point2, ...] = tuple(ring) if ring is not None else tp.vertices
        self.corners: Tuple[Point2, ...] = tuple(unique_points(self.ring))
        self.diameter = tp.diameter
        self._tree_cache: Dict[Key, ShortestPathTree] = {}
        # disks.one_center results keyed by the frozenset of point keys
        self._onecenter_cache: Dict[frozenset, object] = {}

    @staticmethod
    def of(tp: TriangulatedPolygon) -> "Region":
        if tp._region is None:
            tp._region = Region(tp)
        return tp._region

    # -- membership ---------------------------------------------------

    def contains(self, p, eps: float = 1e-9) -> bool:
        return ring_contains(p, self.ring, eps) != "outside"

    def classify(self, p, eps: float = 1e-9) -> str:
        return ring_contains(p, self.ring, eps)

    # -- paths and distances ------------------------------------------

    def path(self, a, b) -> List[Point2]:
        a = Point2(a[0], a[1])
        b = Point2(b[0], b[1])
        if _same(a, b):
            return [a]
        ka, kb = _key(a), _key(b)
        flip = kb < ka
        key = (kb, ka) if flip else (ka, kb)
        cache = self.tp._path_cache
        hit = cache.get(key)
        if hit is None:
            s, t = (b, a) if flip else (a, b)
            hit = _funnel(_portals(self.tp, self.tp.locate(s), self.tp.locate(t)), s, t)
            cache[key] = hit
        return list(reversed(hit)) if flip else list(hit)

    def distance(self, a, b) -> float:
        return polyline_length(self.path(a, b))

    def site_map(self, s) -> SiteMap:
        """The shortest-path map of s, built once per polygon."""
        maps = self.tp._site_maps
        hit = maps.get(_key(s))
        if hit is None:
            hit = maps[_key(s)] = SiteMap(self.tp, s)
        return hit

    # -- trees over the ring corners ----------------------------------

    def tree(self, s) -> ShortestPathTree:
        s = Point2(s[0], s[1])
        ks = _key(s)
        hit = self._tree_cache.get(ks)
        if hit is not None:
            return hit
        sm = self.site_map(s)
        d: Dict[Key, float] = {ks: 0.0}
        par: Dict[Key, Optional[Point2]] = {ks: None}
        ext: Dict[Key, Point2] = {}
        for v in self.corners:
            p = sm.path(v)
            kv = _key(v)
            d[kv] = polyline_length(p)
            par[kv] = p[-2] if len(p) >= 2 else None
            h = self._extend(p)
            if h is not None:
                ext[kv] = h
        tree = ShortestPathTree(s, d, par, ext)
        self._tree_cache[ks] = tree
        return tree

    # -- boundary rays -------------------------------------------------

    def ring_segments(self):
        R = self.ring
        n = len(R)
        return [(R[i], R[(i + 1) % n]) for i in range(n)]

    def ray_to_boundary(self, origin, direction) -> Optional[Point2]:
        """First ring hit strictly ahead of origin along direction."""
        norm = math.hypot(direction[0], direction[1])
        if norm == 0:
            return None
        d = Point2(direction[0] / norm, direction[1] / norm)
        t_min = self.tp.tol.near
        best_t, best_p = None, None
        for a, b in self.ring_segments():
            hit = ray_segment_hit(Point2(origin[0], origin[1]), d, a, b, t_min=t_min)
            if hit is not None and (best_t is None or hit[0] < best_t):
                best_t, best_p = hit
        return best_p

    def _ray_enters(self, origin, direction) -> bool:
        norm = math.hypot(direction[0], direction[1])
        if norm == 0:
            return False
        step = self.tp.tol.check
        probe = Point2(origin[0] + direction[0] / norm * step,
                       origin[1] + direction[1] / norm * step)
        return self.contains(probe, eps=step * 1e-3)

    def _extend(self, path) -> Optional[Point2]:
        """Where `path`, extended straight past its last point, first
        meets the ring; None for a one-point path or when the extension
        leaves the region immediately (endpoint on the boundary, ray
        pointing out)."""
        if len(path) < 2:
            return None
        to, pred = path[-1], path[-2]
        d = Point2(to.x - pred.x, to.y - pred.y)
        if not self._ray_enters(to, d):
            return None
        return self.ray_to_boundary(to, d)

    def extension_point(self, frm, to) -> Point2:
        """Where the path frm -> to, extended straight past `to`, first
        meets the ring; `to` itself when the extension leaves at once."""
        hit = self._extend(self.path(frm, to))
        return Point2(to[0], to[1]) if hit is None else hit

    # -- shortest path map vertices -----------------------------------

    def spm_points(self, s) -> List[Tuple[Point2, float]]:
        """Corners plus extension hit points, each with its distance from s.

        These are the ring's contributions to the vertex set of the
        shortest path map of s: every corner, and for every corner the
        path bends around, the point where the bent path's straight
        continuation meets the ring again.
        """
        tree = self.tree(s)
        out: List[Tuple[Point2, float]] = []
        for v in self.corners:
            dv = tree.distance_to(v)
            out.append((v, dv))
            h = tree.ext.get(_key(v))
            if h is not None:
                out.append((h, dv + dist(v, h)))
        return out


# Convenience wrappers over a whole polygon's region.  These validate
# containment; Region itself trusts its callers (and tolerates boundary
# fuzz via nearest-triangle location).

def _check_inside(tp: TriangulatedPolygon, *pts) -> None:
    for p in pts:
        if point_in_polygon(tp.polygon, p) == "outside":
            raise PointOutsidePolygon(f"{(p[0], p[1])} outside the polygon")


def shortest_path(tp: TriangulatedPolygon, a, b) -> List[Point2]:
    _check_inside(tp, a, b)
    return Region.of(tp).path(a, b)


def geodesic_distance(tp: TriangulatedPolygon, a, b) -> float:
    _check_inside(tp, a, b)
    return Region.of(tp).distance(a, b)


def shortest_path_tree(tp: TriangulatedPolygon, s) -> ShortestPathTree:
    _check_inside(tp, s)
    return Region.of(tp).tree(s)


def spm_vertices(tp: TriangulatedPolygon, s) -> List[Tuple[Point2, float]]:
    _check_inside(tp, s)
    return Region.of(tp).spm_points(s)
