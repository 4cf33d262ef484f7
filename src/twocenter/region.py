"""Geodesic shortest paths inside a simple polygon.

Every path is read from the shortest-path map (`SiteMap`) of one of its
ends: a funnel sweep over the triangulation's dual tree from that end,
expanded only as far as the queries reach.  A site keeps its map for the
whole solve; a path between two arbitrary points reads a throwaway map of
one end, which expands just the corridor of triangles joining them.  A
Region bundles the triangulated polygon with a boundary ring; the ring may differ from the polygon
boundary (a geodesically convex subregion traced as a cycle, possibly
with repeated vertices), in which case geodesic queries still run in the
full polygon but membership and ray casts use the ring.
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PointOutsidePolygon
from .geom import (Point2, RingIndex, dist, orientation, polyline_length,
                   ray_segment_hit, unique_points)
from .polygon import TriangulatedPolygon, point_in_polygon

Key = Tuple[float, float]


def _key(p) -> Key:
    return (p[0], p[1])


def _same(a, b) -> bool:
    return a[0] == b[0] and a[1] == b[1]


def _corridor(tp: TriangulatedPolygon, ts: int, tt: int) -> List[int]:
    """The triangles from ts to tt along the dual tree, both included,
    found by climbing the rooted tree from both ends."""
    up, depth = tp.up, tp.depth
    rise, fall = [], []
    while ts != tt:
        if depth[ts] >= depth[tt]:
            rise.append(ts)
            ts = up[ts]
        else:
            fall.append(tt)
            tt = up[tt]
        if ts < 0 or tt < 0:
            raise ValueError("triangles in different pieces of the dual graph")
    return rise + [ts] + fall[::-1]


def _wrap(P, chain, ai: int, x) -> int:
    """Position in `chain` of the funnel vertex that the path to x leaves
    from: walk outward from the apex while x lies past the next vertex,
    where a point collinear with a funnel side and beyond its end is past
    it, and a side of zero length is never passed."""
    i, w = ai, P[chain[ai]]
    while i > 0:
        nxt = P[chain[i - 1]]
        if w[0] == nxt[0] and w[1] == nxt[1]:
            break
        o = orientation(w, nxt, x)
        if o < 0 or o == 0 and not dist(w, x) > dist(w, nxt):
            break
        i, w = i - 1, nxt
    if i == ai:
        last = len(chain) - 1
        while i < last:
            nxt = P[chain[i + 1]]
            if w[0] == nxt[0] and w[1] == nxt[1]:
                break
            o = orientation(w, nxt, x)
            if o > 0 or o == 0 and not dist(w, x) > dist(w, nxt):
                break
            i, w = i + 1, nxt
    return i


class SiteMap:
    """Shortest-path map of one source over the whole polygon (Guibas,
    Hershberger, Leven, Sharir and Tarjan 1987), built as queries need it.

    A walk over the dual tree from the source's triangles splits each
    triangle's funnel at its far corner.  The map seeds only the source's
    own triangles; a query expands the triangles on the dual-tree path
    from the source's triangle to its own (`_corridor`) that are not
    expanded yet, and each triangle is expanded once.  `funnels[t]` is
    the funnel at the edge by which the walk entered triangle t: vertex
    indices from the edge's left end through the apex to its right end,
    and the apex's position in that list.  A triangle that holds the
    source, or has it as a corner, has an empty funnel; `funnels[t]` is
    None while the walk has not reached t, and stays None for a t in
    another piece of the dual graph.  Index n, one past the polygon's
    vertices, is the source.  `parent[v]` is v's predecessor on its path
    and `dist[v]` the path's length, summed from the source as
    `polyline_length` sums it, once the walk has reached v.  A triangle's
    funnel follows from the funnel of the triangle the walk entered it
    from, so answers do not depend on the order of the queries.

    Cache: `_anchors` maps a query point's coordinates (x, y) to its
    anchor index, so `distance`, `anchor` and `path` locate and walk each
    point once.  It lives as long as the map, which `Region.site_map`
    keeps on the TriangulatedPolygon.  A failed query is not cached.
    """

    def __init__(self, tp: TriangulatedPolygon, source):
        V, T = tp.vertices, tp.triangles
        n = len(V)
        s = Point2(source[0], source[1])
        self.tp = tp
        self.points = V + (s,)
        self.parent = parent = [-1] * (n + 1)
        self.dist = d = [math.inf] * n + [0.0]
        self.funnels: List[Optional[Tuple[List[int], int]]] = [None] * len(T)
        self.expanded = [False] * len(T)
        funnels = self.funnels
        # a funnel side from a source on a polygon vertex to that vertex
        # has no direction; the vertex sees its whole fan straight instead
        k = tp.index.get((s.x, s.y))
        direct = {tp.locate(s), *(tp.fans[k] if k is not None else ())}
        for t in direct:
            funnels[t] = ([], 0)
            self.expanded[t] = True
        # the source's triangles, where the walk toward any query starts
        self._seeds = sorted(direct)
        for t in self._seeds:
            tri = T[t]
            for i, v in enumerate(tri):
                if parent[v] < 0:
                    parent[v], d[v] = n, dist(s, V[v])
                nb = tp.across[t][i]
                if nb >= 0 and funnels[nb] is None:
                    funnels[nb] = ([tri[(i + 1) % 3], n, tri[i]], 1)
        self._anchors: Dict[Key, int] = {}

    def _expand(self, t: int) -> None:
        """Split the funnel of triangle t at its far corner c: set c's
        parent and distance, and the funnels of the triangles beyond t."""
        P, parent, d, funnels = self.points, self.parent, self.dist, self.funnels
        across = self.tp.across[t]
        chain, ai = funnels[t]
        # t is (left, right, c) counterclockwise from its entry edge
        tri = self.tp.triangles[t]
        i = tri.index(chain[0])
        c = tri[(i + 2) % 3]
        j = _wrap(P, chain, ai, P[c])
        w = chain[j]
        parent[c], d[c] = w, d[w] + dist(P[w], P[c])
        nb = across[(i + 1) % 3]     # edge right -> c: c on the left
        if nb >= 0 and funnels[nb] is None:
            funnels[nb] = ([c] + chain[j:], max(ai, j) - j + 1)
        nb = across[(i + 2) % 3]     # edge c -> left: c on the right
        if nb >= 0 and funnels[nb] is None:
            funnels[nb] = (chain[:j + 1] + [c], min(ai, j))
        self.expanded[t] = True

    def _reach(self, tt: int) -> None:
        """Expand the triangles between the source and triangle tt, so
        that tt's funnel is set."""
        for ts in self._seeds:
            try:
                way = _corridor(self.tp, ts, tt)
            except ValueError:
                continue    # a source on a vertex may touch several pieces
            # the last expanded triangle on the way has set its successor's funnel
            last = max(i for i, t in enumerate(way) if self.expanded[t])
            for t in way[last + 1:-1]:
                self._expand(t)
            return
        raise ValueError("triangles in different pieces of the dual graph")

    def _anchor(self, x) -> int:
        """Index of the last point before x on the path from the source."""
        key = (x[0], x[1])
        w = self._anchors.get(key)
        if w is None:
            w = self._anchors[key] = self._walk(x)
        return w

    def _walk(self, x) -> int:
        t = self.tp.locate(x)
        funnel = self.funnels[t]
        if funnel is None:
            self._reach(t)
            funnel = self.funnels[t]
        chain, ai = funnel
        P = self.points
        if not chain:
            return len(P) - 1
        w = chain[_wrap(P, chain, ai, x)]
        pw = P[w]
        if pw[0] == x[0] and pw[1] == x[1] and self.parent[w] >= 0:
            w = self.parent[w]
        return w

    def anchor(self, x) -> Tuple[Point2, float]:
        """The last bend of the path to x (the source when there is none)
        and the path's length up to it."""
        w = self._anchor(x)
        return self.points[w], self.dist[w]

    def distance(self, x) -> float:
        """Length of the path to x: its anchor's distance plus the last
        straight step, with `_anchor` inlined."""
        x0, x1 = x[0], x[1]
        w = self._anchors.get((x0, x1))
        if w is None:
            w = self._anchors[(x0, x1)] = self._walk(x)
        pw = self.points[w]
        return self.dist[w] + math.hypot(pw[0] - x0, pw[1] - x1)

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


class Region:
    """Geodesic queries restricted to a ring inside a triangulated polygon.

    Caches, each filled on first use and never evicted:

    - `_tree_cache`: `tree(s)`, the ring-extension hits of s's paths to
      the corners that are polygon vertices, by the source's (x, y).
    - `_onecenter_cache`: `disks.one_center` by the frozenset of the
      points' (x, y).
    - `_basis_cache`: the one-center of a basis of two or three points,
      `disks._disk2` and `disks._solve3`, by the points' coordinates in
      argument order.

    The ring's `RingIndex` (`ring_index`) is built on the first membership
    or on-ring query and kept.

    Shortest-path maps (`site_map`) and two-point paths (`path`) are
    cached on the TriangulatedPolygon instead, in `tp._site_maps` and
    `tp._path_cache`, and shared by every Region over it.  The map that
    answers a two-point path is not kept.  Per-split results live on the
    GeodesicHull, in `h._chain_cache`: `decision.pair_chains` by (i, j),
    whose record also keeps the split's disk intersections.  A Region
    lives as long as its holder: `Region.of(tp)` keeps the polygon's own on tp
    and a GeodesicHull keeps its ring's, so within one solve every cache
    lives as long as the solve's TriangulatedPolygon.
    """

    def __init__(self, tp: TriangulatedPolygon, ring: Optional[Sequence[Point2]] = None):
        self.tp = tp
        self.ring: Tuple[Point2, ...] = tuple(ring) if ring is not None else tp.vertices
        self.corners: Tuple[Point2, ...] = tuple(unique_points(self.ring))
        self.diameter = tp.diameter
        self._tree_cache: Dict[Key, Dict[Key, Point2]] = {}
        self._onecenter_cache: Dict[frozenset, object] = {}
        self._basis_cache: Dict[Tuple[float, ...], object] = {}
        self._ring_index: Optional[RingIndex] = None

    @staticmethod
    def of(tp: TriangulatedPolygon) -> "Region":
        if tp._region is None:
            tp._region = Region(tp)
        return tp._region

    # -- membership ---------------------------------------------------

    @property
    def ring_index(self) -> RingIndex:
        if self._ring_index is None:
            self._ring_index = RingIndex(self.ring)
        return self._ring_index

    def contains(self, p, eps: float = 1e-9) -> bool:
        return self.ring_index.classify(p, eps) != "outside"

    def classify(self, p, eps: float = 1e-9) -> str:
        """`geom.ring_contains(p, self.ring, eps)`, read from the index."""
        return self.ring_index.classify(p, eps)

    # -- paths and distances ------------------------------------------

    def path(self, a, b) -> List[Point2]:
        """The shortest path a -> b, read from a map of the end with the
        smaller (x, y), so that b -> a is the same path reversed."""
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
            hit = cache[key] = SiteMap(self.tp, s).path(t)
        return list(reversed(hit)) if flip else list(hit)

    def distance(self, a, b) -> float:
        return polyline_length(self.path(a, b))

    def site_map(self, s) -> SiteMap:
        """The shortest-path map of s, built once per polygon."""
        maps = self.tp._site_maps
        key = (s[0], s[1])
        hit = maps.get(key)
        if hit is None:
            hit = maps[key] = SiteMap(self.tp, s)
        return hit

    # -- extensions past the ring corners -----------------------------

    def tree(self, s) -> Dict[Key, Point2]:
        """For each corner v that is a polygon vertex and whose path from
        s, extended straight past v, runs into the region, v's (x, y) ->
        the point where that extension first meets the ring.  A shortest
        path bends only at polygon vertices, so no other corner (a point
        of Q on a hull ring) starts an extension.  Distances and last
        bends are read from `site_map(s)`; the name is the span
        `perfbench/tracing.py` times."""
        ks = _key(s)
        hit = self._tree_cache.get(ks)
        if hit is not None:
            return hit
        sm = self.site_map(s)
        vertices = self.tp.index
        ext: Dict[Key, Point2] = {}
        for v in self.corners:
            kv = _key(v)
            if kv not in vertices:
                continue
            h = self._extend(sm.anchor(v)[0], v)
            if h is not None:
                ext[kv] = h
        self._tree_cache[ks] = ext
        return ext

    # -- boundary rays -------------------------------------------------

    def ray_to_boundary(self, origin, direction) -> Optional[Point2]:
        """First ring hit strictly ahead of origin along direction."""
        norm = math.hypot(direction[0], direction[1])
        if norm == 0:
            return None
        d = Point2(direction[0] / norm, direction[1] / norm)
        t_min = self.tp.tol.near
        best_t, best_p = None, None
        for a, b in self.ring_index.segs:
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

    def _extend(self, pred, to) -> Optional[Point2]:
        """Where a path whose last segment runs pred -> to, extended
        straight past `to`, first meets the ring; None when pred is `to`
        (a one-point path) or when the extension leaves the region
        immediately (endpoint on the boundary, ray pointing out)."""
        if _same(pred, to):
            return None
        d = Point2(to.x - pred.x, to.y - pred.y)
        if not self._ray_enters(to, d):
            return None
        return self.ray_to_boundary(to, d)

    # -- shortest path map vertices -----------------------------------

    def spm_points(self, s) -> List[Tuple[Point2, float]]:
        """Corners plus extension hit points, each with its distance from s.

        These are the ring's contributions to the vertex set of the
        shortest path map of s: every corner, and for every corner that
        is a polygon vertex the path bends around, the point where the
        bent path's straight continuation meets the ring again (`tree`).
        On a hull ring, a corner that is a point of Q and no polygon
        vertex is returned alone, without an extension point.
        """
        ext, sm = self.tree(s), self.site_map(s)
        out: List[Tuple[Point2, float]] = []
        for v in self.corners:
            dv = sm.distance(v)
            out.append((v, dv))
            h = ext.get(_key(v))
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


def spm_vertices(tp: TriangulatedPolygon, s) -> List[Tuple[Point2, float]]:
    _check_inside(tp, s)
    return Region.of(tp).spm_points(s)
