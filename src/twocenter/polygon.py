"""Simple polygons, validation, ear-clipping triangulation and point
location."""
from __future__ import annotations

import bisect
import heapq
import math
from typing import List, Optional, Tuple

from .errors import InvalidPolygon
from .geom import (EPS, BoxGrid, Point2, Tolerances, bbox, bbox_diameter,
                   cross, dist, orientation, ring_contains,
                   seg_point_distance, segments_properly_cross)


class SimplePolygon:
    """A simple polygon, stored counterclockwise.

    Construction merges consecutive duplicate vertices (within EPS), enforces
    counterclockwise orientation and checks simplicity; a non-finite
    coordinate or a self-intersecting input raises InvalidPolygon.
    """

    def __init__(self, vertices):
        pts = [Point2(float(p[0]), float(p[1])) for p in vertices]
        for p in pts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise InvalidPolygon(f"non-finite coordinate {tuple(p)}")
        merged: List[Point2] = []
        for p in pts:
            if merged and dist(merged[-1], p) <= EPS:
                continue
            merged.append(p)
        if len(merged) >= 2 and dist(merged[0], merged[-1]) <= EPS:
            merged.pop()
        if len(merged) < 3:
            raise InvalidPolygon("need at least 3 distinct vertices")
        area2 = sum(cross(merged[0], merged[i], merged[i + 1])
                    for i in range(1, len(merged) - 1))
        if abs(area2) <= EPS * max(1.0, bbox_diameter(merged)):
            raise InvalidPolygon("zero area")
        if area2 < 0:
            merged.reverse()
        self.vertices: Tuple[Point2, ...] = tuple(merged)
        self.n = len(merged)
        self._check_simple()
        self.bbox = bbox(self.vertices)
        self.diameter = bbox_diameter(self.vertices)

    def _check_simple(self):
        n = self.n
        V = self.vertices
        # boxes 0..n-1 bound the edges, boxes n..2n-1 the vertices padded
        # by 2 th: within th of an edge means within th of its box, and
        # 2 th absorbs the rounding of seg_point_distance.  Exact
        # orientation signs that show a proper crossing imply that the
        # two edge boxes meet.
        boxes = [(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
                 for a, b in zip(V, V[1:] + V[:1])]
        ths = [1e-12 * max(1.0, abs(p.x), abs(p.y)) for p in V]
        boxes += [(p.x - 2 * th, p.y - 2 * th, p.x + 2 * th, p.y + 2 * th)
                  for p, th in zip(V, ths)]
        crossing, touching = [], []
        for i, j in _meeting_boxes(boxes):
            if j < n:
                # skip edge i + 1, and edge n - 1 when i = 0: both are adjacent
                if j >= i + 2 and (i or j < n - 1):
                    crossing.append((i, j))
            elif i < n and j - n != i and j - n != (i + 1) % n:
                # vertex j - n and edge i, skipping the vertex's own edges
                touching.append((j - n, i))
        for i, j in sorted(crossing):
            if segments_properly_cross(V[i], V[(i + 1) % n], V[j], V[(j + 1) % n]):
                raise InvalidPolygon(f"edges {i} and {j} cross")
        # a vertex sitting on a non-adjacent edge also breaks simplicity,
        # in its interior or at an end (the ring passes one point twice)
        for i, j in sorted(touching):
            p = V[i]
            if seg_point_distance(p, V[j], V[(j + 1) % n]) <= ths[i]:
                k = next((k for k in (j, (j + 1) % n) if dist(p, V[k]) <= 1e-12), -1)
                if k < 0:
                    raise InvalidPolygon(f"vertex {i} lies on edge {j}")
                if k not in ((i - 1) % n, (i + 1) % n):
                    raise InvalidPolygon(f"vertex {i} coincides with vertex {k}")

    def scaled(self, k: float) -> "SimplePolygon":
        """This polygon with every coordinate times k, a power of two.
        Such a scaling is exact (short of overflow or underflow), so the
        copy keeps the merged, counterclockwise and checked vertices of
        this one, and the constructor's checks are not run again."""
        copy = object.__new__(SimplePolygon)
        copy.vertices = tuple(Point2(v.x * k, v.y * k) for v in self.vertices)
        copy.n = self.n
        copy.bbox = bbox(copy.vertices)
        copy.diameter = bbox_diameter(copy.vertices)
        return copy

    def edges(self):
        V = self.vertices
        return [(V[i], V[(i + 1) % self.n]) for i in range(self.n)]

    def __repr__(self):
        return f"SimplePolygon({self.n} vertices)"


def _meeting_boxes(boxes) -> List[Tuple[int, int]]:
    """Index pairs (i, j), i < j, of the closed boxes (x0, y0, x1, y1)
    that meet: sort by x0 and scan each box's successors up to its x1
    (Shamos and Hoey 1976)."""
    order = sorted(range(len(boxes)), key=lambda k: boxes[k][0])
    out = []
    for at, k in enumerate(order):
        _x0, y0, x1, y1 = boxes[k]
        for q in range(at + 1, len(order)):
            m = order[q]
            u0, v0, _u1, v1 = boxes[m]
            if u0 > x1:
                break
            if v0 <= y1 and y0 <= v1:
                out.append((k, m) if k < m else (m, k))
    return out


def point_in_polygon(poly: SimplePolygon, p) -> str:
    """'inside' / 'boundary' / 'outside' classification of p against poly."""
    return ring_contains(p, poly.vertices)


def _tri_contains(a, b, c, p, eps: float) -> bool:
    d1 = cross(a, b, p)
    d2 = cross(b, c, p)
    d3 = cross(c, a, p)
    scale = max(1.0, abs(p[0]), abs(p[1]))
    t = eps * scale
    return d1 >= -t and d2 >= -t and d3 >= -t


def _reach_box_of(box):
    """The function (a, b, c) -> a box holding every point of `box` that
    the 1e-12 test `_tri_contains(a, b, c, p, 1e-12)` accepts, for a, b, c
    in `box`.

    The test accepts p when every barycentric coordinate is at least
    -(tol + err) / A, for A twice the triangle's area, tol the test's
    slack at the box's largest coordinate and err the rounding of one
    cross product.  Such a p lies within 2 (tol + err) D / A of the
    triangle's own box of extent D; the rest is rounding slack.
    """
    x0, y0, x1, y1 = box
    big = max(1.0, abs(x0), abs(y0), abs(x1), abs(y1))
    tol, slack = 1e-12 * big, 1e-15 * big
    ext = max(x1 - x0, y1 - y0)

    def reach(a, b, c) -> Tuple[float, float, float, float]:
        tx0, tx1 = min(a.x, b.x, c.x), max(a.x, b.x, c.x)
        ty0, ty1 = min(a.y, b.y, c.y), max(a.y, b.y, c.y)
        d = max(tx1 - tx0, ty1 - ty0)
        area2 = cross(a, b, c) - 1e-15 * d * d
        if area2 > 0.0:
            pad = 2.0 * (tol + 1e-15 * d * ext) * d / area2 * (1.0 + 1e-9) + slack
        else:
            pad = math.inf
        return (tx0 - pad, ty0 - pad, tx1 + pad, ty1 + pad)

    return reach


class TriangulatedPolygon:
    """A simple polygon plus a triangulation and its dual tree.

    Triangles are index triples into `polygon.vertices`, counterclockwise.
    The dual graph of a triangulated simple polygon is a tree;
    `across[t][k]` is the triangle across t's edge (tri[k], tri[k + 1]),
    -1 on the polygon boundary.  Rooted at triangle 0, `up[t]` is t's
    parent (-1 at the root) and `depth[t]` its depth.  `fans[v]` lists
    the triangles with corner v, and `index` maps a vertex's (x, y) to
    its index.  `tol` holds the solver's tolerances for this polygon's
    scale.
    """

    def __init__(self, polygon: SimplePolygon, triangles):
        self.polygon = polygon
        self.triangles: List[Tuple[int, int, int]] = list(triangles)
        self.vertices = polygon.vertices
        self.diameter = polygon.diameter
        self.tol = Tolerances.for_diameter(self.diameter)
        edge_map = {}
        self.across: List[List[int]] = [[-1, -1, -1] for _ in self.triangles]
        self.index = {(v.x, v.y): k for k, v in enumerate(self.vertices)}
        self.fans: List[List[int]] = [[] for _ in self.vertices]
        for t, tri in enumerate(self.triangles):
            for k in range(3):
                self.fans[tri[k]].append(t)
                e = (tri[k], tri[(k + 1) % 3])
                key = (min(e), max(e))
                other = edge_map.get(key)
                if other is None:
                    edge_map[key] = (t, k)
                else:
                    o, ko = other
                    self.across[t][k], self.across[o][ko] = o, t
        m = len(self.triangles)
        self.up: List[int] = [-1] * m
        self.depth: List[int] = [-1] * m
        for root in range(m):
            if self.depth[root] >= 0:
                continue
            # one root per connected piece of the dual graph
            self.depth[root] = 0
            order = [root]
            for t in order:
                for nb in self.across[t]:
                    if nb >= 0 and self.depth[nb] < 0:
                        self.up[nb] = t
                        self.depth[nb] = self.depth[t] + 1
                        order.append(nb)
        # point location reads the triangles whose reach boxes meet a cell
        self._grid = BoxGrid(polygon.bbox, self._reach_boxes())
        # caches shared by every geodesic query over this polygon
        self._path_cache = {}
        self._locate_cache = {}
        self._site_maps = {}
        self._region = None

    def _reach_boxes(self) -> List[Tuple[float, float, float, float]]:
        """Per triangle, the reach box (`_reach_box_of`) of its corners."""
        reach = _reach_box_of(self.polygon.bbox)
        V = self.vertices
        return [reach(V[i], V[j], V[k]) for i, j, k in self.triangles]

    # Point location: the grid cell first, the full scan as fallback;
    # results are cached.
    def locate(self, p) -> int:
        px, py = p[0], p[1]
        key = (px, py)
        hit = self._locate_cache.get(key)
        if hit is not None:
            return hit
        x0, y0, x1, y1 = self.polygon.bbox
        if x0 <= px <= x1 and y0 <= py <= y1:
            best = self._first_holding(self._grid.at(p), px, py, 1e-12)
        else:
            best = self._first_holding(range(len(self.triangles)), px, py, 1e-12)
        if best < 0:
            best = self._first_holding(range(len(self.triangles)), px, py, 1e-7)
        if best < 0:
            V = self.vertices
            best = min(
                range(len(self.triangles)),
                key=lambda t: min(
                    seg_point_distance(p, V[self.triangles[t][a]], V[self.triangles[t][(a + 1) % 3]])
                    for a in range(3)),
            )
        self._locate_cache[key] = best
        return best

    def _first_holding(self, cands, px: float, py: float, eps: float) -> int:
        """The first triangle of cands whose `_tri_contains` test with
        slack eps accepts (px, py), or -1.  The test is inlined, with the
        point's slack computed once."""
        V, T = self.vertices, self.triangles
        low = -(eps * max(1.0, abs(px), abs(py)))
        for t in cands:
            i, j, k = T[t]
            a, b, c = V[i], V[j], V[k]
            ax, ay = a[0], a[1]
            bx, by = b[0], b[1]
            cx, cy = c[0], c[1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= low \
                    and (cx - bx) * (py - by) - (cy - by) * (px - bx) >= low \
                    and (ax - cx) * (py - cy) - (ay - cy) * (px - cx) >= low:
                return t
        return -1

    def __repr__(self):
        return f"TriangulatedPolygon({self.polygon.n} vertices, {len(self.triangles)} triangles)"


def triangulate(poly: SimplePolygon) -> TriangulatedPolygon:
    """Ear-clipping triangulation.

    Each step drops the first vertex, in index order, that lies exactly
    straight between two pieces of the polygon boundary: it carries no
    area and emits no triangle.  One next to a diagonal stays for ear
    clipping, so that the triangles on either side of it remain linked
    and the dual graph stays one tree.  Without such a vertex, the step
    clips the first ear in index order.

    The work is incremental (Held 2001, "FIST").  Turns and straight
    flags are kept per vertex and recomputed only at a clip's two
    neighbours.  Ear tests run lazily, in index order up to the first
    ear; a vertex found blocked keeps its answer until a neighbour
    changes or its blocking vertex goes.  An ear test reads only the
    vertices inside the candidate's reach box (`_reach_box_of`), found
    in an x-sorted list.
    """
    V = poly.vertices
    n = poly.n
    straight_tol = EPS * max(1.0, poly.diameter)
    reach = _reach_box_of(poly.bbox)
    by_x = sorted(range(n), key=lambda v: V[v].x)
    xs = [V[v].x for v in by_x]
    prev = [(v - 1) % n for v in range(n)]
    succ = [(v + 1) % n for v in range(n)]
    alive = [True] * n
    # on_ring[v]: the edge from v to its current successor lies on the
    # polygon boundary (not a diagonal left by a clipped ear)
    on_ring = [True] * n
    turn = [0] * n
    straight = [False] * n
    # ear[v]: True or False once tested, None until then; a blocked
    # vertex is listed under its blocker in `blocks`
    ear: List[Optional[bool]] = [None] * n
    blocker = [-1] * n
    blocks: List[List[int]] = [[] for _ in range(n)]
    # index-ordered heaps; stale entries are dropped when they surface
    straights: List[int] = []
    untested: List[int] = []

    def reset(b: int):
        a, c = prev[b], succ[b]
        turn[b] = t = orientation(V[a], V[b], V[c])
        straight[b] = on_ring[a] and on_ring[b] and t == 0 and \
            seg_point_distance(V[b], V[a], V[c]) <= straight_tol
        if straight[b]:
            heapq.heappush(straights, b)
        ear[b] = None
        heapq.heappush(untested, b)

    def is_ear(b: int) -> bool:
        blocker[b] = -1
        if turn[b] <= 0:
            return False
        a, c = prev[b], succ[b]
        pa, pb, pc = V[a], V[b], V[c]
        x0, y0, x1, y1 = reach(pa, pb, pc)
        for v in by_x[bisect.bisect_left(xs, x0):bisect.bisect_right(xs, x1)]:
            if alive[v] and v != a and v != b and v != c and y0 <= V[v].y <= y1 \
                    and _tri_contains(pa, pb, pc, V[v], 1e-12):
                blocker[b] = v
                blocks[v].append(b)
                return False
        return True

    def first_ear() -> int:
        while untested:
            b = untested[0]
            if alive[b] and ear[b] is None:
                ear[b] = is_ear(b)
            if alive[b] and ear[b]:
                return b
            heapq.heappop(untested)
        return -1

    for v in range(n):
        reset(v)
    tris: List[Tuple[int, int, int]] = []
    left = n
    while left > 3:
        while straights and not (alive[straights[0]] and straight[straights[0]]):
            heapq.heappop(straights)
        if straights:
            b = straights[0]
        else:
            b = first_ear()
            if b < 0:
                raise InvalidPolygon("no ear found; polygon is not simple")
            tris.append((prev[b], b, succ[b]))
            on_ring[prev[b]] = False
        a, c = prev[b], succ[b]
        alive[b] = False
        succ[a], prev[c] = c, a
        left -= 1
        reset(a)
        reset(c)
        for v in blocks[b]:
            if alive[v] and ear[v] is False and blocker[v] == b:
                ear[v] = None
                heapq.heappush(untested, v)
    a, b, c = (v for v in range(n) if alive[v])
    if orientation(V[a], V[b], V[c]) > 0:
        tris.append((a, b, c))
    return TriangulatedPolygon(poly, tris)
