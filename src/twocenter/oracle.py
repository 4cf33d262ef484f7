"""Independent reference solvers used to validate the geometric code.

Distances come from a visibility graph and Dijkstra.  Center problems are
solved by evaluating exact distance fields on a masked grid of candidate
centers, shrinking windows around the best candidate, then polishing with
Nelder-Mead.  Nothing here shares code with the funnel-based solvers.
"""
from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Sequence, Tuple

from .errors import TooLarge
from .geom import (Point2, dist, ring_contains, seg_point_distance,
                   segments_properly_cross)


def _param_on(u, v, w) -> float:
    dx, dy = v[0] - u[0], v[1] - u[1]
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return 0.0
    return ((w[0] - u[0]) * dx + (w[1] - u[1]) * dy) / L2


def _clear_sight(ring, u, v, scale) -> bool:
    """True when segment u-v stays inside the polygon bounded by ring."""
    if dist(u, v) <= 1e-15:
        return True
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if segments_properly_cross(u, v, a, b):
            return False
    # split where the segment grazes a vertex, then probe each piece
    tol = 1e-9 * scale
    ts = [0.0, 1.0]
    for w in ring:
        if seg_point_distance(w, u, v) <= tol:
            t = _param_on(u, v, w)
            if 1e-12 < t < 1 - 1e-12:
                ts.append(t)
    ts.sort()
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 <= 1e-12:
            continue
        tm = (t0 + t1) / 2
        m = Point2(u[0] + (v[0] - u[0]) * tm, u[1] + (v[1] - u[1]) * tm)
        if ring_contains(m, ring, tol) == "outside":
            return False
    return True


class _OracleGeometry:
    """Per-polygon cache: visibility among vertices and edge arrays."""

    def __init__(self, ring: Sequence[Point2]):
        self.ring = tuple(ring)
        self.n = len(self.ring)
        xs = [p.x for p in self.ring]
        ys = [p.y for p in self.ring]
        self.scale = max(1.0, max(xs) - min(xs), max(ys) - min(ys))
        self.bounds = (min(xs), min(ys), max(xs), max(ys))
        self.adj: List[List[Tuple[int, float]]] = [[] for _ in range(self.n)]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if _clear_sight(self.ring, self.ring[i], self.ring[j], self.scale):
                    w = dist(self.ring[i], self.ring[j])
                    self.adj[i].append((j, w))
                    self.adj[j].append((i, w))
        self.edges = [(self.ring[i], self.ring[(i + 1) % self.n])
                      for i in range(self.n)]
        self._site_cache: Dict[Tuple[float, float], List[float]] = {}

    def sees(self, u, v) -> bool:
        return _clear_sight(self.ring, u, v, self.scale)

    def vertex_distances_from(self, p) -> List[float]:
        """Geodesic distance from p to every ring vertex."""
        key = (p[0], p[1])
        hit = self._site_cache.get(key)
        if hit is not None:
            return hit
        INF = math.inf
        d = [INF] * self.n
        heap = []
        for i, v in enumerate(self.ring):
            if self.sees(p, v):
                d[i] = dist(p, v)
                heapq.heappush(heap, (d[i], i))
        while heap:
            du, u = heapq.heappop(heap)
            if du > d[u]:
                continue
            for w, dw in self.adj[u]:
                nd = du + dw
                if nd < d[w] - 1e-15:
                    d[w] = nd
                    heapq.heappush(heap, (nd, w))
        self._site_cache[key] = d
        return d


def _geometry(poly) -> _OracleGeometry:
    if hasattr(poly, "polygon"):
        poly = poly.polygon
    geo = getattr(poly, "_oracle_geo", None)
    if geo is None:
        geo = _OracleGeometry(poly.vertices)
        poly._oracle_geo = geo
    return geo


def oracle_distance(poly, a, b) -> float:
    """Geodesic distance via the visibility graph; independent of funnels."""
    geo = _geometry(poly)
    a = Point2(a[0], a[1])
    b = Point2(b[0], b[1])
    if geo.sees(a, b):
        return dist(a, b)
    da = geo.vertex_distances_from(a)
    db = geo.vertex_distances_from(b)
    return min(x + y for x, y in zip(da, db))


def oracle_path(poly, a, b) -> List[Point2]:
    """A shortest path realising oracle_distance, vertices in between."""
    geo = _geometry(poly)
    a = Point2(a[0], a[1])
    b = Point2(b[0], b[1])
    if geo.sees(a, b):
        return [a, b]
    da = geo.vertex_distances_from(a)
    db = geo.vertex_distances_from(b)
    best = min(range(geo.n), key=lambda i: da[i] + db[i])
    # walk greedily back toward a, then forward to b
    def chain(dv, start):
        out = [start]
        cur = start
        while True:
            if geo.sees(geo.ring[cur], a if dv is da else b):
                break
            nxt = None
            for w, dw in geo.adj[cur]:
                if abs(dv[w] + dw - dv[cur]) <= 1e-9 * geo.scale:
                    nxt = w
                    break
            if nxt is None:
                break
            out.append(nxt)
            cur = nxt
        return out
    back = chain(da, best)
    fwd = chain(db, best)
    mid = [geo.ring[i] for i in reversed(back)] + [geo.ring[i] for i in fwd[1:]]
    return [a] + mid + [b]


# -- exact distance fields on candidate grids -------------------------

# interior probe fractions for vectorized sight checks; irrational so a
# probe cannot land exactly on a vertex of an integer-coordinate polygon
_SIGHT_TS = (0.2113248654051871, 0.41421356237309515, 0.7886751345948129)


class _Field:
    """Exact geodesic distance from one site, evaluable on point arrays.

    The last leg of any geodesic is a straight segment from either the
    site or a polygon vertex, so d(x) = min over anchors of
    (anchor offset + |anchor - x|) restricted to unblocked anchors.
    """

    def __init__(self, geo: _OracleGeometry, site: Point2):
        self.geo = geo
        self.site = Point2(site[0], site[1])
        dv = geo.vertex_distances_from(self.site)
        self.anchors = [(self.site, 0.0)] + [
            (geo.ring[i], dv[i]) for i in range(geo.n) if math.isfinite(dv[i])]

    def on_grid(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        import numpy as np

        out = np.full(X.shape, np.inf)
        ring = self.geo.ring
        for (a, base) in self.anchors:
            ax, ay = a
            vis = np.ones(X.shape, dtype=bool)
            rx, ry = X - ax, Y - ay
            for (p, q) in self.geo.edges:
                px, py = p
                qx, qy = q
                t1 = rx * (py - ay) - ry * (px - ax)
                t2 = rx * (qy - ay) - ry * (qx - ax)
                s1 = (qx - px) * (ay - py) - (qy - py) * (ax - px)
                s2 = (qx - px) * (Y - py) - (qy - py) * (X - px)
                vis &= ~((t1 * t2 < 0) & (s1 * s2 < 0))
                if not vis.any():
                    break
            if not vis.any():
                continue
            # legs can thread a notch mouth while only grazing its corner
            # vertices; probe interior points at irrational fractions so
            # samples cannot all coincide with lattice-aligned vertices
            for t in _SIGHT_TS:
                idxs = np.where(vis)
                if idxs[0].size == 0:
                    break
                mx = ax + (X[idxs] - ax) * t
                my = ay + (Y[idxs] - ay) * t
                ok = _inside_mask(ring, mx, my) | \
                    (_boundary_dist(ring, mx, my) <= 1e-9 * self.geo.scale)
                vis[idxs] = ok
            cand = base + np.hypot(rx, ry)
            out = np.where(vis, np.minimum(out, cand), out)
        return out

    def at(self, x: float, y: float) -> float:
        p = Point2(x, y)
        ranked = sorted(((base + math.hypot(x - a.x, y - a.y), a)
                         for a, base in self.anchors), key=lambda t: t[0])
        # a visible anchor attains its bound, so the first one that passes
        # the sight test is the minimum; later anchors need no test
        for val, a in ranked:
            if _clear_sight(self.geo.ring, a, p, self.geo.scale):
                return val
        return ranked[0][0]


def _inside_mask(ring, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    import numpy as np

    inside = np.zeros(X.shape, dtype=bool)
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        cond = (y1 > Y) != (y2 > Y)
        if y2 == y1:
            continue
        xin = (x2 - x1) * (Y - y1) / (y2 - y1) + x1
        inside ^= cond & (X < xin)
    return inside


def _boundary_dist(ring, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    import numpy as np

    best = np.full(X.shape, np.inf)
    n = len(ring)
    for i in range(n):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        if L2 == 0:
            d = np.hypot(X - ax, Y - ay)
        else:
            t = np.clip(((X - ax) * dx + (Y - ay) * dy) / L2, 0.0, 1.0)
            d = np.hypot(X - (ax + t * dx), Y - (ay + t * dy))
        best = np.minimum(best, d)
    return best


def _candidate_points(geo: _OracleGeometry, sites, n_grid: int):
    import numpy as np

    x0, y0, x1, y1 = geo.bounds
    xs = np.linspace(x0, x1, n_grid)
    ys = np.linspace(y0, y1, n_grid)
    X, Y = np.meshgrid(xs, ys)
    Xf, Yf = X.ravel(), Y.ravel()
    keep = _inside_mask(geo.ring, Xf, Yf)
    Xf, Yf = Xf[keep], Yf[keep]
    extras = list(geo.ring) + [Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
                               for a, b in geo.edges]
    extras += [Point2(s[0], s[1]) for s in sites]
    for a, b in itertools.combinations(sites, 2):
        extras.append(Point2((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    ex = np.array([(p.x, p.y) for p in extras], dtype=float)
    Xf = np.concatenate([Xf, ex[:, 0]])
    Yf = np.concatenate([Yf, ex[:, 1]])
    return Xf, Yf


def _window_points(geo, cx, cy, half, n=17):
    import numpy as np

    xs = np.linspace(cx - half, cx + half, n)
    ys = np.linspace(cy - half, cy + half, n)
    X, Y = np.meshgrid(xs, ys)
    Xf, Yf = X.ravel(), Y.ravel()
    keep = _inside_mask(geo.ring, Xf, Yf) | \
        (_boundary_dist(geo.ring, Xf, Yf) <= 1e-12 * geo.scale)
    return Xf[keep], Yf[keep]


def _polish(geo, fields: Sequence[_Field], x0, y0) -> Tuple[Point2, float]:
    import numpy as np
    from scipy.optimize import minimize

    big = 1e6 * geo.scale

    def obj(v):
        x, y = v
        if ring_contains(Point2(x, y), geo.ring, 1e-9 * geo.scale) == "outside":
            return big + _point_boundary_dist(geo.ring, x, y)
        return max(f.at(x, y) for f in fields)

    res = minimize(obj, np.array([x0, y0]), method="Nelder-Mead",
                   options={"xatol": 1e-11 * geo.scale,
                            "fatol": 1e-11 * geo.scale, "maxiter": 2000})
    x, y = res.x
    val = obj(res.x)
    if val >= big:
        return Point2(x0, y0), max(f.at(x0, y0) for f in fields)
    return Point2(x, y), val


def _point_boundary_dist(ring, x, y) -> float:
    return min(seg_point_distance(Point2(x, y), ring[i], ring[(i + 1) % len(ring)])
               for i in range(len(ring)))


def oracle_one_center(poly, sites, n_grid: int = 96, refine: int = 6,
                      polish: bool = True) -> Tuple[Point2, float]:
    """Smallest enclosing geodesic disk of sites, by exhaustive search.

    Returns (center, radius).  Grid search over candidate centers with
    shrinking windows, then simplex polish on the exact distance field.
    """
    import numpy as np

    geo = _geometry(poly)
    sites = [Point2(s[0], s[1]) for s in sites]
    if not sites:
        raise ValueError("no sites")
    if len(sites) == 1:
        return sites[0], 0.0
    fields = [_Field(geo, s) for s in sites]
    Xf, Yf = _candidate_points(geo, sites, n_grid)
    vals = np.maximum.reduce([f.on_grid(Xf, Yf) for f in fields])
    k = int(np.argmin(vals))
    bx, by, bval = float(Xf[k]), float(Yf[k]), float(vals[k])
    half = max(geo.bounds[2] - geo.bounds[0],
               geo.bounds[3] - geo.bounds[1]) / max(1, n_grid - 1) * 2
    for _ in range(refine):
        Xw, Yw = _window_points(geo, bx, by, half)
        if len(Xw) == 0:
            half /= 3
            continue
        vals = np.maximum.reduce([f.on_grid(Xw, Yw) for f in fields])
        k = int(np.argmin(vals))
        if float(vals[k]) < bval:
            bx, by, bval = float(Xw[k]), float(Yw[k]), float(vals[k])
        half /= 3
    if polish:
        c, v = _polish(geo, fields, bx, by)
        if v < bval:
            return c, v
    return Point2(bx, by), bval


def oracle_two_center(poly, sites, n_grid: int = 64, refine: int = 5,
                      max_sites: int = 12):
    """Best split of sites into two geodesic disks, by enumeration.

    Returns (radius, (center1, center2), (side1, side2)).  Coarse grid
    values select finalist splits, which are then solved exactly.
    """
    sites = [Point2(s[0], s[1]) for s in sites]
    m = len(sites)
    if m > max_sites:
        raise TooLarge(f"{m} sites; enumeration capped at {max_sites}")
    if m == 0:
        raise ValueError("no sites")
    if m <= 2:
        c1 = sites[0]
        c2 = sites[-1]
        return 0.0, (c1, c2), ((sites[0],), tuple(sites[1:]))

    import numpy as np

    geo = _geometry(poly)
    fields = [_Field(geo, s) for s in sites]
    Xf, Yf = _candidate_points(geo, sites, n_grid)
    F = np.stack([f.on_grid(Xf, Yf) for f in fields])
    span = max(geo.bounds[2] - geo.bounds[0], geo.bounds[3] - geo.bounds[1])
    cell = span / max(1, n_grid - 1) * math.sqrt(2)

    splits = []
    for mask in range(2 ** (m - 1)):
        A = [0] + [i for i in range(1, m) if mask >> (i - 1) & 1]
        B = [i for i in range(1, m) if not mask >> (i - 1) & 1]
        vA = float(np.min(np.max(F[A], axis=0)))
        vB = float(np.min(np.max(F[B], axis=0))) if B else 0.0
        splits.append((max(vA, vB), tuple(A), tuple(B)))
    best_coarse = min(s[0] for s in splits)
    finalists = [s for s in splits if s[0] <= best_coarse + 2 * cell + 1e-9]

    cache: Dict[frozenset, Tuple[Point2, float]] = {}

    def solve(idx):
        key = frozenset(idx)
        if key not in cache:
            if not idx:
                cache[key] = (sites[0], 0.0)
            else:
                cache[key] = oracle_one_center(
                    poly, [sites[i] for i in idx], n_grid=n_grid,
                    refine=refine)
        return cache[key]

    best = None
    for v, A, B in sorted(finalists):
        # the finalist band already assumes coarse values sit within
        # 2*cell of exact; the same bound prunes the sorted tail
        if best is not None and v > best[0] + 2 * cell + 1e-9:
            break
        cA, rA = solve(A)
        cB, rB = solve(B)
        r = max(rA, rB)
        if best is None or r < best[0]:
            best = (r, (cA, cB),
                    (tuple(sites[i] for i in A), tuple(sites[i] for i in B)))
    assert best is not None
    return best
