"""Instance files and seeded instance generators.

The on-disk format is a small JSON object: {"polygon": [[x, y], ...],
"points": [[x, y], ...]}.  Serialization uses Python's shortest float
repr, so parse(serialize(x)) round-trips exactly.
"""
from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from typing import List

from .errors import InvalidPolygon, PointOutsidePolygon
from .geom import Point2, cross, dist, segments_properly_cross
from .polygon import SimplePolygon, point_in_polygon, triangulate

FAMILIES = ("convex", "star", "comb", "random")


@dataclass
class Instance:
    polygon: List[Point2]
    points: List[Point2]


def parse_instance(obj) -> Instance:
    if not isinstance(obj, dict):
        raise InvalidPolygon("instance must be a JSON object")
    try:
        ring = [Point2(float(x), float(y)) for x, y in obj["polygon"]]
        pts = [Point2(float(x), float(y)) for x, y in obj.get("points", [])]
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidPolygon(f"malformed instance: {e}")
    for p in ring + pts:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise InvalidPolygon(f"non-finite coordinate {tuple(p)}")
    area2 = sum(ring[i].x * ring[(i + 1) % len(ring)].y -
                ring[(i + 1) % len(ring)].x * ring[i].y for i in range(len(ring)))
    if area2 < 0:
        warnings.warn("polygon given clockwise; normalizing to counterclockwise",
                      RuntimeWarning)
    poly = SimplePolygon(ring)      # raises InvalidPolygon when not simple
    for q in pts:
        if point_in_polygon(poly, q) == "outside":
            raise PointOutsidePolygon(f"point {tuple(q)} outside the polygon")
    return Instance(list(poly.vertices), pts)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as f:
        return parse_instance(json.load(f))


def dump_instance(inst: Instance) -> str:
    obj = {"polygon": [[p.x, p.y] for p in inst.polygon],
           "points": [[p.x, p.y] for p in inst.points]}
    return json.dumps(obj, indent=2)


def save_instance(inst: Instance, path: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dump_instance(inst) + "\n")


# -- generators --------------------------------------------------------

def _gen_convex(rng: random.Random, n: int) -> List[Point2]:
    """Exactly n vertices: random edge vectors sorted by angle chain
    into a convex cycle."""
    while True:
        xs = sorted(rng.uniform(0, 100) for _ in range(n))
        ys = sorted(rng.uniform(0, 100) for _ in range(n))
        # split each sorted list into two interleaved chains of deltas
        def deltas(vals):
            lo, hi = vals[0], vals[-1]
            inner = vals[1:-1]
            a, b = [lo], [lo]
            for v in inner:
                (a if rng.random() < 0.5 else b).append(v)
            a.append(hi)
            b.append(hi)
            out = [a[i + 1] - a[i] for i in range(len(a) - 1)]
            out += [b[i] - b[i + 1] for i in range(len(b) - 1)]
            return out
        dx = deltas(xs)
        dy = deltas(ys)
        rng.shuffle(dy)
        vecs = sorted(zip(dx, dy), key=lambda v: math.atan2(v[1], v[0]))
        pts = []
        x = y = 0.0
        for vx, vy in vecs:
            pts.append(Point2(x, y))
            x += vx
            y += vy
        # strictness: reject if consecutive edges are collinear
        ok = len({(p.x, p.y) for p in pts}) == n
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            if abs(cross(a, b, c)) < 1e-9:
                ok = False
        if ok:
            return pts


def _gen_star(rng: random.Random, n: int) -> List[Point2]:
    # every cyclic angular gap must stay below pi, otherwise the edge
    # spanning the big gap passes the far side of the kernel and can
    # cross the rest of the ring
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
        gaps = [(angles[(i + 1) % n] - angles[i]) % (2 * math.pi)
                for i in range(n)]
        if min(gaps) > 1e-3 and max(gaps) < math.pi - 0.05:
            break
    pts = []
    for a in angles:
        r = rng.uniform(12, 50)
        pts.append(Point2(50 + r * math.cos(a), 50 + r * math.sin(a)))
    return pts


def _gen_comb(rng: random.Random, n: int) -> List[Point2]:
    """Rectangle with rectangular teeth on top, padded with collinear
    edge splits to hit the vertex count exactly.  Below 8 vertices no
    tooth fits, so the comb degenerates to a rectangle or triangle."""
    if n == 3:
        return [Point2(0, 0), Point2(30, 0), Point2(15, 20)]
    teeth = (n - 4) // 4 if n >= 8 else 0
    w = 10.0 * teeth + 10.0 if teeth else 30.0
    base = [Point2(0, 0), Point2(w, 0), Point2(w, 20)]
    x = w - 5.0
    for _t in range(teeth):
        depth = rng.uniform(8, 14)
        base.append(Point2(x, 20))
        base.append(Point2(x, 20 - depth))
        base.append(Point2(x - 5.0, 20 - depth))
        base.append(Point2(x - 5.0, 20))
        x -= 10.0
    base.append(Point2(0, 20))
    out = list(base)
    extra = n - len(out)
    while extra > 0:
        # split the longest edge at its midpoint
        best = max(range(len(out)),
                   key=lambda i: dist(out[i], out[(i + 1) % len(out)]))
        a, b = out[best], out[(best + 1) % len(out)]
        out.insert(best + 1, Point2((a.x + b.x) / 2, (a.y + b.y) / 2))
        extra -= 1
    return out


def _gen_random(rng: random.Random, n: int) -> List[Point2]:
    """Random simple polygon by 2-opt untangling of a random cycle."""
    for _attempt in range(40):
        pts = [Point2(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        if len({(p.x, p.y) for p in pts}) < n:
            continue
        order = list(range(n))
        rng.shuffle(order)
        ring = [pts[i] for i in order]
        changed = True
        rounds = 0
        while changed and rounds < 40 * n:
            changed = False
            rounds += 1
            for i in range(n):
                a, b = ring[i], ring[(i + 1) % n]
                for j in range(i + 1, n):
                    if j == i or (j + 1) % n == i:
                        continue
                    c, d = ring[j], ring[(j + 1) % n]
                    if segments_properly_cross(a, b, c, d):
                        lo, hi = i + 1, j
                        ring[lo:hi + 1] = ring[lo:hi + 1][::-1]
                        changed = True
                        a, b = ring[i], ring[(i + 1) % n]
        try:
            poly = SimplePolygon(ring)
        except InvalidPolygon:
            continue
        # a ring the constructor shortens by merging near-duplicate
        # neighbours would not have n vertices
        if poly.n == n:
            return ring
    return _gen_star(rng, n)


def _sample_in_polygon(rng: random.Random, poly: SimplePolygon, m: int) -> List[Point2]:
    tp = triangulate(poly)
    tris = []
    weights = []
    for ia, ib, ic in tp.triangles:
        a, b, c = tp.vertices[ia], tp.vertices[ib], tp.vertices[ic]
        w = abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y))
        tris.append((a, b, c))
        weights.append(w)
    total = sum(weights)
    out = []
    for _ in range(m):
        pick = rng.random() * total
        acc = 0.0
        tri = tris[-1]
        for t, w in zip(tris, weights):
            acc += w
            if pick <= acc:
                tri = t
                break
        a, b, c = tri
        u, v = rng.random(), rng.random()
        if u + v > 1:
            u, v = 1 - u, 1 - v
        out.append(Point2(a.x + u * (b.x - a.x) + v * (c.x - a.x),
                          a.y + u * (b.y - a.y) + v * (c.y - a.y)))
    return out


def generate(family: str, n: int, m: int, seed: int) -> Instance:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 3:
        raise ValueError("n must be at least 3")
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = random.Random(seed)
    ring = {"convex": _gen_convex, "star": _gen_star,
            "comb": _gen_comb, "random": _gen_random}[family](rng, n)
    poly = SimplePolygon(ring)
    pts = _sample_in_polygon(rng, poly, m)
    return Instance(list(poly.vertices), pts)
