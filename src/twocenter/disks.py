"""Geodesic disks, intersections of equal-radius families, and one-centers.

A geodesic disk's boundary is made of Euclidean circular arcs, each centered
at the last vertex of the shortest path from the site (its anchor), plus
pieces of the region boundary.  All closed boundaries here are clockwise
cycles with the interior on the right; arcs are traversed clockwise around
their anchors (decreasing angle).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import BoundaryAssemblyError, CertificateError
from .geom import (TAU, Point2, angle_of, circle_circle_intersections,
                   circle_segment_intersections, cw_delta, dist, point_at,
                   polyline_length, quadratic_roots, ring_area2)
from .polygon import TriangulatedPolygon
from .region import Region, _key


@dataclass(frozen=True)
class CircArc:
    """Clockwise arc around `anchor`; the owner's geodesic circle piece."""
    anchor: Point2
    radius: float          # Euclidean radius = r - d(owner, anchor)
    start: float           # angle of the clockwise start point
    span: float            # clockwise angular extent in [0, tau]
    owner: Point2

    def point(self, t: float) -> Point2:
        return point_at(self.anchor, self.radius, self.start - self.span * t)

    @property
    def a(self) -> Point2:
        return self.point(0.0)

    @property
    def b(self) -> Point2:
        return self.point(1.0)

    def length(self) -> float:
        return self.radius * self.span

    def angle_param(self, theta: float) -> float:
        if self.span <= 0:
            return 0.0
        return cw_delta(self.start, theta) / self.span

    def contains_angle(self, theta: float) -> bool:
        d = cw_delta(self.start, theta)
        return d <= self.span + 1e-9 or d >= TAU - 1e-9

    def sub(self, t0: float, t1: float) -> "CircArc":
        s = self.start - self.span * t0
        return CircArc(self.anchor, self.radius, s % TAU,
                       self.span * (t1 - t0), self.owner)


@dataclass(frozen=True)
class Seg:
    """Straight boundary piece, directed."""
    a: Point2
    b: Point2

    def point(self, t: float) -> Point2:
        return Point2(self.a.x + (self.b.x - self.a.x) * t,
                      self.a.y + (self.b.y - self.a.y) * t)

    def length(self) -> float:
        return dist(self.a, self.b)

    def sub(self, t0: float, t1: float) -> "Seg":
        return Seg(self.point(t0), self.point(t1))


Element = Union[CircArc, Seg]


@dataclass
class ArcBoundary:
    """Closed clockwise boundary of an intersection of geodesic disks.

    A tangency that pinches the region to a single point is kept as an
    empty element list with `point` set.
    """
    elements: List[Element]
    radius: float
    point: Optional[Point2] = None

    @property
    def is_point(self) -> bool:
        return self.point is not None

    def arcs(self) -> List[CircArc]:
        return [e for e in self.elements if isinstance(e, CircArc)]


@dataclass(frozen=True)
class OneCenterResult:
    center: Point2
    radius: float


def ring_elements_cw(ring) -> List[Element]:
    """The ring as directed Segs, reoriented clockwise if it has area."""
    pts = list(ring)
    if ring_area2(pts) > 0:
        pts = list(reversed(pts))
    out: List[Element] = []
    n = len(pts)
    for i in range(n):
        a, b = Point2(*pts[i]), Point2(*pts[(i + 1) % n])
        if dist(a, b) > 1e-12:
            out.append(Seg(a, b))
    return out


# -- anchor charts of one site ----------------------------------------

def _charts(region: Region, q: Point2, r: float):
    """Anchors of q's geodesic circle at radius r with their Euclidean
    radii, plus the straight extension segments bounding each anchor's
    validity cell.

    The anchors are q itself and the ring corners that are polygon
    vertices.  A shortest path in a simple polygon bends only at polygon
    vertices (Guibas, Hershberger, Leven, Sharir and Tarjan 1987), so no
    arc of q's circle is centered at any other corner, such as a point
    of Q on a hull ring; such a corner gets no chart and no extension
    segment."""
    q = Point2(q[0], q[1])
    charts: List[Tuple[Point2, float]] = [(q, r)]
    ext_segs: List[Tuple[Point2, Point2]] = []
    ext, sq = region.tree(q), region.site_map(q)
    vertices = region.tp.index
    for w in region.corners:
        if _key(w) not in vertices:
            continue
        R = r - sq.distance(w)
        if R <= 1e-12:
            continue
        if dist(w, q) <= 1e-12:
            continue
        charts.append((w, R))
        h = ext.get(_key(w))
        if h is not None:
            ext_segs.append((w, h))
    return charts, ext_segs


def _within(region: Region, q: Point2, x, r: float, tol: float) -> bool:
    """d(q, x) <= r + tol, with the Euclidean distance as a cheap lower
    bound: anything farther than r straight-line is farther geodesically."""
    if math.hypot(x[0] - q.x, x[1] - q.y) > r + tol:
        return False
    return region.site_map(q).distance(x) <= r + tol


# -- element cutting ---------------------------------------------------

def _cut_points_on_elem(elem: Element, charts) -> List[float]:
    """Params in (0,1) where any chart circle meets the element."""
    ts: List[float] = []
    if isinstance(elem, Seg):
        for (c, R) in charts:
            for p in circle_segment_intersections(c, R, elem.a, elem.b):
                L = elem.length()
                if L <= 1e-15:
                    continue
                t = ((p.x - elem.a.x) * (elem.b.x - elem.a.x) +
                     (p.y - elem.a.y) * (elem.b.y - elem.a.y)) / (L * L)
                if 1e-12 < t < 1 - 1e-12:
                    ts.append(t)
    else:
        for (c, R) in charts:
            for p in circle_circle_intersections(elem.anchor, elem.radius, c, R):
                th = angle_of(elem.anchor, p)
                if elem.contains_angle(th):
                    t = elem.angle_param(th)
                    if 1e-12 < t < 1 - 1e-12:
                        ts.append(t)
    return ts


def _split_elem(elem: Element, ts: List[float]) -> List[Element]:
    ts = sorted(set([0.0, 1.0] + [t for t in ts if 1e-12 < t < 1 - 1e-12]))
    out = []
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 > 1e-12:
            out.append(elem.sub(t0, t1))
    return out


def _cut_chart_circle(region: Region, w: Point2, R: float, elements,
                      charts, ext_segs) -> List[float]:
    """Angles where a candidate circle can change validity."""
    angs: List[float] = []
    for e in elements:
        if isinstance(e, Seg):
            pts = circle_segment_intersections(w, R, e.a, e.b)
        else:
            pts = [p for p in circle_circle_intersections(w, R, e.anchor, e.radius)
                   if e.contains_angle(angle_of(e.anchor, p))]
        angs.extend(angle_of(w, p) for p in pts)
    for (c, Rc) in charts:
        if dist(c, w) <= 1e-12:
            continue
        angs.extend(angle_of(w, p)
                    for p in circle_circle_intersections(w, R, c, Rc))
    for (a, b) in ext_segs:
        angs.extend(angle_of(w, p)
                    for p in circle_segment_intersections(w, R, a, b))
    return angs


def _circle_subarcs(w: Point2, R: float, angs: List[float], owner) -> List[CircArc]:
    if not angs:
        return [CircArc(w, R, 0.0, TAU, owner)]
    uniq: List[float] = []
    for th in sorted(a % TAU for a in angs):
        if not uniq or th - uniq[-1] > 1e-12:
            uniq.append(th)
    if len(uniq) >= 2 and (uniq[0] + TAU) - uniq[-1] <= 1e-12:
        uniq.pop()
    out = []
    k = len(uniq)
    if k == 1:
        return [CircArc(w, R, uniq[0], TAU, owner)]
    # clockwise neighbours: each cut angle runs down to the next lower one
    for i in range(k):
        th0 = uniq[(i + 1) % k]
        th1 = uniq[i]
        span = cw_delta(th0, th1)
        if span <= 1e-12:
            continue
        out.append(CircArc(w, R, th0, span, owner))
    return out


# -- incremental clipping ---------------------------------------------

def _clip(region: Region, elements: List[Element], q: Point2, r: float,
          prev: Sequence[Point2]):
    """Intersect the region bounded by `elements`, already clipped to the
    disks of the sites in prev, with D_r(q).

    Returns (elements, point):  point set for a pinch to a single point;
    elements None means empty intersection.  When no piece survives, the
    intersection is the pinch at the one-center of prev and q if its
    radius is r within 10 tol and its center lies in the region, and
    empty otherwise.
    """
    q = Point2(q[0], q[1])
    charts, ext_segs = _charts(region, q, r)
    tols = region.tp.tol
    tol = tols.check
    sq = region.site_map(q)

    pieces: List[Element] = []
    for e in elements:
        for s in _split_elem(e, _cut_points_on_elem(e, charts)):
            if _within(region, q, s.point(0.5), r, tol):
                pieces.append(s)

    new_arcs: List[CircArc] = []
    for (w, R) in charts:
        angs = _cut_chart_circle(region, w, R, elements, charts, ext_segs)
        for arc in _circle_subarcs(w, R, angs, q):
            mid = arc.point(0.5)
            # the straight-line distance bounds an earlier site's geodesic
            # one from below, so it goes before any map walk
            if any(math.hypot(mid.x - p.x, mid.y - p.y) > r + tol for p in prev):
                continue
            if region.classify(mid, eps=tol) == "outside":
                continue
            if abs(sq.distance(mid) - r) > tol:
                continue
            if any(region.site_map(p).distance(mid) > r + tol for p in prev):
                continue
            new_arcs.append(arc)

    all_pieces: List[Element] = [p for p in pieces if p.length() > tols.piece]
    all_pieces += [a for a in new_arcs if a.length() > tols.piece]

    if not all_pieces:
        # everything got clipped: the disks of prev and q meet exactly when
        # r reaches their one-center radius, and then only at its center
        oc = one_center(region, list(prev) + [q])
        if abs(oc.radius - r) <= 10 * tol and region.contains(oc.center, eps=tol):
            return [], oc.center
        return None, None

    return _assemble(all_pieces, tols.join), None


def _piece_heading(p: Element, t: float) -> float:
    """Direction of travel at parameter t."""
    if isinstance(p, Seg):
        return math.atan2(p.b.y - p.a.y, p.b.x - p.a.x)
    return (p.start - p.span * t) - 0.5 * math.pi


def _assemble(pieces: List[Element], tol: float) -> List[Element]:
    """Stitch directed pieces into one closed clockwise cycle, matching
    endpoints within tol.

    A junction point can carry several outgoing pieces (a zero-width spur
    of a hull ring passes through its base twice); take the first one
    clockwise from the reversed incoming tangent, U-turns last, so the
    interior stays on the right.
    """
    used = [False] * len(pieces)
    starts = [p.point(0.0) for p in pieces]
    ends = [p.point(1.0) for p in pieces]
    # deterministic start: lexicographically smallest start point
    start_i = min(range(len(pieces)), key=lambda i: (starts[i].x, starts[i].y))
    chain = [pieces[start_i]]
    used[start_i] = True
    cur_end = ends[start_i]
    first = starts[start_i]
    for _ in range(len(pieces) - 1):
        cands = [i for i in range(len(pieces))
                 if not used[i] and dist(cur_end, starts[i]) < tol]
        if not cands:
            break
        if len(cands) == 1:
            best = cands[0]
        else:
            rev = (_piece_heading(chain[-1], 1.0) + math.pi) % TAU

            def rank(i: int) -> float:
                d = cw_delta(rev, _piece_heading(pieces[i], 0.0))
                return d if d > 1e-7 else TAU

            best = min(cands, key=lambda i: (rank(i), i))
        used[best] = True
        chain.append(pieces[best])
        cur_end = ends[best]
    if any(not u for u in used):
        leftovers = sum(pieces[i].length() for i in range(len(pieces)) if not used[i])
        if leftovers > 100 * tol:
            raise BoundaryAssemblyError(
                f"{sum(not u for u in used)} pieces unmatched "
                f"(total length {leftovers:.3g})")
    if dist(cur_end, first) > 100 * tol:
        raise BoundaryAssemblyError(
            f"cycle not closed: gap {dist(cur_end, first):.3g}")
    return chain


def disks_intersection(region: Region, sites: Sequence[Point2],
                       r: float) -> Optional[ArcBoundary]:
    """Boundary of (intersection of D_r(site) for all sites) within region.

    None when the intersection is empty.  Starts from the region ring as
    the universe and clips one disk at a time.  A clip that leaves no
    boundary pinches the intersection to the sites' one-center when r is
    their one-center radius and that center lies in the region; every
    later site must then reach the pinch point within r.
    """
    sites = [Point2(s[0], s[1]) for s in sites]
    elements = ring_elements_cw(region.ring)
    prev: List[Point2] = []
    tol = region.tp.tol.check
    pinch: Optional[Point2] = None
    for q in sites:
        if pinch is not None:
            if region.site_map(q).distance(pinch) > r + 10 * tol:
                return None
            continue
        elements, pinch = _clip(region, elements, q, r, prev)
        if elements is None and pinch is None:
            return None
        prev.append(q)
    if pinch is not None:
        return ArcBoundary([], r, point=pinch)
    assert elements is not None
    return ArcBoundary(elements, r)


def geodesic_circle(tp: TriangulatedPolygon, q, r: float) -> List[CircArc]:
    """Arc pieces of the geodesic circle of radius r around q, inside P."""
    region = Region.of(tp)
    b = disks_intersection(region, [Point2(q[0], q[1])], r)
    if b is None or b.is_point:
        return []
    return [e for e in b.elements if isinstance(e, CircArc)]


def disk_contains(tp: TriangulatedPolygon, c, r: float, x) -> bool:
    return Region.of(tp).distance(c, x) <= r + tp.tol.near


# -- events on an arc boundary ----------------------------------------

def compute_events(region: Region, boundary: ArcBoundary,
                   interior: Sequence[Point2]):
    """Events of each interior point's disk on the boundary's arcs; the
    boundary has at least one arc.

    Returns (events, sides): sides maps each point's key to "covers",
    "disjoint", or "events"; events holds one (point, "in") and one
    (point, "out") pair for each maximal run of arc material, taken in
    cyclic order over the arcs, that an "events" point's disk covers.
    The arcs are cut at true crossings (distance = radius).
    """
    r = boundary.radius
    tol = region.tp.tol.check
    arcs = boundary.arcs()
    events: List[Tuple[Point2, str]] = []
    sides: Dict[Tuple[float, float], str] = {}
    for q in interior:
        q = Point2(q[0], q[1])
        charts, _ = _charts(region, q, r)
        # split every arc at q's circle crossings, classify sub-arcs
        covered = [_within(region, q, s.point(0.5), r, tol)
                   for arc in arcs
                   for s in _split_elem(arc, _cut_points_on_elem(arc, charts))]
        if all(covered):
            sides[(q.x, q.y)] = "covers"
        elif not any(covered):
            sides[(q.x, q.y)] = "disjoint"
        else:
            sides[(q.x, q.y)] = "events"
            # a run starts at each covered sub-arc after an uncovered one
            runs = sum(c and not covered[k - 1] for k, c in enumerate(covered))
            events += [(q, "in"), (q, "out")] * runs
    return events, sides


# -- geodesic one-center ----------------------------------------------

def _as_region(obj) -> Region:
    if isinstance(obj, Region):
        return obj
    return Region.of(obj)


def _disk2(region: Region, a: Point2, b: Point2) -> OneCenterResult:
    """Disk centered at the midpoint of the path a -> b, read from a's
    map; kept in `region._basis_cache` by the ordered coordinates."""
    key = (a[0], a[1], b[0], b[1])
    hit = region._basis_cache.get(key)
    if hit is None:
        hit = region._basis_cache[key] = _path_midpoint_disk(region, a, b)
    return hit


def _path_midpoint_disk(region: Region, a: Point2, b: Point2) -> OneCenterResult:
    p = region.site_map(a).path(b)
    L = polyline_length(p)
    half = L / 2
    acc = 0.0
    for u, v in zip(p, p[1:]):
        step = dist(u, v)
        if acc + step >= half - 1e-15:
            t = 0.0 if step == 0 else (half - acc) / step
            c = Point2(u.x + (v.x - u.x) * t, u.y + (v.y - u.y) * t)
            return OneCenterResult(c, half)
        acc += step
    return OneCenterResult(p[-1], half)


def _cross3(p, q) -> Tuple[float, float, float]:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _chart_roots(charts) -> List[Point2]:
    """Points x with |x - w| + d equal over the three charts (w, d).

    Subtracting the first squared equation |x - w1|^2 = (R - d1)^2 from
    the other two leaves two linear equations in (x, y, R); on their
    solution line z0 + t n the first equation is a quadratic in t, so
    there are at most two roots (Apollonius).  Roots with R < d for some
    chart are not on that chart's circle and are dropped.
    """
    (w1, d1), (w2, d2), (w3, d3) = charts
    # unknowns z = (u, v, rho): x = w1 + (u, v), R = d1 + rho
    rows, rhs = [], []
    for w, d in ((w2, d2), (w3, d3)):
        ex, ey, de = w.x - w1.x, w.y - w1.y, d - d1
        rows.append((ex, ey, -de))
        rhs.append((ex * ex + ey * ey - de * de) / 2)
    n = _cross3(rows[0], rows[1])
    nn = n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
    if nn == 0.0:
        return []
    # the solution of the two linear equations that is orthogonal to n
    p0, p1 = _cross3(rows[1], n), _cross3(n, rows[0])
    z0 = tuple((rhs[0] * p0[k] + rhs[1] * p1[k]) / nn for k in range(3))

    def form(p, q) -> float:
        return p[0] * q[0] + p[1] * q[1] - p[2] * q[2]

    # form(z, z) = u^2 + v^2 - rho^2 = 0 at z = z0 + t n
    out = []
    for t in quadratic_roots(form(n, n), form(z0, n), form(z0, z0)):
        u, v, rho = (z0[k] + t * n[k] for k in range(3))
        if min(rho, rho + d1 - d2, rho + d1 - d3) >= 0.0:
            out.append(Point2(w1.x + u, w1.y + v))
    return out


def _equalize3(region: Region, a: Point2, b: Point2, c: Point2,
               starts: Sequence[Point2]) -> Optional[Point2]:
    """Point of the region with equal geodesic distance to a, b, c; None
    if no chart walk finds one.

    A chart walk solves the three anchor charts exactly (`_chart_roots`)
    and, at each root inside the region whose true distances still
    differ, re-reads the anchors there and solves again, until the
    anchors repeat.  It starts from the sites' own charts (the Euclidean
    circumcenter), and from the charts at every point of `starts` when
    that finds nothing.  Of several equalizers, the one of least radius.
    """
    maps = [region.site_map(s) for s in (a, b, c)]
    tols = region.tp.tol
    seen = set()

    def walk(charts):
        """(radius, point) of every equalizer the walk from charts meets."""
        todo = [charts]
        while todo:
            charts = todo.pop()
            key = tuple(w for w, _d in charts)
            if key in seen:
                continue
            seen.add(key)
            for x in _chart_roots(charts):
                if not region.contains(x, eps=tols.near):
                    continue
                anchors = tuple(m.anchor(x) for m in maps)
                da, db, dc = (d + dist(w, x) for w, d in anchors)
                if math.hypot(da - db, db - dc) <= tols.radius:
                    yield max(da, db, dc), x
                else:
                    todo.append(anchors)

    found = list(walk(tuple((s, 0.0) for s in (a, b, c))))
    if not found:
        for x in starts:
            found += walk(tuple(m.anchor(x) for m in maps))
    return min(found, key=lambda f: f[0])[1] if found else None


def _solve3(region: Region, a: Point2, b: Point2, c: Point2) -> OneCenterResult:
    """One-center of three points: a pair disk that covers the third
    point, or the equalizer of all three, whichever is smaller.  Kept in
    `region._basis_cache` by the ordered coordinates, since the order
    sets the pair disks' paths and the candidates' order; a
    CertificateError is raised again on every call."""
    key = (a[0], a[1], b[0], b[1], c[0], c[1])
    hit = region._basis_cache.get(key)
    if hit is None:
        hit = region._basis_cache[key] = _triple_disk(region, a, b, c)
    return hit


def _triple_disk(region: Region, a: Point2, b: Point2, c: Point2) -> OneCenterResult:
    tol = region.tp.tol.near
    cands: List[OneCenterResult] = []
    pairs = [_disk2(region, u, v) for (u, v) in ((a, b), (a, c), (b, c))]
    for d2, w in zip(pairs, (c, b, a)):
        if region.site_map(w).distance(d2.center) <= d2.radius + tol:
            cands.append(d2)
    eq = _equalize3(region, a, b, c, [d2.center for d2 in pairs])
    if eq is not None:
        rad = max(region.site_map(p).distance(eq) for p in (a, b, c))
        cands.append(OneCenterResult(eq, rad))
    if not cands:
        raise CertificateError(
            f"no geodesic one-center for {a}, {b}, {c}: no pair disk covers "
            "the third point and no equidistant point was found")
    return min(cands, key=lambda d: d.radius)


def one_center(space, pts: Sequence[Point2]) -> OneCenterResult:
    """Smallest geodesic disk covering pts; center anywhere in the space.

    Move-to-front elimination over support sets of at most three points.
    A pair's disk is centered at the midpoint of its geodesic.  A triple's
    is the smallest pair disk that covers the third point, or the disk at
    the point equidistant from all three, solved exactly in anchor charts
    (`_equalize3`).  Raises CertificateError when a triple has neither.
    """
    region = _as_region(space)
    # the key is the point set: a hit needs no Point2s, and a miss
    # solves the set in sorted order, so the caller's order and
    # duplicates never reach the result
    key = frozenset((p[0], p[1]) for p in pts)
    if not key:
        raise ValueError("no points")
    cache = region._onecenter_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    uniq: List[Point2] = sorted(Point2(x, y) for x, y in key)

    # d covers p: `_within` tries the Euclidean distance first
    tol = region.tp.tol.near

    def mtf2(P, q1, q2):
        d = _disk2(region, q1, q2)
        for p in P:
            if not _within(region, p, d.center, d.radius, tol):
                d = _solve3(region, q1, q2, p)
        return d

    def mtf1(P, q):
        d = OneCenterResult(q, 0.0)
        for i, p in enumerate(P):
            if not _within(region, p, d.center, d.radius, tol):
                d = mtf2(P[:i], q, p)
        return d

    d = OneCenterResult(uniq[0], 0.0)
    for i, p in enumerate(uniq):
        if not _within(region, p, d.center, d.radius, tol):
            d = mtf1(uniq[:i], p)

    rad = max(region.site_map(p).distance(d.center) for p in uniq)
    result = OneCenterResult(d.center, rad)
    cache[key] = result
    return result
