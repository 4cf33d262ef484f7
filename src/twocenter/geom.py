"""Planar primitives: points, orientation, segment and circle intersections.

Coordinates are plain floats.  Predicates use an absolute tolerance; the
solver normalizes instances so that an absolute epsilon is meaningful.
`Tolerances` is the one policy that scales the solver's tolerances to an
instance.

`orientation` is exact with respect to that tolerance.  A semi-static
filter (an error bound computed from each call's own inputs) settles clear
turns and near-zero determinants in floating point; only determinants in
the thin sliver where the bound cannot decide fall back to exact Fraction
arithmetic.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

# Coincidence / boundary tolerance, absolute.  Instances are scaled to a
# bounding-box diameter of roughly 64 before the solver runs.
EPS = 1e-9

TAU = 2.0 * math.pi


class Point2(NamedTuple):
    x: float
    y: float


class Tolerances(NamedTuple):
    """The solver's tolerance policy for one polygon.

    Every absolute tolerance the solver layers use is a fixed coefficient
    times the instance scale s = max(1, diameter); they are computed once
    here (`TriangulatedPolygon.tol`) and read everywhere else.
    """
    scale: float    # s = max(1, diameter)
    near: float     # coincidence, containment and coverage slack
    check: float    # a point really lies at geodesic distance r
    radius: float   # comparing a radius against r
    piece: float    # shortest boundary piece kept
    join: float     # stitching piece endpoints into a cycle
    area: float     # twice the area of a zero-area ring

    @classmethod
    def for_diameter(cls, diameter: float) -> "Tolerances":
        s = max(1.0, diameter)
        return cls(s, 1e-9 * s, 1e-7 * s, 1e-12 * s, 1e-11 * s, 1e-6 * s,
                   1e-9 * s * s)


def dist(a: Point2, b: Point2) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def cross(o, a, b) -> float:
    """Twice the signed area of triangle (o, a, b)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def orientation(a, b, c) -> int:
    """Sign of the turn a->b->c: +1 left, -1 right, 0 straight.

    A result of 0 means the exact determinant is within tol = EPS * scale of
    zero, where scale is the largest coordinate magnitude involved, taken
    by one `max` over the signed coordinates.  Three paths decide,
    cheapest first:

    - a float determinant beyond both tol and its rounding-error bound err
      (Shewchuk's ccwerrboundA) has the exact sign, so it is returned;
    - a float determinant with |det| + err <= tol / 2 has an exact value
      within tol, so 0 is returned (the halved tol absorbs the rounding of
      the bound itself);
    - the sliver in between is recomputed exactly with Fraction.
    """
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    cx, cy = c[0], c[1]
    t1 = (bx - ax) * (cy - ay)
    t2 = (by - ay) * (cx - ax)
    det = t1 - t2
    tol = EPS * max(ax, -ax, ay, -ay, bx, -bx, by, -by, cx, -cx, cy, -cy, 1e-30)
    err = 3.331e-16 * (abs(t1) + abs(t2))
    if det > tol and det > err:
        return 1
    if -det > tol and -det > err:
        return -1
    if abs(det) + err <= 0.5 * tol:
        return 0
    de = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) \
        - (Fraction(by) - Fraction(ay)) * (Fraction(cx) - Fraction(ax))
    if abs(de) <= tol:
        return 0
    return 1 if de > 0 else -1


def seg_point_distance(p, a, b) -> float:
    """Distance from p to segment ab."""
    ax, ay = a[0], a[1]
    vx, vy = b[0] - ax, b[1] - ay
    L2 = vx * vx + vy * vy
    if L2 <= 0.0:
        return math.hypot(p[0] - ax, p[1] - ay)
    t = ((p[0] - ax) * vx + (p[1] - ay) * vy) / L2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(p[0] - (ax + t * vx), p[1] - (ay + t * vy))


def segments_properly_cross(a, b, c, d) -> bool:
    """True when the open interiors of ab and cd intersect transversally."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def ray_segment_hit(o, d, a, b, t_min: float = EPS):
    """First hit of ray o + t*d (t >= t_min) with segment ab.

    Returns (t, point) or None.  d need not be unit length; t is measured in
    multiples of |d|.
    """
    rx, ry = d[0], d[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    den = rx * sy - ry * sx
    if den == 0.0:
        return None
    t = ((a[0] - o[0]) * sy - (a[1] - o[1]) * sx) / den
    if t < t_min:
        return None
    px, py = o[0] + t * rx, o[1] + t * ry
    seg_len2 = sx * sx + sy * sy
    if seg_len2 <= 0.0:
        return None
    u = ((px - a[0]) * sx + (py - a[1]) * sy) / seg_len2
    if u < -1e-12 or u > 1.0 + 1e-12:
        return None
    return t, Point2(px, py)


def circle_circle_intersections(c0, r0, c1, r1):
    """Intersection points of two circles; tangencies collapse to one point."""
    dx, dy = c1[0] - c0[0], c1[1] - c0[1]
    d = math.hypot(dx, dy)
    if d <= EPS and abs(r0 - r1) <= EPS:
        return []          # same circle, caller must treat specially
    if d > r0 + r1 + EPS or d < abs(r0 - r1) - EPS or d == 0.0:
        return []
    a = (d * d + r0 * r0 - r1 * r1) / (2.0 * d)
    h2 = r0 * r0 - a * a
    ux, uy = dx / d, dy / d
    mx, my = c0[0] + a * ux, c0[1] + a * uy
    if h2 <= (EPS * max(r0, r1, 1.0)) ** 0.5 * EPS:
        # grazing contact
        if h2 < 0.0:
            h2 = 0.0
        h = math.sqrt(h2)
        if h <= EPS:
            return [Point2(mx, my)]
    if h2 < 0.0:
        return []
    h = math.sqrt(h2)
    return [Point2(mx - h * uy, my + h * ux), Point2(mx + h * uy, my - h * ux)]


def circle_segment_intersections(c, r, a, b):
    """Points where circle (c, r) meets segment ab (inclusive endpoints)."""
    ax, ay = a[0] - c[0], a[1] - c[1]
    vx, vy = b[0] - a[0], b[1] - a[1]
    A = vx * vx + vy * vy
    if A <= 0.0:
        return []
    B = 2.0 * (ax * vx + ay * vy)
    C = ax * ax + ay * ay - r * r
    disc = B * B - 4.0 * A * C
    scale = max(abs(B), abs(C), A, 1.0)
    if disc < -EPS * scale:
        return []
    if disc < 0.0:
        disc = 0.0
    sq = math.sqrt(disc)
    out = []
    for t in ((-B - sq) / (2.0 * A), (-B + sq) / (2.0 * A)):
        if -1e-12 <= t <= 1.0 + 1e-12:
            p = Point2(a[0] + t * vx, a[1] + t * vy)
            if not out or dist(out[-1], p) > EPS:
                out.append(p)
    return out


def angle_of(c, p) -> float:
    return math.atan2(p[1] - c[1], p[0] - c[0])


def point_at(c, r: float, ang: float) -> Point2:
    return Point2(c[0] + r * math.cos(ang), c[1] + r * math.sin(ang))


def cw_delta(frm: float, to: float) -> float:
    """Angle swept going clockwise from angle frm to angle to, in [0, tau)."""
    return (frm - to) % TAU


def quadratic_roots(a: float, b: float, c: float) -> List[float]:
    """Real roots of a t^2 + 2 b t + c = 0, free of cancellation."""
    if a == 0.0:
        return [-c / (2 * b)] if b != 0.0 else []
    disc = b * b - a * c
    if disc < 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def polyline_length(pts: Sequence[Point2]) -> float:
    return sum(dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1))


def ring_area2(ring) -> float:
    """Twice the signed area of a closed ring, positive when counterclockwise."""
    s = 0.0
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        s += a[0] * b[1] - b[0] * a[1]
    return s


def ring_contains(pt, ring, eps: float = EPS) -> str:
    """Classify pt against a closed (possibly weakly simple) ring.

    Returns 'boundary' when pt is within eps of the ring polyline, else
    'inside'/'outside' by crossing parity.  Doubled edges cancel in parity,
    which matches the zero-area regions they bound.
    """
    n = len(ring)
    for i in range(n):
        if seg_point_distance(pt, ring[i], ring[(i + 1) % n]) <= eps:
            return "boundary"
    x, y = pt[0], pt[1]
    inside = False
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        if (a[1] > y) != (b[1] > y):
            xi = a[0] + (y - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if x < xi:
                inside = not inside
    return "inside" if inside else "outside"


class RingIndex:
    """The segments of a closed ring bucketed in a `BoxGrid` over the
    ring's box, for queries that would otherwise scan the whole ring.

    Segment s runs from ring[s] to ring[s + 1] (cyclically) and `segs[s]`
    holds its ends.  `rows[r]` lists, in index order, the segments whose
    y-range meets grid row r.  `classify` and `near` give the answers of
    the whole-ring scans (`ring_contains`, a `seg_point_distance` test per
    segment) bit for bit.
    """

    def __init__(self, ring):
        n = len(ring)
        self.segs = [(ring[s], ring[(s + 1) % n]) for s in range(n)]
        self.boxes = [(min(a[0], b[0]), min(a[1], b[1]),
                       max(a[0], b[0]), max(a[1], b[1])) for a, b in self.segs]
        box = bbox(ring)
        self.grid = grid = BoxGrid(box, self.boxes)
        self.rows: List[List[int]] = [[] for _ in range(grid.k)]
        for s, (_x0, y0, _x1, y1) in enumerate(self.boxes):
            r0, r1 = grid.span(y0, y1, 1)
            for r in range(r0, r1 + 1):
                self.rows[r].append(s)
        self._slack = 1e-15 * max(1.0, *(abs(c) for c in box))

    def _meeting(self, p, eps: float) -> List[int]:
        """Segments, in index order and each once, whose boxes meet the
        box of half-width w = (eps + 1e-15 M)(1 + 1e-12) around p, M the
        largest coordinate magnitude of the ring: a superset of those with
        `seg_point_distance(p, *segs[s]) <= eps`, box corners rounded.

        With u = 2^-53, `seg_point_distance` computes its nearest point c
        as a + t (b - a), t clamped to [0, 1]; the three roundings (b - a,
        the product, the sum) put c within 5.6 u M of the segment's box.
        The rounded difference p - c and the hypot (within one ulp) are
        each within a relative u of exact, so a distance <= eps means
        |p - c| <= eps (1 + 3.1 u) on each axis: p lies within
        eps (1 + 3.1 u) + 5.6 u M of the box.  Rounding the corner p - w
        costs at most another u M where it can matter (|p - w| <= M
        there).  1e-15 M > 6.6 u M, and the factor 1 + 1e-12 absorbs the
        3.1 u and the rounding of w itself.  A negative or NaN eps gives
        an empty or no box, where no distance passes either.
        """
        x, y = p[0], p[1]
        w = (eps + self._slack) * (1.0 + 1e-12)
        qx0, qy0, qx1, qy1 = x - w, y - w, x + w, y + w
        grid, boxes = self.grid, self.boxes
        k = grid.k
        c0, c1 = grid.span(qx0, qx1, 0)
        r0, r1 = grid.span(qy0, qy1, 1)
        if c0 == c1 and r0 == r1:
            cands = grid.cells[r0 * k + c0]
        else:
            cands = sorted({s for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)
                            for s in grid.cells[r * k + c]})
        out = []
        for s in cands:
            bx0, by0, bx1, by1 = boxes[s]
            if qx0 <= bx1 and bx0 <= qx1 and qy0 <= by1 and by0 <= qy1:
                out.append(s)
        return out

    def near(self, p, eps: float) -> List[int]:
        """Indices, ascending, of the segments within eps of p."""
        segs = self.segs
        out = []
        for s in self._meeting(p, eps):
            a, b = segs[s]
            if seg_point_distance(p, a, b) <= eps:
                out.append(s)
        return out

    def classify(self, p, eps: float = EPS) -> str:
        """`ring_contains(p, ring, eps)`: the boundary test reads the
        segments near p, the crossing parity those of p's grid row."""
        segs = self.segs
        for s in self._meeting(p, eps):
            a, b = segs[s]
            if seg_point_distance(p, a, b) <= eps:
                return "boundary"
        x, y = p[0], p[1]
        inside = False
        for s in self.rows[self.grid.cell(y, 1)]:
            a, b = segs[s]
            ay, by = a[1], b[1]
            if (ay > y) != (by > y):
                xi = a[0] + (y - ay) * (b[0] - a[0]) / (by - ay)
                if x < xi:
                    inside = not inside
        return "inside" if inside else "outside"


class BoxGrid:
    """Items bucketed by their boxes into a uniform grid over `box`
    (Edahiro, Kokubo and Asano 1984), about sqrt(N) cells a side for N
    items.  `cells[row * k + col]` lists, in index order, every item whose
    closed box (x0, y0, x1, y1) meets that cell.  An axis along which
    `box` has no extent keeps every item in its first row or column.
    """

    def __init__(self, box, boxes):
        x0, y0, x1, y1 = box
        self.origin = (x0, y0)
        self.k = k = max(1, math.isqrt(len(boxes)))
        self.scale = (k / (x1 - x0) if x1 > x0 else 0.0,
                      k / (y1 - y0) if y1 > y0 else 0.0)
        self.cells: List[List[int]] = [[] for _ in range(k * k)]
        for t, (bx0, by0, bx1, by1) in enumerate(boxes):
            cx0, cx1 = self.span(bx0, bx1, 0)
            cy0, cy1 = self.span(by0, by1, 1)
            for cy in range(cy0, cy1 + 1):
                for cx in range(cx0, cx1 + 1):
                    self.cells[cy * k + cx].append(t)

    def cell(self, v: float, axis: int) -> int:
        """Grid column (axis 0) or row (axis 1) of coordinate v, clamped
        (NaN goes to 0); monotone in v, so a box's cells cover its points'
        cells."""
        f = (v - self.origin[axis]) * self.scale[axis]
        if f >= 1.0:
            return int(f) if f < self.k else self.k - 1
        return 0

    def span(self, lo: float, hi: float, axis: int) -> Tuple[int, int]:
        """`(cell(lo, axis), cell(hi, axis))` in one call."""
        o, s, k = self.origin[axis], self.scale[axis], self.k
        f, g = (lo - o) * s, (hi - o) * s
        return ((int(f) if f < k else k - 1) if f >= 1.0 else 0,
                (int(g) if g < k else k - 1) if g >= 1.0 else 0)

    def at(self, p) -> List[int]:
        """The items of the cell that holds point p."""
        return self.cells[self.cell(p[1], 1) * self.k + self.cell(p[0], 0)]


def unique_points(points) -> List[Point2]:
    """Points with exact duplicates dropped, in first-seen order."""
    seen = set()
    out = []
    for p in points:
        k = (p[0], p[1])
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


def bbox(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def bbox_diameter(points) -> float:
    x0, y0, x1, y1 = bbox(points)
    return math.hypot(x1 - x0, y1 - y0)
