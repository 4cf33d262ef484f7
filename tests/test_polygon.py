import json
import math
import os
import random

import pytest
from hypothesis import given, strategies as st

from twocenter.errors import InvalidPolygon
from twocenter.geom import Point2, dist, seg_point_distance, segments_properly_cross
from twocenter.instances import generate
from twocenter.polygon import SimplePolygon, _tri_contains, point_in_polygon, triangulate


def test_point_in_polygon_cases(sq4, l6):
    assert point_in_polygon(sq4, Point2(2, 2)) == "inside"
    assert point_in_polygon(sq4, Point2(4, 2)) == "boundary"
    assert point_in_polygon(l6, Point2(3, 3)) == "outside"


def test_triangulation_counts(sq4_tp, l6_tp):
    assert len(sq4_tp.triangles) == 2
    assert len(l6_tp.triangles) == 4
    # dual tree of the square has exactly one edge
    deg = sum(nb >= 0 for nbrs in sq4_tp.across for nb in nbrs)
    assert deg == 2


def test_bowtie_rejected():
    with pytest.raises(InvalidPolygon):
        SimplePolygon([Point2(0, 0), Point2(4, 4), Point2(4, 0), Point2(0, 4)])


def test_zero_area_rejected():
    with pytest.raises(InvalidPolygon):
        SimplePolygon([Point2(0, 0), Point2(2, 0), Point2(4, 0)])


# rings through one point twice: a zero-width spike out of the top edge,
# and two triangles pinched together at (1, 1)
SPIKE = [(0, 0), (4, 0), (4, 4), (2, 4), (2, 6), (2, 4), (0, 4)]
PINCH = [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)]


@pytest.mark.parametrize("ring,msg", [(SPIKE, "vertex 3 coincides with vertex 5"),
                                      (PINCH, "vertex 2 coincides with vertex 5")])
def test_repeated_vertex_rejected(ring, msg):
    with pytest.raises(InvalidPolygon, match=msg):
        SimplePolygon(ring)
    V = [Point2(*p) for p in ring]
    assert _check_simple_message(V) == _reference_check_simple(V) == msg


def test_duplicate_vertex_merge():
    poly = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 0),
                          Point2(4, 4), Point2(0, 4)])
    assert len(poly.vertices) == 4


def _area2(ring):
    return sum(ring[i].x * ring[(i + 1) % len(ring)].y -
               ring[(i + 1) % len(ring)].x * ring[i].y for i in range(len(ring)))


@given(st.sampled_from(["convex", "star", "comb", "random"]),
       st.integers(0, 200))
def test_triangulation_covers_polygon(family, seed):
    inst = generate(family, 4 + seed % 13, 1, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    vs = tp.polygon.vertices
    n = len(vs)
    # collinear padding vertices yield zero-area ears and no triangle
    assert len(tp.triangles) <= n - 2
    if family in ("convex", "star", "random"):
        assert len(tp.triangles) == n - 2
    tri_area = sum(abs(_area2([vs[a], vs[b], vs[c]]))
                   for a, b, c in tp.triangles)
    assert tri_area == pytest.approx(abs(_area2(vs)), rel=1e-9)


@given(st.integers(0, 100))
def test_vertices_classified_boundary(seed):
    inst = generate("random", 10, 1, seed)
    poly = SimplePolygon(inst.polygon)
    for v in poly.vertices:
        assert point_in_polygon(poly, v) == "boundary"


# -- grid point location and pruned simplicity check against the scans ----

def _reference_locate(tp, p):
    """The full-scan point location the grid replaced: the lowest-index
    triangle within 1e-12, then within 1e-7, then the nearest one."""
    V, T = tp.vertices, tp.triangles
    for eps in (1e-12, 1e-7):
        for t, (i, j, k) in enumerate(T):
            if _tri_contains(V[i], V[j], V[k], p, eps):
                return t
    return min(range(len(T)), key=lambda t: min(
        seg_point_distance(p, V[T[t][a]], V[T[t][(a + 1) % 3]]) for a in range(3)))


def _reference_check_simple(V):
    """The all-pairs simplicity test the box pruning replaced; the first
    InvalidPolygon message, or None for a simple ring."""
    n = len(V)
    for i in range(n):
        a, b = V[i], V[(i + 1) % n]
        for j in range(i + 1, n):
            c, d = V[j], V[(j + 1) % n]
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_properly_cross(a, b, c, d):
                return f"edges {i} and {j} cross"
    for i in range(n):
        p = V[i]
        for j in range(n):
            if j == i or (j + 1) % n == i:
                continue
            a, b = V[j], V[(j + 1) % n]
            if seg_point_distance(p, a, b) <= 1e-12 * max(1.0, abs(p.x), abs(p.y)):
                ends = [k for k in (j, (j + 1) % n) if dist(p, V[k]) <= 1e-12]
                if not ends:
                    return f"vertex {i} lies on edge {j}"
                if ends[0] not in ((i - 1) % n, (i + 1) % n):
                    return f"vertex {i} coincides with vertex {ends[0]}"
    return None


def _check_simple_message(V):
    """SimplePolygon._check_simple on the ring V as given."""
    poly = object.__new__(SimplePolygon)
    poly.vertices, poly.n = tuple(V), len(V)
    try:
        poly._check_simple()
    except InvalidPolygon as exc:
        return str(exc)
    return None


def _scaled(poly):
    """poly rescaled by the power of two two_center applies."""
    s = 2.0 ** round(math.log2(64.0 / poly.diameter))
    return SimplePolygon([(v.x * s, v.y * s) for v in poly.vertices])


FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")


def _grid_polygons():
    polys = {}
    for name in ("l6_arms", "rnd_seed7", "sq4_qsym"):
        with open(os.path.join(FIXTURES, name + ".json")) as fh:
            polys[name] = SimplePolygon(json.load(fh)["polygon"])
    for n in (16, 48, 128):
        for family in ("convex", "star", "comb", "random"):
            poly = SimplePolygon(generate(family, n, 1, n).polygon)
            polys[f"{family}-{n}"] = poly
            polys[f"{family}-{n}-scaled"] = _scaled(poly)
    return polys


GRID_POLYGONS = _grid_polygons()


def _probe_points(poly, rng):
    """Vertices, points one ulp off each vertex, edge points pushed off
    the edge by 1e-13 to 1e-7 either way, and random points in and
    around the bounding box."""
    V = poly.vertices
    pts = list(V)
    for v in V:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            pts.append(Point2(math.nextafter(v.x, v.x + dx * math.inf) if dx else v.x,
                              math.nextafter(v.y, v.y + dy * math.inf) if dy else v.y))
    for a, b in poly.edges():
        ex, ey = b.x - a.x, b.y - a.y
        L = math.hypot(ex, ey)
        for off in (1e-13, 1e-12, 1e-10, 1e-7):
            for side in (1, -1):
                t = rng.random()
                pts.append(Point2(a.x + t * ex - side * off * ey / L,
                                  a.y + t * ey + side * off * ex / L))
    x0, y0, x1, y1 = poly.bbox
    w, h = x1 - x0, y1 - y0
    for _ in range(200):
        pts.append(Point2(rng.uniform(x0 - 0.1 * w, x1 + 0.1 * w),
                          rng.uniform(y0 - 0.1 * h, y1 + 0.1 * h)))
    return pts


@pytest.mark.parametrize("name", sorted(GRID_POLYGONS))
def test_locate_matches_scan(name):
    poly = GRID_POLYGONS[name]
    tp = triangulate(poly)
    for p in _probe_points(poly, random.Random(name)):
        assert tp.locate(p) == _reference_locate(tp, p), p


def _broken_copies(poly, rng, count):
    """Copies of poly's ring with one vertex moved onto the middle of a
    non-adjacent edge, off it by a tenth of the on-edge threshold, or
    just across it."""
    V = list(poly.vertices)
    n = len(V)
    out = []
    for _ in range(count):
        i = rng.randrange(n)
        j = (i + rng.randrange(2, n - 1)) % n
        a, b = V[j], V[(j + 1) % n]
        mid = Point2(a.x + 0.5 * (b.x - a.x), a.y + 0.5 * (b.y - a.y))
        for push in (0.0, 1e-13, 1e-3):
            # the exterior lies to the right of a counterclockwise edge
            W = list(V)
            W[i] = Point2(mid.x + push * (b.y - a.y), mid.y - push * (b.x - a.x))
            out.append(W)
    return out


@pytest.mark.parametrize("name", sorted(GRID_POLYGONS))
def test_check_simple_matches_all_pairs(name):
    poly = GRID_POLYGONS[name]
    assert _check_simple_message(poly.vertices) is None
    assert _reference_check_simple(poly.vertices) is None
    for W in _broken_copies(poly, random.Random(name), 2 if poly.n > 48 else 4):
        assert _check_simple_message(W) == _reference_check_simple(W)


def test_check_simple_matches_all_pairs_on_bowtie():
    with open(os.path.join(FIXTURES, "bowtie.json")) as fh:
        V = [Point2(*p) for p in json.load(fh)["polygon"]]
    msg = _reference_check_simple(V)
    assert msg is not None
    assert _check_simple_message(V) == msg


def _inside_box(p, box):
    return box[0] <= p.x <= box[2] and box[1] <= p.y <= box[3]


@pytest.mark.parametrize("name", sorted(GRID_POLYGONS))
def test_reach_boxes_hold_accepted_points(name):
    # the points the 1e-12 test accepts form a slightly larger homothetic
    # copy of each triangle; bisect from each corner away from the centroid
    # to that copy's corner, the farthest accepted point in the polygon's box
    tp = triangulate(GRID_POLYGONS[name])
    V = tp.vertices
    for (i, j, k), box in zip(tp.triangles, tp._reach_boxes()):
        a, b, c = V[i], V[j], V[k]
        gx, gy = (a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3
        for v in (a, b, c):
            lo, hi = 0.0, 1e-6
            for _ in range(80):
                s = 0.5 * (lo + hi)
                p = Point2(v.x + s * (v.x - gx), v.y + s * (v.y - gy))
                if _tri_contains(a, b, c, p, 1e-12) and _inside_box(p, tp.polygon.bbox):
                    lo = s
                else:
                    hi = s
            p = Point2(v.x + lo * (v.x - gx), v.y + lo * (v.y - gy))
            assert _inside_box(p, box), (name, (i, j, k), p)
