import json
import math
import os
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, strategies as st

from twocenter.errors import InvalidPolygon
from twocenter import polygon
from twocenter.geom import (EPS, Point2, bbox, bbox_diameter, dist, orientation,
                            seg_point_distance, segments_properly_cross)
from twocenter.instances import FAMILIES, generate
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("ring", [[(0, 0), (1, 0), (None, 1)],
                                  [(0, 0), (4, 0), (4, 4), (None, 4)],
                                  [(0, 0), (4, 0), (4, None), (0, 4)]])
def test_non_finite_vertex_rejected(ring, bad):
    ring = [(bad if x is None else x, bad if y is None else y) for x, y in ring]
    with pytest.raises(InvalidPolygon, match="non-finite coordinate"):
        SimplePolygon(ring)


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


def _boxed_check_simple(V):
    """The box-pruned all-pairs simplicity test the sweep replaced, with
    the same first InvalidPolygon message, or None for a simple ring."""
    n = len(V)
    boxes = [(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
             for a, b in zip(V, V[1:] + V[:1])]
    for i in range(n):
        a, b = V[i], V[(i + 1) % n]
        x0, y0, x1, y1 = boxes[i]
        for j in range(i + 2, n if i else n - 1):
            u0, v0, u1, v1 = boxes[j]
            if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                continue
            if segments_properly_cross(a, b, V[j], V[(j + 1) % n]):
                return f"edges {i} and {j} cross"
    for i in range(n):
        p = V[i]
        th = 1e-12 * max(1.0, abs(p.x), abs(p.y))
        xlo, xhi, ylo, yhi = p.x - 2 * th, p.x + 2 * th, p.y - 2 * th, p.y + 2 * th
        for j in range(n):
            if j == i or (j + 1) % n == i:
                continue
            u0, v0, u1, v1 = boxes[j]
            if xhi < u0 or u1 < xlo or yhi < v0 or v1 < ylo:
                continue
            if seg_point_distance(p, V[j], V[(j + 1) % n]) <= th:
                k = next((k for k in (j, (j + 1) % n) if dist(p, V[k]) <= 1e-12), -1)
                if k < 0:
                    return f"vertex {i} lies on edge {j}"
                if k not in ((i - 1) % n, (i + 1) % n):
                    return f"vertex {i} coincides with vertex {k}"
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


def _crossed_copies(poly, rng, count):
    """Copies of poly's ring with two vertices swapped, or one moved to a
    random point of the polygon's box; most of them cross themselves."""
    V = list(poly.vertices)
    n = len(V)
    x0, y0, x1, y1 = poly.bbox
    out = []
    for _ in range(count):
        W = list(V)
        i, j = rng.randrange(n), rng.randrange(n)
        W[i], W[j] = W[j], W[i]
        out.append(W)
        W = list(V)
        W[i] = Point2(rng.uniform(x0, x1), rng.uniform(y0, y1))
        out.append(W)
    return out


@pytest.mark.parametrize("name", sorted(GRID_POLYGONS))
def test_check_simple_matches_all_pairs(name):
    poly = GRID_POLYGONS[name]
    assert _check_simple_message(poly.vertices) is None
    assert _reference_check_simple(poly.vertices) is None
    rng = random.Random(name)
    for W in _broken_copies(poly, rng, 2 if poly.n > 48 else 4) + _crossed_copies(poly, rng, 4):
        assert _check_simple_message(W) == _reference_check_simple(W) == _boxed_check_simple(W)


def test_check_simple_matches_all_pairs_on_bowtie():
    with open(os.path.join(FIXTURES, "bowtie.json")) as fh:
        V = [Point2(*p) for p in json.load(fh)["polygon"]]
    msg = _reference_check_simple(V)
    assert msg is not None
    assert _check_simple_message(V) == _boxed_check_simple(V) == msg


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


# -- incremental ear clipping against the rescanning one -------------------

def _reference_triangles(poly):
    """The ear clipper the incremental one replaced.  Each step rescans
    the remaining vertices from the first: it drops the first one lying
    exactly straight between two pieces of boundary, or else clips the
    first ear, testing every remaining vertex against it.  Returns the
    triangle list, or the InvalidPolygon message."""
    V = poly.vertices
    n = poly.n
    idx = list(range(n))
    tris = []
    on_ring = [True] * n

    def corners(ii):
        m = len(idx)
        return idx[(ii - 1) % m], idx[ii], idx[(ii + 1) % m]

    def is_ear(ii):
        a, b, c = corners(ii)
        if orientation(V[a], V[b], V[c]) <= 0:
            return False
        return not any(j not in (a, b, c) and _tri_contains(V[a], V[b], V[c], V[j], 1e-12)
                       for j in idx)

    def is_straight(ii):
        a, b, c = corners(ii)
        return on_ring[a] and on_ring[b] and orientation(V[a], V[b], V[c]) == 0 and \
            seg_point_distance(V[b], V[a], V[c]) <= EPS * max(1.0, poly.diameter)

    while len(idx) > 3:
        ii = next((ii for ii in range(len(idx)) if is_straight(ii)), None)
        if ii is not None:
            del idx[ii]
            continue
        ii = next((ii for ii in range(len(idx)) if is_ear(ii)), None)
        if ii is None:
            return "no ear found; polygon is not simple"
        a, b, c = corners(ii)
        tris.append((a, b, c))
        on_ring[a] = False
        del idx[ii]
    a, b, c = idx
    if orientation(V[a], V[b], V[c]) > 0:
        tris.append((a, b, c))
    return tris


def _triangles_or_message(poly):
    try:
        return triangulate(poly).triangles
    except InvalidPolygon as exc:
        return str(exc)


def _unchecked(ring):
    """A SimplePolygon of the counterclockwise ring, without the
    simplicity check, to feed rings that touch themselves to the
    triangulation."""
    poly = object.__new__(SimplePolygon)
    poly.vertices = tuple(Point2(*p) for p in ring)
    poly.n = len(ring)
    poly.bbox = bbox(poly.vertices)
    poly.diameter = bbox_diameter(poly.vertices)
    return poly


TRIANGULATION_CASES = [(f, n, seed) for f in FAMILIES for n in range(3, 13) for seed in range(4)] + \
    [(f, n, seed) for f in FAMILIES for n in (16, 48, 128) for seed in range(2)] + \
    [(f, 256, 0) for f in ("convex", "comb")]


@pytest.mark.parametrize("family,n,seed", TRIANGULATION_CASES)
def test_triangles_match_rescanning_clipper(family, n, seed):
    poly = SimplePolygon(generate(family, n, 1, seed).polygon)
    assert triangulate(poly).triangles == _reference_triangles(poly)


# a square with every side cut in three; the integer ring whose vertex
# (0, -1) ends up straight between two diagonals (test_region.py); a
# vertex 2e-12 above an edge, past the simplicity threshold but inside
# the containment slack of ears over that edge; a notch whose tip lies
# 1e-13 across the diagonal under the first ear candidate, outside the
# candidate's own box but inside its containment slack
DEGENERATE = {
    "collinear-runs": [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3),
                       (2, 3), (1, 3), (0, 3), (0, 2), (0, 1)],
    "straight-next-to-diagonal": [(1, 1), (0, 1), (-2, 5), (-1, -1), (-3, -2),
                                  (-1, -2), (0, -4), (0, -1)],
    "near-touch": [(0, 0), (0.01, 0), (0.01, 0.01), (0.006, 0.01),
                   (0.005, 2e-12), (0.004, 0.01), (0, 0.01)],
    "near-diagonal": [(5, 5), (0, 0), (0, -5), (4, -5), (5, -1e-13), (6, -5),
                      (10, -5), (10, 0)],
}

# rings through a point of a non-adjacent edge, or through one point twice
TOUCHING = {
    "vertex-on-edge": [(0, 0), (4, 0), (4, 4), (3, 4), (2, 0), (1, 4), (0, 4)],
    "spike": SPIKE,
    "pinch": PINCH,
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_triangles_match_on_degenerate_rings(name):
    poly = SimplePolygon(DEGENERATE[name])
    assert poly.n == len(DEGENERATE[name])
    assert triangulate(poly).triangles == _reference_triangles(poly)


@pytest.mark.parametrize("name", sorted(TOUCHING))
def test_triangles_match_on_touching_rings(name):
    poly = _unchecked(TOUCHING[name])
    assert _check_simple_message(poly.vertices) is not None
    assert _triangles_or_message(poly) == _reference_triangles(poly)


def test_triangles_match_on_integer_stars():
    # rounding to integers leaves runs of exactly straight vertices
    rng = random.Random(1)
    checked = 0
    for _ in range(400):
        k = rng.randint(5, 12)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
        ring = [(round(r * math.cos(a)), round(r * math.sin(a)))
                for a, r in ((a, rng.uniform(1, 6)) for a in angles)]
        try:
            poly = SimplePolygon(ring)
        except InvalidPolygon:
            continue
        assert _triangles_or_message(poly) == _reference_triangles(poly), ring
        checked += 1
    assert checked > 250


def test_triangulate_tests_a_quarter_of_the_containments(monkeypatch):
    poly = SimplePolygon(generate("comb", 256, 1, 0).polygon)
    calls = {"new": 0, "reference": 0}
    real = _tri_contains

    def counting(key):
        def contains(*args):
            calls[key] += 1
            return real(*args)
        return contains

    monkeypatch.setattr(polygon, "_tri_contains", counting("new"))
    got = triangulate(poly).triangles
    monkeypatch.setitem(globals(), "_tri_contains", counting("reference"))
    assert got == _reference_triangles(poly)
    assert 0 < 4 * calls["new"] <= calls["reference"], calls


# -- point location and the grid against their earlier code ---------------

def _parent_cell(grid, v, axis):
    """`BoxGrid.cell` before its rewrite, kept verbatim."""
    f = (v - grid.origin[axis]) * grid.scale[axis]
    if not f >= 1.0:
        return 0
    if f >= grid.k:
        return grid.k - 1
    return int(f)


def _parent_locate(tp, p):
    """`TriangulatedPolygon.locate` before the containment test was
    inlined, kept verbatim but for its cache."""
    V = tp.vertices
    grid = tp._grid
    x0, y0, x1, y1 = tp.polygon.bbox
    if x0 <= p[0] <= x1 and y0 <= p[1] <= y1:
        cands = grid.cells[_parent_cell(grid, p[1], 1) * grid.k + _parent_cell(grid, p[0], 0)]
    else:
        cands = range(len(tp.triangles))
    best = -1
    for t in cands:
        i, j, k = tp.triangles[t]
        if _tri_contains(V[i], V[j], V[k], p, 1e-12):
            best = t
            break
    if best < 0:
        for t, (i, j, k) in enumerate(tp.triangles):
            if _tri_contains(V[i], V[j], V[k], p, 1e-7):
                best = t
                break
    if best < 0:
        best = min(
            range(len(tp.triangles)),
            key=lambda t: min(
                seg_point_distance(p, V[tp.triangles[t][a]], V[tp.triangles[t][(a + 1) % 3]])
                for a in range(3)),
        )
    return best


def _parent_cells(box, boxes):
    """The cell lists `BoxGrid` built before its rewrite."""
    x0, y0, x1, y1 = box
    k = max(1, math.isqrt(len(boxes)))
    grid = SimpleNamespace(origin=(x0, y0), k=k, scale=(k / (x1 - x0) if x1 > x0 else 0.0,
                                                        k / (y1 - y0) if y1 > y0 else 0.0))
    cells = [[] for _ in range(k * k)]
    for t, (bx0, by0, bx1, by1) in enumerate(boxes):
        for cy in range(_parent_cell(grid, by0, 1), _parent_cell(grid, by1, 1) + 1):
            for cx in range(_parent_cell(grid, bx0, 0), _parent_cell(grid, bx1, 0) + 1):
                cells[cy * k + cx].append(t)
    return cells


# scripts/corpus_outputs.py's cells
CORPUS_CELLS = [(fam, n, m, s) for n, m, seeds in ((12, 6, range(6)), (16, 8, range(6)),
                                                   (48, 6, range(6)), (20, 10, range(3)),
                                                   (24, 12, range(2)))
                for fam in FAMILIES for s in seeds]


def _scaled_corpus_tp(cell):
    """The triangulation and points of a corpus instance, scaled as
    `two_center` scales them."""
    inst = generate(*cell)
    poly = SimplePolygon(inst.polygon)
    k = 2.0 ** round(math.log2(64.0 / poly.diameter))
    return (triangulate(SimplePolygon([(v.x * k, v.y * k) for v in poly.vertices])),
            [Point2(q[0] * k, q[1] * k) for q in inst.points])


@pytest.mark.parametrize("cell", CORPUS_CELLS, ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_locate_matches_parent(cell):
    tp, pts = _scaled_corpus_tp(cell)
    V = tp.vertices
    mids = [Point2(0.5 * (a.x + b.x), 0.5 * (a.y + b.y)) for a, b in zip(V, V[1:] + V[:1])]
    x0, y0, x1, y1 = tp.polygon.bbox
    # two points off the polygon's box take the full scans
    off = [Point2(x0 - 1.0, y0 - 1.0), Point2(x1 + 0.5, 0.5 * (y0 + y1))]
    for p in pts + list(V) + mids + off:
        assert tp.locate(p) == _parent_locate(tp, p), p
    assert tp._grid.cells == _parent_cells(tp.polygon.bbox, tp._reach_boxes())
    grid = tp._grid
    for v in (x0, y0, x1, y1, x0 - 1.0, x1 + 1.0, math.nan, -math.inf, math.inf,
              0.5 * (x0 + x1), 0.5 * (y0 + y1)) + tuple(p.x for p in pts) + tuple(p.y for p in pts):
        for axis in (0, 1):
            assert grid.cell(v, axis) == _parent_cell(grid, v, axis)
            assert grid.span(v, v, axis) == (_parent_cell(grid, v, axis),) * 2


# -- the scaled copy `two_center` solves on --------------------------------

def _assert_scaled_copy_matches(poly, k):
    got = poly.scaled(k)
    want = SimplePolygon([(v.x * k, v.y * k) for v in poly.vertices])
    assert got.vertices == want.vertices
    assert all(type(v) is Point2 for v in got.vertices)
    assert (got.n, got.bbox, got.diameter) == (want.n, want.bbox, want.diameter)


def _two_center_scale(poly):
    return 2.0 ** round(math.log2(64.0 / poly.diameter))


SWEEP_CELLS = [(fam, n, m, s) for n, m, seeds in (
    (12, 6, range(6, 16)), (16, 8, range(6, 16)), (20, 10, range(3, 8)), (16, 16, range(3)),
    (24, 12, range(2, 4)), (48, 6, range(6, 12)), (128, 6, range(2)), (16, 24, (0,)),
    (16, 32, (0, 2)), (256, 6, (0,)), (32, 24, (0,)), (20, 32, (1,)))
    for fam in FAMILIES for s in seeds]


def test_scaled_copy_matches_a_checked_polygon_on_the_corpus_and_sweep():
    # scripts/corpus_outputs.py's and scripts/sweep_outputs.py's instances
    for cell in CORPUS_CELLS + SWEEP_CELLS:
        poly = SimplePolygon(generate(*cell).polygon)
        _assert_scaled_copy_matches(poly, _two_center_scale(poly))


@given(st.sampled_from(FAMILIES), st.integers(4, 40), st.integers(0, 10**6),
       st.integers(-12, 30), st.floats(0.5, 2.0), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_scaled_copy_matches_a_checked_polygon(family, n, seed, e, u, dx, dy):
    # generated rings moved and resized by factors from 2^-13 to 2^31; a
    # ring that the absolute tolerances reject at its new size is skipped
    base = generate(family, n, 1, seed).polygon
    f = u * 2.0 ** e
    try:
        poly = SimplePolygon([((x + dx) * f, (y + dy) * f) for x, y in base])
    except InvalidPolygon:
        assume(False)
    _assert_scaled_copy_matches(poly, _two_center_scale(poly))
