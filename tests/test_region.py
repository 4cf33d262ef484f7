import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twocenter.errors import InvalidPolygon, PointOutsidePolygon
from twocenter.geom import Point2, dist, polyline_length
from twocenter.hull import geodesic_hull
from twocenter.instances import generate
from twocenter.oracle import oracle_distance
from twocenter.polygon import (SimplePolygon, TriangulatedPolygon, point_in_polygon,
                               triangulate)
from twocenter.region import (Region, SiteMap, _portals, geodesic_distance,
                              shortest_path, shortest_path_tree, spm_vertices)

SQRT2 = math.sqrt(2.0)
L6_ARMS = [Point2(3, 1), Point2(3, 1.5), Point2(1, 3), Point2(1.5, 3)]


def test_straight_path(sq4_tp):
    path = shortest_path(sq4_tp, Point2(1, 1), Point2(3, 3))
    assert [tuple(p) for p in path] == [(1, 1), (3, 3)]
    assert geodesic_distance(sq4_tp, Point2(1, 1), Point2(3, 3)) == \
        pytest.approx(2 * SQRT2)


def test_bent_path(l6_tp):
    path = shortest_path(l6_tp, Point2(3, 1), Point2(1, 3))
    assert [tuple(p) for p in path] == [(3, 1), (2, 2), (1, 3)]
    assert geodesic_distance(l6_tp, Point2(3, 1), Point2(1, 3)) == \
        pytest.approx(2 * SQRT2)


def test_notch_pair_goes_straight(l6_tp):
    # (3,0.5)-(0.5,3) clears the notch corner: the segment stays inside,
    # so no bend and length 2.5*sqrt(2), shorter than the bent route
    d = geodesic_distance(l6_tp, Point2(3, 0.5), Point2(0.5, 3))
    assert d == pytest.approx(2.5 * SQRT2)
    path = shortest_path(l6_tp, Point2(3, 0.5), Point2(0.5, 3))
    assert len(path) == 2


def test_corner_to_corner(sq4_tp):
    assert geodesic_distance(sq4_tp, Point2(0, 0), Point2(4, 4)) == \
        pytest.approx(4 * SQRT2)


def test_outside_query_raises(sq4_tp):
    with pytest.raises(PointOutsidePolygon):
        shortest_path(sq4_tp, Point2(-1, 0), Point2(2, 2))


def test_tree_all_visible(sq4_tp):
    tree = shortest_path_tree(sq4_tp, Point2(2, 2))
    for v in sq4_tp.polygon.vertices:
        assert tree.parent_of(v) == Point2(2, 2)


def test_tree_reflex_bend(l6_tp):
    tree = shortest_path_tree(l6_tp, Point2(3, 1))
    assert tree.parent_of(Point2(0, 4)) == Point2(2, 2)
    assert tree.distance_to(Point2(0, 4)) == pytest.approx(3 * SQRT2)


def test_spm_square_center(sq4_tp):
    entries = spm_vertices(sq4_tp, Point2(2, 2))
    assert len(entries) == 4
    assert {tuple(p) for p, _ in entries} == {(0, 0), (4, 0), (4, 4), (0, 4)}


def test_spm_reflex_extension(l6_tp):
    entries = spm_vertices(l6_tp, Point2(3, 0.5))
    # the ray (3,0.5)->(2,2) continues past the reflex corner and meets
    # the top wall strictly between its endpoints
    hits = [(p, d) for p, d in entries
            if abs(p.y - 4) < 1e-9 and 1e-6 < p.x < 2 - 1e-6]
    assert hits, entries
    p, d = hits[0]
    assert p.x == pytest.approx(2 / 3)
    assert d == pytest.approx(math.sqrt(3.25) + dist(Point2(2, 2), p))


def test_spm_visible_corner(l6_tp):
    entries = spm_vertices(l6_tp, Point2(1, 1))
    vals = {tuple(p): d for p, d in entries}
    assert vals[(4, 0)] == pytest.approx(math.sqrt(10))


@given(st.integers(0, 400))
def test_distance_symmetry(seed):
    inst = generate(("star", "random", "comb")[seed % 3], 8 + seed % 9, 2, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    a, b = inst.points
    dab = geodesic_distance(tp, a, b)
    dba = geodesic_distance(tp, b, a)
    assert abs(dab - dba) <= 1e-12 + 1e-12 * dab


@given(st.integers(0, 400))
def test_triangle_inequality(seed):
    inst = generate(("star", "random")[seed % 2], 8 + seed % 9, 3, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    a, b, c = inst.points
    dab = geodesic_distance(tp, a, b)
    dac = geodesic_distance(tp, a, c)
    dcb = geodesic_distance(tp, c, b)
    assert dab <= dac + dcb + 1e-9


@given(st.integers(0, 400))
def test_waypoints_are_reflex_corners(seed):
    inst = generate(("star", "random", "comb")[seed % 3], 8 + seed % 11, 2, seed)
    poly = SimplePolygon(inst.polygon)
    tp = triangulate(poly)
    path = shortest_path(tp, *inst.points)
    vset = {(v.x, v.y) for v in poly.vertices}
    for w in path[1:-1]:
        assert (w.x, w.y) in vset
    for u, v in zip(path, path[1:]):
        mid = Point2((u.x + v.x) / 2, (u.y + v.y) / 2)
        assert point_in_polygon(poly, mid) != "outside"


@given(st.integers(0, 400))
def test_matches_visibility_oracle(seed):
    inst = generate(("convex", "star", "comb", "random")[seed % 4],
                    8 + seed % 13, 2, seed)
    poly = SimplePolygon(inst.polygon)
    tp = triangulate(poly)
    a, b = inst.points
    got = geodesic_distance(tp, a, b)
    want = oracle_distance(poly, a, b)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# -- reference: the dual-tree BFS corridor and shared-edge portal scan --

def _bfs_corridor(tp, ts, tt):
    """Triangle chain from ts to tt in the dual tree (BFS, unique path)."""
    if ts == tt:
        return [ts]
    prev = {ts: None}
    queue = [ts]
    qi = 0
    while qi < len(queue):
        cur = queue[qi]
        qi += 1
        if cur == tt:
            break
        for nb, _ in tp.dual[cur]:
            if nb not in prev:
                prev[nb] = cur
                queue.append(nb)
    chain = [tt]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()
    return chain


def _scan_portals(tp, chain):
    """(left, right) portals found by scanning each triangle's edges."""
    V = tp.vertices
    out = []
    for a, b in zip(chain, chain[1:]):
        shared = None
        for nb, key in tp.dual[a]:
            if nb == b:
                shared = key
                break
        assert shared is not None
        tri = tp.triangles[a]
        for k in range(3):
            u, v = tri[k], tri[(k + 1) % 3]
            if (min(u, v), max(u, v)) == shared:
                out.append((V[v], V[u]))
                break
    return out


def _assert_portals_match(tp, pairs):
    for ts, tt in pairs:
        assert _portals(tp, ts, tt) == _scan_portals(tp, _bfs_corridor(tp, ts, tt)), (ts, tt)


@pytest.mark.parametrize("name", ["sq4_tp", "l6_tp"])
def test_portals_match_reference_on_fixtures(name, request):
    tp = request.getfixturevalue(name)
    m = len(tp.triangles)
    _assert_portals_match(tp, [(a, b) for a in range(m) for b in range(m)])


@pytest.mark.parametrize("family", ["comb", "random"])
def test_portals_match_reference_on_128_gons(family):
    tp = triangulate(SimplePolygon(generate(family, 128, 2, 0).polygon))
    m = len(tp.triangles)
    rng = random.Random(0)
    _assert_portals_match(tp, [(rng.randrange(m), rng.randrange(m))
                               for _ in range(2000)])


# -- reference: the extension ray cast once inlined in disks._charts ----

def _charts_ray(region, tree, q, w):
    """Verbatim ray cast from w along the path q -> w, or None."""
    pred = tree.parent_of(w)
    if pred is None:
        pred = q
    dvec = Point2(w.x - pred.x, w.y - pred.y)
    if region._ray_enters(w, dvec):
        h = region.ray_to_boundary(w, dvec)
        if h is not None:
            return h
    return None


def _assert_ext_matches(region, sites):
    for q in sites:
        q = Point2(q[0], q[1])
        tree = region.tree(q)
        for w in region.corners:
            assert tree.ext.get((w.x, w.y)) == _charts_ray(region, tree, q, w), (q, w)


def test_tree_ext_matches_ray_cast_l6(l6_tp, arms_hull):
    _assert_ext_matches(Region.of(l6_tp), L6_ARMS)
    _assert_ext_matches(arms_hull.hull_region, L6_ARMS)


def test_tree_ext_matches_ray_cast_48x6():
    inst = generate("random", 48, 6, 0)
    h = geodesic_hull(triangulate(SimplePolygon(inst.polygon)), inst.points)
    _assert_ext_matches(h.hull_region, inst.points)


def test_extension_point_reads_the_ray(l6_tp):
    region = Region.of(l6_tp)
    hit = region.extension_point(Point2(3, 0.5), Point2(2, 2))
    assert hit.y == pytest.approx(4) and hit.x == pytest.approx(2 / 3)
    # a path ending on the boundary with its extension pointing out
    assert region.extension_point(Point2(1, 1), Point2(4, 0)) == Point2(4, 0)


# (0, -1) ends up exactly straight between two diagonals, from (0, -4) and
# to (0, 1).  Dropping it there would leave the triangles on either side
# unlinked and split the dual graph in two; ear clipping keeps it.
SPLIT_DUAL = [Point2(1, 1), Point2(0, 1), Point2(-2, 5), Point2(-1, -1),
              Point2(-3, -2), Point2(-1, -2), Point2(0, -4), Point2(0, -1)]


def test_split_dual_paths_within_a_piece():
    poly = SimplePolygon(SPLIT_DUAL)
    tp = triangulate(poly)
    assert tp.depth.count(0) == 1
    a, b = Point2(-1, 0), Point2(-5 / 3, -5 / 3)
    assert geodesic_distance(tp, a, b) == pytest.approx(oracle_distance(poly, a, b))


def test_split_dual_paths_across_pieces():
    poly = SimplePolygon(SPLIT_DUAL)
    a, b = Point2(1 / 3, 1 / 3), Point2(-1, 0)
    assert geodesic_distance(triangulate(poly), a, b) == \
        pytest.approx(oracle_distance(poly, a, b))


def _integer_star(rng):
    n = rng.randint(5, 10)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    return [(round(r * math.cos(a)), round(r * math.sin(a)))
            for a, r in ((a, rng.uniform(1, 5)) for a in angles)]


def test_integer_stars_have_one_dual_tree():
    # rounding to integers leaves many exactly straight vertices
    rng = random.Random(0)
    checked = 0
    for _ in range(2000):
        try:
            poly = SimplePolygon(_integer_star(rng))
        except InvalidPolygon:
            continue
        # SimplePolygon rejects a ring through one point twice
        assert len(set(poly.vertices)) == poly.n, poly.vertices
        tp = triangulate(poly)
        assert tp.depth.count(0) == 1, poly.vertices
        checked += 1
    assert checked > 1500


def _one_ulp_case():
    """random/48x6/s3 as two_center scales it, the site (43.0085...,
    8.0995...), the reflex vertex v = (14.2479..., 3.1730...) with its
    neighbours u and w, and the point one ulp above v."""
    inst = generate("random", 48, 6, 3)
    base = SimplePolygon(inst.polygon)
    s = 2.0 ** round(math.log2(64.0 / base.diameter))
    poly = SimplePolygon([(w.x * s, w.y * s) for w in base.vertices])
    site = Point2(inst.points[2][0] * s, inst.points[2][1] * s)
    i = min(range(poly.n), key=lambda k: dist(poly.vertices[k], Point2(14.2479, 3.1730)))
    u, v, w = poly.vertices[i - 1], poly.vertices[i], poly.vertices[(i + 1) % poly.n]
    return poly, site, (u, v, w), Point2(v.x, math.nextafter(v.y, math.inf))


def _exact_cross(o, a, b):
    return (Fraction(a[0]) - Fraction(o[0])) * (Fraction(b[1]) - Fraction(o[1])) \
        - (Fraction(a[1]) - Fraction(o[1])) * (Fraction(b[0]) - Fraction(o[0]))


def test_one_ulp_point_is_outside():
    poly, site, (u, v, w), p = _one_ulp_case()
    assert site.x == pytest.approx(43.0085, abs=1e-4)
    assert v.x == pytest.approx(14.2479, abs=1e-4)
    assert _exact_cross(u, v, w) < 0            # v is reflex
    # right of both edges at a reflex vertex: outside P
    assert _exact_cross(u, v, p) < 0 and _exact_cross(v, w, p) < 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a path to a point one ulp off a reflex vertex "
                          "runs straight through the exterior")
def test_path_one_ulp_off_a_reflex_vertex():
    poly, site, (u, v, w), p = _one_ulp_case()
    length = Region.of(triangulate(poly)).distance(site, p)
    assert length == pytest.approx(oracle_distance(poly, site, v), rel=1e-9)


def test_site_map_one_ulp_off_a_reflex_vertex():
    # the site's map routes every one-ulp neighbour of v around v, inside
    # P or just outside it alike
    poly, site, (_u, v, _w), _p = _one_ulp_case()
    sm = Region.of(triangulate(poly)).site_map(site)
    want = oracle_distance(poly, site, v)
    for dx, dy in ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)):
        p = Point2(math.nextafter(v.x, v.x + dx * math.inf) if dx else v.x,
                   math.nextafter(v.y, v.y + dy * math.inf) if dy else v.y)
        assert sm.distance(p) == pytest.approx(want, rel=1e-9), (dx, dy)


# -- reference: the two-point funnel -------------------------------------

def _interior_points(tp, rng, count):
    V = tp.vertices
    out = []
    for _ in range(count):
        a, b, c = (V[i] for i in tp.triangles[rng.randrange(len(tp.triangles))])
        u, v = rng.random(), rng.random()
        if u + v > 1:
            u, v = 1 - u, 1 - v
        out.append(Point2(a.x + u * (b.x - a.x) + v * (c.x - a.x),
                          a.y + u * (b.y - a.y) + v * (c.y - a.y)))
    return out


def _edge_points(tp, rng, count):
    """Points on polygon edges and on diagonals of the triangulation."""
    V = tp.vertices
    edges = [(V[i], V[(i + 1) % len(V)]) for i in range(len(V))]
    edges += [(V[u], V[v]) for t in range(len(tp.triangles)) for _nb, (u, v) in tp.dual[t]]
    out = []
    for _ in range(count):
        a, b = edges[rng.randrange(len(edges))]
        t = rng.random()
        out.append(Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return out


@pytest.mark.parametrize("n", [16, 48, 128])
@pytest.mark.parametrize("family", ["convex", "star", "comb", "random"])
def test_site_map_matches_two_point_funnel(family, n):
    inst = generate(family, n, 4, n)
    tp = triangulate(SimplePolygon(inst.polygon))
    region = Region.of(tp)
    rng = random.Random(f"{family}/{n}")
    sites = list(inst.points)
    targets = sites + list(tp.vertices) + _interior_points(tp, rng, 12) + \
        _edge_points(tp, rng, 6)
    for s in sites + list(tp.vertices) + _edge_points(tp, rng, 2):
        sm = region.site_map(s)
        assert region.site_map(s) is sm
        for x in targets:
            want = region.path(s, x)
            assert sm.path(x) == want, (s, x)
            assert sm.distance(x) == polyline_length(want), (s, x)
            bend = want[-2] if len(want) > 1 else want[0]
            assert sm.anchor(x) == (bend, polyline_length(want[:-1])), (s, x)


def test_site_map_bends_in_the_l6_notch(l6_tp):
    sm = Region.of(l6_tp).site_map(Point2(3, 1))
    assert sm.path(Point2(1, 3)) == [Point2(3, 1), Point2(2, 2), Point2(1, 3)]
    assert sm.anchor(Point2(1, 3)) == (Point2(2, 2), math.sqrt(2.0))
    assert sm.distance(Point2(1, 3)) == 2 * math.sqrt(2.0)
    assert sm.path(Point2(3, 1)) == [Point2(3, 1)]
    assert sm.distance(Point2(3, 1)) == 0.0


# Three pieces: the diagonal from (0, 1) to (2, 1) touches the reflex vertex
# (1, 1), so the top triangle shares no edge with the two below it, and
# those two quadrilaterals share none with each other.
PIECES = [Point2(0, 0), Point2(0.8, 0), Point2(1, 1), Point2(1.2, 0),
          Point2(2, 0), Point2(2, 1), Point2(1, 3), Point2(0, 1)]
PIECES_TRIANGLES = [(0, 1, 2), (0, 2, 7), (3, 4, 5), (3, 5, 2), (5, 6, 7)]


def test_site_map_across_pieces_raises():
    tp = TriangulatedPolygon(SimplePolygon(PIECES), PIECES_TRIANGLES)
    assert tp.depth.count(0) == 3
    sm = Region.of(tp).site_map(Point2(1, 2))
    assert sm.distance(Point2(0.5, 2)) == 0.5
    for x in (Point2(0.3, 0.5), Point2(1.7, 0.5)):
        with pytest.raises(ValueError, match="different pieces"):
            sm.distance(x)
        with pytest.raises(ValueError, match="different pieces"):
            Region.of(tp).path(Point2(1, 2), x)


@pytest.mark.parametrize("family", ["comb", "star"])
def test_site_map_repeats_its_first_answer(family, monkeypatch):
    inst = generate(family, 48, 4, 11)
    tp = triangulate(SimplePolygon(inst.polygon))
    rng = random.Random(family)
    xs = _interior_points(tp, rng, 30) + _edge_points(tp, rng, 10) + list(tp.vertices[:8])
    for s in inst.points:
        sm = Region.of(tp).site_map(s)
        first = [(sm.distance(x), sm.anchor(x), sm.path(x)) for x in xs]
        # every repeat is answered from the map's memo, in any order
        monkeypatch.setattr(sm, "_walk", lambda x: pytest.fail(f"{x} walked twice"))
        assert [(sm.distance(x), sm.anchor(x), sm.path(x)) for x in xs] == first
        assert [(sm.path(x), sm.anchor(x), sm.distance(x)) for x in reversed(xs)] == \
            [(p, a, d) for d, a, p in reversed(first)]
        fresh = SiteMap(tp, s)
        assert [(fresh.distance(x), fresh.anchor(x), fresh.path(x)) for x in xs] == first


def test_site_map_does_not_cache_a_failed_query():
    tp = TriangulatedPolygon(SimplePolygon(PIECES), PIECES_TRIANGLES)
    sm = Region.of(tp).site_map(Point2(1, 2))
    x = Point2(0.3, 0.5)
    for _ in range(2):
        with pytest.raises(ValueError, match="different pieces"):
            sm.anchor(x)
    assert (x.x, x.y) not in sm._anchors
