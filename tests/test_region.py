import math
import random
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, strategies as st

from twocenter import region as region_mod
from twocenter.driver import two_center
from twocenter.errors import BoundaryAssemblyError, InvalidPolygon, PointOutsidePolygon
from twocenter.geom import (Point2, RingIndex, Tolerances, bbox, bbox_diameter, dist,
                            orientation, polyline_length, ring_contains, seg_point_distance)
from twocenter.hull import geodesic_hull
from twocenter.instances import generate
from twocenter.oracle import oracle_distance
from twocenter.polygon import (SimplePolygon, TriangulatedPolygon, point_in_polygon,
                               triangulate)
from twocenter.region import (Region, SiteMap, _corridor, _same, geodesic_distance,
                              shortest_path, spm_vertices)

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
    sm = Region.of(sq4_tp).site_map(Point2(2, 2))
    for v in sq4_tp.polygon.vertices:
        assert sm.anchor(v)[0] == Point2(2, 2)


def test_tree_reflex_bend(l6_tp):
    sm = Region.of(l6_tp).site_map(Point2(3, 1))
    assert sm.anchor(Point2(0, 4))[0] == Point2(2, 2)
    assert sm.distance(Point2(0, 4)) == pytest.approx(3 * SQRT2)


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


# -- reference: the dual-tree BFS corridor ------------------------------

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
        for nb in tp.across[cur]:
            if nb >= 0 and nb not in prev:
                prev[nb] = cur
                queue.append(nb)
    chain = [tt]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()
    return chain


def _assert_corridor_matches(tp, pairs):
    for ts, tt in pairs:
        assert _corridor(tp, ts, tt) == _bfs_corridor(tp, ts, tt), (ts, tt)


@pytest.mark.parametrize("name", ["sq4_tp", "l6_tp"])
def test_corridor_matches_reference_on_fixtures(name, request):
    tp = request.getfixturevalue(name)
    m = len(tp.triangles)
    _assert_corridor_matches(tp, [(a, b) for a in range(m) for b in range(m)])


@pytest.mark.parametrize("family", ["comb", "random"])
def test_corridor_matches_reference_on_128_gons(family):
    tp = triangulate(SimplePolygon(generate(family, 128, 2, 0).polygon))
    m = len(tp.triangles)
    rng = random.Random(0)
    _assert_corridor_matches(tp, [(rng.randrange(m), rng.randrange(m))
                                  for _ in range(2000)])


# -- reference: the extension ray cast once inlined in disks._charts ----

def _charts_ray(region, q, w):
    """Verbatim ray cast from w along the path q -> w, or None."""
    pred = region.site_map(q).anchor(w)[0]
    dvec = Point2(w.x - pred.x, w.y - pred.y)
    if region._ray_enters(w, dvec):
        h = region.ray_to_boundary(w, dvec)
        if h is not None:
            return h
    return None


def _assert_ext_matches(region, sites):
    # a corner that is no polygon vertex (a point of Q on a hull ring)
    # starts no extension: no shortest path bends there
    for q in sites:
        q = Point2(q[0], q[1])
        ext = region.tree(q)
        for w in region.corners:
            want = _charts_ray(region, q, w) if (w.x, w.y) in region.tp.index else None
            assert ext.get((w.x, w.y)) == want, (q, w)


def test_tree_ext_matches_ray_cast_l6(l6_tp, arms_hull):
    _assert_ext_matches(Region.of(l6_tp), L6_ARMS)
    _assert_ext_matches(arms_hull.hull_region, L6_ARMS)


def test_tree_ext_matches_ray_cast_48x6():
    inst = generate("random", 48, 6, 0)
    h = geodesic_hull(triangulate(SimplePolygon(inst.polygon)), inst.points)
    assert any((w.x, w.y) not in h.hull_region.tp.index for w in h.hull_region.corners)
    _assert_ext_matches(h.hull_region, inst.points)


def test_tree_reads_the_extension_ray(l6_tp):
    region = Region.of(l6_tp)
    hit = region.tree(Point2(3, 0.5))[(2.0, 2.0)]
    assert hit.y == pytest.approx(4) and hit.x == pytest.approx(2 / 3)
    # a path ending on the boundary with its extension pointing out
    assert (4.0, 0.0) not in region.tree(Point2(1, 1))


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


def _scaled(family, n, m, seed):
    """A generated instance's polygon and points, scaled as two_center
    scales them."""
    inst = generate(family, n, m, seed)
    base = SimplePolygon(inst.polygon)
    s = 2.0 ** round(math.log2(64.0 / base.diameter))
    poly = SimplePolygon([(w.x * s, w.y * s) for w in base.vertices])
    return poly, [Point2(q[0] * s, q[1] * s) for q in inst.points]


def _one_ulp_case():
    """random/48x6/s3 as two_center scales it, the site (43.0085...,
    8.0995...), the reflex vertex v = (14.2479..., 3.1730...) with its
    neighbours u and w, and the point one ulp above v."""
    poly, pts = _scaled("random", 48, 6, 3)
    site = pts[2]
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


def _ulp_neighbours(v):
    for dx, dy in ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)):
        yield Point2(math.nextafter(v.x, v.x + dx * math.inf) if dx else v.x,
                     math.nextafter(v.y, v.y + dy * math.inf) if dy else v.y)


def test_path_one_ulp_off_a_reflex_vertex():
    # the two-point funnel ran these paths straight through the exterior
    poly, site, (u, v, w), p = _one_ulp_case()
    want = oracle_distance(poly, site, v)
    assert geodesic_distance(triangulate(poly), site, p) == pytest.approx(want, rel=1e-9)
    region = Region.of(triangulate(poly))
    for x in _ulp_neighbours(v):
        assert region.distance(site, x) == pytest.approx(want, rel=1e-9), x


def test_site_map_one_ulp_off_a_reflex_vertex():
    # the site's map routes every one-ulp neighbour of v around v, inside
    # P or just outside it alike
    poly, site, (_u, v, _w), _p = _one_ulp_case()
    sm = Region.of(triangulate(poly)).site_map(site)
    want = oracle_distance(poly, site, v)
    for x in _ulp_neighbours(v):
        assert sm.distance(x) == pytest.approx(want, rel=1e-9), x


# -- reference: the two-point funnel (Lee and Preparata 1984) -----------
#
# `_portals`, `_narrows_right`, `_narrows_left` and `_funnel` are the
# funnel that answered two-point queries before every path came from a
# SiteMap, kept verbatim as the reference that the maps must match.

def _portals(tp: TriangulatedPolygon, ts: int, tt: int):
    """(left, right) portal endpoints for each crossing from triangle ts
    to triangle tt, climbing the rooted dual tree from both ends.

    Crossing a child's gate u -> v upward puts v on the traveller's left
    and u on the right; crossing it downward puts u on the left.
    """
    V, up, depth = tp.vertices, tp.up, tp.depth

    def gate(t):
        """The edge t shares with its parent, as t's counterclockwise pair."""
        tri = tp.triangles[t]
        k = tp.across[t].index(up[t])
        return tri[k], tri[(k + 1) % 3]

    rise, fall = [], []
    while ts != tt:
        if depth[ts] >= depth[tt]:
            u, v = gate(ts)
            rise.append((V[v], V[u]))
            ts = up[ts]
        else:
            u, v = gate(tt)
            fall.append((V[u], V[v]))
            tt = up[tt]
        if ts < 0 or tt < 0:
            raise ValueError("triangles in different pieces of the dual graph")
    return rise + fall[::-1]


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


def _funnel_path(tp, a, b):
    """The two-point funnel's path a -> b, run from the end with the
    smaller (x, y) as `Region.path` runs its map."""
    a, b = Point2(a[0], a[1]), Point2(b[0], b[1])
    if _same(a, b):
        return [a]
    flip = (b.x, b.y) < (a.x, a.y)
    s, t = (b, a) if flip else (a, b)
    path = _funnel(_portals(tp, tp.locate(s), tp.locate(t)), s, t)
    return path[::-1] if flip else path


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
    for t, tri in enumerate(tp.triangles):
        # each diagonal from both sides, as its (low, high) vertex pair:
        # neighbours below t in edge order, then those above t by index
        nbs = tp.across[t]
        for o in [o for o in nbs if 0 <= o < t] + sorted(o for o in nbs if o > t):
            u, v = sorted(set(tri) & set(tp.triangles[o]))
            edges.append((V[u], V[v]))
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
            want = _funnel_path(tp, s, x)
            assert region.path(s, x) == want, (s, x)
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


def test_site_map_from_a_vertex_walks_every_piece_of_its_fan():
    # (1, 1) is a corner in both lower pieces; a query in (3, 4, 5) walks
    # from the fan triangle of its own piece
    tp = TriangulatedPolygon(SimplePolygon(PIECES), PIECES_TRIANGLES)
    s = Point2(1, 1)
    for x in (Point2(0.3, 0.5), Point2(1.9, 0.2)):
        assert SiteMap(tp, s).path(x) == [s, x]
        assert Region.of(tp).distance(s, x) == dist(s, x)
    with pytest.raises(ValueError, match="different pieces"):
        SiteMap(tp, s).distance(Point2(1, 2))


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


@pytest.mark.parametrize("family", ["comb", "random"])
def test_one_off_path_expands_only_its_corridor(family, monkeypatch):
    tp = triangulate(SimplePolygon(generate(family, 128, 2, 0).polygon))
    rng = random.Random(family)
    ends = _interior_points(tp, rng, 40) + _edge_points(tp, rng, 10) + list(tp.vertices[:10])
    expand = SiteMap._expand
    calls = []

    def counting(self, t):
        calls.append(t)
        return expand(self, t)

    monkeypatch.setattr(SiteMap, "_expand", counting)
    region = Region.of(tp)
    for a, b in zip(ends, ends[::-1]):
        if _same(a, b):
            continue
        s, x = sorted((a, b), key=lambda p: (p.x, p.y))
        corridor = _corridor(tp, tp.locate(s), tp.locate(x))
        del calls[:]
        region.path(a, b)
        assert len(calls) <= len(corridor) - 1, (a, b)
        assert set(calls) <= set(corridor), (a, b)


@pytest.mark.parametrize("family", ["star", "comb", "random"])
def test_fresh_maps_answer_in_any_order(family):
    # an expansion sets a corner's parent and distance when a query first
    # reaches it, so two maps asked in opposite orders must still agree
    inst = generate(family, 48, 4, 5)
    tp = triangulate(SimplePolygon(inst.polygon))
    rng = random.Random(family)
    xs = list(tp.vertices) + _interior_points(tp, rng, 30) + _edge_points(tp, rng, 15)
    for s in list(inst.points) + list(tp.vertices[:4]):
        fwd, rev = SiteMap(tp, s), SiteMap(tp, s)
        want = [(fwd.distance(x), fwd.anchor(x), fwd.path(x)) for x in xs]
        got = [(rev.distance(x), rev.anchor(x), rev.path(x)) for x in reversed(xs)]
        assert got[::-1] == want, s


# -- the ring index against whole-ring scans -------------------------------

def _near_scan(ring, p, eps):
    n = len(ring)
    return [s for s in range(n) if seg_point_distance(p, ring[s], ring[(s + 1) % n]) <= eps]


def _ring_queries(ring, eps, rng):
    """Vertices, their one-ulp neighbours and the points eps (1 -/+ 1e-9)
    away from them along both axes; points pushed off each segment by as
    much (across it at both ends and the middle, and past both ends); and
    random points in and around the ring's box.

    The axis pushes test the index's rounding slack: `seg_point_distance`
    may put a segment's clamped end one ulp past the vertex, and a point
    just beyond eps of the vertex along an axis is then within eps of the
    segment but outside its box padded by eps alone."""
    out = []
    for v in ring:
        out.append(v)
        out.extend(_ulp_neighbours(v))
        for f in (1 - 1e-9, 1 + 1e-9):
            d = eps * f
            out += [Point2(v.x + d, v.y), Point2(v.x - d, v.y),
                    Point2(v.x, v.y + d), Point2(v.x, v.y - d)]
    n = len(ring)
    for s in range(n):
        a, b = ring[s], ring[(s + 1) % n]
        L = dist(a, b)
        if L == 0.0:
            continue
        ux, uy = (b.x - a.x) / L, (b.y - a.y) / L
        for f in (1 - 1e-9, 1 + 1e-9):
            d = eps * f
            out += [Point2(a.x - ux * d, a.y - uy * d), Point2(b.x + ux * d, b.y + uy * d)]
            for t in (0.0, 0.5, 1.0):
                x, y = a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)
                out += [Point2(x - uy * d, y + ux * d), Point2(x + uy * d, y - ux * d)]
    x0, y0, x1, y1 = bbox(ring)
    wx, wy = x1 - x0, y1 - y0
    out += [Point2(x0 - 0.1 * wx + 1.2 * wx * rng.random(), y0 - 0.1 * wy + 1.2 * wy * rng.random())
            for _ in range(100)]
    return out


def _assert_index_matches_scans(ring, tol):
    index = RingIndex(ring)
    rng = random.Random(len(ring))
    for eps in (tol.check, tol.near, 1e-9, tol.check * 1e-3):
        for p in _ring_queries(ring, eps, rng):
            assert index.classify(p, eps) == ring_contains(p, ring, eps), (p, eps)
            assert index.near(p, eps) == _near_scan(ring, p, eps), (p, eps)


@pytest.mark.parametrize("n,m", [(16, 8), (48, 6), (128, 6)])
@pytest.mark.parametrize("family", ["convex", "star", "comb", "random"])
def test_ring_index_matches_scans(family, n, m):
    poly, pts = _scaled(family, n, m, 0)
    tp = triangulate(poly)
    h = geodesic_hull(tp, pts)
    _assert_index_matches_scans(poly.vertices, tp.tol)
    _assert_index_matches_scans(h.ring, tp.tol)
    # Region's membership reads the same index
    region = h.hull_region
    for p in _ring_queries(h.ring, tp.tol.check, random.Random(0))[:200]:
        assert region.classify(p, tp.tol.check) == ring_contains(p, h.ring, tp.tol.check)


def test_ring_index_on_zero_width_spurs():
    # a clockwise ring with a doubled spur out of its top and a doubled
    # slanted spur into its interior, as a hull ring runs to a point and back
    raw = [(0, 0), (0, 4), (1.3, 4), (1.3, 6.1), (1.3, 4), (4, 4), (4, 0),
           (2.7, 0), (1.9, 1.7), (2.7, 0)]
    ring = tuple(Point2(x * 9.7, y * 9.7) for x, y in raw)
    _assert_index_matches_scans(ring, Tolerances.for_diameter(bbox_diameter(ring)))
    index = RingIndex(ring)
    assert index.classify(Point2(2.0 * 9.7, 2.0 * 9.7)) == "inside"
    assert index.classify(Point2(1.3 * 9.7, 5.0 * 9.7)) == "boundary"
    assert index.classify(Point2(1.3 * 9.7 + 1e-3, 5.0 * 9.7)) == "outside"
    assert index.near(Point2(1.3 * 9.7, 5.0 * 9.7), 1e-9) == [2, 3]


# -- funnel walks against the code before `_wrap` inlined its steps --------

def _parent_wrap(P, chain, ai: int, x) -> int:
    """`region._wrap` before its funnel steps were inlined, verbatim."""
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


def _parent_walk(sm: SiteMap, x) -> int:
    """`SiteMap._walk` before its rewrite, verbatim, on a map whose walk
    to x has already set x's funnel."""
    t = sm.tp.locate(x)
    chain, ai = sm.funnels[t]
    if not chain:
        return len(sm.points) - 1
    w = chain[_parent_wrap(sm.points, chain, ai, x)]
    if sm.parent[w] >= 0 and _same(sm.points[w], x):
        w = sm.parent[w]
    return w


# scripts/corpus_outputs.py's 12x6, 16x8 and 48x6 cells
WALK_CELLS = [(fam, n, m, s) for n, m in ((12, 6), (16, 8), (48, 6))
              for fam in ("convex", "star", "comb", "random") for s in range(6)]


@pytest.mark.parametrize("cell", WALK_CELLS, ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_walks_match_parent(cell, monkeypatch):
    # every funnel wrap (in a walk or a triangle's expansion) and every
    # anchor of the cell's solve, against the earlier code
    wraps, walks = [], []
    plain_wrap, plain_walk = region_mod._wrap, SiteMap._walk

    def checked_wrap(P, chain, ai, x):
        got = plain_wrap(P, chain, ai, x)
        assert got == _parent_wrap(P, chain, ai, x), (chain, ai, x)
        wraps.append(got)
        return got

    def checked_walk(self, x):
        got = plain_walk(self, x)
        assert got == _parent_walk(self, x), x
        walks.append((self, x, got))
        return got

    monkeypatch.setattr(region_mod, "_wrap", checked_wrap)
    monkeypatch.setattr(SiteMap, "_walk", checked_walk)
    inst = generate(*cell)
    try:
        two_center(SimplePolygon(inst.polygon), inst.points)
    except BoundaryAssemblyError:
        assert cell == ("random", 16, 8, 1)
    assert walks and wraps
    # the parent's anchor and distance: the walked index's point and
    # length, plus the last straight step
    for sm, x, w in walks:
        assert sm.anchor(x) == (sm.points[w], sm.dist[w])
        assert sm.distance(x) == sm.dist[w] + dist(sm.points[w], x)
