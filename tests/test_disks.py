import math
import random

import pytest
from hypothesis import given, strategies as st

from twocenter import decision, disks, driver
from twocenter.disks import (CircArc, Seg, disk_contains, disks_intersection,
                             geodesic_circle, one_center)
from twocenter.errors import BoundaryAssemblyError, CertificateError
from twocenter.geom import TAU, Point2, dist, unique_points
from twocenter.hull import geodesic_hull
from twocenter.instances import FAMILIES, generate
from twocenter.optimize import optimize_pair
from twocenter.oracle import oracle_one_center
from twocenter.polygon import SimplePolygon, triangulate
from twocenter.region import Region

SQRT2 = math.sqrt(2.0)
QSYM = [Point2(1, 1), Point2(1, 3), Point2(3, 3), Point2(3, 1)]


def small_square_region(sq4_tp):
    return Region(sq4_tp, [Point2(1, 1), Point2(1, 3), Point2(3, 3), Point2(3, 1)])


def test_disk_contains(sq4_tp, l6_tp):
    assert disk_contains(sq4_tp, Point2(1, 1), 1.0, Point2(1, 2))
    assert not disk_contains(l6_tp, Point2(3, 1), 2.0, Point2(1, 3))
    assert disk_contains(l6_tp, Point2(3, 1), 3.0, Point2(1, 3))


def test_full_circle(sq4_tp):
    arcs = geodesic_circle(sq4_tp, Point2(2, 2), 1.0)
    assert len(arcs) == 1
    a = arcs[0]
    assert a.anchor == Point2(2, 2) and a.radius == pytest.approx(1.0)
    assert a.span == pytest.approx(TAU)


def test_reflex_anchored_arc(l6_tp):
    arcs = geodesic_circle(l6_tp, Point2(3, 1), 2.0)
    bent = [a for a in arcs if a.anchor == Point2(2, 2)]
    assert bent
    assert bent[0].radius == pytest.approx(2.0 - SQRT2)


def test_clipped_circle_is_one_arc(sq4_tp):
    arcs = geodesic_circle(sq4_tp, Point2(1, 1), 2.0)
    assert len(arcs) == 1
    # circle leaves through x=0 and y=0; the inside arc spans from the
    # hit on one wall to the hit on the other
    a = arcs[0]
    ends = sorted([tuple(a.a), tuple(a.b)])
    assert ends[0][0] == pytest.approx(0.0, abs=1e-9)   # on x=0
    assert ends[1][1] == pytest.approx(0.0, abs=1e-9)   # on y=0


def test_tangent_disks_pinch_to_point(sq4_tp):
    reg = small_square_region(sq4_tp)
    b = disks_intersection(reg, [Point2(1, 1), Point2(1, 3)], 1.0)
    assert b is not None and b.is_point
    assert dist(b.point, Point2(1, 2)) <= 1e-6
    # an asymmetric pair pinches exactly at its one-center
    sites = [Point2(1.1, 1.3), Point2(2.7, 2.9)]
    oc = one_center(reg, sites)
    b = disks_intersection(reg, sites, oc.radius)
    assert b is not None and b.is_point
    assert b.point == oc.center
    # the first two disks overlap; the third pinches them at (1, 2)
    b = disks_intersection(reg, [Point2(1, 1), Point2(1, 2), Point2(1, 3)], 1.0)
    assert b is not None and b.is_point
    assert dist(b.point, Point2(1, 2)) <= 1e-6


def test_lens_two_arcs(sq4_tp):
    reg = small_square_region(sq4_tp)
    b = disks_intersection(reg, [Point2(1, 1), Point2(1, 3)], 1.25)
    assert b is not None and not b.is_point
    arcs = [e for e in b.elements if isinstance(e, CircArc)]
    assert len(arcs) == 2
    assert {tuple(a.owner) for a in arcs} == {(1, 1), (1, 3)}
    # arcs cross at x = 1 + sqrt(1.25^2 - 1) = 1.75, y = 2; the lens is
    # closed on the left by the hull wall x = 1
    ends = {(round(p.x, 6), round(p.y, 6)) for a in arcs for p in (a.a, a.b)}
    assert (1.75, 2.0) in ends
    assert (1.0, 1.75) in ends and (1.0, 2.25) in ends
    segs = [e for e in b.elements if isinstance(e, Seg)]
    assert len(segs) == 1


def test_far_disks_empty(sq4_tp):
    reg = small_square_region(sq4_tp)
    assert disks_intersection(reg, [Point2(1, 1), Point2(3, 3)], 1.0) is None
    # a site beyond the pinch point of the first two
    assert disks_intersection(reg, [Point2(1, 1), Point2(1, 3), Point2(3, 2)],
                              1.0) is None
    # the disks meet only at (2.5, 2.5), the notch cut out of an L ring
    ring = Region(sq4_tp, [Point2(0, 0), Point2(4, 0), Point2(4, 2),
                           Point2(2, 2), Point2(2, 4), Point2(0, 4)])
    assert disks_intersection(ring, [Point2(3.5, 1.5), Point2(1.5, 3.5)],
                              SQRT2) is None


def test_one_center_single():
    sq = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)])
    res = one_center(triangulate(sq), [Point2(1, 1)])
    assert res.center == Point2(1, 1) and res.radius == 0.0


def test_one_center_bent_pair(l6_tp):
    res = one_center(l6_tp, [Point2(3, 1), Point2(1, 3)])
    assert res.radius == pytest.approx(SQRT2)
    assert dist(res.center, Point2(2, 2)) <= 1e-6


def test_one_center_right_triangle(sq4_tp):
    res = one_center(sq4_tp, [Point2(1, 1), Point2(3, 1), Point2(1, 3)])
    assert res.radius == pytest.approx(SQRT2)
    assert dist(res.center, Point2(2, 2)) <= 1e-6


def _circumcenter(a, b, c):
    d = 2 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    ux = ((a.x ** 2 + a.y ** 2) * (b.y - c.y) + (b.x ** 2 + b.y ** 2) * (c.y - a.y)
          + (c.x ** 2 + c.y ** 2) * (a.y - b.y)) / d
    uy = ((a.x ** 2 + a.y ** 2) * (c.x - b.x) + (b.x ** 2 + b.y ** 2) * (a.x - c.x)
          + (c.x ** 2 + c.y ** 2) * (b.x - a.x)) / d
    return Point2(ux, uy)


def test_equalizer_in_square_is_circumcenter(sq4_tp):
    reg = Region.of(sq4_tp)
    a, b, c = Point2(0.5, 0.7), Point2(3.2, 1.1), Point2(1.4, 3.6)
    x = disks._equalize3(reg, a, b, c, [])
    assert dist(x, _circumcenter(a, b, c)) <= 1e-12


def test_equalizer_bent_at_reflex_corner(l6, l6_tp):
    # the path from a to the equalizer bends at the reflex corner (2, 2)
    reg = Region.of(l6_tp)
    a, b, c = Point2(2.5, 1.9), Point2(0.1, 3.9), Point2(1.9, 3.9)
    x = disks._equalize3(reg, a, b, c, [])
    assert x is not None
    assert Point2(2, 2) in reg.path(a, x)
    d = [reg.distance(x, s) for s in (a, b, c)]
    assert max(d) - min(d) <= l6_tp.tol.radius
    res = one_center(l6_tp, [a, b, c])
    _c, r_ref = oracle_one_center(l6, [a, b, c])
    assert res.radius == pytest.approx(r_ref, rel=1e-9)


def test_equalizer_from_pair_disk_charts():
    # star/24x12/s0 as two_center rescales it: in the geodesic hull of the
    # sites, this triple's Euclidean circumcenter lies outside, so the
    # chart walk has to start from the charts at the pair-disk centers
    inst = generate("star", 24, 12, 0)
    poly = SimplePolygon(inst.polygon)
    scale = 2.0 ** round(math.log2(64.0 / poly.diameter))
    tp = triangulate(SimplePolygon([(v.x * scale, v.y * scale)
                                    for v in poly.vertices]))
    reg = geodesic_hull(tp, [Point2(q.x * scale, q.y * scale)
                             for q in inst.points]).hull_region
    a = Point2(23.319283208056085, 35.446311609565065)
    b = Point2(5.032842261296786, 28.337704106863903)
    c = Point2(9.217535600422451, 23.93674094267816)
    assert not reg.contains(_circumcenter(a, b, c))
    assert disks._equalize3(reg, a, b, c, []) is None
    starts = [disks._disk2(reg, u, v).center for u, v in ((a, b), (a, c), (b, c))]
    x = disks._equalize3(reg, a, b, c, starts)
    assert x is not None and reg.contains(x)
    d = [reg.distance(x, s) for s in (a, b, c)]
    assert max(d) - min(d) <= tp.tol.radius


def test_no_one_center_candidate_raises(sq4, monkeypatch):
    # an acute triangle: no pair disk covers the third point
    monkeypatch.setattr(disks, "_equalize3", lambda *args: None)
    with pytest.raises(CertificateError):
        one_center(triangulate(sq4), [Point2(1, 1), Point2(3, 1), Point2(2, 2.7)])


def test_basis_disks_solved_once_per_region(l6, l6_tp, sq4, monkeypatch):
    # the path from a to b bends at the reflex corner (2, 2)
    a, b, c = Point2(3.5, 1.5), Point2(1.5, 3.5), Point2(0.5, 0.5)
    reg, fresh = Region(l6_tp), Region(triangulate(l6))
    d_ab = disks._disk2(reg, a, b)
    assert disks._disk2(reg, a, b) is d_ab
    assert disks._disk2(fresh, a, b) == d_ab
    # the argument order sets the path direction: (b, a) is its own entry
    d_ba = disks._disk2(reg, b, a)
    assert disks._disk2(reg, b, a) is d_ba and d_ba is not d_ab
    assert {(a.x, a.y, b.x, b.y), (b.x, b.y, a.x, a.y)} <= set(reg._basis_cache)
    t = disks._solve3(reg, a, b, c)
    assert disks._solve3(reg, a, b, c) is t
    assert disks._solve3(fresh, a, b, c) == t
    assert disks._solve3(reg, c, b, a) is not t
    # an acute triangle without an equalizer: no candidate, raised each time
    monkeypatch.setattr(disks, "_equalize3", lambda *args: None)
    reg = Region(triangulate(sq4))
    p, q, s = Point2(1, 1), Point2(3, 1), Point2(2, 2.7)
    for _ in range(2):
        with pytest.raises(CertificateError):
            disks._solve3(reg, p, q, s)
    assert (p.x, p.y, q.x, q.y, s.x, s.y) not in reg._basis_cache


@given(st.integers(0, 60))
def test_one_center_covers_and_is_tight(seed):
    inst = generate(("star", "comb", "random")[seed % 3], 6 + seed % 9,
                    2 + seed % 7, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    reg = Region.of(tp)
    res = one_center(tp, inst.points)
    worst = max(reg.distance(res.center, q) for q in inst.points)
    sc = max(1.0, tp.diameter)
    assert worst <= res.radius + 1e-7 * sc
    att = [q for q in inst.points
           if reg.distance(res.center, q) >= res.radius - 1e-6 * sc]
    assert 1 <= len(att)
    if res.radius > 1e-9 * sc:
        assert len(att) >= 2


@given(st.integers(0, 25))
def test_one_center_matches_grid_oracle(seed):
    inst = generate(("star", "random")[seed % 2], 6 + seed % 7,
                    2 + seed % 5, seed)
    poly = SimplePolygon(inst.polygon)
    res = one_center(triangulate(poly), inst.points)
    _c, r_ref = oracle_one_center(poly, inst.points, n_grid=72, refine=5)
    assert res.radius == pytest.approx(r_ref, rel=1e-4, abs=1e-6)


@given(st.integers(0, 80))
def test_membership_agrees_with_direct_distances(seed):
    inst = generate(("star", "random")[seed % 2], 6 + seed % 7, 4, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    reg = Region.of(tp)
    sites = inst.points[:2]
    r = 0.35 * tp.diameter
    b = disks_intersection(reg, sites, r)
    if b is None or b.is_point:
        return
    sc = max(1.0, tp.diameter)
    for e in b.elements:
        for t in (0.0, 0.3, 0.7):
            x = e.point(t)
            assert max(reg.distance(x, s) for s in sites) <= r + 1e-6 * sc
            if isinstance(e, CircArc):
                assert reg.distance(x, e.owner) == pytest.approx(r, abs=1e-6 * sc)


def test_one_center_cache_key_ignores_order_and_duplicates(sq4_tp):
    reg = Region(sq4_tp)
    pts = [Point2(1, 1), Point2(3, 1.5), Point2(1.5, 3)]
    first = one_center(reg, pts)
    assert one_center(reg, pts[::-1]) is first
    assert one_center(reg, pts + [pts[1], (1.0, 1.0)]) is first
    with pytest.raises(ValueError):
        one_center(reg, [])


@pytest.mark.parametrize("fam", FAMILIES)
def test_one_center_ignores_point_order(fam):
    """The cache keeps the first caller's result for a point set, so the
    result must not depend on the order in which that caller listed it."""
    rng = random.Random(fam)
    for seed in range(6):
        inst = generate(fam, 16, 8, seed)
        tp = triangulate(SimplePolygon(inst.polygon))
        pts = unique_points(inst.points)
        for _ in range(20):
            sub = rng.sample(pts, rng.randint(3, 6))
            shuffled = rng.sample(sub, len(sub))
            a = one_center(Region(tp), sub)
            b = one_center(Region(tp), shuffled)
            assert (a.center, a.radius) == (b.center, b.radius), (seed, sub, shuffled)


# -- the chart rule against the all-corner charts --------------------

def _charts_all_corners(region, q, r):
    """`disks._charts` with a chart at every ring corner, polygon vertex
    or not: the slow reference for the vertex rule."""
    q = Point2(q[0], q[1])
    charts = [(q, r)]
    ext_segs = []
    sq = region.site_map(q)
    for w in region.corners:
        R = r - sq.distance(w)
        if R <= 1e-12 or dist(w, q) <= 1e-12:
            continue
        charts.append((w, R))
        # the extension ray at every corner, polygon vertex or not
        hit = region._extend(sq.anchor(w)[0], w)
        if hit is not None:
            ext_segs.append((w, hit))
    return charts, ext_segs


def _joins(a, b, tol):
    """a runs into b on one line or one circle."""
    if dist(a.point(1.0), b.point(0.0)) > tol:
        return False
    if isinstance(a, Seg) and isinstance(b, Seg):
        ux, uy = a.b.x - a.a.x, a.b.y - a.a.y
        vx, vy = b.b.x - b.a.x, b.b.y - b.a.y
        return (abs(ux * vy - uy * vx) <= 1e-9 * math.hypot(ux, uy) * math.hypot(vx, vy)
                and ux * vx + uy * vy > 0)
    if isinstance(a, CircArc) and isinstance(b, CircArc):
        return a.anchor == b.anchor and a.radius == b.radius
    return False


def _join(a, b):
    if isinstance(a, Seg):
        return Seg(a.a, b.b)
    return CircArc(a.anchor, a.radius, a.start, a.span + b.span, a.owner)


def _merged(elements, tol):
    """The cycle with consecutive pieces on one line or one circle joined."""
    out = []
    for e in elements:
        if out and _joins(out[-1], e, tol):
            out[-1] = _join(out[-1], e)
        else:
            out.append(e)
    while len(out) > 1 and _joins(out[-1], out[0], tol):
        out[0] = _join(out.pop(), out[0])
    return out


def _same_cycle(got, want, tols):
    """The merged cycles agree piece by piece from some rotation: same
    kind, endpoints within tols.join, lengths within 1e-9 relative (or
    tols.radius, for sub-micron arcs whose spans differ in the last
    ulps)."""
    got, want = _merged(got, tols.join), _merged(want, tols.join)
    if len(got) != len(want):
        return False

    def same(a, b):
        return (type(a) is type(b)
                and dist(a.point(0.0), b.point(0.0)) <= tols.join
                and dist(a.point(1.0), b.point(1.0)) <= tols.join
                and math.isclose(a.length(), b.length(), rel_tol=1e-9,
                                 abs_tol=tols.radius))

    n = len(got)
    return any(all(same(got[k], want[(k + s) % n]) for k in range(n))
               for s in range(n))


def _scaled(cell):
    """The triangulation and distinct sites of an instance, scaled as
    `two_center` scales them."""
    inst = generate(*cell)
    poly = SimplePolygon(inst.polygon)
    k = 2.0 ** round(math.log2(64.0 / poly.diameter))
    tp = triangulate(SimplePolygon([(v.x * k, v.y * k) for v in poly.vertices]))
    return tp, unique_points([Point2(q.x * k, q.y * k) for q in inst.points])


def _intersection(reg, chain, r):
    """`disks_intersection`, or the class of the error it raises: a chain
    whose intersection raises under both chart rules agrees."""
    try:
        return disks_intersection(reg, chain, r)
    except BoundaryAssemblyError as exc:
        return type(exc)


BENCH_CELLS = ([(f, 16, 8, s) for f in FAMILIES for s in range(4)]
               + [(f, 48, 6, s) for f in FAMILIES for s in range(3)])
# the first pair's search raises on these, after the decides it records
FIRST_PAIR_RAISES = {("random", 16, 8, 1)}


@pytest.mark.parametrize("cell", BENCH_CELLS, ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_charts_only_at_polygon_vertices(cell, monkeypatch):
    tp, pts = _scaled(cell)
    h = geodesic_hull(tp, pts)
    p = driver.candidate_pairs(h)[0]
    decided = []
    plain = decision._decide

    def recording(hh, i, j, r):
        res = plain(hh, i, j, r)
        decided.append((i, j, r, res.feasible, res.branch))
        return res

    iv = driver.assistant_interval(h)
    with monkeypatch.context() as m:
        m.setattr(decision, "_decide", recording)
        if cell in FIRST_PAIR_RAISES:
            with pytest.raises(BoundaryAssemblyError):
                optimize_pair(h, p.i, p.j, iv)
        else:
            optimize_pair(h, p.i, p.j, iv)
    assert decided

    reg = h.hull_region
    pc = decision.pair_chains(h, p.i, p.j)
    for _i, _j, r, _f, _b in decided:
        for q in pc.chain1 + pc.chain2 + pc.free:
            charts, ext_segs = disks._charts(reg, q, r)
            assert charts[0] == (q, r)
            assert all((w.x, w.y) in tp.index for w, _R in charts[1:])
            ref_charts, ref_segs = _charts_all_corners(reg, q, r)
            assert charts[1:] == [c for c in ref_charts[1:] if (c[0].x, c[0].y) in tp.index]
            assert ext_segs == [s for s in ref_segs if (s[0].x, s[0].y) in tp.index]
        if r >= h.hull_center().radius - tp.tol.radius:
            continue    # decide answers from the hull disk, no intersection
        got = [_intersection(reg, c, r) for c in (pc.chain1, pc.chain2)]
        with monkeypatch.context() as m:
            m.setattr(disks, "_charts", _charts_all_corners)
            want = [_intersection(reg, c, r) for c in (pc.chain1, pc.chain2)]
        for g, w in zip(got, want):
            if any(x is None or isinstance(x, type) for x in (g, w)):
                assert g is w, (cell, r)
            else:
                assert g.point == w.point
                if not g.is_point:
                    assert _same_cycle(g.elements, w.elements, tp.tol), (cell, r)

    # the cascade answers the same on a fresh hull with every corner charted
    monkeypatch.setattr(disks, "_charts", _charts_all_corners)
    h_ref = geodesic_hull(tp, pts)
    for i, j, r, feasible, branch in decided:
        res = decision._decide(h_ref, i, j, r)
        assert (res.feasible, res.branch) == (feasible, branch), (cell, r)


# Intersections at radii no solve decides yet: (cell, pair, chain, r),
# scaled as `two_center` scales the instance.  `_assemble` cannot stitch
# the marked ones by endpoint distance (ROADMAP item 4); the random/48x6/s2
# chains stitch only on a hull ring that turns right at every extreme.
_STITCH = pytest.mark.xfail(strict=True, raises=BoundaryAssemblyError,
                            reason="boundary stitching defect")
STITCH_FAILURES = [
    (("random", 48, 6, 2), (0, 4), "chain1", 56.62330725241929, ()),
    (("random", 48, 6, 2), (0, 4), "chain2", 56.62330725241929, ()),
    (("comb", 48, 6, 0), (1, 4), "chain2", 25.845972118378846, _STITCH),
    (("comb", 16, 16, 0), (3, 6), "chain1", 21.994746813450554, _STITCH),
]


@pytest.mark.parametrize("cell,pair,chain,r", [
    pytest.param(*case[:4], marks=case[4],
                 id="{}/{}x{}/s{}-".format(*case[0]) + case[2])
    for case in STITCH_FAILURES])
def test_stitching_failures(cell, pair, chain, r):
    tp, pts = _scaled(cell)
    h = geodesic_hull(tp, pts)
    pc = decision.pair_chains(h, *pair)
    assert disks_intersection(h.hull_region, getattr(pc, chain), r) is not None
