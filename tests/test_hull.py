import math

import pytest
from hypothesis import given, strategies as st

from twocenter import hull
from twocenter.disks import one_center
from twocenter.errors import HullConvergenceError
from twocenter.geom import Point2, orientation, ring_contains, unique_points
from twocenter.hull import geodesic_hull
from twocenter.instances import generate
from twocenter.polygon import SimplePolygon, triangulate

SQRT2 = math.sqrt(2.0)
QSYM = [Point2(1, 1), Point2(1, 3), Point2(3, 3), Point2(3, 1)]


def _keyset(pts):
    return {(p.x, p.y) for p in pts}


def test_qsym_hull_is_small_square(qsym_hull):
    h = qsym_hull
    assert h.k == 4
    assert _keyset(h.extremes) == _keyset(QSYM)
    assert _keyset(h.ring) == _keyset(QSYM)
    assert h.interior_points == [] and h.boundary_points == []


def test_qsym_hull_clockwise_order(qsym_hull):
    idx = {(p.x, p.y): i for i, p in enumerate(qsym_hull.extremes)}
    # clockwise cyclic order around the small square
    cw = [(1, 1), (1, 3), (3, 3), (3, 1)]
    start = idx[cw[0]]
    k = qsym_hull.k
    assert [idx[c] for c in cw] == [(start + d) % k for d in range(4)]


def test_l6_three_point_hull(l6_tp):
    pts = [Point2(1, 1), Point2(3, 1), Point2(1, 3)]
    h = geodesic_hull(l6_tp, pts)
    assert h.k == 3
    # the (3,1)->(1,3) edge bends at the reflex corner
    assert (2.0, 2.0) in _keyset(h.ring)
    assert len(h.ring) == 4


def test_collinear_hull_degenerates(sq4_tp):
    pts = [Point2(1, 1), Point2(2, 1), Point2(3, 1)]
    h = geodesic_hull(sq4_tp, pts)
    assert _keyset(h.extremes) == {(1, 1), (3, 1)}
    assert h.interior_points == []
    assert _keyset(h.boundary_points) == {(2, 1)}


def test_chain_extremes(qsym_hull):
    h = qsym_hull
    assert h.chain_extremes(0, 1) == [h.extremes[0], h.extremes[1]]
    assert h.chain_extremes(2, 0) == [h.extremes[2], h.extremes[3],
                                      h.extremes[0]]
    assert h.chain_extremes(1, 1) == [h.extremes[1]]


def chain_corners(h, a: int, b: int):
    """Reference for `GeodesicHull.chain_radius`: the distinct corners, in
    ring order, of the subregion between the clockwise boundary portion
    v_a -> v_b and the geodesic from v_b back to v_a."""
    a %= h.k
    b %= h.k
    if a == b:
        return [h.extremes[a]]
    closing = h.region.site_map(h.extremes[b]).path(h.extremes[a])
    return unique_points(h.boundary_portion(a, b) + closing[1:-1])


def test_chain_corners_adjacent(qsym_hull):
    idx = {(p.x, p.y): i for i, p in enumerate(qsym_hull.extremes)}
    a, b = idx[(1, 1)], idx[(1, 3)]
    if (a + 1) % 4 != b:
        a, b = b, a
    assert _keyset(chain_corners(qsym_hull, a, b)) == {(1, 1), (1, 3)}
    assert chain_corners(qsym_hull, a, a) == [qsym_hull.extremes[a]]


def test_chain_corners_diagonal_half(qsym_hull):
    idx = {(p.x, p.y): i for i, p in enumerate(qsym_hull.extremes)}
    corners = chain_corners(qsym_hull, idx[(1, 1)], idx[(3, 3)])
    assert corners[0] == Point2(1, 1)
    assert len(corners) == 3 and _keyset(corners) == {(1, 1), (1, 3), (3, 3)}


def test_chain_radius_values(qsym_hull):
    idx = {(p.x, p.y): i for i, p in enumerate(qsym_hull.extremes)}
    a, b = idx[(1, 1)], idx[(1, 3)]
    if (a + 1) % 4 != b:
        a, b = b, a
    assert qsym_hull.chain_radius(a, b) == pytest.approx(1.0)
    # three extremes spanning half the square have circumradius sqrt(2)
    c = (b + 1) % 4
    assert qsym_hull.chain_radius(a, c) == pytest.approx(SQRT2)


def _solver_hull(cell):
    """The hull of a generated instance, scaled as two_center scales it."""
    inst = generate(*cell)
    poly = SimplePolygon(inst.polygon)
    s = 2.0 ** round(math.log2(64.0 / poly.diameter))
    poly = SimplePolygon([(v.x * s, v.y * s) for v in poly.vertices])
    return geodesic_hull(triangulate(poly), [Point2(q.x * s, q.y * s) for q in inst.points])


_CHAIN_RADIUS_CELLS = [(fam, n, m, s) for fam in ("convex", "star", "comb", "random")
                       for n, m in ((16, 8), (48, 6)) for s in range(6)]


@pytest.mark.parametrize("cell", _CHAIN_RADIUS_CELLS, ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_chain_radius_matches_corners(cell):
    # the chain's extremes set the radius of all its corners, bit for bit
    h = _solver_hull(cell)
    for a in range(h.k):
        for b in range(h.k):
            want = one_center(h.region, chain_corners(h, a, b)).radius if a != b else 0.0
            assert h.chain_radius(a, b) == want, (a, b)


def test_chain_radius_monotone(arms_hull):
    h = arms_hull
    for i in range(h.k):
        for d in range(1, h.k - 1):
            j = (i + d) % h.k
            jn = (j + 1) % h.k
            assert h.chain_radius(i, j) <= h.chain_radius(i, jn) + 1e-9
            assert h.chain_radius(i, j) >= h.chain_radius((i + 1) % h.k, j) - 1e-9


@given(st.integers(0, 150))
def test_hull_contains_all_points(seed):
    inst = generate(("star", "comb", "random")[seed % 3], 8 + seed % 9,
                    3 + seed % 6, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    h = geodesic_hull(tp, inst.points)
    sc = max(1.0, tp.diameter)
    assert _keyset(h.extremes) <= _keyset(inst.points)
    if h.k >= 3:
        for q in inst.points:
            assert ring_contains(q, h.ring, 1e-7 * sc) != "outside"
    split = len(h.interior_points) + len(h.boundary_points) + h.k
    assert split == len(_keyset(inst.points))


@given(st.integers(0, 150))
def test_hull_idempotent(seed):
    inst = generate(("star", "random")[seed % 2], 8 + seed % 9,
                    3 + seed % 6, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    h1 = geodesic_hull(tp, inst.points)
    h2 = geodesic_hull(tp, list(h1.extremes) + list(h1.interior_points)
                       + list(h1.boundary_points))
    assert _keyset(h1.extremes) == _keyset(h2.extremes)
    assert [(p.x, p.y) for p in h1.extremes] == [(p.x, p.y) for p in h2.extremes]


@given(st.integers(0, 150))
def test_hull_geodesically_convex(seed):
    """Paths between member points stay inside the hull ring."""
    inst = generate(("star", "comb", "random")[seed % 3], 8 + seed % 9,
                    4, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    h = geodesic_hull(tp, inst.points)
    if h.k < 3:
        return
    sc = max(1.0, tp.diameter)
    pts = inst.points
    for a in pts:
        for b in pts:
            for w in h.region.path(a, b):
                assert ring_contains(w, h.ring, 1e-7 * sc) != "outside"


# Beside the 16x8 grid, hulls with a site in a pocket behind a reflex
# vertex shared by two hull paths: a hull order repaired from the
# Euclidean one turns left at an extreme on each of them.
_LEFT_TURN_CELLS = [("comb", 12, 6, 5), ("comb", 16, 8, 8), ("comb", 24, 12, 2),
                    ("comb", 48, 6, 6), ("random", 16, 16, 1), ("random", 20, 10, 4),
                    ("random", 48, 6, 2), ("random", 48, 6, 6), ("random", 48, 6, 8)]
_HULL_ORDER_GRID = [(fam, 16, 8, s) for fam in ("convex", "star", "comb", "random")
                    for s in range(6)]
_HULL_ORDER_CELLS = _HULL_ORDER_GRID + _LEFT_TURN_CELLS


def _turns_right_at_every_extreme(h) -> bool:
    ring, n = h.ring, len(h.ring)
    return all(orientation(ring[i - 1], ring[i], ring[(i + 1) % n]) <= 0 for i in h.pos)


@pytest.mark.parametrize("cell", _HULL_ORDER_CELLS, ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_ring_turns_right_at_every_extreme(cell):
    assert _turns_right_at_every_extreme(_solver_hull(cell))


def test_wrap_closes_around_a_doubled_corridor():
    # unscaled random/13x8/s149: its smallest (x, y) point is not an
    # extreme, and the hull's corridor passes to its left
    inst = generate("random", 13, 8, 149)
    h = geodesic_hull(triangulate(SimplePolygon(inst.polygon)), inst.points)
    assert h.k == 5
    assert _turns_right_at_every_extreme(h)
    assert (23.446864233287805, 18.1950199007627) in _keyset(h.interior_points)


def test_wrap_drops_extremes_inside_a_shorter_ring():
    # a longer ring through these two points also turns right at every
    # extreme, but the relative hull of random/15x6/s147 holds them inside
    h = _solver_hull(("random", 15, 6, 147))
    assert h.k == 4
    assert _turns_right_at_every_extreme(h)
    assert {(44.387485847553606, 26.249028804002755),
            (38.837318648789505, 33.64908100148236)} <= _keyset(h.interior_points)


def test_wrap_that_does_not_close_raises(monkeypatch, sq4_tp):
    # a step that always keeps the first candidate cycles between two
    # points that are not the start
    monkeypatch.setattr(hull, "_left_of", lambda sm, pa, pb: False)
    with pytest.raises(HullConvergenceError):
        geodesic_hull(sq4_tp, QSYM)


def _hull_center_against_corners(h) -> None:
    # a geodesic disk is geodesically convex, so the extremes set the
    # smallest disk over the whole ring
    got = h.hull_center().radius
    want = one_center(h.region, h.hull_region.corners).radius
    assert got == pytest.approx(want, rel=0.0, abs=h.ambient.tol.radius)


def test_hull_center_from_extremes_small(qsym_hull, arms_hull, sq4_tp, l6_tp):
    # the l6 three-point hull bends at the reflex corner (2, 2), no point of Q
    for h in (qsym_hull, arms_hull,
              geodesic_hull(l6_tp, [Point2(1, 1), Point2(3, 1), Point2(1, 3)]),
              geodesic_hull(sq4_tp, [Point2(1, 1), Point2(2, 1), Point2(3, 1)])):
        _hull_center_against_corners(h)


@pytest.mark.parametrize("cell", sorted(set(_CHAIN_RADIUS_CELLS) | set(_HULL_ORDER_CELLS)),
                         ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_hull_center_from_extremes(cell):
    _hull_center_against_corners(_solver_hull(cell))
