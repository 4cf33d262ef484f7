import math
from fractions import Fraction

from hypothesis import assume, given, strategies as st

from twocenter import geom
from twocenter.geom import (EPS, TAU, Point2, angle_of,
                            circle_circle_intersections, cw_delta, dist,
                            orientation, point_at, seg_point_distance,
                            segments_properly_cross)

coords = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


# orientation as it was before the float filter for near-zero determinants:
# every determinant inside the tolerance goes to Fraction
def _orientation_ref(a, b, c, eps: float = EPS) -> int:
    """Sign of the turn a->b->c: +1 left, -1 right, 0 straight.

    The float determinant is recomputed exactly (via Fraction) when it falls
    inside its rounding-error bound, so the sign is never wrong; a result of
    0 means the exact value is within eps * scale of zero, where scale is the
    largest coordinate magnitude involved.
    """
    t1 = (b[0] - a[0]) * (c[1] - a[1])
    t2 = (b[1] - a[1]) * (c[0] - a[0])
    det = t1 - t2
    scale = max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]),
                abs(c[0]), abs(c[1]), 1e-30)
    tol = eps * scale
    err = 3.331e-16 * (abs(t1) + abs(t2))
    if abs(det) > max(tol, err):
        return 1 if det > 0.0 else -1
    de = (Fraction(b[0]) - Fraction(a[0])) * (Fraction(c[1]) - Fraction(a[1])) \
        - (Fraction(b[1]) - Fraction(a[1])) * (Fraction(c[0]) - Fraction(a[0]))
    if abs(de) <= tol:
        return 0
    return 1 if de > 0 else -1


# orientation before its float filter was written out over local
# coordinates, kept verbatim: the rewrite must give its answers bit for bit
def _orientation_parent(a, b, c) -> int:
    t1 = (b[0] - a[0]) * (c[1] - a[1])
    t2 = (b[1] - a[1]) * (c[0] - a[0])
    det = t1 - t2
    scale = max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]),
                abs(c[0]), abs(c[1]), 1e-30)
    tol = EPS * scale
    err = 3.331e-16 * (abs(t1) + abs(t2))
    if abs(det) > max(tol, err):
        return 1 if det > 0.0 else -1
    if abs(det) + err <= 0.5 * tol:
        return 0
    de = (Fraction(b[0]) - Fraction(a[0])) * (Fraction(c[1]) - Fraction(a[1])) \
        - (Fraction(b[1]) - Fraction(a[1])) * (Fraction(c[0]) - Fraction(a[0]))
    if abs(de) <= tol:
        return 0
    return 1 if de > 0 else -1


def _reaches_fraction(a, b, c) -> bool:
    """The parent's float filter leaves the triple to its Fraction path."""
    t1 = (b[0] - a[0]) * (c[1] - a[1])
    t2 = (b[1] - a[1]) * (c[0] - a[0])
    det = t1 - t2
    tol = EPS * max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]),
                    abs(c[0]), abs(c[1]), 1e-30)
    err = 3.331e-16 * (abs(t1) + abs(t2))
    return not abs(det) > max(tol, err) and not abs(det) + err <= 0.5 * tol


def _assert_orientation_matches_parent(a, b, c):
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c)):
        assert orientation(u, v, w) == _orientation_parent(u, v, w), (u, v, w)
        assert orientation(tuple(u), tuple(v), tuple(w)) == _orientation_parent(u, v, w)


wide = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


@given(st.one_of(coords, wide), st.one_of(coords, wide), st.one_of(coords, wide),
       st.one_of(coords, wide), st.one_of(coords, wide), st.one_of(coords, wide))
def test_orientation_matches_parent_on_random_triples(ax, ay, bx, by, cx, cy):
    _assert_orientation_matches_parent(Point2(ax, ay), Point2(bx, by), Point2(cx, cy))


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(-10**3, 10**3), st.integers(-10**3, 10**3),
       st.integers(-5, 5), st.integers(-5, 5), st.sampled_from([2.0 ** -20, 1.0, 2.0 ** 20]),
       coords, coords, coords)
def test_orientation_matches_parent_on_collinear_triples(x, y, dx, dy, s, t, mag,
                                                        ax, ay, f):
    # exactly collinear: integer points on one line, scaled by a power of
    # two; and rounded points along a float line
    a = Point2(x * mag, y * mag)
    b = Point2((x + s * dx) * mag, (y + s * dy) * mag)
    c = Point2((x + t * dx) * mag, (y + t * dy) * mag)
    _assert_orientation_matches_parent(a, b, c)
    p, q = Point2(ax, ay), Point2(ay, f)
    g = (f + 50.0) / 100.0
    _assert_orientation_matches_parent(p, q, Point2(p.x + g * (q.x - p.x), p.y + g * (q.y - p.y)))


@given(coords, coords, coords, coords, st.floats(-0.5, 1.5), st.floats(0.55, 0.95),
       st.sampled_from([1.0, -1.0]), st.sampled_from([1e-3, 1.0, 1e3]))
def test_orientation_matches_parent_in_the_fraction_sliver(ax, ay, bx, by, s, f, sign, mag):
    # c at a signed height that puts the determinant between half the
    # tolerance and the tolerance, where the float filter cannot decide
    ax, ay, bx, by = ax * mag, ay * mag, bx * mag, by * mag
    a, b = Point2(ax, ay), Point2(bx, by)
    L = dist(a, b)
    assume(L > 1e-6 * mag)
    nx, ny = -(by - ay) / L, (bx - ax) / L
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), 1e-30)
    h = sign * f * EPS * scale / L
    c = Point2(ax + s * (bx - ax) + h * nx, ay + s * (by - ay) + h * ny)
    assume(_reaches_fraction(a, b, c))
    _assert_orientation_matches_parent(a, b, c)


def test_orientation_signs():
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 1
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(2, 0)) == 0
    assert orientation(Point2(0, 0), Point2(0, 1), Point2(1, 1)) == -1


@given(coords, coords, coords, coords, coords, coords)
def test_orientation_antisymmetry(ax, ay, bx, by, cx, cy):
    a, b, c = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
    assert orientation(a, b, c) == -orientation(a, c, b)


@given(coords, coords, coords, coords, st.floats(-0.5, 1.5),
       st.floats(-3.0, 3.0), st.sampled_from([1e-3, 1.0, 1e8]))
def test_orientation_filter_matches_reference(ax, ay, bx, by, s, f, mag):
    # c sits at signed height h off line ab, with h chosen so that the
    # determinant |ab| * h lands at f * EPS * scale: on both sides of the
    # tolerance and of the filter's half-tolerance cut.  At mag 1e8 the
    # rounding bound exceeds the tolerance.
    ax, ay, bx, by = ax * mag, ay * mag, bx * mag, by * mag
    a, b = Point2(ax, ay), Point2(bx, by)
    L = dist(a, b)
    assume(L > 0.0)
    nx, ny = -(by - ay) / L, (bx - ax) / L
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), 1e-30)
    h = f * EPS * scale / L
    c = Point2(ax + s * (bx - ax) + h * nx, ay + s * (by - ay) + h * ny)
    assert orientation(a, b, c) == _orientation_ref(a, b, c)
    assert orientation(a, c, b) == _orientation_ref(a, c, b)


def test_orientation_fraction_only_in_sliver(monkeypatch):
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(geom, "Fraction", counting_fraction)
    # exactly collinear: the float filter decides, no Fraction is built
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(2, 0)) == 0
    assert orientation(Point2(0, 0), Point2(1, 1), Point2(3, 3)) == 0
    assert made == []
    # 0.5 * tol < |det| <= tol: only the exact path can tell it is within tol
    assert orientation(Point2(0, 0), Point2(1, 0), Point2(0.5, 0.75e-9)) == 0
    assert made


def test_cw_delta_basics():
    assert cw_delta(1.0, 1.0) == 0.0
    assert math.isclose(cw_delta(1.0, 0.5), 0.5)
    assert math.isclose(cw_delta(0.5, 1.0), TAU - 0.5)


@given(st.floats(0, TAU), st.floats(0, TAU))
def test_cw_delta_range(a, b):
    d = cw_delta(a, b)
    assert 0.0 <= d < TAU + 1e-12


def test_point_at_roundtrip():
    c = Point2(2, -1)
    for ang in (0.0, 1.0, 3.0, 5.5):
        p = point_at(c, 2.5, ang)
        assert math.isclose(dist(c, p), 2.5)
        assert math.isclose(cw_delta(angle_of(c, p), ang), 0.0, abs_tol=1e-9) \
            or math.isclose(cw_delta(angle_of(c, p), ang), TAU, abs_tol=1e-9)


def test_segment_point_distance():
    a, b = Point2(0, 0), Point2(4, 0)
    assert seg_point_distance(Point2(2, 3), a, b) == 3.0
    assert seg_point_distance(Point2(-3, 4), a, b) == 5.0
    assert seg_point_distance(Point2(1, 0), a, b) == 0.0


def test_proper_crossing():
    assert segments_properly_cross(Point2(0, 0), Point2(2, 2),
                                   Point2(0, 2), Point2(2, 0))
    # shared endpoint is not a proper crossing
    assert not segments_properly_cross(Point2(0, 0), Point2(2, 2),
                                       Point2(2, 2), Point2(3, 0))


def test_circle_circle():
    hits = circle_circle_intersections(Point2(0, 0), 1.0, Point2(1, 0), 1.0)
    assert len(hits) == 2
    for h in hits:
        assert math.isclose(dist(h, Point2(0, 0)), 1.0, abs_tol=1e-12)
        assert math.isclose(dist(h, Point2(1, 0)), 1.0, abs_tol=1e-12)
    assert circle_circle_intersections(Point2(0, 0), 1.0, Point2(5, 0), 1.0) == []
