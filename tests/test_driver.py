import math
import random
import warnings

import pytest

from twocenter import decision, driver, region
from twocenter.decision import decide
from twocenter.driver import (CandidatePair, assistant_interval, candidate_pairs,
                              two_center)
from twocenter.errors import CertificateError, PointOutsidePolygon
from twocenter.geom import Point2
from twocenter.instances import generate
from twocenter.polygon import SimplePolygon, triangulate

SQ4 = [Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]
L6 = [Point2(0, 0), Point2(4, 0), Point2(4, 2), Point2(2, 2),
      Point2(2, 4), Point2(0, 4)]
QSYM = [Point2(1, 1), Point2(3, 1), Point2(3, 3), Point2(1, 3)]
L6_ARMS = [Point2(3, 1), Point2(3, 1.5), Point2(1, 3), Point2(1.5, 3)]


def _coverage(tp_region, sol, pts):
    return max(min(tp_region.distance(q, sol.c1), tp_region.distance(q, sol.c2))
               for q in pts)


def test_qsym_square():
    sol = two_center(SimplePolygon(SQ4), QSYM)
    assert abs(sol.radius - 1.0) <= 1e-9
    assert set(sol.assignment.values()) == {1, 2}
    assert all((q.x, q.y) in sol.assignment for q in QSYM)


def test_l6_arms():
    sol = two_center(SimplePolygon(L6), L6_ARMS)
    assert abs(sol.radius - 0.25) <= 1e-9
    labels = {(q.x, q.y): sol.assignment[(q.x, q.y)] for q in L6_ARMS}
    assert labels[(3, 1)] == labels[(3, 1.5)]
    assert labels[(1, 3)] == labels[(1.5, 3)]
    assert labels[(3, 1)] != labels[(1, 3)]


def test_collinear_three_points():
    sol = two_center(SimplePolygon(SQ4), [Point2(1, 2), Point2(2, 2), Point2(3, 2)])
    assert abs(sol.radius - 0.5) <= 1e-9


def test_geodesic_line_three_points():
    # (3,1), (2,2), (1,3) lie on one geodesic path around the notch
    sol = two_center(SimplePolygon(L6), [Point2(3, 1), Point2(2, 2), Point2(1, 3)])
    assert abs(sol.radius - math.sqrt(2) / 2) <= 1e-9


def test_two_sites_cost_zero():
    sol = two_center(SimplePolygon(SQ4), [Point2(1, 1), Point2(3, 3)])
    assert sol.radius == 0.0
    assert {(sol.c1.x, sol.c1.y), (sol.c2.x, sol.c2.y)} == {(1, 1), (3, 3)}


def test_repeated_single_site():
    sol = two_center(SimplePolygon(SQ4), [Point2(2, 2)] * 3)
    assert sol.radius == 0.0
    assert (sol.c1.x, sol.c1.y) == (2, 2) == (sol.c2.x, sol.c2.y)


def test_tuple_input_accepted():
    sol = two_center(SimplePolygon(SQ4), [(1.0, 1.0), (3.0, 1.0), (2.0, 3.0)])
    assert sol.radius > 0


def test_empty_and_outside_raise():
    with pytest.raises(PointOutsidePolygon):
        two_center(SimplePolygon(SQ4), [])
    with pytest.raises(PointOutsidePolygon):
        two_center(SimplePolygon(SQ4), [Point2(2, 2), Point2(5, 5)])
    with pytest.raises(PointOutsidePolygon):
        two_center(SimplePolygon(L6), [Point2(3, 3)])


def test_scaling_invariance():
    big = SimplePolygon([Point2(v.x * 3, v.y * 3) for v in SQ4])
    sol = two_center(big, [Point2(q.x * 3, q.y * 3) for q in QSYM])
    assert abs(sol.radius - 3.0) <= 1e-9


def test_candidate_pairs_contain_axis_split(qsym_hull):
    pairs = candidate_pairs(qsym_hull)
    assert pairs and len(pairs) <= 6
    keys = {(p.i, p.j) for p in pairs}
    assert all(0 <= p.i < p.j < qsym_hull.k for p in pairs)
    assert all(p.kind in ("Type1", "Type2") for p in pairs)
    # both diagonal splits of the symmetric square are optimal; at least
    # one must be offered
    assert (0, 2) in keys or (1, 3) in keys


def test_assistant_interval_brackets_optimum(qsym_hull):
    pairs = candidate_pairs(qsym_hull)
    iv = assistant_interval(qsym_hull, pairs)
    assert iv.lo < 1.0 <= iv.hi + 1e-12
    assert any(decide(qsym_hull, p.i, p.j, iv.hi).feasible for p in pairs)


def test_branch_stats_recorded():
    sol = two_center(SimplePolygon(SQ4), QSYM)
    assert decision.BRANCH_COUNTS.get() is None
    assert sol.branch_stats
    for key, cnt in sol.branch_stats.items():
        br, flag = key.rsplit(":", 1)
        assert flag in ("y", "n") and br and cnt > 0


def test_triangulates_once(monkeypatch):
    inst = generate("convex", 12, 6, 0)
    poly = SimplePolygon(inst.polygon)
    assert round(math.log2(64.0 / poly.diameter)) != 0   # two_center rescales
    calls = []

    def counting(p):
        calls.append(p)
        return triangulate(p)

    monkeypatch.setattr(driver, "triangulate", counting)
    two_center(poly, inst.points)
    assert len(calls) == 1


def test_determinism(solved_pool):
    si = solved_pool[3]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        again = two_center(si.poly, si.inst.points)
    assert again.radius == si.sol.radius
    assert (again.c1, again.c2) == (si.sol.c1, si.sol.c2)
    assert again.assignment == si.sol.assignment
    assert again.branch_stats == si.sol.branch_stats


def test_pool_certificates(solved_pool):
    for si in solved_pool:
        reg = si.hull.region
        sc = max(1.0, reg.diameter)
        cov = _coverage(reg, si.sol, si.pts)
        assert cov <= si.sol.radius * (1 + 1e-6) + 1e-9 * sc, si
        for c in (si.sol.c1, si.sol.c2):
            assert si.hull.hull_region.classify(c) != "outside", si
        assert set(si.sol.assignment.values()) <= {1, 2}
        assert all((q.x, q.y) in si.sol.assignment for q in si.pts)


def test_assignment_consistent_with_radius(solved_pool):
    for si in solved_pool:
        reg = si.hull.region
        sc = max(1.0, reg.diameter)
        tol = si.sol.radius * (1 + 1e-6) + 1e-9 * sc
        for q in si.pts:
            side = si.sol.assignment[(q.x, q.y)]
            c = si.sol.c1 if side == 1 else si.sol.c2
            assert reg.distance(q, c) <= tol, (si, q)


def test_not_locally_improvable(solved_pool):
    rng = random.Random(11)
    for si in solved_pool[:6]:
        reg = si.hull.region
        sc = max(1.0, reg.diameter)
        r = si.sol.radius
        if r == 0.0:
            continue
        floor = r * (1 - 1e-3) - 1e-9 * sc
        for _ in range(200):
            mag = sc * rng.choice((1e-4, 1e-3, 1e-2))
            cs = []
            for c in (si.sol.c1, si.sol.c2):
                a = rng.uniform(0, 2 * math.pi)
                cs.append(Point2(c.x + mag * math.cos(a), c.y + mag * math.sin(a)))
            if any(reg.classify(c) == "outside" for c in cs):
                continue
            got = max(min(reg.distance(q, cs[0]), reg.distance(q, cs[1]))
                      for q in si.pts)
            assert got >= floor, (si, cs, got, r)


# Oracle radii of instances where decide answers "no-arc-anomaly:n" at
# feasible radii: one side's disk intersection has no arcs, the coverage
# check of the hull center fails, and the split the oracle finds optimal
# is rejected, so two_center returns a larger radius.  Treating an
# arcless side as a side with no events fixes all four; random/16x8/s3
# waits for perfbench/refs.json, which froze its larger radius.
NO_ARC_ANOMALY = [
    (("random", 16, 8, 3), 22.332111164873137),
    (("comb", 48, 6, 3), 11.060028812948593),
    (("random", 48, 6, 5), 37.299961966925906),
    (("random", 48, 6, 3), 54.419981466965794),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no-arc-anomaly:n rejects a feasible split")
@pytest.mark.parametrize("cell,oracle_radius", NO_ARC_ANOMALY,
                         ids=[f"{f}/{n}x{m}/s{s}"
                              for (f, n, m, s), _ in NO_ARC_ANOMALY])
def test_no_arc_anomaly_reaches_oracle(cell, oracle_radius):
    inst = generate(*cell)
    sol = two_center(SimplePolygon(inst.polygon), inst.points)
    assert sol.radius <= oracle_radius * (1 + 1e-9)


def test_undecided_split_raises():
    # convex/16x32/s0 reaches a split whose scan finds no witness with
    # more free points than split enumeration runs on; returning a radius
    # anyway gave 26.3083 where the solver can certify 24.8488
    inst = generate("convex", 16, 32, 0)
    with pytest.raises(CertificateError, match="SPLIT_ENUM_CAP"):
        two_center(SimplePolygon(inst.polygon), inst.points)


@pytest.mark.filterwarnings("ignore:event structure varies")
@pytest.mark.parametrize("cell", [("star", 12, 6, 2), ("comb", 16, 8, 2),
                                  ("random", 16, 8, 2), ("convex", 48, 6, 1),
                                  ("comb", 48, 6, 2)],
                         ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_solve_runs_no_two_point_funnel(cell, monkeypatch):
    inst = generate(*cell)
    poly = SimplePolygon(inst.polygon)
    want = two_center(poly, inst.points)
    extensions = []
    extension_point = region.Region.extension_point

    def counting(self, frm, to):
        extensions.append((frm, to))
        return extension_point(self, frm, to)

    monkeypatch.setattr(region.Region, "extension_point", counting)
    monkeypatch.setattr(region, "_funnel",
                        lambda *a: pytest.fail("two-point funnel in a solve"))
    got = two_center(poly, inst.points)
    assert extensions    # the shared-vertex search ran
    assert (got.radius, got.c1, got.c2) == (want.radius, want.c1, want.c2)
