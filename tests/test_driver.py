import itertools
import math
import random
import re
import warnings
from collections import Counter

import pytest
from hypothesis import given, strategies as st
from test_acceptance import FUZZ_SLICE

from twocenter import decision, disks, driver, optimize, region
from twocenter.cli import make_record, verify_record
from twocenter.decision import decide
from twocenter.driver import assistant_interval, candidate_pairs, two_center
from twocenter.errors import BoundaryAssemblyError, PointOutsidePolygon
from twocenter.geom import Point2, unique_points
from twocenter.instances import FAMILIES, generate
from twocenter.optimize import RadiusInterval, optimize_pair
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


@pytest.mark.parametrize("e", [-14, 0, 20])
def test_outside_check_is_scale_free(e):
    """Q is checked once, at the solve's scale: instances that differ by an
    exact power-of-two scaling are accepted or refused alike, and a refusal
    names the point as the caller passed it."""
    L = 2.0 ** e
    poly = SimplePolygon([Point2(0, 0), Point2(L, 0), Point2(L, L), Point2(0, L)])

    def points(delta):
        return [(L / 2, L / 2), (L / 4, L / 4), (L * (1 + delta), L / 2)]

    sol = two_center(poly, points(2.0 ** -40))
    assert sol.radius / L == 0.1767766952966369
    far = points(2.0 ** -20)[2]
    with pytest.raises(PointOutsidePolygon, match=re.escape(f"{far} outside")):
        two_center(poly, points(2.0 ** -20))


def test_scaling_invariance():
    big = SimplePolygon([Point2(v.x * 3, v.y * 3) for v in SQ4])
    sol = two_center(big, [Point2(q.x * 3, q.y * 3) for q in QSYM])
    assert abs(sol.radius - 3.0) <= 1e-9


def test_candidate_pairs_contain_axis_split(qsym_hull):
    h = qsym_hull
    pairs = candidate_pairs(h)
    keys = [(p.i, p.j) for p in pairs]
    assert sorted(keys) == list(itertools.combinations(range(h.k), 2))
    balances = [driver._balance(h, p.i, p.j) for p in pairs]
    assert balances == sorted(balances)
    # both diagonal splits of the symmetric square are optimal
    assert (0, 2) in keys and (1, 3) in keys


def test_assistant_interval_brackets_optimum(qsym_hull):
    iv = assistant_interval(qsym_hull)
    assert iv == RadiusInterval(0.0, qsym_hull.hull_center().radius)
    assert iv.lo < 1.0 <= iv.hi + 1e-12
    assert any(decide(qsym_hull, p.i, p.j, iv.hi).feasible
               for p in candidate_pairs(qsym_hull))


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
# arcless side as a side with no events fixes the two that still fail;
# random/16x8/s3 waits for perfbench/refs.json, which froze its larger
# radius.  random/48x6/s5 reaches its oracle radius: each pair searches
# from (0, hull radius], so a false "no" can only reject that pair's
# radius, not fix the interval every pair searches.  The other three
# reach it because each pair's search starts at its chains' one-center
# floor and gallops up, so it no longer decides the radii that answered
# the false "no".
_ANOMALY = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="no-arc-anomaly:n rejects a feasible split")
NO_ARC_ANOMALY = [
    (("random", 16, 8, 3), 22.332111164873137, [_ANOMALY]),
    (("comb", 48, 6, 3), 11.060028812948593, []),
    (("random", 48, 6, 5), 37.299961966925906, []),
    (("random", 48, 6, 3), 54.419981466965794, [_ANOMALY]),
    (("random", 20, 10, 1), 40.52755095834023, []),
    (("random", 24, 12, 1), 42.12539576374179, []),
]


@pytest.mark.parametrize("cell,oracle_radius", [
    pytest.param(cell, r, marks=marks, id="{}/{}x{}/s{}".format(*cell))
    for cell, r, marks in NO_ARC_ANOMALY])
def test_no_arc_anomaly_reaches_oracle(cell, oracle_radius):
    inst = generate(*cell)
    sol = two_center(SimplePolygon(inst.polygon), inst.points)
    assert sol.radius <= oracle_radius * (1 + 1e-9)


def test_convex_16x32_s2_solves():
    # pair (2, 6) at scaled r = 19.1094827... has 21 free points, more
    # than split enumeration runs on, so only the one-side witness can
    # decide it
    inst = generate("convex", 16, 32, 2)
    sol = two_center(SimplePolygon(inst.polygon), inst.points)
    verify_record(inst, make_record(sol, inst.points, 0))
    assert math.isclose(sol.radius, 38.21896542000993, rel_tol=1e-9)


def test_convex_16x32_s0_solves():
    # no pair search reaches a split with more than SPLIT_ENUM_CAP free
    # points that the one-side witness cannot decide
    inst = generate("convex", 16, 32, 0)
    sol = two_center(SimplePolygon(inst.polygon), inst.points)
    assert math.isclose(sol.radius, 24.84884635052105, rel_tol=1e-9)


def test_comb_16x32_s0_solves():
    # raised "cycle not closed: gap 0.0257" from disks._assemble while
    # every hull corner got a chart circle; no radius is asserted, since
    # the exact reference would need 2^31 splits
    inst = generate("comb", 16, 32, 0)
    sol = two_center(SimplePolygon(inst.polygon), inst.points)
    verify_record(inst, make_record(sol, inst.points, 0))


@pytest.mark.parametrize("cell", [("star", 12, 6, 2), ("comb", 16, 8, 2),
                                  ("random", 16, 8, 2), ("convex", 48, 6, 1),
                                  ("comb", 48, 6, 2)],
                         ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_solve_runs_no_two_point_funnel(cell, monkeypatch):
    inst = generate(*cell)
    poly = SimplePolygon(inst.polygon)
    want = two_center(poly, inst.points)
    # a solve reads only per-site maps, never a two-point path
    monkeypatch.setattr(region.Region, "path",
                        lambda *a: pytest.fail("two-point path in a solve"))
    got = two_center(poly, inst.points)
    assert (got.radius, got.c1, got.c2) == (want.radius, want.c1, want.c2)


@pytest.mark.parametrize("cell", [(f, 16, 8, s) for f in FAMILIES for s in range(4)]
                         + [(f, 48, 6, s) for f in FAMILIES for s in range(3)],
                         ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_solve_builds_site_maps_only_at_points_of_q(cell):
    # the cells of the solve-16x8 and solve-48x6 benchmark workloads; a
    # hull corner that is no point of Q is read from the points' own maps
    inst = generate(*cell)
    poly = SimplePolygon(inst.polygon)
    k = 2.0 ** round(math.log2(64.0 / poly.diameter))
    tp = triangulate(SimplePolygon([(v.x * k, v.y * k) for v in poly.vertices]))
    pts = [Point2(q.x * k, q.y * k) for q in inst.points]
    try:
        driver._solve_on(tp, pts)
    except BoundaryAssemblyError:
        pass    # random/16x8/s1 raises in every pass; its maps still count
    assert tp._site_maps and set(tp._site_maps) <= {(q.x, q.y) for q in pts}


def _pair_loop_without_stop(h):
    """`driver._solve_on`'s pair loop without its early stop: the best
    (radius, c1, c2, pair) over every candidate pair."""
    iv = assistant_interval(h)
    best = None
    for p in candidate_pairs(h):
        hi = iv.hi if best is None else min(iv.hi, best[0])
        got = optimize_pair(h, p.i, p.j, RadiusInterval(iv.lo, hi))
        if got is None:
            continue
        r, c1, c2 = got
        if best is None or r < best[0] - 1e-15:
            best = (r, c1, c2, p)
    return best


def test_pair_loop_stops_where_every_later_split_is_chain_infeasible(scaled_hull):
    # on the cells of the solve-16x8 and solve-48x6 benchmark workloads,
    # stopping drops only decisions that answer "chain-infeasible"
    dropped = 0
    for cell in ([(f, 16, 8, s) for f in FAMILIES for s in range(4)]
                 + [(f, 48, 6, s) for f in FAMILIES for s in range(3)]):
        inst = generate(*cell)
        poly = SimplePolygon(inst.polygon)
        k, h = scaled_hull(cell)
        stats = Counter()
        token = decision.BRANCH_COUNTS.set(stats)
        try:
            want = _pair_loop_without_stop(h)
        except BoundaryAssemblyError:
            with pytest.raises(BoundaryAssemblyError):
                two_center(poly, inst.points)
            continue
        finally:
            decision.BRANCH_COUNTS.reset(token)
        sol = two_center(poly, inst.points)
        r, c1, c2, p = want
        # the scale is a power of two, so unscaling is exact
        assert (sol.radius * k, sol.c1.x * k, sol.c1.y * k, sol.c2.x * k, sol.c2.y * k,
                sol.pair) == (r, c1.x, c1.y, c2.x, c2.y, p), cell
        dropped += stats.pop("chain-infeasible:n", 0)
        assert sol.branch_stats == dict(stats), cell
    assert dropped > 0


# the cells of scripts/corpus_outputs.py
CORPUS_CELLS = [(f, n, m, s) for n, m, seeds in ((12, 6, 6), (16, 8, 6), (48, 6, 6),
                                                  (20, 10, 3), (24, 12, 2))
                for f in FAMILIES for s in range(seeds)]


def _assert_split_order_sorted(h):
    want = sorted((driver._balance(h, i, j), i, j)
                  for i in range(h.k) for j in range(i + 1, h.k))
    assert list(driver.split_order(h)) == want
    assert [(p.i, p.j) for p in candidate_pairs(h)] == [(i, j) for _b, i, j in want]
    # each lazy prefix ends where the sorted list passes the same threshold
    for cut in {b for b, _i, _j in want}:
        got = []
        for split in driver.split_order(h):
            if split[0] > cut:
                break
            got.append(split)
        assert got == [w for w in want if w[0] <= cut]


def test_split_order_matches_sorted_balances_on_corpus_hulls(scaled_hull):
    for cell in CORPUS_CELLS:
        _k, h = scaled_hull(cell)
        if h.k >= 2:
            _assert_split_order_sorted(h)


@given(st.sampled_from(sorted(FAMILIES)), st.integers(6, 24), st.integers(3, 10),
       st.integers(0, 10_000))
def test_split_order_matches_sorted_balances(scaled_hull, fam, n, m, seed):
    _k, h = scaled_hull((fam, n, m, seed))
    if h.k >= 2:
        _assert_split_order_sorted(h)


def test_split_order_keeps_every_solve(monkeypatch):
    # solving with every balance sorted up front moves no output
    cells = [c for c in CORPUS_CELLS if c[1:3] in ((12, 6), (16, 8))]

    def outcome(cell):
        inst = generate(*cell)
        try:
            sol = two_center(SimplePolygon(inst.polygon), inst.points)
        except BoundaryAssemblyError as exc:
            return type(exc).__name__
        return (sol.radius, sol.c1, sol.c2, sol.pair, sol.branch_stats)

    lazy = [outcome(c) for c in cells]
    sorted_order = driver.split_order
    monkeypatch.setattr(driver, "split_order", lambda h: iter(list(sorted_order(h))))
    assert [outcome(c) for c in cells] == lazy


def test_split_order_solves_no_balance_past_the_stop(scaled_hull, monkeypatch):
    _k, h = scaled_hull(("convex", 16, 8, 0))
    solved = []
    plain = driver._balance
    monkeypatch.setattr(driver, "_balance",
                        lambda h, i, j: solved.append((i, j)) or plain(h, i, j))
    first = next(driver.split_order(h))
    assert first[1:] in solved and len(solved) < h.k * (h.k - 1) // 2


def _shared_vertex_ungated(h, i, j, r):
    """`decision.shared_vertex_decide` with every try solved."""
    pc = decision.pair_chains(h, i, j)
    tols = h.ambient.tol
    free = list(pc.free)
    for vx in unique_points([h.extreme(i), h.extreme(i + 1),
                             h.extreme(j), h.extreme(j + 1)]):
        for s1, s2 in ((free, []), ([], free)):
            d1 = disks.one_center(h.region, list(pc.chain1) + [vx] + s1)
            if d1.radius > r + tols.radius:
                continue
            d2 = disks.one_center(h.region, list(pc.chain2) + [vx] + s2)
            if d2.radius > r + tols.radius:
                continue
            if decision._coverage_ok(h.region, pc, r, d1.center, d2.center, tols.check):
                return d1.center, d2.center
    return None


def _coincidence_ungated(h, i, j, t, q1, q2, iv):
    """`optimize.pair_coincidence_radius` with chain + q1 + q2 always solved."""
    pc = decision.pair_chains(h, i, j)
    chain = pc.chain1 if t == 1 else pc.chain2
    region = h.region
    oc = disks.one_center(region, list(chain) + [q1, q2])
    tol = region.tp.tol.check

    def pinned(pts):
        return abs(max(region.site_map(e).distance(oc.center) for e in pts)
                   - oc.radius) <= tol

    if pinned([q1]) and pinned([q2]) and pinned(chain):
        return oc.radius if iv.contains(oc.radius) else None
    return None


def test_one_center_gates_skip_only_failing_solves(monkeypatch):
    """Each gate answers as its ungated form, and every one-center it
    skips is solved here anyway, with a radius above the value the
    skipped test compares it with; every coverage test that `disks._within`
    answers from the Euclidean distance is answered the same by the map
    distance."""
    fired = Counter()
    plain_shared = decision.shared_vertex_decide
    plain_coincidence = optimize.pair_coincidence_radius
    plain_within = disks._within

    def shared(h, i, j, r):
        got = plain_shared(h, i, j, r)
        assert got == _shared_vertex_ungated(h, i, j, r)
        pc = decision.pair_chains(h, i, j)
        tols = h.ambient.tol
        vxs = unique_points([h.extreme(i), h.extreme(i + 1),
                             h.extreme(j), h.extreme(j + 1)])
        for chain, far in zip((pc.chain1, pc.chain2), pc.far):
            if far > r + tols.radius + tols.near:
                fired["shared-vertex"] += 1
                for vx in vxs:
                    oc = disks.one_center(h.region, list(chain) + [vx] + list(pc.free))
                    assert oc.radius > r + tols.radius
        return got

    def coincidence(h, i, j, t, q1, q2, iv):
        got = plain_coincidence(h, i, j, t, q1, q2, iv)
        assert got == _coincidence_ungated(h, i, j, t, q1, q2, iv)
        fired["coincidence-value"] += got is not None
        pc = decision.pair_chains(h, i, j)
        chain = list(pc.chain1 if t == 1 else pc.chain2)
        if any(disks.one_center(h.region, chain + [q]).radius > iv.hi + h.ambient.tol.near
               for q in (q1, q2)):
            fired["coincidence"] += 1
            assert disks.one_center(h.region, chain + [q1, q2]).radius > iv.hi
        return got

    def within(reg, q, x, r, tol):
        got = plain_within(reg, q, x, r, tol)
        assert got == (reg.site_map(q).distance(x) <= r + tol)
        fired["euclidean"] += math.hypot(x[0] - q.x, x[1] - q.y) > r + tol
        return got

    monkeypatch.setattr(decision, "shared_vertex_decide", shared)
    monkeypatch.setattr(optimize, "pair_coincidence_radius", coincidence)
    monkeypatch.setattr(disks, "_within", within)
    # the last two hold splits whose coincidence radius is not None
    cells = ([c for c in CORPUS_CELLS if c[1:3] in ((12, 6), (16, 8), (48, 6))]
             + FUZZ_SLICE + [("convex", 12, 6, 8), ("random", 8, 8, 110)])
    for cell in cells:
        inst = generate(*cell)
        try:
            two_center(SimplePolygon(inst.polygon), inst.points)
        except BoundaryAssemblyError:
            pass
    assert min(fired[g] for g in ("shared-vertex", "coincidence", "coincidence-value",
                                  "euclidean")) > 0
