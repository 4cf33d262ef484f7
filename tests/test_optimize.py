import math
import types
import warnings
from collections import Counter
from itertools import combinations

import pytest

import twocenter.decision as dec
import twocenter.driver as drv
import twocenter.optimize as opt
from twocenter.driver import assistant_interval, candidate_pairs, two_center
from twocenter.disks import one_center
from twocenter.errors import BoundaryAssemblyError, CertificateError, InfeasibleInterval
from twocenter.geom import Point2, dist, quadratic_roots, unique_points
from twocenter.hull import geodesic_hull
from twocenter.instances import FAMILIES, generate
from twocenter.polygon import SimplePolygon, triangulate

from test_acceptance import _exact_radius
from test_decision import CORPUS_CELLS

SQRT2 = math.sqrt(2.0)


def _axis_pair(h):
    idx = {(p.x, p.y): i for i, p in enumerate(h.extremes)}
    i, j = idx[(1, 3)], idx[(3, 1)]
    pc = dec.pair_chains(h, i, j)
    if {(p.x, p.y) for p in pc.chain1} != {(1, 1), (1, 3)}:
        i, j = j, i
    return i, j


def _square6_hull(extra=()):
    sq6 = SimplePolygon([Point2(0, 0), Point2(6, 0), Point2(6, 6), Point2(0, 6)])
    tp = triangulate(sq6)
    pts = [Point2(1, 2), Point2(1, 4), Point2(5, 2), Point2(5, 4)]
    pts += [Point2(*e) for e in extra]
    return geodesic_hull(tp, pts)


def test_interval_shape():
    iv = opt.RadiusInterval(1.0, 2.0)
    assert not iv.contains(1.0)
    assert iv.contains(1.5)
    assert iv.contains(2.0)
    assert not iv.contains(2.0000001)
    with pytest.raises(ValueError):
        opt.RadiusInterval(2.0, 2.0)
    with pytest.raises(ValueError):
        opt.RadiusInterval(3.0, 2.0)


def test_critical_set_dedup():
    # an interval end within tol.radius above the pair radius merges into it
    h = _square6_hull(extra=[(2 + SQRT2, 3), (3, 4)])
    rho = opt.pair_coincidence_radius(h, 1, 3, 1, Point2(2 + SQRT2, 3), Point2(3, 4),
                                      opt.RadiusInterval(1e-9, 3.0))
    eps = h.ambient.tol.radius
    hi = rho + eps / 2
    assert hi > rho
    vals = opt.critical_radius_set(h, 1, 3, opt.RadiusInterval(1e-9, hi))
    assert rho in vals and hi not in vals
    assert all(b - a > eps for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 16])
def test_leftmost_feasible(n, monkeypatch):
    values = [float(v) for v in range(n)]
    calls = []

    def decide(h, i, j, r):
        calls.append(r)
        return dec.DecisionResult(r >= cut, "stub", (Point2(r, 0), Point2(r, 0)))

    monkeypatch.setattr(opt, "decide", decide)
    monkeypatch.setattr(opt, "pair_chains", lambda h, i, j: None)
    # all infeasible, a mixed run at every cut, all feasible, each from
    # several chain floors at or below the cut
    for cut in [n + 0.5] + [k - 0.5 for k in range(1, n)] + [-1.0]:
        want = next((k for k, v in enumerate(values) if v >= cut), n)
        for start in sorted({0, want // 2, max(want - 1, 0), want}):
            calls.clear()
            monkeypatch.setattr(opt, "chain_infeasible", lambda h, pc, r: r < start)
            k, res = opt._leftmost_feasible(None, 0, 1, values)
            assert k == want
            if k == n:
                assert res is None
            else:
                assert res.feasible and res.centers[0].x == values[k]
            assert all(r >= start for r in calls)   # values[k] == k
            assert len(calls) <= 2 * math.ceil(math.log2(k - start + 1)) + 1
            if start == k < n:
                assert len(calls) == 1


def test_interval_candidates_hit_optimum(qsym_hull):
    i, j = _axis_pair(qsym_hull)
    vals = opt.interval_candidates(qsym_hull, i, j)
    assert any(abs(v - 1.0) <= 1e-9 for v in vals)


def test_narrow_interval_brackets_optimum(qsym_hull):
    i, j = _axis_pair(qsym_hull)
    nv, top = opt.narrow_interval(qsym_hull, i, j, opt.RadiusInterval(1e-9, 2.0))
    assert nv.lo < 1.0 <= nv.hi + 1e-12
    assert nv.hi <= 1.0 + 1e-9
    assert top == dec.decide(qsym_hull, i, j, nv.hi) and top.feasible
    with pytest.raises(InfeasibleInterval):
        opt.narrow_interval(qsym_hull, i, j, opt.RadiusInterval(1e-9, 0.9))


def test_narrow_interval_probes_once(monkeypatch):
    # star/12x6/s1 has a pair whose probes disagree: one probe round that
    # stops at the first signature that differs, then a search that
    # decides only the gap's ends and the probes; the round decides a
    # probe, and none twice (its bound settle rule decides the largest
    # before that search)
    inst = generate("star", 12, 6, 1)
    calls, searches, asked = [], [], []
    event_signature = opt._event_signature
    leftmost_feasible = opt._leftmost_feasible
    plain_decide = opt.decide

    def asking(h, i, j, r):
        asked.append(((i, j), r))
        return plain_decide(h, i, j, r)

    def counting(h, pc, r):
        sig = event_signature(h, pc, r)
        calls.append((r, sig))
        return sig

    def recording(h, i, j, values):
        decided = []
        plain = opt.decide

        def spy(h_, i_, j_, r):
            decided.append(r)
            return plain(h_, i_, j_, r)

        opt.decide = spy
        try:
            k, res = leftmost_feasible(h, i, j, values)
        finally:
            opt.decide = plain
        searches.append(((i, j), values, k, decided))
        return k, res

    monkeypatch.setattr(opt, "decide", asking)
    monkeypatch.setattr(opt, "_event_signature", counting)
    monkeypatch.setattr(opt, "_leftmost_feasible", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        two_center(SimplePolygon(inst.polygon), inst.points)
    sigs = [sig for _r, sig in calls]
    assert 2 <= len(sigs) <= 3
    assert all(sig == sigs[0] for sig in sigs[:-1]) and sigs[-1] != sigs[0]
    probes = [r for r, _sig in calls]
    lo, hi = min(probes), max(probes)
    # the second search of the probed pair is the one whose values hold
    # the probes; the search before it is that pair's first
    second = next(t for t, s in enumerate(searches) if lo in s[1])
    pair, first_values, k, _ = searches[second - 1]
    assert searches[second][0] == pair
    out_lo = first_values[k - 1] if k else None
    out_hi = first_values[k] if k < len(first_values) else None
    allowed = {out_lo, out_hi, *probes}
    assert set(searches[second][1]) <= allowed
    assert set(searches[second][3]) <= allowed
    at_probes = [r for p, r in asked if p == pair and r in probes]
    assert at_probes and len(at_probes) == len(set(at_probes))
    assert out_lo is None or out_lo < lo and hi < out_hi


@pytest.mark.parametrize("fam", FAMILIES)
def test_search_starts_at_chain_floor(fam, monkeypatch):
    # over the solve-16x8 instances, each search that returns starts at
    # the first value that decide does not answer "chain-infeasible"
    leftmost_feasible, plain_decide = opt._leftmost_feasible, opt.decide
    decided, seen = [], []

    def spy(h, i, j, r):
        decided.append(r)
        return plain_decide(h, i, j, r)

    def recording(h, i, j, values):
        before = len(decided)
        got = leftmost_feasible(h, i, j, values)
        asked = decided[before:]
        start = values.index(min(asked)) if asked else len(values)
        seen.append((h, i, j, list(values), start))
        return got

    monkeypatch.setattr(opt, "decide", spy)
    monkeypatch.setattr(opt, "_leftmost_feasible", recording)
    for s in range(4):
        inst = generate(fam, 16, 8, s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                two_center(SimplePolygon(inst.polygon), inst.points)
            except BoundaryAssemblyError:
                pass
    assert seen
    for h, i, j, values, start in seen:
        branches = [dec.decide(h, i, j, r).branch for r in values[:start + 1]]
        assert branches[:start] == ["chain-infeasible"] * start
        assert start == len(values) or branches[start] != "chain-infeasible"


def test_optimize_axis_pair(qsym_hull):
    i, j = _axis_pair(qsym_hull)
    got = opt.optimize_pair(qsym_hull, i, j, opt.RadiusInterval(1e-9, 2.0))
    assert got is not None
    r, c1, c2 = got
    assert abs(r - 1.0) <= 1e-9
    centers = sorted([(round(c1.x, 6), round(c1.y, 6)),
                      (round(c2.x, 6), round(c2.y, 6))])
    assert centers == [(1.0, 2.0), (3.0, 2.0)]


def test_optimize_lone_extreme_pair(qsym_hull):
    # peel off one extreme; the remaining 3-point chain costs sqrt(2)
    got = opt.optimize_pair(qsym_hull, 0, 1, opt.RadiusInterval(1e-9, 2.0))
    assert got is not None
    assert abs(got[0] - SQRT2) <= 1e-9


def test_optimize_infeasible_interval(qsym_hull):
    i, j = _axis_pair(qsym_hull)
    assert opt.optimize_pair(qsym_hull, i, j, opt.RadiusInterval(1e-9, 0.9)) is None


def test_optimize_with_free_point():
    # free point (2.5,3) pulls the left center right of the chain bisector:
    # sqrt((x-1)^2+1) = 2.5-x gives x = 17/12, radius 13/12
    h = _square6_hull(extra=[(2.5, 3)])
    got = opt.optimize_pair(h, 1, 3, opt.RadiusInterval(1e-9, 2.0))
    assert got is not None
    r, c1, c2 = got
    assert abs(r - 13.0 / 12.0) <= 1e-6
    reg = h.region
    pc = dec.pair_chains(h, 1, 3)
    assert max(reg.distance(c1, p) for p in pc.chain1) <= r + 1e-9
    assert max(reg.distance(c2, p) for p in pc.chain2) <= r + 1e-9
    q = pc.free[0]
    assert min(reg.distance(c1, q), reg.distance(c2, q)) <= r + 1e-9


def test_pair_coincidence_radius():
    # q1, q2 concyclic with the left chain on the circle centered (2,3)
    h = _square6_hull(extra=[(2 + SQRT2, 3), (3, 4)])
    q1, q2 = Point2(2 + SQRT2, 3), Point2(3, 4)
    iv = opt.RadiusInterval(1e-9, 3.0)
    rho = opt.pair_coincidence_radius(h, 1, 3, 1, q1, q2, iv)
    assert rho is not None and abs(rho - SQRT2) <= 1e-6
    assert opt.pair_coincidence_radius(h, 1, 3, 1, q1, q2,
                                       opt.RadiusInterval(1e-9, 1.2)) is None
    with pytest.raises(ValueError):
        opt.pair_coincidence_radius(h, 1, 3, 1, q1, q1, iv)


def test_pair_coincidence_rejects_slack_point():
    # (2.5,3) sits strictly inside the determining circle, so no
    # coincidence radius is attributed to it
    h = _square6_hull(extra=[(2.5, 3), (3, 4)])
    rho = opt.pair_coincidence_radius(h, 1, 3, 1, Point2(2.5, 3), Point2(3, 4),
                                      opt.RadiusInterval(1e-9, 3.0))
    assert rho is None


def test_coincidence_radius_decides_split_optimum(monkeypatch):
    # for the split that leaves (-10, 0) alone on its chain, the optimum is
    # the circle through (-10, 0), (0, 0.8) and (0, -0.8): centre (-4.968, 0),
    # radius 5.032, above both chain floors and L_ij.  Two free points fix
    # it, so it is a pair coincidence radius and no interval candidate: the
    # gap's upper end alone overshoots it
    inst = types.SimpleNamespace(
        polygon=[(-20, -10), (20, -10), (20, 10), (-20, 10)],
        points=[(-10, 0), (10, 2), (12, 0), (10, -2), (0, 0.8), (0, -0.8)])
    ref = _exact_radius(inst)
    assert abs(ref - 5.032) <= 1e-12
    r = two_center(SimplePolygon(inst.polygon), inst.points).radius
    assert abs(r - ref) <= 1e-9 * ref, (r, ref)
    monkeypatch.setattr(opt, "critical_radius_set", lambda h, i, j, iv: [iv.hi])
    assert two_center(SimplePolygon(inst.polygon), inst.points).radius > ref + 1e-3


def test_critical_radius_set_collects_pairs():
    h = _square6_hull(extra=[(2 + SQRT2, 3), (3, 4)])
    crit = opt.critical_radius_set(h, 1, 3, opt.RadiusInterval(1e-9, 3.0))
    assert crit == sorted(crit) and crit[-1] == 3.0
    assert any(abs(v - SQRT2) <= 1e-6 for v in crit)


def test_boundary_pair_radii_square(qsym_hull):
    # the bisector x = 2 of (1,1) and (3,1) meets the hull square at (2,1)
    # and (2,3)
    ring = qsym_hull.hull_region
    got = opt._boundary_pair_radii(ring, opt._segment_charts(ring, Point2(1, 1)),
                                   opt._segment_charts(ring, Point2(3, 1)))
    assert len(got) == 2
    for v, want in zip(sorted(got), (1.0, math.sqrt(5.0))):
        assert abs(v - want) <= 1e-12


def _bisected_pair_radii(ring, a, b, K=64):
    """Slow reference: d(x, a) at each root of d(x, a) - d(x, b) along a
    ring segment, bracketed on K samples and bisected 60 times."""
    out = []
    for u, v in ring.ring_index.segs:
        if dist(u, v) <= 1e-12:
            continue

        def point(t):
            return Point2(u.x + (v.x - u.x) * t, u.y + (v.y - u.y) * t)

        def g(t):
            x = point(t)
            return ring.distance(x, a) - ring.distance(x, b)

        vals = [g(k / K) for k in range(K + 1)]
        for k in range(K):
            if vals[k] == 0 or vals[k] * vals[k + 1] < 0:
                lo, hi, flo = k / K, (k + 1) / K, vals[k]
                for _ in range(60):
                    mid = (lo + hi) / 2
                    fm = g(mid)
                    if flo * fm <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                out.append(ring.distance(point((lo + hi) / 2), a))
    return out


@pytest.mark.parametrize("fam", FAMILIES)
def test_boundary_pair_radii_match_bisection(fam):
    inst = generate(fam, 16, 8, 0)
    h = geodesic_hull(triangulate(SimplePolygon(inst.polygon)),
                      unique_points(inst.points))
    p = candidate_pairs(h)[0]
    pc = dec.pair_chains(h, p.i, p.j)

    def near(v, vals):
        return any(abs(v - w) <= 1e-12 * max(abs(v), abs(w)) for w in vals)

    ring = h.hull_region
    for chain in (pc.chain1, pc.chain2):
        pts = list(chain) + list(pc.free)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                got = opt._boundary_pair_radii(ring, opt._segment_charts(ring, pts[a]),
                                               opt._segment_charts(ring, pts[b]))
                ref = _bisected_pair_radii(h.hull_region, pts[a], pts[b])
                assert all(near(v, ref) for v in got), (pts[a], pts[b])
                assert all(near(v, got) for v in ref), (pts[a], pts[b])


# the cells of the solve-16x8 and solve-48x6 benchmark workloads
SOLVE_CELLS = ([(f, 16, 8, s) for f in FAMILIES for s in range(4)]
               + [(f, 48, 6, s) for f in FAMILIES for s in range(3)])


def _narrow_interval_probing(h, i, j, iv):
    """`opt.narrow_interval` without the probe skip or the bound settle
    rule: the probe round runs on every split with free points."""
    top = opt.decide(h, i, j, iv.hi)
    if not top.feasible:
        raise InfeasibleInterval(f"pair ({i},{j}) infeasible at {iv.hi}")
    pc = dec.pair_chains(h, i, j)
    eps = h.ambient.tol.radius

    def search(cands, lo, hi, at_hi):
        inside = sorted(v for v in set(cands)
                        if lo < v < hi and iv.lo + eps < v < iv.hi - eps)
        k, res = opt._leftmost_feasible(h, i, j, inside)
        if k < len(inside):
            hi, at_hi = inside[k], res
        return opt.RadiusInterval(inside[k - 1] if k else lo, hi), at_hi

    out, top = search(opt.interval_candidates(h, i, j), iv.lo, iv.hi, top)
    if not pc.free:
        return out, top
    probes = [out.lo + (out.hi - out.lo) * f for f in (1e-3, 0.5, 1 - 1e-9)]
    sig = opt._event_signature(h, pc, probes[0])
    if all(opt._event_signature(h, pc, r) == sig for r in probes[1:]):
        return out, top
    return search(probes, out.lo, out.hi, top)


def _first_pair_round(h, narrow, monkeypatch):
    """`optimize_pair` on the first candidate pair of the fresh hull h,
    with `narrow` as its `narrow_interval`.  Returns its result or the class of the error it
    raised; the first search's gap, None when that search raised; what
    fixes the outcome of the round in that gap, or None: "skipped" when
    its largest probe fails `chain_infeasible`, "settled by the bound"
    when its middle probe is `below_bound` and `decide` rejects its
    largest; the radii `_event_signature` was called at; and whether one
    of those calls raised."""
    p = candidate_pairs(h)[0]
    iv = assistant_interval(h)
    gaps, signed, raised = [], [], []
    leftmost, signature = opt._leftmost_feasible, opt._event_signature

    def first_search(hh, i, j, values):
        got = leftmost(hh, i, j, values)
        if not gaps:
            n = got[0]
            gaps.append((values[n - 1] if n else iv.lo,
                         values[n] if n < len(values) else iv.hi))
        return got

    def signing(hh, pc, r):
        signed.append(r)
        try:
            return signature(hh, pc, r)
        except BoundaryAssemblyError:
            raised.append(r)
            raise

    with monkeypatch.context() as m:
        m.setattr(opt, "narrow_interval", narrow)
        m.setattr(opt, "_leftmost_feasible", first_search)
        m.setattr(opt, "_event_signature", signing)
        try:
            got = opt.optimize_pair(h, p.i, p.j, iv)
        except (BoundaryAssemblyError, CertificateError) as exc:
            got = type(exc)
    if not gaps:    # the first search raised
        return got, None, None, signed, bool(raised)
    lo, hi = gaps[0]
    pc = dec.pair_chains(h, p.i, p.j)
    mid, top = (lo + (hi - lo) * f for f in (0.5, 1 - 1e-9))
    fixed = None
    if pc.free and dec.chain_infeasible(h, pc, top):
        fixed = "skipped"
    elif (pc.free and dec.below_bound(h, pc, mid)
          and not dec.decide(h, p.i, p.j, top).feasible):
        fixed = "settled by the bound"
    return got, gaps[0], fixed, signed, bool(raised)


def test_probe_round_skipped_only_where_its_outcome_is_fixed(scaled_hull, monkeypatch):
    # a round whose largest probe fails chain_infeasible, or whose other
    # probes are below L_ij while decide rejects the largest, cannot move
    # the gap's upper end, which is all optimize_pair reads of the gap
    paths = set()
    for cell in SOLVE_CELLS:
        want, gap, fixed, ref_signed, ref_raised = _first_pair_round(
            scaled_hull(cell)[1], _narrow_interval_probing, monkeypatch)
        got, got_gap, got_fixed, signed, _ = _first_pair_round(
            scaled_hull(cell)[1], opt.narrow_interval, monkeypatch)
        assert (got_gap, got_fixed) == (gap, fixed), cell
        if fixed:
            paths.add(fixed)
            assert signed == [], cell
        elif ref_signed:
            paths.add("live")
            assert signed == ref_signed, cell
        if fixed and ref_raised:
            # only a fixed round's intersection raised, and it is not built now
            assert cell == ("comb", 16, 8, 1)
            assert got[0] == gap[1]
        else:
            assert got == want, cell
    assert paths == {"skipped", "settled by the bound", "live"}


def _midpoint_pair_radii(ring, a, b):
    """`opt._boundary_pair_radii` reading both sites' maps at the midpoint
    of every sub-piece between the cuts of either, instead of looking up
    charts read once per site."""
    out = []
    for (u, v), ca, cb in zip(ring.ring_index.segs, opt._segment_cuts(ring, a),
                              opt._segment_cuts(ring, b)):
        ex, ey = v.x - u.x, v.y - u.y
        ee = ex * ex + ey * ey
        if ee == 0.0:
            continue
        ts = sorted({0.0, 1.0} | ca | cb)
        for t0, t1 in zip(ts, ts[1:]):
            tm = (t0 + t1) / 2
            mid = Point2(u.x + ex * tm, u.y + ey * tm)
            (wa, da), (wb, db) = sorted((ring.site_map(s).anchor(mid) for s in (a, b)),
                                        key=lambda wd: wd[1])
            cc = (db - da) * (db - da)
            dx, dy = wb.x - wa.x, wb.y - wa.y
            bx, by = u.x - wb.x, u.y - wb.y
            h1 = ex * dx + ey * dy
            h0 = (dx * (u.x - wa.x + bx) + dy * (u.y - wa.y + by) - cc) / 2
            roots = (quadratic_roots(0.0, h1 / 2, h0) if cc == 0.0 else
                     [t for t in quadratic_roots(cc * ee - h1 * h1,
                                                 cc * (bx * ex + by * ey) - h1 * h0,
                                                 cc * (bx * bx + by * by) - h0 * h0)
                      if h1 * t + h0 >= 0.0])
            out += [dist(Point2(u.x + ex * t, u.y + ey * t), wa) + da
                    for t in set(roots) if t0 <= t <= t1]
    return out


def test_chart_lookup_matches_midpoint_reading(monkeypatch):
    # every pair interval_candidates visits in the corpus solves gets the
    # same radii, bit for bit, from charts read once per site
    visited = []
    plain = opt.interval_candidates

    def recording(h, i, j):
        visited.append((h, i, j))
        return plain(h, i, j)

    monkeypatch.setattr(opt, "interval_candidates", recording)
    for cell in CORPUS_CELLS:
        inst = generate(*cell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                two_center(SimplePolygon(inst.polygon), inst.points)
            except BoundaryAssemblyError:
                pass
    pairs = 0
    for h, i, j in visited:
        pc = dec.pair_chains(h, i, j)
        ring = h.hull_region
        charts = {p: opt._segment_charts(ring, p) for p in pc.chain1 + pc.chain2 + pc.free}
        for x, y in opt._boundary_pairs(pc):
            pairs += 1
            assert (opt._boundary_pair_radii(ring, charts[x], charts[y])
                    == _midpoint_pair_radii(ring, x, y)), (h, x, y)
    assert pairs > 0
    print(f"chart lookup: {pairs} pairs over {len(visited)} splits, all equal")


def test_optimize_pair_decides_each_radius_once(monkeypatch):
    # within one optimize_pair no (i, j, r) is decided twice: the gap's
    # upper end comes back from narrow_interval with its decision, and a
    # largest probe that the bound settle rule decided is not searched again
    plain_pair, plain_decide = drv.optimize_pair, opt.decide
    asked, repeats = [], []
    pairs = 0

    def deciding(h, i, j, r):
        asked.append((i, j, r))
        return plain_decide(h, i, j, r)

    def optimizing(h, i, j, iv):
        nonlocal pairs
        asked.clear()
        got = plain_pair(h, i, j, iv)
        pairs += 1
        repeats.extend(key for key, n in Counter(asked).items() if n > 1)
        return got

    monkeypatch.setattr(opt, "decide", deciding)
    monkeypatch.setattr(drv, "optimize_pair", optimizing)
    for cell in CORPUS_CELLS:
        inst = generate(*cell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                two_center(SimplePolygon(inst.polygon), inst.points)
            except BoundaryAssemblyError:
                pass
        assert not repeats, (cell, repeats)
    assert pairs > len(CORPUS_CELLS)


def test_chain_subset_radii_within_chain_radius(scaled_hull):
    # interval_candidates reads each chain's own one-center radius instead
    # of those of the 2- and 3-subsets of its extremes: on every split of
    # the corpus hulls each of those is at most the chain's, plus tol.near
    # of rounding, so below where _leftmost_feasible starts deciding
    subsets = 0
    for cell in CORPUS_CELLS:
        _k, h = scaled_hull(cell)
        region, near = h.region, h.ambient.tol.near
        for i in range(h.k):
            for j in range(i + 1, h.k):
                for chain in (h.chain_extremes(j + 1, i), h.chain_extremes(i + 1, j)):
                    top = one_center(region, chain).radius + near
                    for size in (2, 3):
                        for sub in combinations(chain, size):
                            subsets += 1
                            assert one_center(region, sub).radius <= top, (cell, i, j, sub)
    assert subsets > 0
