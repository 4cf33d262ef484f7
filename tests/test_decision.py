import itertools
import math
import warnings

import pytest

import twocenter.decision as dec
import twocenter.disks as disks
import twocenter.optimize as opt
from twocenter.driver import two_center
from twocenter.errors import BoundaryAssemblyError, CertificateError, InvalidPair
from twocenter.geom import Point2, dist
from twocenter.hull import geodesic_hull
from twocenter.instances import generate
from twocenter.optimize import _event_signature
from twocenter.polygon import SimplePolygon, triangulate

SQRT2 = math.sqrt(2.0)


def _uniq(points):
    seen, out = set(), []
    for p in points:
        if (p.x, p.y) not in seen:
            seen.add((p.x, p.y))
            out.append(p)
    return out


def _hull_for(seed, fam=None, n=None, m=None):
    fam = fam or ("star", "random", "comb", "convex")[seed % 4]
    inst = generate(fam, n or 8 + seed % 9, m or 4 + seed % 6, seed)
    tp = triangulate(SimplePolygon(inst.polygon))
    return geodesic_hull(tp, _uniq(inst.points))


def _axis_pair(h):
    """QSYM pair whose chains are the two vertical sides."""
    idx = {(p.x, p.y): i for i, p in enumerate(h.extremes)}
    i, j = idx[(1, 3)], idx[(3, 1)]
    pc = dec.pair_chains(h, i, j)
    if {(p.x, p.y) for p in pc.chain1} != {(1, 1), (1, 3)}:
        i, j = j, i
    return i, j


def test_pair_chains_split(qsym_hull):
    i, j = _axis_pair(qsym_hull)
    pc = dec.pair_chains(qsym_hull, i, j)
    assert {(p.x, p.y) for p in pc.chain1} == {(1, 1), (1, 3)}
    assert {(p.x, p.y) for p in pc.chain2} == {(3, 3), (3, 1)}
    assert pc.free == ()


def test_pair_chains_rejects_degenerate(qsym_hull):
    with pytest.raises(InvalidPair):
        dec.pair_chains(qsym_hull, 2, 2)


def test_boundary_point_between_chains_is_free(sq4_tp):
    # (2,1) sits on the hull edge between the two chains of the axis
    # split; it must stay assignable rather than glued to one chain
    pts = [Point2(1, 1), Point2(1, 3), Point2(3, 3), Point2(3, 1), Point2(2, 1)]
    h = geodesic_hull(sq4_tp, pts)
    i, j = _axis_pair(h)
    pc = dec.pair_chains(h, i, j)
    assert {(p.x, p.y) for p in pc.free} == {(2, 1)}


def test_qsym_axis_decide(qsym_hull):
    i, j = _axis_pair(qsym_hull)
    res = dec.decide(qsym_hull, i, j, 1.0)
    assert res.feasible
    got = sorted((round(c.x, 4), round(c.y, 4)) for c in res.centers)
    assert got == [(1.0, 2.0), (3.0, 2.0)]
    assert not dec.decide(qsym_hull, i, j, 0.99).feasible


def test_qsym_diagonal_needs_sqrt2(qsym_hull):
    # splitting off a single extreme leaves a 3-point chain whose
    # one-center radius is sqrt(2)
    res_lo = dec.decide(qsym_hull, 0, 1, SQRT2 - 1e-6)
    res_hi = dec.decide(qsym_hull, 0, 1, SQRT2 + 1e-6)
    assert not res_lo.feasible
    assert res_hi.feasible


def test_l6_arm_split(arms_hull):
    h = arms_hull
    idx = {(p.x, p.y): i for i, p in enumerate(h.extremes)}
    i, j = idx[(3, 1)], idx[(1.5, 3)]
    pc = dec.pair_chains(h, i, j)
    if any(p.y > 2 for p in pc.chain1):
        i, j = j, i
        pc = dec.pair_chains(h, i, j)
    assert {(p.x, p.y) for p in pc.chain1} <= {(3, 1), (3, 1.5)}
    assert dec.decide(h, i, j, 0.25).feasible
    assert not dec.decide(h, i, j, 0.2).feasible


def test_shared_vertex_split(qsym_hull):
    i, j = _axis_pair(qsym_hull)
    got = dec.shared_vertex_decide(qsym_hull, i, j, 1.45)
    assert got is not None
    assert dec.shared_vertex_decide(qsym_hull, i, j, 0.9) is None


def test_chain_infeasible_before_shared_vertex(qsym_hull, monkeypatch):
    # the 3-point chain alone needs sqrt(2), so no shared-vertex set fits
    def boom(*args, **kwargs):
        raise AssertionError("shared_vertex_decide must not run")

    monkeypatch.setattr(dec, "shared_vertex_decide", boom)
    res = dec.decide(qsym_hull, 0, 1, SQRT2 - 1e-6)
    assert not res.feasible and res.branch == "chain-infeasible"


def test_hull_radius_shortcut(sq4_tp):
    h = geodesic_hull(sq4_tp, [Point2(1, 2), Point2(3, 2), Point2(2, 1),
                               Point2(2, 3)])
    res = dec.decide(h, 0, 2, h.hull_center().radius + 0.01)
    assert res.feasible and res.branch == "hull-radius"
    assert dist(res.centers[0], res.centers[1]) <= 1e-9


def test_scan_branch_fires():
    # at r = 1.6 the free point's disk crosses both sides' arcs, the case
    # the deleted event scan decided; the one-side witness decides it
    sq6 = SimplePolygon([Point2(0, 0), Point2(6, 0), Point2(6, 6), Point2(0, 6)])
    tp = triangulate(sq6)
    h = geodesic_hull(tp, [Point2(1, 2), Point2(1, 4), Point2(5, 2),
                           Point2(5, 4), Point2(2.5, 3)])
    pc = dec.pair_chains(h, 1, 3)
    assert [tuple(p) for p in pc.free] == [(2.5, 3.0)]
    assert all(dec.chain_side(h, pc, c, 1.6)[1].events for c in (pc.chain1, pc.chain2))
    res = dec.decide(h, 1, 3, 1.6)
    assert res.feasible and res.branch == "one-side-quiet"
    assert dec._split_enumerate(h.region, pc, 1.6, h.ambient.tol.check) is not None
    c1, c2 = res.centers
    reg = h.region
    assert max(reg.distance(c1, p) for p in pc.chain1) <= 1.6 + 1e-9
    assert max(reg.distance(c2, p) for p in pc.chain2) <= 1.6 + 1e-9
    q = pc.free[0]
    assert min(reg.distance(c1, q), reg.distance(c2, q)) <= 1.6 + 1e-9
    # at a lower radius the free point's disk misses one side's arcs
    assert not dec.chain_side(h, pc, pc.chain2, 1.3)[1].events
    res2 = dec.decide(h, 1, 3, 1.3)
    assert res2.feasible and res2.branch == "one-side-quiet"


def test_split_enum_cap_is_undecided(monkeypatch):
    sq6 = SimplePolygon([Point2(0, 0), Point2(6, 0), Point2(6, 6), Point2(0, 6)])
    free = [Point2(2.5 + 0.02 * (k % 5), 2.9 + 0.05 * (k // 5))
            for k in range(dec.SPLIT_ENUM_CAP + 1)]
    h = geodesic_hull(triangulate(sq6), [Point2(1, 2), Point2(1, 4), Point2(5, 2),
                                         Point2(5, 4)] + free)
    assert len(dec.pair_chains(h, 1, 3).free) > dec.SPLIT_ENUM_CAP
    assert dec.decide(h, 1, 3, 1.6).branch == "one-side-quiet"
    # with the witness missing, only split enumeration is left, and it is
    # not run on this many free points: no answer is certified
    monkeypatch.setattr(dec, "one_side_witness", lambda *args: None)
    with pytest.raises(CertificateError):
        dec.decide(h, 1, 3, 1.6)


def test_witness_covers_extremes(solved_pool):
    for si in solved_pool[:10]:
        h = si.hull
        if h.k < 2:
            continue
        r = si.sol.radius * 1.05 + 1e-9
        for i, j in itertools.combinations(range(h.k), 2):
            res = dec.decide(h, i, j, r)
            if not res.feasible or res.centers is None:
                continue
            pc = dec.pair_chains(h, i, j)
            c1, c2 = res.centers
            reg = h.region
            tol = r + 1e-6 * max(1.0, reg.diameter)
            assert max((reg.distance(c1, p) for p in pc.chain1), default=0) <= tol
            assert max((reg.distance(c2, p) for p in pc.chain2), default=0) <= tol
            for q in pc.free:
                assert min(reg.distance(c1, q), reg.distance(c2, q)) <= tol


@pytest.mark.parametrize("seed", range(61))
def test_monotone_in_radius(seed):
    h = _hull_for(seed)
    if h.k < 2:
        return
    i, j = 0, 1 + seed % (h.k - 1)
    if i == j:
        return
    hi = h.hull_center().radius
    radii = [hi * f for f in (0.15, 0.35, 0.55, 0.8, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        answers = [dec.decide(h, i, j, r).feasible for r in radii]
    for a, b in zip(answers, answers[1:]):
        assert not (a and not b), (seed, i, j, answers)
    assert answers[-1]


@pytest.mark.parametrize("seed", range(41))
def test_decide_matches_exhaustive_split(seed):
    """The cascade agrees with brute-force assignment of free points."""
    h = _hull_for(seed, m=4 + seed % 4)
    if h.k < 2:
        return
    reg = h.region
    sc = max(1.0, reg.diameter)
    i, j = 0, 1 + seed % (h.k - 1)
    hi = h.hull_center().radius
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lo = 0.0
        up = hi
        for _ in range(20):
            mid = 0.5 * (lo + up)
            if dec.decide(h, i, j, mid).feasible:
                up = mid
            else:
                lo = mid
        pc = dec.pair_chains(h, i, j)
        for r in (lo - 1e-5 * sc, up + 1e-5 * sc, 0.6 * hi, hi):
            if r <= 0:
                continue
            got = dec.decide(h, i, j, r).feasible
            want = dec._split_enumerate(reg, pc, r, 1e-9 * sc) is not None
            assert got == want, (seed, i, j, r)


def _solver_hull(fam, n, m, seed):
    """Hull of a generated instance rescaled the way two_center does it."""
    inst = generate(fam, n, m, seed)
    poly = SimplePolygon(inst.polygon)
    scale = 2.0 ** round(math.log2(64.0 / poly.diameter))
    tp = triangulate(SimplePolygon([(v.x * scale, v.y * scale)
                                    for v in poly.vertices]))
    pts = _uniq([Point2(q.x * scale, q.y * scale) for q in inst.points])
    return scale, geodesic_hull(tp, pts)


# Splits whose free points' disks cross the arcs of one side (comb) or of
# both.  The one-side witness decides each; with it patched out, split
# enumeration does.  The first two ids name the stage that decided the
# case before the event stages became one witness; the third case was
# the event scan's.
FALLBACK_CASES = [
    (("star", 16, 8, 13), 0.5, (1, 3), 8.64155849580668),
    (("comb", 16, 8, 6), 2.0, (2, 4), 14.82111759785373),
    (("convex", 24, 12, 3), 0.5, (0, 2), 15.105993478356341),
]


@pytest.mark.parametrize("cell,scale,pair,r", FALLBACK_CASES,
                         ids=["split-enum", "one-side-quiet", "events-on-both-sides"])
def test_exact_fallbacks(cell, scale, pair, r, monkeypatch):
    got_scale, h = _solver_hull(*cell)
    assert got_scale == scale
    i, j = pair
    res = dec.decide(h, i, j, r)
    assert res.feasible and res.branch == "one-side-quiet"
    pc = dec.pair_chains(h, i, j)
    assert dec._split_enumerate(h.region, pc, r, h.ambient.tol.check) is not None
    monkeypatch.setattr(dec, "one_side_witness", lambda *args: None)
    res = dec.decide(h, i, j, r)
    assert res.feasible and res.branch == "split-enum"


def test_decide_reuses_the_probe_intersections(monkeypatch):
    cell, (i, j), r = ("comb", 16, 8, 6), (2, 4), 14.82111759785373
    clips = []
    clip = disks._clip
    monkeypatch.setattr(disks, "_clip", lambda *a: clips.append(a) or clip(*a))
    _, h = _solver_hull(*cell)
    want = dec.decide(h, i, j, r)
    assert want.branch == "one-side-quiet" and clips    # the cascade clips
    _, h = _solver_hull(*cell)
    _event_signature(h, dec.pair_chains(h, i, j), r)
    clips.clear()
    assert dec.decide(h, i, j, r) == want
    assert not clips


@pytest.mark.parametrize("cell", [("random", 16, 8, 1)], ids=["random/16x8/s1"])
def test_assembly_errors_are_not_cached(cell, monkeypatch):
    inst = generate(*cell)
    poly = SimplePolygon(inst.polygon)
    calls = []
    chain_side = dec.chain_side

    def recording(*args):
        calls.append(args)
        return chain_side(*args)

    monkeypatch.setattr(dec, "chain_side", recording)
    monkeypatch.setattr(opt, "chain_side", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(2):
            calls.clear()
            with pytest.raises(BoundaryAssemblyError):
                two_center(poly, inst.points)
            # the failing intersection fails again on the same hull
            with pytest.raises(BoundaryAssemblyError):
                chain_side(*calls[-1])


def test_chain_side_tags_an_arcless_side():
    # one of the two no-arc-anomaly:n decisions of random/16x8/s3
    _, h = _solver_hull("random", 16, 8, 3)
    pc = dec.pair_chains(h, 1, 5)
    r = 11.16605558243657
    got = dec.chain_side(h, pc, pc.chain1, r)
    assert got == ("noarcs", None)
    assert dec.chain_side(h, pc, pc.chain1, r) is got
    assert dec.decide(h, 1, 5, r).branch == "no-arc-anomaly"


# scripts/corpus_outputs.py's 12x6, 16x8 and 48x6 cells
CORPUS_CELLS = [(fam, n, m, s) for n, m in ((12, 6), (16, 8), (48, 6))
                for fam in ("convex", "star", "comb", "random") for s in range(6)]


def _asked_splits(cell, monkeypatch):
    """{(hull, i, j): radii} of every `decide` call of cell's solve; a
    solve that raises keeps the calls made before."""
    inst = generate(*cell)
    asked = {}
    plain = dec._decide

    def recording(h, i, j, r):
        asked.setdefault((h, i, j), []).append(r)
        return plain(h, i, j, r)

    with monkeypatch.context() as m, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m.setattr(dec, "_decide", recording)
        try:
            two_center(SimplePolygon(inst.polygon), inst.points)
        except BoundaryAssemblyError:
            pass
    return asked


def test_bound_exit_answers_only_where_the_cascade_says_no(monkeypatch):
    # wherever L_ij answers "no" early, the cascade past it answers "no"
    # or raises, at the radii the solve asked and on a grid below the
    # hull radius; on random/17x10/s109 one intersection past it raises
    fired = raised = 0
    for cell in CORPUS_CELLS + [("random", 17, 10, 109)]:
        for (h, i, j), radii in _asked_splits(cell, monkeypatch).items():
            pc = dec.pair_chains(h, i, j)
            top = h.hull_center().radius
            for r in sorted(set(radii)) + [top * f / 40 for f in range(1, 40)]:
                if (r >= top - h.ambient.tol.radius or dec.chain_infeasible(h, pc, r)
                        or not dec.below_bound(h, pc, r)):
                    continue
                fired += 1
                assert dec._decide(h, i, j, r) == dec.DecisionResult(False, "forced-overload")
                with monkeypatch.context() as m:
                    m.setattr(dec, "below_bound", lambda *args: False)
                    try:
                        res = dec._decide(h, i, j, r)
                    except (BoundaryAssemblyError, CertificateError):
                        raised += 1
                        continue
                assert not res.feasible, (cell, i, j, r, res.branch)
    assert fired > 2 * raised, f"{raised} of {fired} bound exits raised past it"
    print(f"bound exit: {fired} fired, {raised} raised past it")


# -- lazy free-point events against eager ones -----------------------------

@pytest.mark.parametrize("cell", CORPUS_CELLS, ids=lambda c: "{}/{}x{}/s{}".format(*c))
def test_lazy_side_matches_eager_events(cell, monkeypatch):
    # every "arcs" side a solve builds, read after the solve, against
    # compute_events run at once on a fresh intersection of its chain
    sides = []
    plain = dec.chain_side

    def recording(h, pc, chain, r):
        got = plain(h, pc, chain, r)
        sides.append((h, pc, chain, r, got))
        return got

    inst = generate(*cell)
    with monkeypatch.context() as m, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m.setattr(dec, "chain_side", recording)
        m.setattr(opt, "chain_side", recording)
        try:
            two_center(SimplePolygon(inst.polygon), inst.points)
        except BoundaryAssemblyError:
            assert cell == ("random", 16, 8, 1)
    for h, pc, chain, r, (tag, side) in sides:
        if tag != "arcs":
            continue
        b = disks.disks_intersection(h.hull_region, chain, r)
        events, by_point = disks.compute_events(h.region, b, pc.free)
        assert side.events == events and side.sides == by_point


def test_lazy_side_computes_events_only_on_a_read(monkeypatch):
    sq6 = SimplePolygon([Point2(0, 0), Point2(6, 0), Point2(6, 6), Point2(0, 6)])
    h = geodesic_hull(triangulate(sq6), [Point2(1, 2), Point2(1, 4), Point2(5, 2),
                                         Point2(5, 4), Point2(2.5, 3)])
    pc = dec.pair_chains(h, 1, 3)
    calls = []
    plain = dec.compute_events

    def counting(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(dec, "compute_events", counting)
    tag, side = dec.chain_side(h, pc, pc.chain1, 1.6)
    assert tag == "arcs" and not calls
    b = disks.disks_intersection(h.hull_region, pc.chain1, 1.6)
    assert (side.events, side.sides) == plain(h.region, b, pc.free)
    assert side.events and len(calls) == 1
