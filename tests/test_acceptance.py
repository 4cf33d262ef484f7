"""End-to-end acceptance gate.

Each test covers one shipping criterion at its pinned tolerance and
prints a single summary line on success; the pytest verdict per test is
the pass/fail record.
"""
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import types
import warnings

import pytest

import frozen_oracle
from twocenter import driver
from twocenter.cli import make_record, verify_record
from twocenter.decision import decide, pair_chains
from twocenter.disks import CircArc, disks_intersection, one_center
from twocenter.driver import candidate_pairs, two_center
from twocenter.errors import BoundaryAssemblyError
from twocenter.geom import Point2, unique_points
from twocenter.hull import geodesic_hull
from twocenter.instances import Instance, generate
from twocenter.oracle import oracle_distance, oracle_two_center
from twocenter.polygon import SimplePolygon, triangulate
from twocenter.region import Region, geodesic_distance

ROOT = pathlib.Path(__file__).resolve().parent.parent
FAMS = ("convex", "star", "comb", "random")
SQRT2 = math.sqrt(2.0)


def test_criterion_01_distances_match_oracle():
    insts = []
    for s in range(40):
        n = 5 + (s * 7) % 36
        insts.append(generate(FAMS[s % 4], n, 10, 1000 + s))
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for inst in insts:
        poly = SimplePolygon(inst.polygon)
        tp = triangulate(poly)
        for a, b in zip(inst.points[0::2], inst.points[1::2]):
            got = geodesic_distance(tp, a, b)
            ref = oracle_distance(poly, a, b)
            rel = abs(got - ref) / max(ref, 1e-12)
            worst = max(worst, rel)
            pairs += 1
            assert rel <= 1e-9, (inst.polygon, a, b, got, ref)
    elapsed = time.perf_counter() - t0
    assert pairs == 200
    assert elapsed < 10.0, f"{elapsed:.1f}s for 200 distance checks"
    print(f"C1 distances vs oracle: PASS "
          f"(200 pairs, worst rel {worst:.2e}, {elapsed:.1f}s)")


def _arc_chains(elements):
    n = len(elements)
    isarc = [isinstance(e, CircArc) for e in elements]
    if not any(isarc):
        return [], False
    if all(isarc):
        return [list(range(n))], True
    start = next(k for k in range(n) if not isarc[k])
    chains, run = [], []
    for off in range(1, n + 1):
        k = (start + off) % n
        if isarc[k]:
            run.append(k)
        elif run:
            chains.append(run)
            run = []
    return chains, False


def _boundary_crossings(region, bnd, other, r, step, dead):
    chains, cyclic = _arc_chains(bnd.elements)
    total = 0
    for chain in chains:
        signs = []
        for idx in chain:
            e = bnd.elements[idx]
            k = max(2, int(math.ceil(e.length() / step)) + 1)
            for i in range(k):
                f = region.distance(other, e.point(i / (k - 1))) - r
                if abs(f) > dead:
                    signs.append(1 if f > 0 else -1)
        if cyclic and signs:
            signs.append(signs[0])
        total += sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return total


def test_criterion_02_equal_disk_boundaries_cross_at_most_twice():
    checked = 0
    worst = 0
    s = 0
    while checked < 50:
        s += 1
        inst = generate(FAMS[s % 4], 5 + (s * 5) % 14, 2, 2000 + s)
        if len(set((p.x, p.y) for p in inst.points)) < 2:
            continue
        poly = SimplePolygon(inst.polygon)
        region = Region.of(triangulate(poly))
        c1, c2 = inst.points
        d = region.distance(c1, c2)
        if d <= 1e-9:
            continue
        r = d * (0.55, 0.7, 0.9, 1.2, 0.45)[s % 5]
        diam = region.diameter
        bnd = disks_intersection(region, [c1], r)
        if bnd is None or bnd.is_point:
            continue
        crossings = _boundary_crossings(region, bnd, c2, r,
                                        step=1e-3 * diam,
                                        dead=1e-9 * max(1.0, diam))
        assert crossings <= 2, (tuple(c1), tuple(c2), r, crossings, s)
        worst = max(worst, crossings)
        checked += 1
    print(f"C2 equal-radius disk crossings: PASS "
          f"(50 pairs, max crossings {worst})")


def test_criterion_03_one_center_matches_oracle():
    worst = 0.0
    for s, cell in enumerate(frozen_oracle.ONE_CENTER_CELLS):
        inst = generate(*cell)
        region = Region.of(triangulate(SimplePolygon(inst.polygon)))
        got = one_center(region, unique_points(inst.points)).radius
        ref = frozen_oracle.answer("one_center", cell, inst)
        tol = 1e-4 * max(ref, 1e-9 * max(1.0, region.diameter))
        assert abs(got - ref) <= tol, (s, got, ref)
        worst = max(worst, abs(got - ref) / max(ref, 1e-12))
    print(f"C3 one-center vs oracle: PASS (50 instances, worst rel {worst:.2e})")


def test_criterion_04_decision_monotone(solved_pool):
    cells = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for si in solved_pool:
            h = si.hull
            if h.k < 2:
                continue
            i, j = 0, 1 + si.seed % (h.k - 1)
            if i == j:
                continue
            hi = h.hull_center().radius
            answers = [decide(h, i, j, hi * f).feasible
                       for f in (0.15, 0.35, 0.55, 0.8, 1.0)]
            for a, b in zip(answers, answers[1:]):
                assert not (a and not b), (si, answers)
            assert answers[-1]
            cells += 1
    assert cells >= 28
    print(f"C4 decision monotone in radius: PASS ({cells} instances x 5 radii)")


def test_criterion_05_returned_pair_is_critical(solved_pool):
    cases = [si for si in solved_pool
             if si.hull.k >= 3 and si.sol.radius > 1e-3]
    s = 0
    while len(cases) < 20:
        s += 1
        inst = generate(FAMS[s % 4], 8 + s % 13, 4 + s % 7, 150 + s)
        poly = SimplePolygon(inst.polygon)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = two_center(poly, inst.points)
        uniq = [Point2(*k) for k in dict.fromkeys((p.x, p.y) for p in inst.points)]
        h = geodesic_hull(triangulate(poly), uniq)
        if h.k >= 3 and sol.radius > 1e-3:
            cases.append(types.SimpleNamespace(sol=sol, hull=h))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for si in cases[:20]:
            r = si.sol.radius
            i, j = si.sol.pair.i, si.sol.pair.j
            up = decide(si.hull, i, j, r + 1e-5)
            dn = decide(si.hull, i, j, r - 1e-5 * max(1.0, r))
            assert up.feasible, (si.sol.pair, r)
            assert not dn.feasible, (si.sol.pair, r)
    print("C5 returned pair critical at r*: PASS (20 instances)")


def test_criterion_06_two_center_matches_oracle():
    worst = 0.0
    slowest = 0.0
    for t, cell in enumerate(frozen_oracle.TWO_CENTER_CELLS):
        _fam, n, m, _seed = cell
        inst = generate(*cell)
        poly = SimplePolygon(inst.polygon)
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = two_center(poly, inst.points)
        dt = time.perf_counter() - t0
        r_ref = frozen_oracle.answer("two_center", cell, inst)
        slowest = max(slowest, dt)
        assert dt < 60.0, (t, n, m, dt)
        gap = abs(sol.radius - r_ref)
        assert gap <= 1e-4 * max(sol.radius, r_ref), (t, n, m, sol.radius, r_ref)
        worst = max(worst, gap / max(r_ref, 1e-12))
    print(f"C6 two-center vs oracle: PASS "
          f"(25 instances, worst rel {worst:.2e}, slowest {slowest:.1f}s)")


def test_criterion_07_closed_form_instances():
    sq4 = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)])
    l6 = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 2), Point2(2, 2),
                        Point2(2, 4), Point2(0, 4)])
    qsym = [Point2(1, 1), Point2(3, 1), Point2(3, 3), Point2(1, 3)]
    arms = [Point2(3, 1), Point2(3, 1.5), Point2(1, 3), Point2(1.5, 3)]
    r1 = two_center(sq4, qsym).radius
    assert abs(r1 - 1.0) <= 1e-6
    r2 = two_center(l6, arms).radius
    assert abs(r2 - 0.25) <= 1e-6
    region = Region.of(triangulate(l6))
    r3 = one_center(region, [Point2(3, 1), Point2(1, 3)]).radius
    assert abs(r3 - SQRT2) <= 1e-6
    print("C7 closed-form examples: PASS "
          f"(square {r1:.9f}, arms {r2:.9f}, tether {r3:.9f})")


def _split_optimum(h, i, j):
    region = h.region
    pc = pair_chains(h, i, j)
    free = list(pc.free)
    best = math.inf
    for mask in range(2 ** len(free)):
        s1 = list(pc.chain1) + [q for t, q in enumerate(free) if mask >> t & 1]
        s2 = list(pc.chain2) + [q for t, q in enumerate(free) if not mask >> t & 1]
        r1 = one_center(region, s1).radius if s1 else 0.0
        r2 = one_center(region, s2).radius if s2 else 0.0
        best = min(best, max(r1, r2))
    return best


def _exact_radius(inst):
    """r* of a generated instance: the minimum, over the 2^(m-1)
    bipartitions of its unique points, of the larger one_center radius.
    It runs on the instance scaled as two_center scales it and divides
    the result back (the scale is a power of two, so exactly)."""
    base = SimplePolygon(inst.polygon)
    s = 2.0 ** round(math.log2(64.0 / base.diameter))
    region = Region.of(triangulate(SimplePolygon([(v.x * s, v.y * s)
                                                  for v in base.vertices])))
    first, *rest = [Point2(*k) for k in dict.fromkeys((q[0] * s, q[1] * s)
                                                      for q in inst.points)]
    best = math.inf
    for mask in range(2 ** len(rest)):
        s1 = [first] + [q for t, q in enumerate(rest) if mask >> t & 1]
        s2 = [q for t, q in enumerate(rest) if not mask >> t & 1]
        r2 = one_center(region, s2).radius if s2 else 0.0
        best = min(best, max(one_center(region, s1).radius, r2))
    return best / s


# scripts/corpus_outputs.py's 92 instances, then instances outside it
EXACT_CELLS = [(fam, n, m, s)
               for n, m, seeds in ((12, 6, 6), (16, 8, 6), (48, 6, 6),
                                   (20, 10, 3), (24, 12, 2))
               for fam in FAMS for s in range(seeds)] + [
    ("random", 12, 6, 10), ("comb", 48, 6, 8), ("star", 48, 6, 11),
    ("random", 128, 6, 0), ("comb", 16, 16, 0), ("comb", 16, 8, 8),
    ("random", 20, 10, 7), ("random", 48, 6, 8), ("random", 12, 6, 12),
    ("random", 48, 6, 6), ("comb", 24, 12, 2), ("comb", 48, 6, 6),
    ("random", 16, 16, 1), ("random", 17, 8, 115), ("random", 17, 9, 115),
    ("random", 10, 4, 2), ("random", 22, 5, 110), ("random", 17, 10, 109)]
# a seeded slice of scripts/fuzz_exact.py
FUZZ_SLICE = [(fam, n, m, s) for fam in FAMS for n in (8, 13) for m in (5, 8)
              for s in (100, 101)]
_WRONG = pytest.mark.xfail(strict=True, raises=AssertionError,
                           reason="radius above the optimum")
EXACT_XFAIL = {
    ("random", 16, 8, 3): _WRONG, ("random", 48, 6, 3): _WRONG,
    ("random", 16, 8, 1): pytest.mark.xfail(
        strict=True, raises=BoundaryAssemblyError,
        reason="boundary stitching defect on a right-turning hull"),
    ("random", 48, 6, 8): _WRONG, ("random", 12, 6, 12): _WRONG,
    ("random", 48, 6, 6): _WRONG,
    # each of these solves records a false "no" of `no-arc-anomaly:n`
    ("random", 17, 8, 115): _WRONG, ("random", 17, 9, 115): _WRONG,
    ("random", 10, 4, 2): _WRONG, ("random", 22, 5, 110): _WRONG,
    ("random", 13, 5, 100): _WRONG, ("random", 17, 10, 109): _WRONG,
}


@pytest.mark.parametrize("cell", [
    pytest.param(c, marks=EXACT_XFAIL.get(c, ()), id="{}/{}x{}/s{}".format(*c))
    for c in EXACT_CELLS + FUZZ_SLICE])
def test_two_center_matches_exact_reference(cell):
    inst = generate(*cell)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = two_center(SimplePolygon(inst.polygon), inst.points).radius
    ref = _exact_radius(inst)
    assert abs(r - ref) <= 1e-9 * ref, (r, ref)


# straight segment (0.5, 1)-(3.5, 3) in the 4x4 square, and the geodesic
# (3.5, 1.25)-(2, 2)-(1.25, 3.5) that bends at the L-shape's notch
# corner; each is sampled at parameters k/8, exact in binary
_FLAT_PATHS = {
    "square-segment": ([(0, 0), (4, 0), (4, 4), (0, 4)], 9,
                       lambda t: Point2(0.5 + 3 * t, 1 + 2 * t)),
    "l-notch-bend": ([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)], 17,
                     lambda t: (Point2(3.5 - 1.5 * t, 1.25 + 0.75 * t) if t <= 1 else
                                Point2(2 - 0.75 * (t - 1), 2 + 1.5 * (t - 1)))),
}


@pytest.mark.parametrize("path", sorted(_FLAT_PATHS))
@pytest.mark.parametrize("m", range(1, 10))
def test_flat_inputs_match_exact_reference(path, m, monkeypatch):
    # every point of Q on one geodesic: 1 to 9 points, a third of them
    # repeated, solved by prefix splits and certified like any other solve
    polygon, steps, at = _FLAT_PATHS[path]
    rng = random.Random(m)
    pts = [at(rng.randrange(steps) / 8) for _ in range(m)]
    pts += pts[:m // 3]
    real, certified = driver._certify, []
    monkeypatch.setattr(driver, "_certify", lambda *a: certified.append(real(*a)))
    r = two_center(SimplePolygon(polygon), pts).radius
    assert len(certified) == 1
    ref = _exact_radius(types.SimpleNamespace(polygon=polygon, points=pts))
    assert abs(r - ref) <= 1e-12, (r, ref)


_RING_SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]


def _ring_points(p):
    """The corners of the square [1, 9]^2 and p - 1 more points evenly
    along each of its sides, 4p points in all."""
    pts = []
    for t in range(p):
        f = 1 + 8 * t / p
        pts += [Point2(f, 1), Point2(9, f), Point2(10 - f, 9), Point2(1, 10 - f)]
    return pts


@pytest.mark.parametrize("p,want", [(3, 4.216370213557839), (4, 4.47213595499958)])
def test_points_on_a_hull_ring_match_exact_reference(p, want):
    # every point of Q on the ring of a hull that is not flat
    pts = _ring_points(p)
    r = two_center(SimplePolygon(_RING_SQUARE), pts).radius
    ref = _exact_radius(types.SimpleNamespace(polygon=_RING_SQUARE, points=pts))
    assert abs(ref - want) <= 1e-12 and abs(r - ref) <= 1e-12, (r, ref)


def test_points_on_a_hull_ring_solve_past_the_split_cap():
    # 16 points off the hull's corners, more than SPLIT_ENUM_CAP; each
    # lies on a chain's portion of the ring, so no split has them free
    inst = Instance([Point2(*v) for v in _RING_SQUARE], _ring_points(5))
    sol = two_center(SimplePolygon(inst.polygon), inst.points)
    verify_record(inst, make_record(sol, inst.points, 0))


def test_criterion_08_candidates_cover_an_optimal_split(solved_pool):
    picked = [si for si in solved_pool
              if si.hull.k >= 3 and len(si.pts) <= 7 and si.n <= 15][:6]
    assert len(picked) >= 4
    for si in solved_pool:
        if si.hull.k >= 2:
            assert len(candidate_pairs(si.hull)) <= 5000
    for si in picked:
        h = si.hull
        r_ref, _cs, _sides = oracle_two_center(si.poly, si.pts)
        split_r = {}
        for i, j in itertools.combinations(range(h.k), 2):
            split_r[(i, j)] = _split_optimum(h, i, j)
        r_star = min(min(split_r.values()), r_ref)
        sc = max(1.0, h.ambient.diameter)
        optimal = {ij for ij, v in split_r.items()
                   if v <= r_star * (1 + 1e-4) + 1e-9 * sc}
        assert optimal, si
        cand = {(p.i, p.j) for p in candidate_pairs(h)}
        assert optimal & cand, (si, sorted(optimal), sorted(cand))
    print(f"C8 candidate pairs hit an optimal split: PASS "
          f"({len(picked)} instances, all pools within the pair cap)")


def test_criterion_09_certificates(solved_pool):
    for si in solved_pool:
        reg = si.hull.region
        sc = max(1.0, reg.diameter)
        cov = max(min(reg.distance(q, si.sol.c1), reg.distance(q, si.sol.c2))
                  for q in si.pts)
        assert cov <= si.sol.radius * (1 + 1e-6) + 1e-9 * sc, si
        for c in (si.sol.c1, si.sol.c2):
            assert si.hull.hull_region.classify(c) != "outside", (si, c)
    print(f"C9 solution certificates: PASS ({len(solved_pool)} instances)")


def _run_solve(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "twocenter.cli", "solve",
                           str(path)], capture_output=True, env=env,
                          cwd=str(ROOT))
    return proc.returncode, proc.stdout


def test_criterion_10_cli_solve_reproducible():
    fixtures = sorted((ROOT / "fixtures").glob("*.json"))
    assert len(fixtures) >= 4

    def strip_time(raw):
        return b"\n".join(ln for ln in raw.splitlines()
                          if b"wall_time_ms" not in ln)

    for f in fixtures:
        code1, out1 = _run_solve(f)
        code2, out2 = _run_solve(f)
        assert code1 == code2, f.name
        assert strip_time(out1) == strip_time(out2), f.name
        if code1 == 0:
            rec = json.loads(out1)
            assert "radius" in rec and "wall_time_ms" in rec
    print(f"C10 CLI reproducibility: PASS ({len(fixtures)} fixtures, "
          "outputs byte-identical modulo wall_time_ms)")
