"""Feasibility test for one chain split at one radius.

decide(h, i, j, r) answers whether two geodesic disks of radius r can
cover Q so that disk 1 contains the extreme chain v_{j+1}..v_i and disk 2
contains v_{i+1}..v_j.  The cascade runs top to bottom, certain exits
first: whole-hull disk, chain one-centers, shared-vertex witness,
interior-free exit, empty or pinched intersections, forced points.  Then
one stage runs, chosen by which sides have events: "no-events",
"one-side-quiet", or the three-cursor "scan" from either side.  When it
finds no witness, exhaustive split enumeration settles the answer; above
SPLIT_ENUM_CAP free points nothing settles it and CertificateError is
raised.
"""
from __future__ import annotations

from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .disks import (ArcBoundary, Event, compute_events, disks_intersection,
                    one_center)
from .errors import CertificateError, InvalidPair
from .geom import Point2, dist, seg_point_distance, unique_points
from .hull import GeodesicHull
from .region import Key, Region, _key


@dataclass(frozen=True)
class PairChains:
    """Everything fixed about one (i, j) split."""
    i: int
    j: int
    chain1: Tuple[Point2, ...]   # v_{j+1} .. v_i, served by c1
    chain2: Tuple[Point2, ...]   # v_{i+1} .. v_j, served by c2
    free: Tuple[Point2, ...]     # points not pinned to either chain


def pair_chains(h: GeodesicHull, i: int, j: int) -> PairChains:
    k = h.k
    if k < 2 or i % k == j % k:
        raise InvalidPair(f"({i},{j}) with k={k}")
    i %= k
    j %= k
    cache = h._chain_cache
    hit = cache.get((i, j))
    if hit is not None:
        return hit
    c1 = tuple(h.chain_extremes(j + 1, i))
    c2 = tuple(h.chain_extremes(i + 1, j))
    tol = h.ambient.tol.near
    free: List[Point2] = list(h.interior_points)
    if h.boundary_points:
        p1 = h.boundary_portion(j + 1, i)
        p2 = h.boundary_portion(i + 1, j)

        def on_portion(q, portion):
            if len(portion) == 1:
                return dist(q, portion[0]) <= tol
            return any(seg_point_distance(q, portion[s], portion[s + 1]) <= tol
                       for s in range(len(portion) - 1))

        for b in h.boundary_points:
            if not on_portion(b, p1) and not on_portion(b, p2):
                free.append(b)
    pc = PairChains(i, j, c1, c2, tuple(free))
    cache[(i, j)] = pc
    return pc


@dataclass
class DecisionResult:
    feasible: bool
    branch: str
    centers: Optional[Tuple[Point2, Point2]] = None


def _coverage_ok(region: Region, pc: PairChains, r: float,
                 c1: Point2, c2: Point2, tol: float) -> bool:
    if any(region.site_map(e).distance(c1) > r + tol for e in pc.chain1):
        return False
    if any(region.site_map(e).distance(c2) > r + tol for e in pc.chain2):
        return False
    return all(min(sq.distance(c1), sq.distance(c2)) <= r + tol
               for sq in map(region.site_map, pc.free))


# -- shared-vertex witness ---------------------------------------------

def shared_vertex_decide(h: GeodesicHull, i: int, j: int, r: float):
    """Witness centers whose disks both contain one of the four split
    vertices while one of them takes every free point, or None.  It
    answers before any disk intersection is built, which a hull ring
    that turns left at an extreme (`tests/test_hull.py`) can make raise
    BoundaryAssemblyError.
    """
    pc = pair_chains(h, i, j)
    region = h.region
    tols = h.ambient.tol
    free = list(pc.free)
    for vx in unique_points([h.extreme(i), h.extreme(i + 1),
                             h.extreme(j), h.extreme(j + 1)]):
        for s1, s2 in ((free, []), ([], free)):
            d1 = one_center(region, list(pc.chain1) + [vx] + s1)
            if d1.radius > r + tols.radius:
                continue
            d2 = one_center(region, list(pc.chain2) + [vx] + s2)
            if d2.radius > r + tols.radius:
                continue
            if _coverage_ok(region, pc, r, d1.center, d2.center, tols.check):
                return d1.center, d2.center
    return None


# -- events with a verified reference point ---------------------------

@dataclass
class SideData:
    events: List[Event]
    sides: Dict[Key, str]
    ref_pos: Point2
    total: float


def _prepare_side(region: Region, boundary: ArcBoundary,
                  interior: Sequence[Point2]) -> SideData:
    """Events of the interior points on a boundary that has at least one
    arc, measured from a reference point that no covered span holds."""
    arcs = boundary.arcs()
    e0 = arcs[0][0]
    p0 = boundary.elements[e0].point(0.0)
    events, sides = compute_events(region, boundary, interior, e0, p0)
    total = boundary.total_length()
    spans: List[Tuple[float, float]] = []
    by_owner: Dict[Key, List[Event]] = {}
    for e in events:
        by_owner.setdefault(_key(e.owner), []).append(e)
    for k_, evs in by_owner.items():
        ins = [e.param for e in evs if e.flag == "in"]
        outs = [e.param for e in evs if e.flag == "out"]
        for a, b in zip(ins, outs):
            spans.append((a, b))
    # a reference point must not sit strictly inside any covered span
    cum = boundary.cum_lengths()
    base = cum[e0]

    def rel(s: float) -> float:
        return (s - base) % total if total > 0 else 0.0

    cands: List[float] = []
    for idx, arc in arcs:
        cands.append(rel(cum[idx]))
        cands.append(rel(cum[idx] + arc.length()))
    cands.extend(e.param for e in events)
    tol = region.tp.tol.near

    def violations(p: float) -> int:
        n = 0
        for a, b in spans:
            width = (b - a) % total if total > 0 else 0.0
            off = (p - a) % total if total > 0 else 0.0
            if tol < off < width - tol:
                n += 1
        return n

    cands = sorted(set(c % total if total > 0 else 0.0 for c in cands))
    best = min(cands, key=lambda p: (violations(p), p))
    ref_param = best
    # locate the reference position on the boundary
    ref_pos = _pos_at_param(boundary, (ref_param + base) % total if total > 0 else 0.0)
    shifted = [Event(e.position, e.owner, e.flag,
                     (e.param - ref_param) % total if total > 0 else 0.0)
               for e in events]
    shifted.sort(key=lambda e: (e.param, e.flag == "out", e.owner.x, e.owner.y))
    return SideData(shifted, sides, ref_pos, total)


def chain_side(h: GeodesicHull, pc: PairChains, chain: Tuple[Point2, ...],
               r: float) -> Tuple[str, object]:
    """One chain's disk intersection on the hull ring at radius r, as the
    cascade reads it: ("empty", None), ("point", the pinch point),
    ("noarcs", None), or ("arcs", its SideData over pc.free).

    Computed once per hull, chain and radius, so that a probe of
    `optimize._event_signature` and a `decide` at the same radius share
    it.  An error is not cached; a repeat call raises it again.
    """
    cache = h.hull_region._side_cache
    key = (chain, pc.free, r)
    hit = cache.get(key)
    if hit is None:
        b = disks_intersection(h.hull_region, chain, r)
        if b is None:
            hit = ("empty", None)
        elif b.is_point:
            hit = ("point", b.point)
        elif not b.arcs():
            hit = ("noarcs", None)
        else:
            hit = ("arcs", _prepare_side(h.region, b, pc.free))
        cache[key] = hit
    return hit


def _pos_at_param(boundary: ArcBoundary, param: float) -> Point2:
    cum = boundary.cum_lengths()
    total = cum[-1]
    if total <= 0:
        return boundary.elements[0].point(0.0)
    param %= total
    for idx, e in enumerate(boundary.elements):
        if param <= cum[idx + 1] + 1e-15:
            L = e.length()
            t = 0.0 if L <= 0 else (param - cum[idx]) / L
            return e.point(max(0.0, min(1.0, t)))
    return boundary.elements[-1].point(1.0)


# -- three-cursor scan -------------------------------------------------

def scan_decide(region: Region, pc: PairChains, r: float,
                side1: SideData, side2: SideData, tol: float):
    """Walk c1 clockwise over side 1's events while two side-2 cursors
    chase clockwise and counterclockwise; test full coverage of the free
    points at every stop.  Returns witness centers or None."""
    free = list(pc.free)
    keys = [_key(q) for q in free]
    qmap = {k_: q for k_, q in zip(keys, free)}
    M1, M2 = side1.events, side2.events
    ev2 = {}
    for e in M2:
        ev2.setdefault(_key(e.owner), {})[e.flag] = e

    pos1 = side1.ref_pos
    pos2c = side2.ref_pos
    pos2cc = side2.ref_pos

    in1 = {k_: region.site_map(qmap[k_]).distance(pos1) <= r + tol for k_ in keys}
    in2c = {k_: region.site_map(qmap[k_]).distance(pos2c) <= r + tol for k_ in keys}
    in2cc = dict(in2c)

    def check() -> Optional[Tuple[Point2, Point2]]:
        if all(in1[k_] or in2c[k_] for k_ in keys):
            if _coverage_ok(region, pc, r, pos1, pos2c, tol):
                return pos1, pos2c
        if all(in1[k_] or in2cc[k_] for k_ in keys):
            if _coverage_ok(region, pc, r, pos1, pos2cc, tol):
                return pos1, pos2cc
        return None

    hit = check()
    if hit:
        return hit

    i2c = 0
    i2cc = len(M2) - 1

    def param2c() -> float:
        return 0.0 if i2c == 0 else M2[i2c - 1].param

    def param2cc() -> float:
        return side2.total if i2cc == len(M2) - 1 else M2[i2cc + 1].param

    def chase_cw(target: Event) -> Optional[Tuple[Point2, Point2]]:
        nonlocal i2c, pos2c
        if param2c() > target.param + 1e-12:
            return None
        while i2c < len(M2):
            y = M2[i2c]
            if y.param > target.param + 1e-12:
                break
            i2c += 1
            pos2c = y.position
            if y.flag == "in":
                in2c[_key(y.owner)] = True
            hit = check()
            if hit:
                return hit
            if y is target:
                break
            if y.flag == "out":
                in2c[_key(y.owner)] = False
        return None

    def chase_ccw(target: Event) -> Optional[Tuple[Point2, Point2]]:
        nonlocal i2cc, pos2cc
        if param2cc() < target.param - 1e-12:
            return None
        while i2cc >= 0:
            y = M2[i2cc]
            if y.param < target.param - 1e-12:
                break
            i2cc -= 1
            pos2cc = y.position
            if y.flag == "out":
                in2cc[_key(y.owner)] = True
            hit = check()
            if hit:
                return hit
            if y is target:
                break
            if y.flag == "in":
                in2cc[_key(y.owner)] = False
        return None

    for x in M1:
        pos1 = x.position
        kx = _key(x.owner)
        if x.flag == "in":
            in1[kx] = True
            hit = check()
            if hit:
                return hit
            continue
        # an Out event: x.owner is about to fall out of disk 1
        hit = check()
        if hit:
            return hit
        side = side2.sides.get(kx)
        if side == "events":
            tgt = ev2.get(kx, {})
            if not (in2c.get(kx) and param2c() <= tgt.get("out", x).param):
                t_in = tgt.get("in")
                if t_in is not None:
                    hit = chase_cw(t_in)
                    if hit:
                        return hit
            t_out = tgt.get("out")
            if t_out is not None and not in2cc.get(kx):
                hit = chase_ccw(t_out)
                if hit:
                    return hit
        elif side == "disjoint" and not in2c.get(kx) and not in2cc.get(kx):
            # nobody else can serve x.owner once c1 moves on
            return check()
        if param2c() > param2cc() + 1e-12:
            return check()
        in1[kx] = False
        hit = check()
        if hit:
            return hit
    return check()


# -- the cascade -------------------------------------------------------

# per-solve counter of "branch:y" / "branch:n" outcomes; None outside a solve
BRANCH_COUNTS: ContextVar[Optional[Counter]] = ContextVar("BRANCH_COUNTS", default=None)

# largest free-point count `_split_enumerate` is run on; above it the
# cascade cannot decide and raises CertificateError
SPLIT_ENUM_CAP = 14


def chain_infeasible(h: GeodesicHull, pc: PairChains, r: float) -> bool:
    """The cascade's "chain-infeasible" exit, checked just below the
    "hull-radius" one: a chain's one-center radius exceeds r by more than
    tol.radius.  It holds on an initial run of any ascending radii."""
    eps = h.ambient.tol.radius
    oc1, oc2 = (one_center(h.region, c) for c in (pc.chain1, pc.chain2))
    return oc1.radius > r + eps or oc2.radius > r + eps


def decide(h: GeodesicHull, i: int, j: int, r: float) -> DecisionResult:
    """Is there an (i, j)-restricted placement of two radius-r disks?"""
    res = _decide(h, i, j, r)
    counts = BRANCH_COUNTS.get()
    if counts is not None:
        counts[f"{res.branch}:{'y' if res.feasible else 'n'}"] += 1
    return res


def _decide(h: GeodesicHull, i: int, j: int, r: float) -> DecisionResult:
    pc = pair_chains(h, i, j)
    region = h.region
    tols = h.ambient.tol
    tol = tols.check
    eps = tols.radius

    hc = h.hull_center()
    if r >= hc.radius - eps:
        return DecisionResult(True, "hull-radius", (hc.center, hc.center))

    # every shared-vertex set holds a whole chain, so this test goes first
    if chain_infeasible(h, pc, r):
        return DecisionResult(False, "chain-infeasible")

    sv = shared_vertex_decide(h, i, j, r)
    if sv is not None:
        return DecisionResult(True, "shared-vertex", sv)

    if not pc.free:
        oc1, oc2 = (one_center(region, c) for c in (pc.chain1, pc.chain2))
        return DecisionResult(True, "no-free-points", (oc1.center, oc2.center))

    (t1, s1), (t2, s2) = (chain_side(h, pc, c, r) for c in (pc.chain1, pc.chain2))
    if "empty" in (t1, t2):
        return DecisionResult(False, "intersection-empty")

    if "point" in (t1, t2):
        c1 = s1 if t1 == "point" else None
        c2 = s2 if t2 == "point" else None
        if c1 is not None and c2 is not None:
            if _coverage_ok(region, pc, r, c1, c2, tol):
                return DecisionResult(True, "pinched", (c1, c2))
            return DecisionResult(False, "pinched")
        fixed, other_chain = (c1, pc.chain2) if c1 is not None else (c2, pc.chain1)
        assert fixed is not None
        rest = [q for q in pc.free if region.site_map(q).distance(fixed) > r + tol]
        oc = one_center(region, list(other_chain) + rest)
        if oc.radius <= r + eps:
            cc1, cc2 = (fixed, oc.center) if c1 is not None else (oc.center, fixed)
            if _coverage_ok(region, pc, r, cc1, cc2, tol):
                return DecisionResult(True, "pinched", (cc1, cc2))
        return DecisionResult(False, "pinched")

    if "noarcs" in (t1, t2):
        # an arcless intersection equals the hull, so the hull disk works
        if _coverage_ok(region, pc, r, hc.center, hc.center, tol):
            return DecisionResult(True, "no-arc", (hc.center, hc.center))
        return DecisionResult(False, "no-arc-anomaly")

    # a point's disk may meet I_t only through a strip along the hull
    # boundary, so arc classifications alone cannot prove infeasibility;
    # reachability is decided by a one-center instead
    def reach(chain, q) -> bool:
        return one_center(region, list(chain) + [q]).radius <= r + eps

    forced2 = [q for q in pc.free if not reach(pc.chain1, q)]
    forced1 = [q for q in pc.free if not reach(pc.chain2, q)]
    fk1 = {_key(q) for q in forced1}
    for q in forced2:
        if _key(q) in fk1:
            return DecisionResult(False, "separated-point")
    ocf1 = one_center(region, list(pc.chain1) + forced1)
    if ocf1.radius > r + eps:
        return DecisionResult(False, "forced-overload")
    ocf2 = one_center(region, list(pc.chain2) + forced2)
    if ocf2.radius > r + eps:
        return DecisionResult(False, "forced-overload")

    # one stage, chosen by which sides have events; `found` labels a
    # witness that only split enumeration finds
    if not s1.events and not s2.events:
        stage = found = "no-events"
        for c1p, c2p in ((s1.ref_pos, s2.ref_pos), (ocf1.center, ocf2.center)):
            if _coverage_ok(region, pc, r, c1p, c2p, tol):
                return DecisionResult(True, stage, (c1p, c2p))
    elif not s1.events or not s2.events:
        # disks around the quiet side a never cross its arcs; points its
        # disks miss entirely must all fit in the other side's disk
        stage = found = "one-side-quiet"
        flip = not s2.events
        sa, ca, cb, forced_b = ((s2, pc.chain2, pc.chain1, forced1) if flip
                                else (s1, pc.chain1, pc.chain2, forced2))
        need = {_key(q) for q in pc.free if sa.sides.get(_key(q)) == "disjoint"}
        need |= {_key(q) for q in forced_b}
        pts = [q for q in pc.free if _key(q) in need]
        oc = one_center(region, list(cb) + pts)
        if oc.radius <= r + eps:
            rest = [q for q in pc.free
                    if region.site_map(q).distance(oc.center) > r + tol]
            oca = one_center(region, list(ca) + rest)
            for c_a in (oca.center, sa.ref_pos):
                c1c, c2c = (oc.center, c_a) if flip else (c_a, oc.center)
                if _coverage_ok(region, pc, r, c1c, c2c, tol):
                    return DecisionResult(True, stage, (c1c, c2c))
    else:
        stage, found = "scan", "split-enum"
        for flip in (False, True):
            pcs, sa, sb = (_swap(pc), s2, s1) if flip else (pc, s1, s2)
            hit = scan_decide(region, pcs, r, sa, sb, tol)
            if hit is not None:
                c1c, c2c = hit[::-1] if flip else hit
                return DecisionResult(True, stage, (c1c, c2c))

    if len(pc.free) > SPLIT_ENUM_CAP:
        raise CertificateError(
            f"pair ({i},{j}) at r={r}: {len(pc.free)} free points exceed "
            f"SPLIT_ENUM_CAP={SPLIT_ENUM_CAP} and the scan found no witness")
    hit = _split_enumerate(region, pc, r, tol)
    if hit is not None:
        return DecisionResult(True, found, hit)
    return DecisionResult(False, stage)


def _swap(pc: PairChains) -> PairChains:
    return PairChains(pc.j, pc.i, pc.chain2, pc.chain1, pc.free)


def _split_enumerate(region: Region, pc: PairChains, r: float, tol: float):
    """Exact restricted decision by assigning free points to sides one
    at a time, pruning with memoized one-centers.  The cascade's last
    stage: it runs only when the arc machinery certified neither answer,
    and only on at most SPLIT_ENUM_CAP free points, since the search
    doubles with each one.  Returns witness centers or None."""
    free = sorted(pc.free, key=lambda p: (p.x, p.y))
    eps = region.tp.tol.radius

    def rec(idx: int, s1: List[Point2], s2: List[Point2]):
        oc1 = one_center(region, list(pc.chain1) + s1)
        if oc1.radius > r + eps:
            return None
        oc2 = one_center(region, list(pc.chain2) + s2)
        if oc2.radius > r + eps:
            return None
        if idx == len(free):
            if _coverage_ok(region, pc, r, oc1.center, oc2.center, tol):
                return oc1.center, oc2.center
            return None
        q = free[idx]
        got = rec(idx + 1, s1 + [q], s2)
        if got is not None:
            return got
        return rec(idx + 1, s1, s2 + [q])

    return rec(0, [], [])
