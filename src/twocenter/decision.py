"""Feasibility test for one chain split at one radius.

decide(h, i, j, r) answers whether two geodesic disks of radius r can
cover Q so that disk 1 contains the extreme chain v_{j+1}..v_i and disk 2
contains v_{i+1}..v_j.  Every stage reads the split's chain one-centers
and disk intersections from its one record, `PairChains`.  The cascade
runs top to bottom, certain exits first: whole-hull disk, chain
one-centers, the split's one-center lower bound L_ij (`below_bound`:
some free point is out of both chains' reach, a "no" labelled
forced-overload), the shared-vertex witness (one-centers only, tried
before any disk intersection is built; a chain whose one-center with
some free point, `PairChains.far`, is already past r is not tried with
them all), interior-free exit, empty or pinched intersections, forced
points (one that neither chain reaches is forced to both sides).  Then
the "one-side-quiet" witness is tried from either side.  When it finds
none, exhaustive split enumeration settles the answer; above
SPLIT_ENUM_CAP free points nothing settles it and CertificateError is
raised.
"""
from __future__ import annotations

from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .disks import (ArcBoundary, OneCenterResult, compute_events,
                    disks_intersection, one_center)
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
    centers: Tuple[OneCenterResult, OneCenterResult]   # one_center of chain1, of chain2
    # per chain t, one_center(C_t + q) of each free q, in the order of `free`
    reach: Tuple[Tuple[OneCenterResult, ...], Tuple[OneCenterResult, ...]]
    # L_ij = max(larger `centers` radius, max over free q of min_t `reach`
    # radius): two disks of a smaller radius cannot hold both chains and
    # every free point
    bound: float
    # per chain t, the largest `reach` radius (0.0 with no free point): no
    # disk of a smaller radius holds C_t and every free point
    far: Tuple[float, float]
    # `chain_side` by (chain, r), filled as radii are asked
    sides: Dict[tuple, Tuple[str, object]] = field(default_factory=dict, compare=False)


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
    region = h.region
    reach = tuple(tuple(one_center(region, c + (q,)) for q in free) for c in (c1, c2))
    centers = (one_center(region, c1), one_center(region, c2))
    bound = max([oc.radius for oc in centers]
                + [min(a.radius, b.radius) for a, b in zip(*reach)])
    far = tuple(max((oc.radius for oc in ocs), default=0.0) for ocs in reach)
    pc = PairChains(i, j, c1, c2, tuple(free), centers, reach, bound, far)
    cache[(i, j)] = pc
    return pc


def chain_center(region: Region, pc: PairChains, t: int,
                 pts: Sequence[Point2]) -> OneCenterResult:
    """one_center(C + pts), C = pc.chain1 (t = 0) or pc.chain2 (t = 1), read
    from `centers` or `reach` when pts adds at most one free point to C."""
    chain = (pc.chain1, pc.chain2)[t]
    extra = {_key(p) for p in pts} - {_key(e) for e in chain}
    if not extra:
        return pc.centers[t]
    if len(extra) == 1:
        for q, oc in zip(pc.free, pc.reach[t]):
            if _key(q) in extra:
                return oc
    return one_center(region, list(chain) + list(pts))


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
    answers from one-centers alone, before any disk intersection is
    built, so a split it settles costs no `chain_side` call.

    The tries that give chain t every free point are skipped, unsolved,
    when `PairChains.far` of that chain exceeds r + tol.radius + tol.near:
    their one-center holds that one-center's set, so its radius, less
    tol.near of rounding, is no smaller, and the try's radius test would
    fail.
    """
    pc = pair_chains(h, i, j)
    region = h.region
    tols = h.ambient.tol
    free = list(pc.free)
    cap = r + tols.radius + tols.near
    tries = [s for s, far in zip(((free, []), ([], free)), pc.far) if far <= cap]
    for vx in unique_points([h.extreme(i), h.extreme(i + 1),
                             h.extreme(j), h.extreme(j + 1)]):
        for s1, s2 in tries:
            d1 = chain_center(region, pc, 0, [vx] + s1)
            if d1.radius > r + tols.radius:
                continue
            d2 = chain_center(region, pc, 1, [vx] + s2)
            if d2.radius > r + tols.radius:
                continue
            if _coverage_ok(region, pc, r, d1.center, d2.center, tols.check):
                return d1.center, d2.center
    return None


# -- sides of the chain intersections ---------------------------------

class SideData:
    """The free points' events and sides on one chain's arcs, as
    `disks.compute_events` returns them.  Both are computed together on
    the first read of either: only `one_side_witness` reads `sides` and
    only `optimize._event_signature` reads `events`, and a `decide` that
    exits before its witness reads neither.  An error is raised again on
    every read."""

    def __init__(self, region: Region, boundary: ArcBoundary,
                 free: Tuple[Point2, ...]):
        self._args: Optional[tuple] = (region, boundary, free)
        self._got: Optional[tuple] = None

    def _read(self) -> Tuple[List[Tuple[Point2, str]], Dict[Key, str]]:
        if self._got is None:
            self._got = compute_events(*self._args)
            self._args = None
        return self._got

    @property
    def events(self) -> List[Tuple[Point2, str]]:
        return self._read()[0]

    @property
    def sides(self) -> Dict[Key, str]:
        return self._read()[1]


def chain_side(h: GeodesicHull, pc: PairChains, chain: Tuple[Point2, ...],
               r: float) -> Tuple[str, object]:
    """One chain's disk intersection on the hull ring at radius r, as the
    cascade reads it: ("empty", None), ("point", the pinch point),
    ("noarcs", None), or ("arcs", its SideData over pc.free, whose
    events are computed on their first read).

    Computed once per split, chain and radius, and kept in `pc.sides`, so
    that a probe of `optimize._event_signature` and a `decide` at the same
    radius share it.  An error is not kept; a repeat call raises it again.
    """
    hit = pc.sides.get((chain, r))
    if hit is None:
        b = disks_intersection(h.hull_region, chain, r)
        if b is None:
            hit = ("empty", None)
        elif b.is_point:
            hit = ("point", b.point)
        elif not b.arcs():
            hit = ("noarcs", None)
        else:
            hit = ("arcs", SideData(h.region, b, pc.free))
        pc.sides[chain, r] = hit
    return hit


def one_side_witness(region: Region, pc: PairChains, r: float,
                     sides: Tuple[Dict[Key, str], Dict[Key, str]],
                     forced: Tuple[List[Point2], List[Point2]]):
    """Witness centers built from one side a, tried with a = chain 1 and
    then with a = chain 2, or None.  sides[t] and forced[t] belong to
    chain t + 1: its free points' classifications on that chain's arcs,
    and the free points only that chain's disk can reach.  Disk b takes
    forced[b] and the points whose disks miss side a's arcs entirely;
    disk a takes whatever disk b's one-center leaves uncovered.
    """
    tols = region.tp.tol
    for a, b in ((0, 1), (1, 0)):
        need = {_key(q) for q in forced[b]}
        pts = [q for q in pc.free
               if _key(q) in need or sides[a].get(_key(q)) == "disjoint"]
        ocb = chain_center(region, pc, b, pts)
        if ocb.radius > r + tols.radius:
            continue
        rest = [q for q in pc.free
                if region.site_map(q).distance(ocb.center) > r + tols.check]
        ca = chain_center(region, pc, a, rest).center
        c1, c2 = (ca, ocb.center) if a == 0 else (ocb.center, ca)
        if _coverage_ok(region, pc, r, c1, c2, tols.check):
            return c1, c2
    return None


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
    return any(oc.radius > r + eps for oc in pc.centers)


def below_bound(h: GeodesicHull, pc: PairChains, r: float) -> bool:
    """The cascade's bound exit, checked just below "chain-infeasible":
    L_ij (`PairChains.bound`) exceeds r by more than 2 tol.check +
    tol.near.  Every "yes" exit is a coverage at r + tol.check and every
    `one_center` radius is within tol.near of the optimum, so no exit
    could answer "yes" there."""
    tols = h.ambient.tol
    return pc.bound > r + 2 * tols.check + tols.near


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
    # a free point that neither chain reaches: the forced-overload exit
    # below would say "no" too, after building both disk intersections
    if below_bound(h, pc, r):
        return DecisionResult(False, "forced-overload")

    sv = shared_vertex_decide(h, i, j, r)
    if sv is not None:
        return DecisionResult(True, "shared-vertex", sv)

    if not pc.free:
        return DecisionResult(True, "no-free-points", tuple(oc.center for oc in pc.centers))

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
        fixed, other = (c1, 1) if c1 is not None else (c2, 0)
        assert fixed is not None
        rest = [q for q in pc.free if region.site_map(q).distance(fixed) > r + tol]
        oc = chain_center(region, pc, other, rest)
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
    # reachability is decided by a one-center (`pc.reach`) instead
    forced2 = [q for q, oc in zip(pc.free, pc.reach[0]) if oc.radius > r + eps]
    forced1 = [q for q, oc in zip(pc.free, pc.reach[1]) if oc.radius > r + eps]
    if any(chain_center(region, pc, t, f).radius > r + eps
           for t, f in enumerate((forced1, forced2))):
        return DecisionResult(False, "forced-overload")

    hit = one_side_witness(region, pc, r, (s1.sides, s2.sides), (forced1, forced2))
    if hit is not None:
        return DecisionResult(True, "one-side-quiet", hit)
    if len(pc.free) > SPLIT_ENUM_CAP:
        raise CertificateError(
            f"pair ({i},{j}) at r={r}: {len(pc.free)} free points exceed "
            f"SPLIT_ENUM_CAP={SPLIT_ENUM_CAP} and no one-side witness covers Q")
    hit = _split_enumerate(region, pc, r, tol)
    if hit is not None:
        return DecisionResult(True, "split-enum", hit)
    return DecisionResult(False, "one-side-quiet")


def _split_enumerate(region: Region, pc: PairChains, r: float, tol: float):
    """Exact restricted decision by assigning free points to sides one
    at a time, pruning with memoized one-centers.  The cascade's last
    stage: it runs only when the arc machinery certified neither answer,
    and only on at most SPLIT_ENUM_CAP free points, since the search
    doubles with each one.  Returns witness centers or None."""
    free = sorted(pc.free, key=lambda p: (p.x, p.y))
    eps = region.tp.tol.radius

    def rec(idx: int, s1: List[Point2], s2: List[Point2]):
        oc1 = chain_center(region, pc, 0, s1)
        if oc1.radius > r + eps:
            return None
        oc2 = chain_center(region, pc, 1, s2)
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
