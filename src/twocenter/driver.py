"""Top-level two-center solver.

Puts the pieces together: build the hull of Q, bound the radius by the
hull's one-center, optimize every chain split of the hull's extremes
below that bound and below the best radius so far, in increasing order
of the split's larger chain radius, and keep the best witness.  The
search stops at the first split whose larger chain radius exceeds the
best radius so far.  Splits come from `split_order`, which solves a
split's chain one-centers only once a lower bound (half the larger
chain's geodesic diameter) says it may be next, so the splits past the
stop cost no one-center.  A flat hull (one or two extremes, or a ring of
zero area, as for one or two distinct points) puts Q on one geodesic;
its best prefix split is scored by one-centers instead.  Every answer
is certified before it is returned.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import decision
from .decision import pair_chains
from .disks import one_center
from .errors import CertificateError, DegenerateHull, PointOutsidePolygon
from .geom import Point2, ring_area2, unique_points
from .hull import GeodesicHull, geodesic_hull
from .optimize import RadiusInterval, optimize_pair
from .polygon import SimplePolygon, TriangulatedPolygon, triangulate
from .region import Key, Region


@dataclass(frozen=True)
class CandidatePair:
    i: int
    j: int


@dataclass
class TwoCenterSolution:
    c1: Point2
    c2: Point2
    radius: float
    pair: CandidatePair
    assignment: Dict[Key, int]
    branch_stats: Dict[str, int] = field(default_factory=dict)


def _balance(h: GeodesicHull, i: int, j: int) -> float:
    """The larger chain radius of the (i, j) split."""
    k = h.k
    return max(h.chain_radius((i + 1) % k, j % k),
               h.chain_radius((j + 1) % k, i % k))


def _chain_bounds(h: GeodesicHull) -> List[List[float]]:
    """lb[a][b]: a lower bound on `h.chain_radius(a, b)`, half the largest
    geodesic distance between two of the extremes v_a..v_b, less tol.near.

    Any center lies at least half of d(u, w) from u or from w, so the
    one-center radius is no smaller; the slack covers its rounding.  Read
    from the extremes' maps, which the hull built already.
    """
    k = h.k
    region, near = h.region, h.ambient.tol.near
    d = [[region.site_map(u).distance(w) for w in h.extremes] for u in h.extremes]
    # diam[a][s]: largest distance within the chain of s + 1 extremes from v_a
    diam = [[0.0] * k for _ in range(k)]
    for s in range(1, k):
        for a in range(k):
            b = (a + s) % k
            diam[a][s] = max(diam[a][s - 1], diam[(a + 1) % k][s - 1], d[a][b])
    return [[diam[a][(b - a) % k] / 2 - near for b in range(k)] for a in range(k)]


def split_order(h: GeodesicHull) -> Iterator[Tuple[float, int, int]]:
    """Every chain split (i, j) with i < j as (balance, i, j), in exactly
    the order of `sorted((_balance(h, i, j), i, j) ...)`.

    A heap holds each split under the lower bound of its larger chain
    (`_chain_bounds`) until that bound is the least key left; only then
    is the split's balance solved and pushed back.  A balance is never
    below its bound, so every split still keyed by a bound comes after
    the one yielded, and a caller that stops early solves no one-center
    of a later split.
    """
    k = h.k
    if k < 2:
        raise DegenerateHull(f"{k} extreme(s)")
    lb = _chain_bounds(h)
    # (key, 0 = bound / 1 = exact balance, i, j)
    heap = [(max(lb[(i + 1) % k][j], lb[(j + 1) % k][i]), 0, i, j)
            for i in range(k) for j in range(i + 1, k)]
    heapq.heapify(heap)
    while heap:
        key, exact, i, j = heapq.heappop(heap)
        if exact:
            yield key, i, j
        else:
            heapq.heappush(heap, (_balance(h, i, j), 1, i, j))


def candidate_pairs(h: GeodesicHull) -> List[CandidatePair]:
    """Every chain split (i, j) with i < j, in increasing balance, ties by
    index: the whole of `split_order`.

    The paper keeps only the O(k) splits next to each extreme's balance
    minimizers, which bounds its running time, not its answer.  Searched
    in this order, the first split whose chain one-centers exceed the best
    radius so far ends the search without a decision: `decide` would
    answer "no" from those one-centers there and at every later split.
    The solve reads `split_order` lazily instead, so it solves the chain
    one-centers of the splits it reaches only.
    """
    return [CandidatePair(i, j) for _b, i, j in split_order(h)]


def assistant_interval(h: GeodesicHull) -> RadiusInterval:
    """(0, r_U] with r_U the radius of the hull's one-center.

    One disk of that radius covers Q, so the optimum lies in the
    interval.  The paper shrinks it by median tests over shortest-path-map
    distances to bound its running time; each pair's own search inside
    `optimize_pair` fixes the exact radius either way, and a false "no"
    from `decide` could steer those tests past the optimum.
    """
    return RadiusInterval(0.0, h.hull_center().radius)


def _line_solution(h: GeodesicHull, pts: List[Point2]) -> TwoCenterSolution:
    """All of Q on one geodesic path: the best prefix split in path order.

    Each side's disk is the one-center of its two end points.  Geodesic
    distance is convex along the path (Pollack, Sharir and Rote 1989), so
    that disk covers every point of the side between them."""
    region = h.region
    a, _b = max(((a, b) for a in h.extremes for b in h.extremes),
                key=lambda ab: region.site_map(ab[0]).distance(ab[1]))
    sa = region.site_map(a)
    order = sorted(pts, key=lambda q: (sa.distance(q), q))

    def split(cut: int):
        d1 = one_center(region, (order[0], order[cut - 1]))
        d2 = one_center(region, (order[cut], order[-1])) if cut < len(order) else d1
        return max(d1.radius, d2.radius), d1.center, d2.center, cut

    r, c1, c2, cut = min(map(split, range(1, len(order) + 1)), key=lambda s: s[0])
    assign = {(q.x, q.y): 1 if t < cut else 2 for t, q in enumerate(order)}
    return TwoCenterSolution(c1, c2, r, CandidatePair(0, 1 % h.k), assign)


def _assignment(h: GeodesicHull, pr: CandidatePair, c1: Point2, c2: Point2,
                pts: Sequence[Point2]) -> Dict[Key, int]:
    region = h.region
    pc = pair_chains(h, pr.i, pr.j)
    forced: Dict[Key, int] = {(e.x, e.y): 1 for e in pc.chain1}
    forced.update({(e.x, e.y): 2 for e in pc.chain2})
    out: Dict[Key, int] = {}
    for q in pts:
        key = (q.x, q.y)
        if key in forced:
            out[key] = forced[key]
        else:
            sq = region.site_map(q)
            out[key] = 1 if sq.distance(c1) <= sq.distance(c2) else 2
    return out


def _certify(h: GeodesicHull, sol: TwoCenterSolution, pts: Sequence[Point2]):
    region = h.region
    worst = 0.0
    for q in pts:
        sq = region.site_map(q)
        worst = max(worst, min(sq.distance(sol.c1), sq.distance(sol.c2)))
    if worst > sol.radius * (1 + 1e-6) + h.ambient.tol.near:
        raise CertificateError(
            f"coverage {worst} exceeds radius {sol.radius}")
    for c in (sol.c1, sol.c2):
        if h.hull_region.classify(c) == "outside":
            raise CertificateError(f"center {c} outside the hull")


def _solve_on(tp: TriangulatedPolygon, pts: List[Point2]) -> TwoCenterSolution:
    stats: Counter = Counter()
    token = decision.BRANCH_COUNTS.set(stats)
    try:
        uniq = unique_points(pts)
        h = geodesic_hull(tp, uniq)
        if h.k <= 2 or abs(ring_area2(h.ring)) <= tp.tol.area:
            sol = _line_solution(h, uniq)
        else:
            iv = assistant_interval(h)
            eps = tp.tol.radius
            best: Optional[Tuple[float, Point2, Point2, CandidatePair]] = None
            for bal, i, j in split_order(h):
                hi = iv.hi if best is None else min(iv.hi, best[0])
                if hi < iv.hi - eps and bal > hi + eps:
                    break    # decide's chain-infeasible exit, here and after
                got = optimize_pair(h, i, j, RadiusInterval(iv.lo, hi))
                if got is None:
                    continue
                r, c1, c2 = got
                if best is None or r < best[0] - 1e-15:
                    best = (r, c1, c2, CandidatePair(i, j))
            if best is None:
                raise CertificateError("no candidate pair optimized")
            r, c1, c2, p = best
            sol = TwoCenterSolution(c1, c2, r, p, _assignment(h, p, c1, c2, uniq))
        _certify(h, sol, uniq)
        sol.branch_stats = dict(sorted(stats.items()))
        return sol
    finally:
        decision.BRANCH_COUNTS.reset(token)


def two_center(poly: SimplePolygon, points: Sequence) -> TwoCenterSolution:
    """Optimal two geodesic centers for the given sites."""
    if not points:
        raise PointOutsidePolygon("no points given")
    pts = [Point2(float(p[0]), float(p[1])) for p in points]
    scale = 1.0
    if poly.diameter > 0:
        scale = 2.0 ** round(math.log2(64.0 / poly.diameter))
    if scale != 1.0:
        poly = poly.scaled(scale)
    spts = [Point2(q.x * scale, q.y * scale) for q in pts]
    tp = triangulate(poly)
    for q, sq in zip(pts, spts):    # at the solve's scale, with its tolerance
        if Region.of(tp).classify(sq) == "outside":
            raise PointOutsidePolygon(f"{tuple(q)} outside the polygon")
    sol = _solve_on(tp, spts)
    inv = 1.0 / scale
    assign = {(q.x, q.y): sol.assignment[(q.x * scale, q.y * scale)] for q in pts}
    return TwoCenterSolution(
        Point2(sol.c1.x * inv, sol.c1.y * inv),
        Point2(sol.c2.x * inv, sol.c2.y * inv),
        sol.radius * inv, sol.pair, assign, sol.branch_stats)
