"""Command line front end: solve, generate, and render instances.

Exit codes: 0 success, 1 invalid instance or parameters (including
unreadable input), 2 point outside the polygon, 3 oracle disagreement,
4 the solver could not certify a solution (one of its own errors).
Diagnostics go to stderr; records go to stdout unless --out is given.
"""

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .driver import two_center, TwoCenterSolution
from .errors import (BoundaryAssemblyError, CertificateError, DegenerateHull,
                     HullConvergenceError, InfeasibleInterval, InvalidPolygon,
                     PointOutsidePolygon, TooLarge)
from .geom import Point2, unique_points
from .instances import FAMILIES, Instance, dump_instance, generate, load_instance
from .oracle import oracle_two_center
from .polygon import SimplePolygon, triangulate
from .region import Region
from .svg import render_svg

__all__ = ["main", "make_record", "verify_record"]

# Errors raised by the solver itself when it cannot certify a solution.
SOLVER_ERRORS = (BoundaryAssemblyError, DegenerateHull, HullConvergenceError,
                 InfeasibleInterval, CertificateError)


def make_record(sol: TwoCenterSolution, points: Sequence[Point2],
                wall_time_ms: int) -> dict:
    return {
        "radius": sol.radius,
        "centers": [[sol.c1.x, sol.c1.y], [sol.c2.x, sol.c2.y]],
        "pair": [sol.pair.i, sol.pair.j],
        "assignment": [sol.assignment[(q.x, q.y)] for q in points],
        "branch_stats": dict(sol.branch_stats),
        "wall_time_ms": wall_time_ms,
    }


def verify_record(inst: Instance, rec: dict, epsilon: float = 1e-9) -> None:
    """Replay the coverage certificate of a stored solution.

    Raises ValueError when the record does not cover the instance at its
    claimed radius (with relative slack 1e-6 plus `epsilon` absolute per
    unit of instance diameter).
    """
    radius = float(rec["radius"])
    centers = [Point2(c[0], c[1]) for c in rec["centers"]]
    assignment = list(rec["assignment"])
    if len(centers) != 2:
        raise ValueError("record must carry exactly two centers")
    if len(assignment) != len(inst.points):
        raise ValueError("assignment length does not match point count")
    if any(a not in (1, 2) for a in assignment):
        raise ValueError("assignment labels must be 1 or 2")
    poly = SimplePolygon(inst.polygon)
    tp = triangulate(poly)
    region = Region.of(tp)
    diam = tp.diameter
    slack = radius * 1e-6 + max(epsilon, 1e-12) * max(diam, 1.0)
    for q, a in zip(inst.points, assignment):
        d = region.distance(centers[a - 1], q)
        if d > radius + slack:
            raise ValueError(
                f"point {tuple(q)} at distance {d} from its center, "
                f"radius {radius}")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    try:
        inst = load_instance(args.input)
    except PointOutsidePolygon as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, InvalidPolygon) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    poly = SimplePolygon(inst.polygon)
    t0 = time.perf_counter()
    try:
        sol = two_center(poly, inst.points)
    except PointOutsidePolygon as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as e:
        print(f"error: solver could not certify: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 4
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    rec = make_record(sol, inst.points, wall_ms)
    try:
        verify_record(inst, rec, args.epsilon)
    except ValueError as e:
        print(f"error: certificate replay failed: {e}", file=sys.stderr)
        return 1

    code = 0
    if args.oracle:
        try:
            r_ref, _centers, _sides = oracle_two_center(poly, unique_points(inst.points))
        except TooLarge as e:
            print(f"oracle skipped: {e}", file=sys.stderr)
        else:
            gap = abs(sol.radius - r_ref)
            tol = 1e-4 * max(abs(sol.radius), abs(r_ref))
            tol += 1e-9 * max(poly.diameter, 1.0)
            if gap > tol:
                print(f"oracle mismatch: solver {sol.radius!r} vs "
                      f"oracle {r_ref!r}", file=sys.stderr)
                code = 3
            else:
                print(f"oracle agreement: {r_ref!r}", file=sys.stderr)

    _emit(json.dumps(rec, indent=2) + "\n", args.out)
    if args.svg:
        doc = render_svg(poly, inst.points, centers=(sol.c1, sol.c2),
                         radius=sol.radius)
        with open(args.svg, "w") as fh:
            fh.write(doc)
    return code


def cmd_gen(args) -> int:
    try:
        inst = generate(args.family, args.n, args.m, args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(dump_instance(inst) + "\n")
    return 0


def cmd_render(args) -> int:
    try:
        inst = load_instance(args.input)
    except (OSError, ValueError, InvalidPolygon, PointOutsidePolygon) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    centers = None
    radius = None
    if args.solution:
        try:
            with open(args.solution, "r") as fh:
                rec = json.load(fh)
            verify_record(inst, rec)
            centers = (Point2(rec["centers"][0][0], rec["centers"][0][1]),
                       Point2(rec["centers"][1][0], rec["centers"][1][1]))
            radius = float(rec["radius"])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    poly = SimplePolygon(inst.polygon)
    doc = render_svg(poly, inst.points, centers=centers, radius=radius)
    _emit(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twocenter",
        description="Geodesic two-center solver for points in a simple polygon")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance file")
    sp.add_argument("input", help="instance JSON path")
    sp.add_argument("--epsilon", type=float, default=1e-9,
                    help="certificate tolerance (default 1e-9)")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the brute-force oracle "
                         "(at most 12 distinct points)")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="write the solution record here instead of stdout")
    sp.add_argument("--svg", metavar="PATH", default=None,
                    help="also render the solved instance to this SVG file")
    sp.set_defaults(func=cmd_solve)

    gp = sub.add_parser("gen", help="generate a random instance")
    gp.add_argument("--n", type=int, default=12, help="polygon vertices")
    gp.add_argument("--m", type=int, default=6, help="point count")
    gp.add_argument("--seed", type=int, default=0, help="random seed")
    gp.add_argument("--family", default="random",
                    help="one of: " + ", ".join(FAMILIES))
    gp.set_defaults(func=cmd_gen)

    rp = sub.add_parser("render", help="render an instance (and optionally "
                                       "a solution) to SVG")
    rp.add_argument("input", help="instance JSON path")
    rp.add_argument("solution", nargs="?", default=None,
                    help="solution record JSON path")
    rp.add_argument("--out", metavar="PATH", default=None,
                    help="write the SVG here instead of stdout")
    rp.set_defaults(func=cmd_render)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
