#!/usr/bin/env python3
"""Polygon preprocessing time against the vertex count.

    python3 scripts/polygon_scaling.py

For each generator family at n = 16, 48, 128 and 256, and for convex and
comb also at n = 512 (the star and random generators are not usable
there), the script builds the seed-0 ring once and prints the median
over five runs, in milliseconds, of:

- `SimplePolygon(ring)`: merging, orientation and the simplicity check;
- `triangulate(poly)`: ear clipping plus the `TriangulatedPolygon` build;
- `TriangulatedPolygon(poly, triangles)`: that build alone (dual tree,
  fans and the point-location grid).

The ear clipping alone is the difference of the last two columns.
"""
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from twocenter.instances import FAMILIES, generate  # noqa: E402
from twocenter.polygon import (SimplePolygon, TriangulatedPolygon,  # noqa: E402
                               triangulate)

RUNS = 5
CELLS = [(family, n) for n in (16, 48, 128, 256) for family in FAMILIES] + \
    [("convex", 512), ("comb", 512)]


def median_ms(fn) -> float:
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main():
    print(f"{'family':<8} {'n':>4} {'SimplePolygon':>14} {'triangulate':>12} "
          f"{'TP.__init__':>12}   (ms, median of {RUNS})")
    for family, n in CELLS:
        ring = generate(family, n, 1, 0).polygon
        poly = SimplePolygon(ring)
        tris = triangulate(poly).triangles
        print(f"{family:<8} {n:>4} {median_ms(lambda: SimplePolygon(ring)):>14.3f} "
              f"{median_ms(lambda: triangulate(poly)):>12.3f} "
              f"{median_ms(lambda: TriangulatedPolygon(poly, tris)):>12.3f}",
              flush=True)


if __name__ == "__main__":
    main()
