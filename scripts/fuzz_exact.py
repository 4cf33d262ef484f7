#!/usr/bin/env python3
"""Differential fuzz of `two_center` against the exact reference.

    python3 scripts/fuzz_exact.py

Solves the four generator families at n in {8, 10, 13, 17, 22}, m in
3..10 and seeds 100-124 (4,000 instances, about 70 s on a 2-core box)
and compares each radius with `_exact_radius` of tests/test_acceptance.py,
the minimum over every bipartition of Q of the larger one-center radius.
An outcome is "exact" within 1e-9 relative, "high" or "low" beyond it,
or the class name of the solver error raised (`cli.SOLVER_ERRORS`; any
other exception stops the script).  Prints every outcome that is not
exact, then the count per outcome and the largest ratio of a radius to
its reference.  Needs the test extra (pytest) for the reference's module.
"""

import os
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

from test_acceptance import _exact_radius  # noqa: E402
from twocenter.cli import SOLVER_ERRORS  # noqa: E402
from twocenter.driver import two_center  # noqa: E402
from twocenter.instances import FAMILIES, generate  # noqa: E402
from twocenter.polygon import SimplePolygon  # noqa: E402

NS = (8, 10, 13, 17, 22)
MS = range(3, 11)
SEEDS = range(100, 125)
REL_TOL = 1e-9


def main() -> int:
    counts: Counter = Counter()
    worst = (0.0, None)
    t0 = time.perf_counter()
    for fam in FAMILIES:
        for n in NS:
            for m in MS:
                for s in SEEDS:
                    key = f"{fam}/{n}x{m}/s{s}"
                    inst = generate(fam, n, m, s)
                    try:
                        r = two_center(SimplePolygon(inst.polygon), inst.points).radius
                    except SOLVER_ERRORS as exc:
                        counts[type(exc).__name__] += 1
                        print(key, type(exc).__name__, flush=True)
                        continue
                    ref = _exact_radius(inst)
                    if abs(r - ref) <= REL_TOL * ref:
                        counts["exact"] += 1
                    else:
                        outcome = "high" if r > ref else "low"
                        counts[outcome] += 1
                        print(key, outcome, repr(r), repr(ref), flush=True)
                    if ref > 0 and r / ref > worst[0]:
                        worst = (r / ref, key)
    for outcome, c in sorted(counts.items()):
        print(f"{outcome}: {c}")
    print(f"worst ratio: {worst[0]!r} ({worst[1]})")
    print(f"wall time {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
