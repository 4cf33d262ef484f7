#!/usr/bin/env python3
"""Solve the fixed output-check corpus and write every outcome to OUT.json.

    python3 scripts/corpus_outputs.py OUT.json

The corpus is the four generator families at 12x6, 16x8 and 48x6 with
seeds 0-5, at 20x10 with seeds 0-2 and at 24x12 with seeds 0-1 (92
instances).  Each instance maps to its radius and centers as
`float.hex`, its candidate pair and its `branch_stats`, or to the class
name of the solver error it raised (`cli.SOLVER_ERRORS`; any other
exception stops the script).  Every solution is replayed with
`cli.verify_record` first.  The file is sorted JSON, so `diff` on the
files of two commits shows every output that moved.  The total wall
time goes to stderr, not into the file.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from twocenter.cli import SOLVER_ERRORS, make_record, verify_record  # noqa: E402
from twocenter.driver import two_center  # noqa: E402
from twocenter.instances import FAMILIES, generate  # noqa: E402
from twocenter.polygon import SimplePolygon  # noqa: E402

# (n, m, seeds) per cell
CELLS = ((12, 6, range(6)), (16, 8, range(6)), (48, 6, range(6)),
         (20, 10, range(3)), (24, 12, range(2)))


def outcome(inst) -> dict:
    try:
        sol = two_center(SimplePolygon(inst.polygon), inst.points)
    except SOLVER_ERRORS as exc:
        return {"error": type(exc).__name__}
    verify_record(inst, make_record(sol, inst.points, 0))
    return {
        "radius": sol.radius.hex(),
        "centers": [[c.x.hex(), c.y.hex()] for c in (sol.c1, sol.c2)],
        "pair": [sol.pair.i, sol.pair.j],
        "branch_stats": sol.branch_stats,
    }


def write_outputs(cells) -> None:
    """Solve the four families at every (n, m, seeds) cell and write the
    outcomes to the path given as the one argument."""
    if len(sys.argv) != 2:
        sys.exit(f"usage: {os.path.basename(sys.argv[0])} OUT.json")
    out = {}
    t0 = time.perf_counter()
    for n, m, seeds in cells:
        for fam in FAMILIES:
            for s in seeds:
                key = f"{fam}/{n}x{m}/s{s}"
                out[key] = outcome(generate(fam, n, m, s))
                print(key, out[key].get("error") or float.fromhex(out[key]["radius"]),
                      flush=True)
    print(f"wall time {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(sys.argv[1], "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_outputs(CELLS)
