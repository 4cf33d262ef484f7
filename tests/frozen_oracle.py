"""Frozen grid-oracle radii for acceptance criteria 03 and 06.

The grid oracle takes minutes on these instances, so
`scripts/make_fixtures.py` runs it once and writes its radii to
tests/data/oracle_answers.json, each with the generator arguments of its
instance and a fingerprint of the generated polygon and points.
`answer` fails when the generator no longer yields the instance an
answer was computed for; rerun the script then.
"""
import functools
import hashlib
import json
import pathlib

from twocenter.geom import unique_points
from twocenter.instances import generate
from twocenter.oracle import oracle_one_center, oracle_two_center
from twocenter.polygon import SimplePolygon

PATH = pathlib.Path(__file__).resolve().parent / "data" / "oracle_answers.json"
FAMS = ("convex", "star", "comb", "random")

# (family, n, m, seed) of each instance
ONE_CENTER_CELLS = [(FAMS[s % 4], 5 + (s * 3) % 26, 3 + s % 8, 3000 + s)
                    for s in range(50)]
_C6_M = [3, 4, 5, 3, 6, 4, 7, 5, 3, 8, 4, 6, 3, 5, 9, 4, 3, 6, 5, 10,
         3, 4, 7, 5, 6]
_C6_N = [6, 8, 10, 12, 14, 16, 18, 20, 7, 9, 11, 13, 15, 17, 8, 6, 19, 10,
         12, 7, 16, 18, 20, 7, 9]
TWO_CENTER_CELLS = [(FAMS[t % 4], n, m, 600 + t)
                    for t, (n, m) in enumerate(zip(_C6_N, _C6_M))]


def fingerprint(inst) -> str:
    """SHA-256 of the polygon and points, floats written by repr."""
    text = json.dumps([[list(v) for v in inst.polygon],
                       [list(q) for q in inst.points]])
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict:
    """Run the oracle on every instance, as the acceptance tests call it."""
    def one(poly, pts):
        return oracle_one_center(poly, pts)[1]

    def two(poly, pts):
        return oracle_two_center(poly, pts)[0]

    out = {}
    for kind, cells, solve in (("one_center", ONE_CENTER_CELLS, one),
                               ("two_center", TWO_CENTER_CELLS, two)):
        rows = []
        for cell in cells:
            inst = generate(*cell)
            r = solve(SimplePolygon(inst.polygon), unique_points(inst.points))
            rows.append({"cell": list(cell), "fingerprint": fingerprint(inst),
                         "radius": r})
        out[kind] = rows
    return out


@functools.lru_cache(maxsize=None)
def _load():
    with open(PATH) as fh:
        data = json.load(fh)
    return {(kind, tuple(row["cell"])): row
            for kind, rows in data.items() for row in rows}


def answer(kind: str, cell, inst) -> float:
    """The frozen oracle radius ("one_center" or "two_center") of inst,
    generated from cell."""
    row = _load().get((kind, tuple(cell)))
    assert row is not None, (
        f"no frozen {kind} answer for {cell}; rerun scripts/make_fixtures.py")
    assert row["fingerprint"] == fingerprint(inst), (
        f"{cell} no longer generates the instance of its frozen {kind} answer; "
        "rerun scripts/make_fixtures.py")
    return row["radius"]
