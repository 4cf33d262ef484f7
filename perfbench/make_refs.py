#!/usr/bin/env python3
"""Regenerate refs.json, the frozen outputs every benchmark run checks.

    python3 perfbench/make_refs.py

Solves every corpus instance and answers every distance pair once,
untimed, and stores each input's fingerprint with its output: a radius,
a distance, or the class name of the error raised.  A radius is frozen
only after its certificate replays.  Then it cross-checks distance pairs
drawn at random against the brute-force `oracle_distance` (about 1.4 s
per query at n=128) until ORACLE_SECONDS run out, and fails when one
differs by more than 1e-9 relative.
"""
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import _commit, run_pass  # noqa: E402
from twocenter.oracle import oracle_distance  # noqa: E402
from twocenter.polygon import SimplePolygon  # noqa: E402
from workloads import REFS, WORKLOADS  # noqa: E402

ORACLE_TOL = 1e-9
# wall seconds spent on the oracle cross-check
ORACLE_SECONDS = 30.0


def freeze(wl) -> dict:
    wl.load(None)
    outputs = {}
    for oid, _dt, res, err, _ref in run_pass(wl.ops(random.Random(0))):
        if err is not None:
            outputs[oid] = err
            continue
        value, tag = wl.judge(oid, res)
        if tag == "certificate":
            raise SystemExit(f"{wl.name} {oid}: certificate replay failed")
        outputs[oid] = value
    return {"fingerprints": wl.fingerprints(), "outputs": dict(sorted(outputs.items()))}


def oracle_check(wl, outputs: dict, seconds: float):
    """(pairs checked, largest relative difference) within the time budget."""
    rng = random.Random(1)
    polys = {fam: SimplePolygon(inst.polygon) for fam, inst in wl.inputs.items()}
    ids = sorted(outputs)
    rng.shuffle(ids)
    worst, n, t0 = 0.0, 0, time.perf_counter()
    for oid in ids:
        if time.perf_counter() - t0 > seconds:
            break
        fam, i = oid.split("/")
        pts = wl.inputs[fam].points
        want = oracle_distance(polys[fam], pts[2 * int(i)], pts[2 * int(i) + 1])
        worst = max(worst, abs(outputs[oid] - want) / max(abs(want), 1e-300))
        n += 1
    return n, worst


def main() -> int:
    refs = {"meta": {"commit": _commit()}, "workloads": {}}
    for name, wl in WORKLOADS.items():
        t0 = time.perf_counter()
        refs["workloads"][name] = freeze(wl)
        print(f"{name}: {len(refs['workloads'][name]['outputs'])} outputs "
              f"in {time.perf_counter() - t0:.1f} s")
        if wl.kind == "distance":
            n, worst = oracle_check(wl, refs["workloads"][name]["outputs"],
                                    ORACLE_SECONDS)
            refs["meta"][f"{name}.oracle"] = {"pairs": n, "max_rel_diff": worst}
            print(f"{name}: {n} pairs against oracle_distance, "
                  f"largest relative difference {worst:.3g}")
            if worst > ORACLE_TOL:
                return 1
    REFS.write_text(json.dumps(refs, indent=0) + "\n")
    print(f"wrote {REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
