"""Output checks and the comparison of two benchmark result files.

    python3 perfbench/run.py --compare OLD NEW

OLD and NEW are result files written by run.py, or directories of them.
Results are paired by (workload, trace).  For each pair this prints the
end-to-end and per-layer deltas and checks every output the two runs
share: the comparison fails when any radius or distance moved by more
than REL_TOL relative.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

# largest relative distance allowed between two outputs of the same input
REL_TOL = 1e-12


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def _load(path: str) -> Dict[Tuple[str, int], dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            res = json.load(fh)
        out[(res["meta"]["workload"], res["meta"]["trace"])] = res
    return out


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, (int, float)) else "-"


def _delta_rows(old: dict, new: dict):
    for name in sorted(set(old) | set(new)):
        o, n = old.get(name, {}).get("value"), new.get(name, {}).get("value")
        unit = (new.get(name) or old.get(name))["unit"]
        if isinstance(o, (int, float)) and isinstance(n, (int, float)) and o:
            delta = f"{(n - o) / abs(o):+8.1%}"
        else:
            delta = "       -"
        yield f"  {name:<40} {_fmt(o):>14} {_fmt(n):>14} {delta} {unit}"


def compare(old_path: str, new_path: str) -> int:
    old, new = _load(old_path), _load(new_path)
    keys = sorted(set(old) & set(new))
    if not keys:
        print("no workload appears in both result sets")
        return 1
    moved = 0
    for key in keys:
        o, n = old[key], new[key]
        print(f"== {key[0]} trace={key[1]}  old {o['meta']['commit'][:12]} "
              f"seed {o['meta']['seed']}  new {n['meta']['commit'][:12]} seed {n['meta']['seed']}")
        print(f"  {'metric':<40} {'old':>14} {'new':>14} {'delta':>8}")
        for section in ("metrics", "layers"):
            for row in _delta_rows(o.get(section, {}), n.get(section, {})):
                print(row)
        oo, no = o["outputs"], n["outputs"]
        shared = sorted(set(oo) & set(no))
        for oid in shared:
            a, b = oo[oid], no[oid]
            if isinstance(a, float) and isinstance(b, float):
                if not close(b, a):
                    moved += 1
                    print(f"  MOVED {oid}: {a!r} -> {b!r}")
            elif a != b:
                print(f"  outcome {oid}: {a!r} -> {b!r}")
        print(f"  outputs compared: {len(shared)}")
    print(f"outputs moved by more than {REL_TOL:g} relative: {moved}")
    return 1 if moved else 0
