#!/usr/bin/env python3
"""Compare two output corpora written by scripts/corpus_outputs.py.

    python3 scripts/corpus_diff.py OLD.json NEW.json

Prints how many instances moved in each field (radius, centers, pair,
branch_stats, error class), then each `branch_stats` label whose total
over the instances that both files solve differs, as
`label old -> new`, and the largest relative radius move, then lists
every instance that moved.  An instance whose error outcome
changed is listed with its old and new outcome (an error class, a radius
or "missing"), so that an error -> radius change can be checked against
the oracle directly.  Exits 1 when a radius moves by more than 1e-12
relative, or when a pair, a branch_stats entry or an error class changes
(an instance that solves on one side and raises on the other, or that is
missing on one side, counts as an error-class change).
Centers may move without failing the check.  When the reader of its
output closes the pipe early (`| head`), it stops printing quietly and
exits with the same code.
"""

import json
import os
import sys
from collections import Counter

REL_TOL = 1e-12
FIELDS = ("radius", "centers", "pair", "branch_stats", "error")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rel_move(old: str, new: str) -> float:
    a, b = float.fromhex(old), float.fromhex(new)
    return abs(b - a) / max(abs(a), abs(b), 1e-300)


def _outcome(rec) -> str:
    if rec is None:
        return "missing"
    if "error" in rec:
        return rec["error"]
    return repr(float.fromhex(rec["radius"]))


def diff(old: dict, new: dict):
    """Per-field lists of moved instance keys, and the largest relative
    radius move with its key."""
    moved = {f: [] for f in FIELDS}
    worst = (0.0, None)
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a is None or b is None or a.get("error") != b.get("error"):
            moved["error"].append(key)
            continue
        if "error" in a:
            continue
        for f in ("radius", "centers", "pair", "branch_stats"):
            if a[f] != b[f]:
                moved[f].append(key)
        rel = _rel_move(a["radius"], b["radius"])
        if rel > worst[0]:
            worst = (rel, key)
    return moved, worst


def branch_totals(old: dict, new: dict):
    """(label, old total, new total) for each `branch_stats` label whose
    total over the instances solved in both files differs."""
    tot_old: Counter = Counter()
    tot_new: Counter = Counter()
    for key in set(old) & set(new):
        a, b = old[key], new[key]
        if "error" not in a and "error" not in b:
            tot_old.update(a["branch_stats"])
            tot_new.update(b["branch_stats"])
    return [(label, tot_old[label], tot_new[label])
            for label in sorted(set(tot_old) | set(tot_new))
            if tot_old[label] != tot_new[label]]


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit("usage: corpus_diff.py OLD.json NEW.json")
    old, new = _load(sys.argv[1]), _load(sys.argv[2])
    moved, (worst, worst_key) = diff(old, new)
    bad = (worst > REL_TOL or moved["pair"] or moved["branch_stats"]
           or moved["error"])
    try:
        report(old, new, moved, worst, worst_key)
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush
        # at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if bad else 0


def report(old: dict, new: dict, moved: dict, worst: float, worst_key) -> None:
    print(f"instances: {len(old)} old, {len(new)} new")
    for f in FIELDS:
        print(f"{f} moved: {len(moved[f])}")
    for label, a, b in branch_totals(old, new):
        print(f"{label} {a} -> {b}")
    print(f"largest relative radius move: {worst:.3g}"
          + (f" ({worst_key})" if worst_key else ""))
    for f in FIELDS:
        for key in moved[f]:
            change = (f" {_outcome(old.get(key))} -> {_outcome(new.get(key))}"
                      if f == "error" else "")
            print(f"  {f}: {key}{change}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
