#!/usr/bin/env python3
"""Regenerate the JSON fixtures under fixtures/ and the frozen oracle radii.

The first three fixtures are hand-authored geometry; rnd_seed7 comes from
the instance generator so it stays in sync with `twocenter gen`.

tests/data/oracle_answers.json holds the grid oracle's radii for
acceptance criteria 03 and 06 (see tests/frozen_oracle.py).  It stays out
of fixtures/, whose every file criterion 10 solves.  Computing it runs the
oracle on 75 instances and takes a few minutes.
"""

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import frozen_oracle  # noqa: E402
from twocenter.instances import dump_instance, generate  # noqa: E402

HERE = os.path.join(ROOT, "fixtures")


def write(name: str, text: str) -> None:
    path = os.path.join(HERE, name)
    with open(path, "w") as fh:
        fh.write(text)
    print("wrote", os.path.relpath(path))


def main() -> None:
    os.makedirs(HERE, exist_ok=True)
    write("sq4_qsym.json", json.dumps({
        "polygon": [[0, 0], [4, 0], [4, 4], [0, 4]],
        "points": [[1, 1], [1, 3], [3, 3], [3, 1]],
    }, indent=2) + "\n")
    write("l6_arms.json", json.dumps({
        "polygon": [[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]],
        "points": [[3, 1], [3, 1.5], [1, 3], [1.5, 3]],
    }, indent=2) + "\n")
    # self-crossing quad; must be rejected by validation
    write("bowtie.json", json.dumps({
        "polygon": [[0, 0], [4, 4], [4, 0], [0, 4]],
        "points": [[1, 1]],
    }, indent=2) + "\n")
    write("rnd_seed7.json", dump_instance(generate("random", 14, 8, 7)) + "\n")
    os.makedirs(frozen_oracle.PATH.parent, exist_ok=True)
    with open(frozen_oracle.PATH, "w") as fh:
        json.dump(frozen_oracle.compute(), fh, indent=1)
        fh.write("\n")
    print("wrote", os.path.relpath(frozen_oracle.PATH))


if __name__ == "__main__":
    main()
