#!/usr/bin/env python3
"""Solve the fuzz instances and write every outcome to OUT.json.

    python3 scripts/fuzz_outputs.py OUT.json

The instances are those of scripts/fuzz_exact.py: the four generator
families at n in `NS`, m in `MS` and seeds `SEEDS` (4,000 instances,
about 50 s on a 2-core box).  The file has the format of
scripts/corpus_outputs.py, so scripts/corpus_diff.py compares two of
them.  Needs the test extra (pytest), as fuzz_exact.py does.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from corpus_outputs import write_outputs  # noqa: E402
from fuzz_exact import MS, NS, SEEDS  # noqa: E402

# (n, m, seeds) per cell
CELLS = tuple((n, m, SEEDS) for n in NS for m in MS)

if __name__ == "__main__":
    write_outputs(CELLS)
