#!/usr/bin/env python3
"""Solve the sweep and growth instances and write every outcome to OUT.json.

    python3 scripts/sweep_outputs.py OUT.json

The instances are the four generator families at 12x6 and 16x8 with
seeds 6-15, 20x10 with seeds 3-7, 16x16 with seeds 0-2, 24x12 with
seeds 2-3, 48x6 with seeds 6-11, 128x6 with seeds 0-1, 16x24 and 256x6
with seed 0, 16x32 with seeds 0 and 2, 32x24 with seed 0 and 20x32 with
seed 1 (176 instances).  The file has the format of
scripts/corpus_outputs.py, so scripts/corpus_diff.py compares two of
them.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from corpus_outputs import write_outputs  # noqa: E402

# (n, m, seeds) per cell
CELLS = ((12, 6, range(6, 16)), (16, 8, range(6, 16)), (20, 10, range(3, 8)),
         (16, 16, range(3)), (24, 12, range(2, 4)), (48, 6, range(6, 12)),
         (128, 6, range(2)), (16, 24, (0,)), (16, 32, (0, 2)), (256, 6, (0,)),
         (32, 24, (0,)), (20, 32, (1,)))

if __name__ == "__main__":
    write_outputs(CELLS)
