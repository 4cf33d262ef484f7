"""The tolerance policy lives in geom.Tolerances and nowhere else."""

import os
import re

from twocenter.geom import Tolerances
from twocenter.polygon import SimplePolygon, triangulate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "twocenter")

# geom defines the policy and polygon's validation is relative to the
# coordinates; the oracle keeps its own scale so that it stays
# independent of the solver it checks
EXEMPT = {"geom.py", "polygon.py", "oracle.py"}
SCALE_PATTERN = re.compile(r"max\(1\.0,|VAL_TOL|_scale\(")


def test_fields_scale_with_diameter():
    t = Tolerances.for_diameter(64.0)
    assert t.scale == 64.0
    assert t.near == 1e-9 * 64.0
    assert t.check == 1e-7 * 64.0
    assert t.radius == 1e-12 * 64.0
    assert t.piece == 1e-11 * 64.0
    assert t.join == 1e-6 * 64.0
    assert t.area == 1e-9 * 64.0 * 64.0


def test_small_instances_use_unit_scale():
    assert Tolerances.for_diameter(0.25) == Tolerances.for_diameter(1.0)
    assert Tolerances.for_diameter(0.25).scale == 1.0


def test_polygon_carries_its_tolerances():
    tp = triangulate(SimplePolygon([(0, 0), (30, 0), (30, 40), (0, 40)]))
    assert tp.tol == Tolerances.for_diameter(50.0)


def test_no_scale_computed_outside_the_policy():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in EXEMPT:
            continue
        with open(os.path.join(SRC, name)) as fh:
            for lineno, line in enumerate(fh, 1):
                if SCALE_PATTERN.search(line):
                    offenders.append(f"{name}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
