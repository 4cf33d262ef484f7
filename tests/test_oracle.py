import math
import os
import pathlib
import subprocess
import sys

import pytest

from twocenter.errors import TooLarge
from twocenter.geom import Point2, dist
from twocenter.oracle import (oracle_distance, oracle_one_center, oracle_path,
                              oracle_two_center)
from twocenter.polygon import SimplePolygon

SQ4 = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)])
L6 = SimplePolygon([Point2(0, 0), Point2(4, 0), Point2(4, 2), Point2(2, 2),
                    Point2(2, 4), Point2(0, 4)])
SQRT2 = math.sqrt(2.0)


def test_distance_straight():
    assert abs(oracle_distance(SQ4, Point2(1, 1), Point2(3, 3)) - 2 * SQRT2) <= 1e-12


def test_distance_around_notch():
    assert abs(oracle_distance(L6, Point2(3, 1), Point2(1, 3)) - 2 * SQRT2) <= 1e-12


def test_path_length_around_notch():
    # the straight segment grazes the reflex corner; the polyline need not
    # list it but must have the geodesic length
    path = oracle_path(L6, Point2(3, 1), Point2(1, 3))
    assert tuple(path[0]) == (3, 1) and tuple(path[-1]) == (1, 3)
    total = sum(dist(a, b) for a, b in zip(path, path[1:]))
    assert abs(total - 2 * SQRT2) <= 1e-12


def test_path_bends_at_blocking_corner():
    path = oracle_path(L6, Point2(3.5, 1), Point2(1, 3.5))
    assert (2, 2) in [tuple(p) for p in path]


def test_one_center_two_sites():
    c, r = oracle_one_center(SQ4, [Point2(1, 1), Point2(3, 3)])
    assert abs(r - SQRT2) <= 1e-6
    assert dist(c, Point2(2, 2)) <= 1e-4


def test_one_center_forced_tether():
    # both sites see only the bend; the center lands on it
    c, r = oracle_one_center(L6, [Point2(3, 1), Point2(1, 3)])
    assert abs(r - SQRT2) <= 1e-6
    assert dist(c, Point2(2, 2)) <= 1e-4


def test_two_center_qsym():
    sites = [Point2(1, 1), Point2(3, 1), Point2(3, 3), Point2(1, 3)]
    r, (c1, c2), (s1, s2) = oracle_two_center(SQ4, sites)
    assert abs(r - 1.0) <= 1e-6
    assert len(s1) + len(s2) == 4 and s1 and s2


def test_two_center_arms():
    sites = [Point2(3, 1), Point2(3, 1.5), Point2(1, 3), Point2(1.5, 3)]
    r, _centers, (s1, s2) = oracle_two_center(L6, sites)
    assert abs(r - 0.25) <= 1e-6
    sides = [{tuple(p) for p in s} for s in (s1, s2)]
    assert {(3, 1), (3, 1.5)} in sides and {(1, 3), (1.5, 3)} in sides


def test_two_center_split_is_self_consistent():
    sites = [Point2(1, 1), Point2(3, 1), Point2(3, 3), Point2(1, 3),
             Point2(2, 2.5)]
    r, _centers, (s1, s2) = oracle_two_center(SQ4, sites)
    r1 = oracle_one_center(SQ4, list(s1))[1] if s1 else 0.0
    r2 = oracle_one_center(SQ4, list(s2))[1] if s2 else 0.0
    assert abs(max(r1, r2) - r) <= 1e-6


def test_two_center_rejects_large_input():
    sites = [Point2(0.3 * i + 0.5, 0.5) for i in range(13)]
    with pytest.raises(TooLarge):
        oracle_two_center(SQ4, sites)
    with pytest.raises(ValueError):
        oracle_two_center(SQ4, [])


def test_package_import_does_not_load_numpy():
    # numpy and scipy are oracle-only dependencies, imported inside the
    # oracle functions; importing the package and solving loads neither
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run(
        [sys.executable, "-c",
         "import sys, twocenter\n"
         "sq = twocenter.SimplePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])\n"
         "sol = twocenter.two_center(sq, [(1, 1), (3, 1), (2, 2.5), (3, 3), (1, 3)])\n"
         "assert sol.radius > 0\n"
         "assert 'numpy' not in sys.modules and 'scipy' not in sys.modules"],
        env=env, check=True)
