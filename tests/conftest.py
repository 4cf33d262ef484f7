"""Shared fixtures: canonical polygons and a pool of solved instances."""

import math
import os

import pytest
from hypothesis import settings

from twocenter.driver import two_center
from twocenter.geom import Point2
from twocenter.hull import geodesic_hull
from twocenter.instances import generate
from twocenter.polygon import SimplePolygon, triangulate

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")

SQ4 = [Point2(0, 0), Point2(4, 0), Point2(4, 4), Point2(0, 4)]
L6 = [Point2(0, 0), Point2(4, 0), Point2(4, 2), Point2(2, 2),
      Point2(2, 4), Point2(0, 4)]
QSYM = [Point2(1, 1), Point2(1, 3), Point2(3, 3), Point2(3, 1)]
L6_ARMS = [Point2(3, 1), Point2(3, 1.5), Point2(1, 3), Point2(1.5, 3)]


@pytest.fixture(scope="session")
def sq4():
    return SimplePolygon(SQ4)


@pytest.fixture(scope="session")
def l6():
    return SimplePolygon(L6)


@pytest.fixture(scope="session")
def sq4_tp(sq4):
    return triangulate(sq4)


@pytest.fixture(scope="session")
def l6_tp(l6):
    return triangulate(l6)


@pytest.fixture(scope="session")
def qsym_hull(sq4_tp):
    return geodesic_hull(sq4_tp, QSYM)


@pytest.fixture(scope="session")
def arms_hull(l6_tp):
    return geodesic_hull(l6_tp, L6_ARMS)


def _uniq(points):
    seen = set()
    out = []
    for p in points:
        k = (p.x, p.y)
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


def pool_spec(count=30):
    """Deterministic (family, n, m, seed) cells for the shared pool."""
    fams = ("convex", "star", "comb", "random")
    out = []
    for s in range(count):
        out.append((fams[s % 4], 6 + (3 * s) % 15, 3 + (2 * s) % 8, s))
    return out


class SolvedInstance:
    """One generated instance together with its solved artifacts."""

    def __init__(self, family, n, m, seed):
        self.family, self.n, self.m, self.seed = family, n, m, seed
        self.inst = generate(family, n, m, seed)
        self.poly = SimplePolygon(self.inst.polygon)
        self.tp = triangulate(self.poly)
        self.pts = _uniq(self.inst.points)
        self.hull = geodesic_hull(self.tp, self.pts)
        self.sol = two_center(self.poly, self.inst.points)

    def __repr__(self):
        return (f"SolvedInstance({self.family}, n={self.n}, m={self.m}, "
                f"seed={self.seed})")


@pytest.fixture(scope="session")
def solved_pool():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [SolvedInstance(*cell) for cell in pool_spec()]


@pytest.fixture(scope="session")
def scaled_hull():
    """Factory: for a (family, n, m, seed) cell, the scale `two_center`
    applies to the instance and a fresh geodesic hull of the scaled
    instance, with caches of its own."""
    def build(cell):
        inst = generate(*cell)
        poly = SimplePolygon(inst.polygon)
        k = 2.0 ** round(math.log2(64.0 / poly.diameter))
        tp = triangulate(SimplePolygon([(v.x * k, v.y * k) for v in poly.vertices]))
        return k, geodesic_hull(tp, _uniq([Point2(q.x * k, q.y * k) for q in inst.points]))
    return build
