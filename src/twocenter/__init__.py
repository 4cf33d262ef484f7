"""Geodesic two-center solver for point sets inside simple polygons."""

from .decision import DecisionResult, PairChains, decide, pair_chains
from .disks import (ArcBoundary, CircArc, OneCenterResult, disk_contains,
                    disks_intersection, geodesic_circle, one_center)
from .driver import (CandidatePair, TwoCenterSolution, assistant_interval,
                     candidate_pairs, two_center)
from .errors import (BoundaryAssemblyError, CertificateError, DegenerateHull,
                     HullConvergenceError, InfeasibleInterval, InvalidPair,
                     InvalidPolygon, PointOutsidePolygon, TooLarge)
from .geom import Point2
from .hull import GeodesicHull, geodesic_hull
from .instances import (Instance, dump_instance, generate, load_instance,
                        parse_instance, save_instance)
from .optimize import (RadiusInterval, narrow_interval, optimize_pair,
                       pair_coincidence_radius)
from .oracle import (oracle_distance, oracle_one_center, oracle_path,
                     oracle_two_center)
from .polygon import SimplePolygon, TriangulatedPolygon, point_in_polygon, triangulate
from .region import Region, geodesic_distance, shortest_path, spm_vertices
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "Point2", "SimplePolygon", "TriangulatedPolygon", "triangulate",
    "point_in_polygon", "Region", "shortest_path", "geodesic_distance",
    "spm_vertices",
    "GeodesicHull", "geodesic_hull",
    "ArcBoundary", "CircArc", "OneCenterResult", "one_center",
    "disks_intersection", "geodesic_circle", "disk_contains",
    "DecisionResult", "PairChains", "pair_chains", "decide",
    "RadiusInterval", "narrow_interval", "optimize_pair",
    "pair_coincidence_radius",
    "CandidatePair", "TwoCenterSolution", "candidate_pairs",
    "assistant_interval", "two_center",
    "Instance", "parse_instance", "load_instance", "dump_instance",
    "save_instance", "generate",
    "oracle_distance", "oracle_path", "oracle_one_center", "oracle_two_center",
    "render_svg",
    "InvalidPolygon", "PointOutsidePolygon", "DegenerateHull",
    "InvalidPair", "InfeasibleInterval", "HullConvergenceError",
    "BoundaryAssemblyError", "TooLarge", "CertificateError",
]
