"""Exception types shared across the package."""


class InvalidPolygon(Exception):
    """Vertex list does not describe a simple polygon."""


class PointOutsidePolygon(Exception):
    """A query point lies outside the containing polygon."""


class DegenerateHull(Exception):
    """Hull has fewer than two extreme points, no partition pair exists."""


class InvalidPair(Exception):
    """Chain index pair is out of range or i == j."""


class InfeasibleInterval(Exception):
    """Decision fails at the upper end of a radius interval."""


class HullConvergenceError(Exception):
    """The geodesic hull's gift wrap did not return to its start."""


class BoundaryAssemblyError(Exception):
    """Disk-intersection pieces could not be stitched into one closed loop."""


class TooLarge(Exception):
    """Input exceeds the size bound of an exhaustive oracle."""


class CertificateError(Exception):
    """A computed solution failed its own validity certificate."""
