"""SVG rendering of instances and solved two-center overlays.

Produces a standalone SVG 1.1 document: polygon outline, the input
points, the geodesic hull boundary, and optionally both centers with
their geodesic disk boundaries.  Coordinates are emitted in instance
units inside a y-flipped group so the picture reads in the usual
mathematical orientation.
"""

from typing import List, Optional, Sequence, Tuple

from .geom import Point2
from .polygon import SimplePolygon, triangulate, TriangulatedPolygon
from .hull import geodesic_hull
from .disks import geodesic_circle

__all__ = ["render_svg", "disk_outline"]

_POLY_STYLE = 'fill="#f5f2ea" stroke="#444444"'
_HULL_STYLE = 'fill="none" stroke="#4878a8"'
_CENTER_COLORS = ("#c03028", "#2a7a3b")


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.8g}"


def _path(pts: Sequence[Point2], closed: bool) -> str:
    parts = [f"{'M' if i == 0 else 'L'} {_fmt(p.x)} {_fmt(p.y)}"
             for i, p in enumerate(pts)]
    if closed:
        parts.append("Z")
    return " ".join(parts)


def disk_outline(tp: TriangulatedPolygon, c: Point2, r: float,
                 samples: int = 512) -> List[List[Point2]]:
    """Polylines tracing the geodesic circle of radius r around c.

    The circle may be clipped into several arc pieces by the polygon
    boundary; the sample budget is split across pieces by arc length,
    at least two points per piece.
    """
    arcs = geodesic_circle(tp, c, r)
    if not arcs:
        return []
    total = sum(a.length() for a in arcs)
    out = []
    for a in arcs:
        share = a.length() / total if total > 0 else 1.0 / len(arcs)
        k = max(2, int(round(samples * share)))
        out.append([a.point(i / (k - 1)) for i in range(k)])
    return out


def render_svg(polygon: SimplePolygon,
               points: Sequence[Point2],
               centers: Optional[Tuple[Point2, Point2]] = None,
               radius: Optional[float] = None,
               width: int = 640) -> str:
    """Render one instance, optionally overlaying a two-center solution."""
    pts = list(points)
    xs = [v.x for v in polygon.vertices] + [p.x for p in pts]
    ys = [v.y for v in polygon.vertices] + [p.y for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    mx = 0.05 * max(x1 - x0, 1e-9)
    my = 0.05 * max(y1 - y0, 1e-9)
    vb = (x0 - mx, y0 - my, (x1 - x0) + 2 * mx, (y1 - y0) + 2 * my)
    height = max(1, int(round(width * vb[3] / vb[2])))
    sw = 0.0025 * max(vb[2], vb[3])          # stroke width in data units
    dot = 2.5 * sw

    tp = triangulate(polygon)
    body: List[str] = []
    body.append(f'<path d="{_path(polygon.vertices, True)}" {_POLY_STYLE} '
                f'stroke-width="{_fmt(1.6 * sw)}"/>')

    try:
        ring = geodesic_hull(tp, pts).ring if pts else ()
    except Exception:
        ring = ()
    if len(ring) >= 2:
        body.append(f'<path d="{_path(list(ring), True)}" {_HULL_STYLE} '
                    f'stroke-width="{_fmt(1.2 * sw)}" '
                    f'stroke-dasharray="{_fmt(4 * sw)} {_fmt(3 * sw)}"/>')

    if centers is not None and radius is not None:
        for c, col in zip(centers, _CENTER_COLORS):
            for line in disk_outline(tp, c, radius):
                body.append(f'<path d="{_path(line, False)}" fill="none" '
                            f'stroke="{col}" stroke-width="{_fmt(sw)}"/>')
    for p in pts:
        body.append(f'<circle cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" '
                    f'r="{_fmt(dot)}" fill="#222222"/>')
    if centers is not None:
        for c, col in zip(centers, _CENTER_COLORS):
            body.append(f'<circle cx="{_fmt(c.x)}" cy="{_fmt(c.y)}" '
                        f'r="{_fmt(1.4 * dot)}" fill="{col}" '
                        f'stroke="#ffffff" stroke-width="{_fmt(0.8 * sw)}"/>')

    flip = f'translate(0 {_fmt(vb[1] + (vb[1] + vb[3]))}) scale(1 -1)'
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">',
        f'<g transform="{flip}">',
        *body,
        '</g>',
        '</svg>',
        '',
    ])
