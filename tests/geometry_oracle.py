"""Planar polylines, one Point2D at a time, kept as the reference for
`geometry.MultiLineArray` and `matcher.segment_distances`.

These are the package's original scalar geometry classes and functions,
Point2D included: each geometry is a MultiLine of PolyLine members of
Point2D vertices, and every measurement loops over them in Python. The tests check that the flat
arrays measure lengths, member and segment counts, bounding boxes and
point distances bit for bit as these do. naive_length re-sums the length
independently, to check multiline_length itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass



@dataclass(frozen=True)
class Point2D:
    """A point in the projected plane, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class PolyLine:
    """An ordered chain of at least two vertices.

    Consecutive duplicate vertices are legal and contribute zero length.
    """

    vertices: tuple[Point2D, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("polyline needs at least 2 vertices")

    def length(self) -> float:
        v = self.vertices
        return sum(v[i].distance_to(v[i + 1]) for i in range(len(v) - 1))


@dataclass(frozen=True)
class MultiLine:
    """One geometry made of one or more member polylines."""

    lines: tuple[PolyLine, ...]

    def __post_init__(self):
        if len(self.lines) < 1:
            raise ValueError("multiline needs at least 1 member polyline")


@dataclass(frozen=True)
class BoundingBox:
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError("inverted bounding box")

    def area(self) -> float:
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)

    def intersects(self, other: "BoundingBox") -> bool:
        # Closed-boundary semantics: touching boxes intersect.
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )


def multiline(*chains) -> MultiLine:
    """Build a MultiLine from sequences of (x, y) pairs."""
    return MultiLine(
        tuple(PolyLine(tuple(Point2D(float(x), float(y)) for x, y in chain)) for chain in chains)
    )


def multiline_length(g: MultiLine) -> float:
    """Total Euclidean length over all member polylines."""
    return sum(line.length() for line in g.lines)


def line_count(g: MultiLine, count_segments: bool = False) -> int:
    """Number of member polylines, or of elementary segments when asked.

    The member-polyline count is the default complexity measure; pass
    count_segments=True to count two-vertex segments instead.
    """
    if count_segments:
        return sum(len(line.vertices) - 1 for line in g.lines)
    return len(g.lines)


def bounding_box(g: MultiLine) -> BoundingBox:
    """Axis-aligned hull of every vertex of the geometry."""
    xs = [p.x for line in g.lines for p in line.vertices]
    ys = [p.y for line in g.lines for p in line.vertices]
    return BoundingBox(min(xs), min(ys), max(xs), max(ys))


def bbox_area(b: BoundingBox) -> float:
    return b.area()


def point_to_segment_distance(p: Point2D, a: Point2D, b: Point2D) -> float:
    """Distance from p to the closed segment a-b."""
    ax, ay = a.x, a.y
    dx, dy = b.x - ax, b.y - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return p.distance_to(a)
    # Clamp the foot of the perpendicular onto the segment; endpoint cases
    # measure to the vertex directly so a vertex query is exactly zero.
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / seg2
    if t <= 0.0:
        return p.distance_to(a)
    if t >= 1.0:
        return p.distance_to(b)
    return math.hypot(p.x - (ax + t * dx), p.y - (ay + t * dy))


def point_to_multiline_distance(p: Point2D, g: MultiLine) -> float:
    """Minimum distance from p to any segment of the geometry."""
    best = math.inf
    for line in g.lines:
        v = line.vertices
        for i in range(len(v) - 1):
            d = point_to_segment_distance(p, v[i], v[i + 1])
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


def endpoint_set(g: MultiLine) -> list[Point2D]:
    """First and last vertex of every member polyline, duplicates retained."""
    points = []
    for line in g.lines:
        points.append(line.vertices[0])
        points.append(line.vertices[-1])
    return points


def naive_length(g: MultiLine) -> float:
    """Independent re-summation over every segment."""
    total = 0.0
    for line in g.lines:
        v = line.vertices
        for a, b in zip(v, v[1:]):
            total += math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2)
    return total
