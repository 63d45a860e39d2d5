"""Flowline geometries for flowline analysis.

All coordinates are metric (projected plane); distances are Euclidean.
Geographic coordinates must be projected before they reach this module.

MultiLineArray holds many geometries as flat arrays; its measurements equal
bit for bit the scalar reference kept in tests/geometry_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, row) for every row of every range [lo[i], hi[i]), in order."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    rows = np.arange(len(owner)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return owner, rows


def _check_offsets(name: str, offsets: np.ndarray, least_step: int, end: int) -> None:
    if offsets.ndim != 1 or offsets.dtype.kind not in "iu" or len(offsets) == 0:
        raise ValueError(f"{name} must be a non-empty integer offset array")
    if offsets[0] != 0 or offsets[-1] != end:
        raise ValueError(f"{name} must run from 0 to {end}, got {offsets[0]} to {offsets[-1]}")
    if np.any(np.diff(offsets) < least_step):
        raise ValueError(f"{name} offsets must rise by at least {least_step}")


@dataclass(frozen=True, eq=False)
class MultiLineArray:
    """n multiline geometries in the GeoArrow MultiLineString layout.

    xy is the (m, 2) float64 array of every vertex. Member polyline j has
    vertices parts[j]:parts[j + 1], at least two; geometry i has members
    geoms[i]:geoms[i + 1], at least one. Construction checks all of this,
    so every offset is in bounds.
    """

    xy: np.ndarray
    parts: np.ndarray
    geoms: np.ndarray

    def __post_init__(self):
        if self.xy.dtype != np.float64 or self.xy.ndim != 2 or self.xy.shape[1] != 2:
            raise ValueError("xy must be an (m, 2) float64 array")
        if not np.all(np.isfinite(self.xy)):
            raise ValueError("non-finite vertex coordinates")
        _check_offsets("parts", self.parts, 2, len(self.xy))
        _check_offsets("geoms", self.geoms, 1, len(self.parts) - 1)

    def __len__(self) -> int:
        return len(self.geoms) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiLineArray):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   ((self.xy, other.xy), (self.parts, other.parts), (self.geoms, other.geoms)))

    @classmethod
    def from_coordinates(cls, geometries) -> "MultiLineArray":
        """From each geometry's members as sequences of (x, y) pairs, the
        layout of GeoJSON MultiLineString coordinates."""
        xy: list = []
        parts, geoms = [0], [0]
        for members in geometries:
            for member in members:
                xy.extend(member)
                parts.append(len(xy))
            geoms.append(len(parts) - 1)
        return cls(np.array(xy, dtype=np.float64).reshape(-1, 2),
                   np.array(parts, dtype=np.int64), np.array(geoms, dtype=np.int64))

    def coordinates(self) -> list:
        """Each geometry's members as lists of [x, y] lists; the inverse of
        from_coordinates."""
        xy, parts = self.xy.tolist(), self.parts.tolist()
        members = [xy[a:b] for a, b in zip(parts, parts[1:])]
        geoms = self.geoms.tolist()
        return [members[a:b] for a, b in zip(geoms, geoms[1:])]

    def to_json(self) -> dict:
        """The offsets as JSON lists; xy is stored apart, as a binary array."""
        return {"parts": self.parts.tolist(), "geoms": self.geoms.tolist()}

    @classmethod
    def from_json(cls, doc, xy: np.ndarray) -> "MultiLineArray":
        """The value to_json wrote, with vertices xy; raises ValueError or
        TypeError on values that do not form one."""
        return cls(xy, np.array(doc["parts"]), np.array(doc["geoms"]))

    def take(self, rows) -> "MultiLineArray":
        """The geometries at positions rows, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        g_lo, g_hi = self.geoms[rows], self.geoms[rows + 1]
        _, members = expand_ranges(g_lo, g_hi)
        p_lo, p_hi = self.parts[members], self.parts[members + 1]
        _, vertices = expand_ranges(p_lo, p_hi)
        return MultiLineArray(self.xy[vertices],
                              np.concatenate(([0], np.cumsum(p_hi - p_lo))).astype(np.int64),
                              np.concatenate(([0], np.cumsum(g_hi - g_lo))).astype(np.int64))

    def _segment_starts(self) -> np.ndarray:
        """The first vertex of every segment: every vertex but each member's last."""
        last = np.zeros(len(self.xy), dtype=bool)
        last[self.parts[1:] - 1] = True
        return np.flatnonzero(~last)

    def segments(self, endpoints_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Every segment of each geometry as (ax, ay, bx, by) rows, and the
        first row of each geometry (n + 1 offsets).

        With endpoints_only, each point of the geometry's geometry_oracle.endpoint_set
        is a zero-length segment, which measures as the distance to that point.
        """
        if endpoints_only:
            ends = self.xy[np.column_stack((self.parts[:-1], self.parts[1:] - 1)).ravel()]
            return np.hstack((ends, ends)), 2 * self.geoms
        starts = self._segment_starts()
        return np.hstack((self.xy[starts], self.xy[starts + 1])), self.parts[self.geoms] - self.geoms

    def lengths(self) -> np.ndarray:
        """geometry_oracle.multiline_length of each geometry: math.hypot per
        segment, summed by sum() per member and then per geometry, as it does."""
        starts = self._segment_starts()
        d = self.xy[starts] - self.xy[starts + 1]
        seg = list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()))
        first = (self.parts - np.arange(len(self.parts))).tolist()
        member = [sum(seg[a:b]) for a, b in zip(first, first[1:])]
        geoms = self.geoms.tolist()
        return np.array([sum(member[a:b]) for a, b in zip(geoms, geoms[1:])], dtype=np.float64)

    def line_counts(self, count_segments: bool = False) -> np.ndarray:
        """geometry_oracle.line_count of each geometry: members, or segments when asked."""
        if count_segments:
            return np.diff(self.parts[self.geoms] - self.geoms)
        return np.diff(self.geoms)

    def bounding_boxes(self) -> np.ndarray:
        """Each geometry's geometry_oracle.bounding_box as an (n, 4) array of
        (min_x, min_y, max_x, max_y) rows."""
        if not len(self):
            return np.zeros((0, 4))
        first = self.parts[self.geoms[:-1]]
        return np.column_stack([reduce.reduceat(values, first)
                                for reduce in (np.minimum, np.maximum)
                                for values in (self.xy[:, 0], self.xy[:, 1])])

    def bbox_areas(self) -> np.ndarray:
        """geometry_oracle.bbox_area of each geometry's bounding box."""
        b = self.bounding_boxes()
        # Of tied signed zeros numpy may keep another than min()/max(), so a
        # width can be -0.0 where the scalar one is +0.0; adding 0.0 clears it.
        return (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) + 0.0
