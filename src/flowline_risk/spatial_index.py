"""Static box index, packed sort-tile-recursive and stored flat.

The index answers box queries as a prefilter: it finds every entry whose box
intersects the closed query box, so touching boxes intersect. Exact
geometric distances are the caller's job. Built once, never mutated;
concurrent queries need no coordination.

Level 0 holds the entry boxes as one (n, 4) float64 array of (min_x, min_y,
max_x, max_y) rows. Each level above holds one enclosing box per run of at
most `fanout` rows of the level below, with that run's row range, up to a
single root. Every level is tiled sort-tile-recursive (Leutenegger et al.
1997). A block of query boxes descends all levels at once as one frontier of
(query, node) pairs, tested with vectorised closed-box comparisons.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import expand_ranges

DEFAULT_FANOUT = 16

# Two boxes intersect, closed, when each one's min is at most the other's max
# on both axes: (box column, test, query column).
_CLOSED_OVERLAP = ((0, np.less_equal, 2), (2, np.greater_equal, 0),
                   (1, np.less_equal, 3), (3, np.greater_equal, 1))


def _str_order(boxes: np.ndarray, fanout: int) -> np.ndarray:
    """Row order in which consecutive runs of `fanout` rows are the STR groups.

    Sort by center x, cut into vertical slabs of ceil(sqrt(groups)) groups
    each, and sort each slab by center y.
    """
    n = len(boxes)
    n_slabs = math.ceil(math.sqrt(math.ceil(n / fanout)))
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
    by_x = np.lexsort((cy, cx))
    slab = np.arange(n) // (n_slabs * fanout)
    return by_x[np.lexsort((cx[by_x], cy[by_x], slab))]


class SpatialIndex:
    """Immutable flat STR index; build with SpatialIndex.build()."""

    def __init__(self, levels: list[np.ndarray], ranges: list[tuple[np.ndarray, np.ndarray]],
                 order: np.ndarray):
        self._levels = levels    # level 0: entry boxes in packed order; last: the root
        self._ranges = ranges    # ranges[l - 1]: (lo, hi) rows of level l - 1 under each node of level l
        self._order = order      # entry position of each level-0 row

    def __len__(self) -> int:
        return len(self._order)

    @staticmethod
    def build(boxes: np.ndarray, fanout: int = DEFAULT_FANOUT) -> "SpatialIndex":
        """Pack an (n, 4) array of (min_x, min_y, max_x, max_y) entry boxes
        into levels, sort-tile-recursive; each entry's position is its row."""
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        if not len(boxes):
            return SpatialIndex([], [], np.zeros(0, dtype=np.int64))

        order = _str_order(boxes, fanout)
        levels = [boxes[order]]
        ranges = []
        while len(levels[-1]) > 1:
            below = levels[-1]
            starts = np.arange(0, len(below), fanout)
            enclosing = np.column_stack([
                np.minimum.reduceat(below[:, 0], starts),
                np.minimum.reduceat(below[:, 1], starts),
                np.maximum.reduceat(below[:, 2], starts),
                np.maximum.reduceat(below[:, 3], starts),
            ])
            packed = _str_order(enclosing, fanout)
            lo = starts[packed]
            levels.append(enclosing[packed])
            ranges.append((lo, np.minimum(lo + fanout, len(below))))
        return SpatialIndex(levels, ranges, order)

    def query_boxes(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every intersecting (query row, entry position) pair of an (m, 4)
        array of query boxes, in ascending query row."""
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, 4)
        q = np.arange(len(queries))
        node = np.zeros(len(queries), dtype=np.int64)
        if not self._levels:
            return q[:0], node[:0]
        for level in range(len(self._levels) - 1, -1, -1):
            boxes = self._levels[level]
            # Closed intersection, one coordinate at a time: each test
            # narrows the frontier the next one gathers.
            for mine, test, theirs in _CLOSED_OVERLAP:
                hit = test(boxes[node, mine], queries[q, theirs])
                q, node = q[hit], node[hit]
            if level:
                lo, hi = self._ranges[level - 1]
                pair, node = expand_ranges(lo[node], hi[node])
                q = q[pair]
        return q, self._order[node]

    def query_points(self, xs: np.ndarray, ys: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Box prefilter for the closed squares of half-width r about each
        point (xs[i], ys[i]): (point position, entry position) pairs."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        return self.query_boxes(np.column_stack([xs - r, ys - r, xs + r, ys + r]))
