"""Static R-tree over bounding boxes, bulk-loaded sort-tile-recursive.

The index answers radius queries as a box-level prefilter: it returns every
entry whose box intersects the closed axis-aligned square of half-width r
around the query point. Exact geometric distances are the caller's job.
Built once, never mutated; concurrent queries need no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import BoundingBox, Point2D

DEFAULT_FANOUT = 16


@dataclass(frozen=True)
class IndexEntry:
    item_id: object
    box: BoundingBox


class _Node:
    __slots__ = ("box", "children", "entries")

    def __init__(self, box, children=None, entries=None):
        self.box = box
        self.children = children  # internal node: list[_Node]
        self.entries = entries    # leaf node: list[IndexEntry]


def _enclosing_box(boxes: list[BoundingBox]) -> BoundingBox:
    return BoundingBox(
        min(b.min_x for b in boxes),
        min(b.min_y for b in boxes),
        max(b.max_x for b in boxes),
        max(b.max_y for b in boxes),
    )


class SpatialIndex:
    """Immutable STR-packed R-tree; build with SpatialIndex.build()."""

    def __init__(self, root: _Node | None, size: int):
        self._root = root
        self._size = size

    def __len__(self) -> int:
        return self._size

    @staticmethod
    def build(entries: list[IndexEntry], fanout: int = DEFAULT_FANOUT) -> "SpatialIndex":
        """Pack entries into a tree, sort-tile-recursive.

        Sort by center x, cut into vertical slabs of ~sqrt(n/M) leaves each,
        sort each slab by center y, pack leaves of M entries, then repeat
        one level up on the leaf boxes until a single root remains.
        """
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        entries = list(entries)
        if not entries:
            return SpatialIndex(None, 0)

        leaves = [
            _Node(_enclosing_box([e.box for e in group]), entries=group)
            for group in _str_pack(entries, fanout, lambda e: e.box)
        ]
        level = leaves
        while len(level) > 1:
            level = [
                _Node(_enclosing_box([n.box for n in group]), children=group)
                for group in _str_pack(level, fanout, lambda n: n.box)
            ]
        return SpatialIndex(level[0], len(entries))

    def query_box(self, box: BoundingBox) -> set:
        """Ids of all entries whose box intersects the query box (closed)."""
        if self._root is None:
            return set()
        found = set()
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.box.intersects(box):
                continue
            if node.entries is not None:
                for e in node.entries:
                    if e.box.intersects(box):
                        found.add(e.item_id)
            else:
                stack.extend(node.children)
        return found

    def query_radius(self, p: Point2D, r: float) -> set:
        """Box prefilter for the closed square of half-width r about p."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        return self.query_box(BoundingBox(p.x - r, p.y - r, p.x + r, p.y + r))


def _str_pack(items: list, fanout: int, key) -> list[list]:
    """Group items into runs of at most `fanout`, tiled by x then y center."""
    n = len(items)
    n_groups = math.ceil(n / fanout)
    n_slabs = math.ceil(math.sqrt(n_groups))
    slab_size = n_slabs * fanout

    by_x = sorted(items, key=lambda it: (_center(key(it))[0], _center(key(it))[1]))
    groups = []
    for s in range(0, n, slab_size):
        slab = sorted(by_x[s:s + slab_size], key=lambda it: (_center(key(it))[1], _center(key(it))[0]))
        for g in range(0, len(slab), fanout):
            groups.append(slab[g:g + fanout])
    return groups


def _center(box: BoundingBox) -> tuple[float, float]:
    return (box.min_x + box.max_x) / 2.0, (box.min_y + box.max_y) / 2.0
