import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowline_risk.spatial_index import SpatialIndex

from geometry_oracle import BoundingBox, Point2D


def random_boxes(rng, n, extent=1000.0, max_side=20.0) -> np.ndarray:
    """n random (min_x, min_y, max_x, max_y) rows."""
    boxes = np.zeros((n, 4))
    for i in range(n):
        x, y = rng.uniform(0, extent, size=2)
        w, h = rng.uniform(0, max_side, size=2)
        boxes[i] = (x, y, x + w, y + h)
    return boxes


# Boxes on a coarse grid, so shared and touching edges and zero-width boxes
# (degenerate points and segments) come up often.
GRID_BOX = st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 3), st.integers(0, 3)).map(
    lambda b: (b[0] / 2, b[1] / 2, (b[0] + b[2]) / 2, (b[1] + b[3]) / 2))


def scan_boxes(boxes, queries):
    """Brute-force (query, entry) pairs with closed-box semantics, in order."""
    return [(i, j) for i, q in enumerate(queries) for j, b in enumerate(boxes)
            if BoundingBox(*b).intersects(BoundingBox(*q))]


def scan_radius(boxes, p, r):
    """Brute-force entry positions in the closed square of half-width r about p."""
    return {j for _, j in scan_boxes(boxes, [(p.x - r, p.y - r, p.x + r, p.y + r)])}


def near(idx, p, r):
    """Entry positions query_points finds about the one point p."""
    _, found = idx.query_points(np.array([p.x]), np.array([p.y]), r)
    return set(found.tolist())


class TestBuild:
    def test_empty_index(self):
        idx = SpatialIndex.build(np.zeros((0, 4)))
        assert len(idx) == 0
        assert near(idx, Point2D(0, 0), 1e9) == set()

    def test_single_entry(self):
        idx = SpatialIndex.build(np.array([[0.0, 0.0, 1.0, 1.0]]))
        assert near(idx, Point2D(0.5, 0.5), 0.0) == {0}
        assert near(idx, Point2D(5, 5), 1.0) == set()

    def test_self_query_completeness(self):
        rng = np.random.default_rng(31)
        boxes = random_boxes(rng, 1000)
        idx = SpatialIndex.build(boxes)
        for i, (min_x, min_y, max_x, max_y) in enumerate(boxes.tolist()):
            center = Point2D((min_x + max_x) / 2, (min_y + max_y) / 2)
            r = max(max_x - min_x, max_y - min_y)
            assert i in near(idx, center, r)

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            SpatialIndex.build(np.zeros((0, 4)), fanout=1)

    def test_height_bound(self):
        rng = np.random.default_rng(36)
        for n in (1, 15, 16, 17, 255, 1000):
            idx = SpatialIndex.build(random_boxes(rng, n), fanout=16)
            bound = math.ceil(math.log(n, 16)) + 1 if n > 1 else 1
            assert len(idx._levels) <= bound  # box levels, the entries' included

    @settings(max_examples=100, deadline=None)
    @given(st.lists(GRID_BOX, max_size=120), st.integers(2, 6))
    def test_levels_enclose_and_partition(self, boxes, fanout):
        # Each node's child range is a run of at most `fanout` rows; the
        # ranges of a level cover the level below exactly once, and each
        # node box is the hull of its children's boxes. One root on top.
        idx = SpatialIndex.build(np.array(boxes, dtype=float).reshape(-1, 4), fanout)
        assert sorted(idx._order.tolist()) == list(range(len(boxes)))
        for level, (lo, hi) in enumerate(idx._ranges, start=1):
            below, nodes = idx._levels[level - 1], idx._levels[level]
            assert np.all((hi - lo >= 1) & (hi - lo <= fanout))
            assert sorted(np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)]).tolist()) \
                == list(range(len(below)))
            for box, a, b in zip(nodes, lo, hi):
                children = below[a:b]
                assert box.tolist() == [*children[:, :2].min(axis=0), *children[:, 2:].max(axis=0)]
        assert [len(top) for top in idx._levels[-1:]] == ([1] if boxes else [])


class TestQueryRadius:
    """query_points about one point at a time; entries are their row positions."""

    def test_zero_radius_point_in_box(self):
        idx = SpatialIndex.build(np.array([[0.0, 0.0, 2.0, 2.0], [5.0, 5.0, 6.0, 6.0]]))
        assert near(idx, Point2D(1, 1), 0.0) == {0}

    def test_boundary_is_closed(self):
        idx = SpatialIndex.build(np.array([[10.0, 0.0, 12.0, 2.0]]))
        # query square touches the box edge exactly at distance r
        assert near(idx, Point2D(8, 1), 2.0) == {0}
        assert near(idx, Point2D(8, 1), 1.999999) == set()

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(32)
        boxes = random_boxes(rng, 1000)
        idx = SpatialIndex.build(boxes)
        for _ in range(200):
            p = Point2D(rng.uniform(-50, 1050), rng.uniform(-50, 1050))
            r = rng.uniform(0, 60)
            assert near(idx, p, r) == scan_radius(boxes, p, r)

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(33)
        idx = SpatialIndex.build(random_boxes(rng, 300))
        for _ in range(50):
            p = Point2D(rng.uniform(0, 1000), rng.uniform(0, 1000))
            r1, r2 = sorted(rng.uniform(0, 80, size=2))
            assert near(idx, p, r1) <= near(idx, p, r2)

    def test_build_determinism(self):
        rng = np.random.default_rng(34)
        boxes = random_boxes(rng, 500)
        a = SpatialIndex.build(boxes)
        b = SpatialIndex.build(boxes.copy())
        qrng = np.random.default_rng(35)
        for _ in range(50):
            p = Point2D(qrng.uniform(0, 1000), qrng.uniform(0, 1000))
            r = qrng.uniform(0, 100)
            assert near(a, p, r) == near(b, p, r)

    def test_degenerate_point_boxes(self):
        xs = np.arange(100, dtype=float)
        idx = SpatialIndex.build(np.column_stack([xs, np.zeros(100), xs, np.zeros(100)]))
        assert near(idx, Point2D(50.0, 0.0), 2.5) == {48, 49, 50, 51, 52}


class TestBatchedQueries:
    """One batched query of many boxes against the linear scan, query by query."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(GRID_BOX, max_size=100), st.lists(GRID_BOX, max_size=40), st.integers(2, 17))
    def test_query_boxes_equals_linear_scan(self, boxes, queries, fanout):
        idx = SpatialIndex.build(np.array(boxes, dtype=float).reshape(-1, 4), fanout)
        q, e = idx.query_boxes(np.array(queries, dtype=float).reshape(-1, 4))
        assert np.all(np.diff(q) >= 0)
        assert sorted(zip(q.tolist(), e.tolist())) == scan_boxes(boxes, queries)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(GRID_BOX, max_size=60), st.lists(st.tuples(st.integers(-2, 14), st.integers(-2, 14)),
                                                     max_size=30),
           st.sampled_from((0.0, 0.5, 1.0, 2.5)))
    def test_query_points_equals_linear_scan(self, boxes, points, r):
        idx = SpatialIndex.build(np.array(boxes, dtype=float).reshape(-1, 4))
        xs = np.array([x / 2 for x, _ in points], dtype=float)
        ys = np.array([y / 2 for _, y in points], dtype=float)
        q, e = idx.query_points(xs, ys, r)
        want = scan_boxes(boxes, [(x - r, y - r, x + r, y + r) for x, y in zip(xs.tolist(), ys.tolist())])
        assert sorted(zip(q.tolist(), e.tolist())) == want

    def test_empty_index_and_empty_batch(self):
        empty = SpatialIndex.build(np.zeros((0, 4)))
        q, e = empty.query_boxes(np.array([[0.0, 0.0, 1e9, 1e9]]))
        assert q.size == 0 and e.size == 0
        one = SpatialIndex.build(np.array([[0.0, 0.0, 1.0, 1.0]]))
        q, e = one.query_boxes(np.zeros((0, 4)))
        assert q.size == 0 and e.size == 0

    def test_one_entry_touching_edges(self):
        idx = SpatialIndex.build(np.array([[0.0, 0.0, 1.0, 1.0]]))
        queries = np.array([[1.0, 1.0, 2.0, 2.0], [-1.0, 0.5, 0.0, 0.5], [1.0 + 1e-12, 0.0, 2.0, 1.0]])
        q, e = idx.query_boxes(queries)
        assert q.tolist() == [0, 1] and e.tolist() == [0, 0]

    def test_n_not_a_multiple_of_the_fanout(self):
        rng = np.random.default_rng(37)
        for n in (17, 33, 250, 257):
            boxes = random_boxes(rng, n)
            queries = [(x, y, x + w, y + w) for x, y, w in rng.uniform(0, 60, size=(50, 3)) * (17, 17, 1)]
            idx = SpatialIndex.build(boxes, fanout=16)
            q, e = idx.query_boxes(np.array(queries))
            assert sorted(zip(q.tolist(), e.tolist())) == scan_boxes(boxes, queries)

    def test_negative_radius_rejected(self):
        idx = SpatialIndex.build(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            idx.query_points(np.zeros(1), np.zeros(1), -1.0)
