import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowline_risk.fileio import read_array, read_json, write_array
from flowline_risk.geometry import MultiLineArray

from conftest import random_multiline
from geometry_oracle import (
    BoundingBox,
    MultiLine,
    Point2D,
    PolyLine,
    bbox_area,
    bounding_box,
    endpoint_set,
    line_count,
    multiline,
    multiline_length,
    naive_length,
    point_to_multiline_distance,
)


def sampled_distance(p: Point2D, g: MultiLine, samples: int = 10_000) -> float:
    """Dense sampling along every segment, 1e4 points per segment."""
    best = math.inf
    for line in g.lines:
        v = line.vertices
        for a, b in zip(v, v[1:]):
            ts = np.linspace(0.0, 1.0, samples + 1)
            xs = a.x + ts * (b.x - a.x)
            ys = a.y + ts * (b.y - a.y)
            best = min(best, float(np.min(np.hypot(xs - p.x, ys - p.y))))
    return best


class TestLength:
    def test_345_triangle(self):
        assert multiline_length(multiline([(0, 0), (3, 4)])) == 5.0

    def test_additivity_of_members(self):
        g = multiline([(0, 0), (1, 0)], [(1, 0), (1, 2)])
        assert multiline_length(g) == pytest.approx(3.0)

    def test_random_against_resummation_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = random_multiline(rng)
            expected = naive_length(g)
            assert multiline_length(g) == pytest.approx(expected, rel=1e-9)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            g = random_multiline(rng)
            theta = rng.uniform(0, 2 * math.pi)
            dx, dy = rng.uniform(-50, 50, size=2)
            c, s = math.cos(theta), math.sin(theta)
            moved = MultiLine(tuple(
                PolyLine(tuple(
                    Point2D(c * p.x - s * p.y + dx, s * p.x + c * p.y + dy)
                    for p in line.vertices
                ))
                for line in g.lines
            ))
            assert multiline_length(moved) == pytest.approx(multiline_length(g), rel=1e-9)

    def test_split_segment_preserves_length(self):
        g = multiline([(0, 0), (4, 2), (9, 1)])
        split = multiline([(0, 0), (2, 1), (4, 2), (9, 1)])  # midpoint inserted
        assert multiline_length(split) == pytest.approx(multiline_length(g), rel=1e-12)

    def test_degenerate_polyline_has_zero_length(self):
        g = multiline([(2, 2), (2, 2)])
        assert multiline_length(g) == 0.0
        assert bbox_area(bounding_box(g)) == 0.0


class TestLineCount:
    def test_single_member(self):
        assert line_count(multiline([(0, 0), (1, 1), (2, 0), (3, 3), (4, 0)])) == 1

    def test_three_members(self):
        g = multiline([(0, 0), (1, 0)], [(2, 0), (3, 0)], [(4, 0), (5, 0)])
        assert line_count(g) == 3

    def test_segment_counting_flag(self):
        g = multiline([(0, 0), (1, 0), (2, 0)], [(5, 5), (6, 6)])
        assert line_count(g) == 2
        assert line_count(g, count_segments=True) == 3

    def test_generator_member_count(self, synth_a):
        features = read_json(synth_a.result.descriptive_path)["features"]
        for rec, feature in zip(synth_a.descriptive_records[:50], features):
            assert rec.source_row_id == feature["id"]
            assert line_count(rec.geometry) == len(feature["geometry"]["coordinates"])


class TestBoundingBox:
    def test_segment_box(self):
        b = bounding_box(multiline([(0, 0), (3, 4)]))
        assert (b.min_x, b.min_y, b.max_x, b.max_y) == (0, 0, 3, 4)
        assert bbox_area(b) == 12.0

    def test_horizontal_degenerate(self):
        assert bbox_area(bounding_box(multiline([(0, 0), (5, 0)]))) == 0.0

    def test_random_against_scan_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = random_multiline(rng)
            xs = [p.x for line in g.lines for p in line.vertices]
            ys = [p.y for line in g.lines for p in line.vertices]
            b = bounding_box(g)
            assert (b.min_x, b.min_y, b.max_x, b.max_y) == (min(xs), min(ys), max(xs), max(ys))

    def test_translation_invariance_of_area(self):
        g = multiline([(0, 0), (3, 1), (2, 5)])
        moved = multiline([(10, -7), (13, -6), (12, -2)])
        assert bbox_area(bounding_box(g)) == pytest.approx(bbox_area(bounding_box(moved)))

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)


class TestPointDistance:
    def test_perpendicular_foot_interior(self):
        d = point_to_multiline_distance(Point2D(0, 1), multiline([(-1, 0), (1, 0)]))
        assert d == pytest.approx(1.0)

    def test_clamps_to_endpoint(self):
        d = point_to_multiline_distance(Point2D(3, 0), multiline([(0, 0), (1, 0)]))
        assert d == pytest.approx(2.0)

    def test_vertex_distance_is_zero(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            g = random_multiline(rng)
            for line in g.lines:
                for p in line.vertices:
                    assert point_to_multiline_distance(p, g) == 0.0

    def test_random_against_sampling_oracle(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 60:
            g = random_multiline(rng)
            p = Point2D(rng.uniform(-5, 15), rng.uniform(-5, 15))
            oracle = sampled_distance(p, g)
            if oracle < 0.5:
                continue  # sampling error blows up near the geometry
            assert point_to_multiline_distance(p, g) == pytest.approx(oracle, abs=1e-6)
            checked += 1


class TestEndpointSet:
    def test_single_polyline(self):
        pts = endpoint_set(multiline([(0, 0), (1, 1), (2, 0)]))
        assert pts == [Point2D(0, 0), Point2D(2, 0)]

    def test_two_members_give_four_points(self):
        g = multiline([(0, 0), (1, 0)], [(5, 5), (6, 5)])
        assert len(endpoint_set(g)) == 4

    def test_size_is_twice_member_count(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            g = random_multiline(rng)
            assert len(endpoint_set(g)) == 2 * line_count(g)

    def test_generator_junctions_are_member_endpoints(self, synth_a):
        # A generated line's members split its chain at junctions, so each
        # member starts on the vertex its predecessor ends on.
        for rec in synth_a.descriptive_records[:50]:
            members = rec.geometry.lines
            for a, b in zip(members, members[1:]):
                assert a.vertices[-1] == b.vertices[0]


class TestInvariants:
    def test_polyline_needs_two_vertices(self):
        with pytest.raises(ValueError):
            PolyLine((Point2D(0, 0),))

    def test_multiline_needs_one_member(self):
        with pytest.raises(ValueError):
            MultiLine(())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Point2D(float("nan"), 0.0)


# Grid coordinates repeat vertices and make zero-length segments; the float
# ones, near zero and at projected-northing magnitude, round. Signed zeros
# tell which of two equal coordinates a minimum or maximum keeps.
ARRAY_COORD = st.one_of(st.integers(-3, 3).map(float), st.sampled_from((0.0, -0.0)),
                        st.floats(-1e3, 1e3), st.floats(4.3e6, 4.3e6 + 50.0))
ARRAY_GEOMETRY = st.lists(st.lists(st.tuples(ARRAY_COORD, ARRAY_COORD), min_size=2, max_size=6),
                          min_size=1, max_size=5).map(lambda chains: multiline(*chains))


def coordinates(g: MultiLine) -> list:
    return [[(p.x, p.y) for p in line.vertices] for line in g.lines]


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestMultiLineArray:
    """The flat geometry value against the scalar oracle, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ARRAY_GEOMETRY, max_size=6))
    # Summed per member the first length is 0.6; one sum over all three
    # segments gives 0.6000000000000001. Of tied signed zeros numpy may keep
    # another than min() and max(); the areas must still be +0.0.
    @example([multiline([(0.0, 0.0), (0.1, 0.0)], [(0.0, 1.0), (0.2, 1.0), (0.5, 1.0)])])
    @example([multiline([(0.0, -0.0), (-0.0, 0.0)], [(-0.0, 1.0), (0.0, -1.0)])])
    def test_measurements_equal_the_scalar_reference(self, geometries):
        arr = MultiLineArray.from_coordinates(coordinates(g) for g in geometries)
        assert len(arr) == len(geometries)
        assert hexes(arr.lengths()) == hexes(multiline_length(g) for g in geometries)
        for count_segments in (False, True):
            assert arr.line_counts(count_segments).tolist() == [
                line_count(g, count_segments=count_segments) for g in geometries]
        boxes = [bounding_box(g) for g in geometries]
        assert arr.bounding_boxes().tolist() == [[b.min_x, b.min_y, b.max_x, b.max_y] for b in boxes]
        assert hexes(arr.bbox_areas()) == hexes(bbox_area(b) for b in boxes)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ARRAY_GEOMETRY, max_size=6))
    def test_segment_rows_equal_the_scalar_segments(self, geometries):
        arr = MultiLineArray.from_coordinates(coordinates(g) for g in geometries)
        whole = [[[a.x, a.y, b.x, b.y] for line in g.lines for a, b in zip(line.vertices, line.vertices[1:])]
                 for g in geometries]
        ends = [[[p.x, p.y, p.x, p.y] for p in endpoint_set(g)] for g in geometries]
        for endpoints_only, want in ((False, whole), (True, ends)):
            rows, first = arr.segments(endpoints_only=endpoints_only)
            assert [hexes(r) for r in rows] == [hexes(r) for g in want for r in g]
            assert first.tolist() == np.cumsum([0] + [len(g) for g in want]).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ARRAY_GEOMETRY, min_size=1, max_size=6), st.data())
    def test_json_round_trip_and_take(self, tmp_path_factory, geometries, data):
        # the offsets through JSON and the vertices through NPY, as merge
        # writes them and its readers read them
        arr = MultiLineArray.from_coordinates(coordinates(g) for g in geometries)
        xy_path = tmp_path_factory.mktemp("xy") / "xy.npy"
        write_array(xy_path, arr.xy)
        back = MultiLineArray.from_json(json.loads(json.dumps(arr.to_json())), read_array(xy_path))
        assert back == arr and back.xy.tobytes() == arr.xy.tobytes()
        assert back.coordinates() == [[[list(p) for p in m] for m in coordinates(g)] for g in geometries]

        rows = data.draw(st.lists(st.integers(0, len(geometries) - 1), max_size=8))
        taken = arr.take(rows)
        assert taken == MultiLineArray.from_coordinates(coordinates(geometries[i]) for i in rows)
        assert taken.xy.tobytes() == MultiLineArray.from_coordinates(
            coordinates(geometries[i]) for i in rows).xy.tobytes()

    def test_repeated_vertices_and_many_members(self):
        g = multiline([(0, 0), (0, 0), (3, 4), (3, 4)], [(1, 1), (1, 1)], [(5, 5), (6, 5)], [(7, 7), (7, 8)])
        arr = MultiLineArray.from_coordinates([coordinates(g), [[(2, 2), (2, 2)]]])
        assert arr.lengths().tolist() == [7.0, 0.0]
        assert arr.line_counts().tolist() == [4, 1]
        assert arr.line_counts(count_segments=True).tolist() == [6, 1]
        assert arr.bbox_areas().tolist() == [56.0, 0.0]

    @pytest.mark.parametrize("xy, parts, geoms, message", [
        ([[0.0, 0.0], [1.0, 1.0]], [0, 1, 2], [0, 2], "parts offsets must rise by at least 2"),
        ([[0.0, 0.0], [1.0, 1.0]], [0, 2], [0, 1, 1], "geoms offsets must rise by at least 1"),
        ([[0.0, 0.0], [1.0, 1.0]], [0, 3], [0, 1], "parts must run from 0 to 2"),
        ([[0.0, 0.0], [1.0, 1.0]], [0, 2], [1, 1], "geoms must run from 0 to 1"),
        ([[0.0, 0.0], [1.0, math.inf]], [0, 2], [0, 1], "non-finite vertex coordinates"),
        ([[0.0, 0.0], [1.0, 1.0]], [0.0, 2.0], [0, 1], "parts must be a non-empty integer offset array"),
    ])
    def test_offsets_checked(self, xy, parts, geoms, message):
        with pytest.raises(ValueError, match=message):
            MultiLineArray(np.array(xy, dtype=np.float64), np.array(parts), np.array(geoms))
