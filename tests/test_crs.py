import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import crs_oracle

from flowline_risk.crs import OutOfZone, ProjectionParams, project, unproject

PARAMS = ProjectionParams()

# Oracle values frozen from the independent Kruger-series implementation in
# tests/crs_oracle.py and the quadrature meridian arc (computed before the
# tests ran).
KRUGER_40_10527 = (476952.8661476953, 4427792.124402052)
ARC_40_QUADRATURE = 4429529.030236589


def arc_quadrature(lat_deg: float, params: ProjectionParams = PARAMS) -> float:
    """Meridian arc by direct numerical integration of the curvature radius."""
    a, e2 = params.semi_major_axis, params.e2
    integrand = lambda p: a * (1 - e2) / (1 - e2 * math.sin(p) ** 2) ** 1.5
    value, _ = quad(integrand, 0.0, math.radians(lat_deg), epsabs=1e-10, epsrel=1e-13)
    return value


class TestProject:
    def test_origin_maps_to_false_easting(self):
        x, y = project(0.0, -105.0)
        assert x == pytest.approx(500000.0, abs=1e-6)
        assert y == pytest.approx(0.0, abs=1e-6)

    def test_central_meridian_easting_and_arc_northing(self):
        lats = [5.0, 20.0, 38.7, 40.0, 63.2]
        x, y = project(lats, [-105.0] * len(lats))
        assert x.tolist() == [500000.0] * len(lats)
        for lat, northing in zip(lats, y.tolist()):
            assert northing == pytest.approx(PARAMS.scale_factor * arc_quadrature(lat), abs=1e-6)

    def test_oracle_meridian_arc_against_quadrature(self):
        assert crs_oracle.meridian_arc(40.0, PARAMS) == pytest.approx(ARC_40_QUADRATURE, abs=1e-6)
        for lat in (10.0, 37.0, 41.0, 55.0):
            assert crs_oracle.meridian_arc(lat, PARAMS) == pytest.approx(arc_quadrature(lat), abs=1e-6)

    def test_frozen_kruger_point(self):
        x, y = project(40.0, -105.27)
        assert x == pytest.approx(KRUGER_40_10527[0], abs=1e-6)
        assert y == pytest.approx(KRUGER_40_10527[1], abs=1e-6)

    def test_random_points_against_kruger_oracle(self):
        rng = np.random.default_rng(21)
        lat, lon = rng.uniform(37.0, 41.0, 200), rng.uniform(-109.0, -102.0, 200)
        want = np.array([crs_oracle.kruger_project(a, b) for a, b in zip(lat, lon)])
        x, y = project(lat, lon)
        assert np.max(np.abs(x - want[:, 0])) < 1e-6
        assert np.max(np.abs(y - want[:, 1])) < 1e-6

    def test_out_of_zone_names_the_first_point_outside(self):
        with pytest.raises(OutOfZone, match=r"^longitude -95.0 is 10.000 deg from the central meridian -105.0$"):
            project([40.0, 40.0, 40.0], [-105.0, -95.0, -130.0])

    def test_mirror_symmetry(self):
        delta = np.array([0.5, 1.7, 3.9])
        east_x, east_y = project(np.full(3, 39.0), -105.0 + delta)
        west_x, west_y = project(np.full(3, 39.0), -105.0 - delta)
        assert np.allclose(east_x - 500000.0, 500000.0 - west_x, rtol=0.0, atol=1e-6)
        assert np.allclose(east_y, west_y, rtol=0.0, atol=1e-6)

    def test_northing_monotone_in_latitude(self):
        lats = np.linspace(0.0, 70.0, 141)
        _, y = project(lats, np.full(len(lats), -105.0))
        assert np.all(np.diff(y) > 0)

    def test_empty_batch(self):
        x, y = project(np.zeros(0), np.zeros(0))
        assert x.shape == y.shape == (0,)


class TestUnproject:
    def test_false_origin(self):
        lat, lon = unproject(500000.0, 0.0)
        assert lat == pytest.approx(0.0, abs=1e-9)
        assert lon == pytest.approx(-105.0, abs=1e-9)

    def test_arc_point_recovers_latitude(self):
        lat, lon = unproject(500000.0, PARAMS.scale_factor * ARC_40_QUADRATURE)
        assert lat == pytest.approx(40.0, abs=1e-7)
        assert lon == pytest.approx(-105.0, abs=1e-7)

    def test_round_trip_window(self):
        rng = np.random.default_rng(22)
        x, y = project(rng.uniform(37.0, 41.0, 1000), rng.uniform(-109.0, -102.0, 1000))
        x2, y2 = project(*unproject(x, y))
        assert np.max(np.hypot(x2 - x, y2 - y)) < 1e-3


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ProjectionParams(scale_factor=0.0)
        with pytest.raises(ValueError):
            ProjectionParams(semi_major_axis=-1.0)


_PARAMS = st.builds(
    ProjectionParams,
    central_meridian=st.floats(-169.0, 169.0),  # so that |longitude| <= 179.5
    scale_factor=st.floats(0.5, 1.0),
    false_easting=st.floats(0.0, 1e6),
    false_northing=st.floats(-1e7, 1e7),
    semi_major_axis=st.floats(6.3e6, 6.4e6),
    flattening=st.floats(-0.01, 0.01),  # below 0 a prolate ellipsoid
)
# Points of the zone: latitude, and longitude offset from the central meridian.
_ZONE_POINTS = st.lists(st.tuples(st.floats(-84.0, 84.0), st.floats(-9.999, 9.999)),
                        min_size=1, max_size=40)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestArrayProperties:
    """The array projection over the zone, against itself and the scalar oracles."""

    @settings(max_examples=200, deadline=None)
    @given(params=_PARAMS, points=_ZONE_POINTS, k=st.integers(0, 39))
    def test_bits_do_not_depend_on_the_batch(self, params, points, k):
        lat = np.array([p[0] for p in points])
        lon = params.central_meridian + np.array([p[1] for p in points])
        k %= len(points)
        x, y = project(lat, lon, params)
        x1, y1 = project(lat[k:k + 1], lon[k:k + 1], params)
        assert _hex((x1[0], y1[0])) == _hex((x[k], y[k]))
        la, lo = unproject(x, y, params)
        la1, lo1 = unproject(x[k:k + 1], y[k:k + 1], params)
        assert _hex((la1[0], lo1[0])) == _hex((la[k], lo[k]))

    @settings(max_examples=100, deadline=None)
    @given(points=_ZONE_POINTS)
    def test_within_a_millimeter_of_the_scalar_oracles(self, points):
        # Snyder's series itself drifts from the exact mapping by up to 2 cm
        # toward the window's edges, so it is the reference within 5 deg of
        # the central meridian; Krüger's through n^4 holds everywhere.
        lat = np.array([p[0] for p in points])
        lon = PARAMS.central_meridian + np.array([p[1] for p in points])
        x, y = project(lat, lon)
        la, lo = unproject(x, y)
        for k, (a, b) in enumerate(zip(lat.tolist(), lon.tolist())):
            kx, ky = crs_oracle.kruger_project(a, b)
            assert math.hypot(x[k] - kx, y[k] - ky) < 1e-6
            if abs(b - PARAMS.central_meridian) <= 5.0:
                q = crs_oracle.project(crs_oracle.GeoPoint(a, b))
                assert math.hypot(x[k] - q.x, y[k] - q.y) < 1e-3
                g = crs_oracle.unproject(crs_oracle.Point2D(float(x[k]), float(y[k])))
                back = crs_oracle.project(g)
                assert math.hypot(back.x - q.x, back.y - q.y) < 1e-3
                assert abs(g.latitude - la[k]) < 1e-8 and abs(g.longitude - lo[k]) < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(params=_PARAMS, points=_ZONE_POINTS)
    def test_round_trip_under_a_millimeter(self, params, points):
        lat = np.array([p[0] for p in points])
        lon = params.central_meridian + np.array([p[1] for p in points])
        x, y = project(lat, lon, params)
        la, lo = unproject(x, y, params)
        x2, y2 = project(la, lo, params)
        assert np.max(np.hypot(x2 - x, y2 - y)) < 1e-3
