import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import crs_oracle

from flowline_risk.crs import (
    GeoPoint,
    NonConvergence,
    OutOfZone,
    ProjectionParams,
    meridian_arc,
    project,
    unproject,
)
from flowline_risk.geometry import Point2D

PARAMS = ProjectionParams()

# Oracle values frozen from the independent Kruger-series implementation
# below and the quadrature meridian arc (computed before the tests ran).
KRUGER_40_10527 = (476952.8661476953, 4427792.124402052)
ARC_40_QUADRATURE = 4429529.030236589


def arc_quadrature(lat_deg: float, params: ProjectionParams = PARAMS) -> float:
    """Meridian arc by direct numerical integration of the curvature radius."""
    a, e2 = params.semi_major_axis, params.e2
    integrand = lambda p: a * (1 - e2) / (1 - e2 * math.sin(p) ** 2) ** 1.5
    value, _ = quad(integrand, 0.0, math.radians(lat_deg), epsabs=1e-10, epsrel=1e-13)
    return value


def kruger_forward(lat_deg: float, lon_deg: float, params: ProjectionParams = PARAMS):
    """Independent forward oracle: Kruger series in the third flattening.

    Conformal-latitude formulation with 4th-order alpha coefficients; shares
    no code or series arrangement with the implementation under test.
    """
    e = math.sqrt(params.e2)
    n = params.n
    A = params.semi_major_axis / (1 + n) * (1 + n**2 / 4 + n**4 / 64)
    alphas = (
        n / 2 - 2 * n**2 / 3 + 5 * n**3 / 16 + 41 * n**4 / 180,
        13 * n**2 / 48 - 3 * n**3 / 5 + 557 * n**4 / 1440,
        61 * n**3 / 240 - 103 * n**4 / 140,
        49561 * n**4 / 161280,
    )
    phi = math.radians(lat_deg)
    lam = math.radians(lon_deg - params.central_meridian)
    t = math.tan(phi)
    sigma = math.sinh(e * math.atanh(e * t / math.sqrt(1 + t * t)))
    tp = t * math.sqrt(1 + sigma**2) - sigma * math.sqrt(1 + t * t)
    xi_p = math.atan2(tp, math.cos(lam))
    eta_p = math.asinh(math.sin(lam) / math.sqrt(tp**2 + math.cos(lam) ** 2))
    xi = xi_p + sum(a_j * math.sin(2 * (j + 1) * xi_p) * math.cosh(2 * (j + 1) * eta_p)
                    for j, a_j in enumerate(alphas))
    eta = eta_p + sum(a_j * math.cos(2 * (j + 1) * xi_p) * math.sinh(2 * (j + 1) * eta_p)
                      for j, a_j in enumerate(alphas))
    k0 = params.scale_factor
    return (params.false_easting + k0 * A * eta, params.false_northing + k0 * A * xi)


class TestProject:
    def test_origin_maps_to_false_easting(self):
        p = project(GeoPoint(0.0, -105.0))
        assert p.x == pytest.approx(500000.0, abs=1e-6)
        assert p.y == pytest.approx(0.0, abs=1e-6)

    def test_central_meridian_easting_and_arc_northing(self):
        for lat in (5.0, 20.0, 38.7, 40.0, 63.2):
            p = project(GeoPoint(lat, -105.0))
            assert p.x == pytest.approx(500000.0, abs=1e-6)
            assert p.y == pytest.approx(PARAMS.scale_factor * arc_quadrature(lat), abs=1e-6)

    def test_meridian_arc_against_quadrature(self):
        assert meridian_arc(40.0, PARAMS) == pytest.approx(ARC_40_QUADRATURE, abs=1e-6)
        for lat in (10.0, 37.0, 41.0, 55.0):
            assert meridian_arc(lat, PARAMS) == pytest.approx(arc_quadrature(lat), abs=1e-6)

    def test_frozen_kruger_point(self):
        p = project(GeoPoint(40.0, -105.27))
        assert p.x == pytest.approx(KRUGER_40_10527[0], abs=1e-3)
        assert p.y == pytest.approx(KRUGER_40_10527[1], abs=1e-3)

    def test_random_points_against_kruger_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            lat = rng.uniform(37.0, 41.0)
            lon = rng.uniform(-109.0, -102.0)
            x, y = kruger_forward(lat, lon)
            p = project(GeoPoint(lat, lon))
            assert p.x == pytest.approx(x, abs=1e-3)
            assert p.y == pytest.approx(y, abs=1e-3)

    def test_out_of_zone(self):
        with pytest.raises(OutOfZone):
            project(GeoPoint(40.0, -95.0))

    def test_mirror_symmetry(self):
        for delta in (0.5, 1.7, 3.9):
            east = project(GeoPoint(39.0, -105.0 + delta))
            west = project(GeoPoint(39.0, -105.0 - delta))
            assert east.x - 500000.0 == pytest.approx(500000.0 - west.x, abs=1e-6)
            assert east.y == pytest.approx(west.y, abs=1e-6)

    def test_northing_monotone_in_latitude(self):
        lats = np.linspace(0.0, 70.0, 141)
        norths = [project(GeoPoint(lat, -105.0)).y for lat in lats]
        assert all(b > a for a, b in zip(norths, norths[1:]))


class TestUnproject:
    def test_false_origin(self):
        g = unproject(Point2D(500000.0, 0.0))
        assert g.latitude == pytest.approx(0.0, abs=1e-9)
        assert g.longitude == pytest.approx(-105.0, abs=1e-9)

    def test_arc_point_recovers_latitude(self):
        q = Point2D(500000.0, PARAMS.scale_factor * ARC_40_QUADRATURE)
        g = unproject(q)
        assert g.latitude == pytest.approx(40.0, abs=1e-7)
        assert g.longitude == pytest.approx(-105.0, abs=1e-7)

    def test_round_trip_window(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(1000):
            lat = rng.uniform(37.0, 41.0)
            lon = rng.uniform(-109.0, -102.0)
            p = project(GeoPoint(lat, lon))
            q = project(unproject(p))
            worst = max(worst, math.hypot(p.x - q.x, p.y - q.y))
        assert worst < 1e-3

    def test_footpoint_nonconvergence_surfaces(self):
        bad = ProjectionParams(flattening=0.9)  # absurd ellipsoid breaks Newton
        with pytest.raises(NonConvergence):
            unproject(Point2D(500000.0, 2.0e7), bad)


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ProjectionParams(scale_factor=0.0)
        with pytest.raises(ValueError):
            ProjectionParams(semi_major_axis=-1.0)

    def test_geopoint_range_checks(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)


def _bits(point) -> tuple[str, str]:
    return tuple(float(v).hex() for v in vars(point).values())


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (OutOfZone, NonConvergence, ValueError) as exc:
        return type(exc).__name__


_PARAMS = st.builds(
    ProjectionParams,
    central_meridian=st.floats(-169.0, 169.0),  # so that |longitude| <= 179.5
    scale_factor=st.floats(0.5, 1.0),
    false_easting=st.floats(0.0, 1e6),
    false_northing=st.floats(-1e7, 1e7),
    semi_major_axis=st.floats(6.3e6, 6.4e6),
    flattening=st.floats(0.0, 0.01),
)


class TestCachedConstants:
    """Constants cached on ProjectionParams give the bits of the per-call
    formulas kept in tests/crs_oracle.py."""

    @settings(max_examples=300, deadline=None)
    @given(params=_PARAMS, lat=st.floats(-89.99, 89.99), dlon=st.floats(-10.5, 10.5))
    def test_project_bit_equal(self, params, lat, dlon):
        g = GeoPoint(lat, params.central_meridian + dlon)
        assert _outcome(project, g, params) == _outcome(crs_oracle.project, g, params)

    @settings(max_examples=300, deadline=None)
    @given(params=_PARAMS, x=st.floats(-1.2e6, 1.2e6), y=st.floats(-1e7, 1e7))
    def test_unproject_bit_equal(self, params, x, y):
        q = Point2D(params.false_easting + x, params.false_northing + y)
        assert _outcome(unproject, q, params) == _outcome(crs_oracle.unproject, q, params)

    def test_default_params_bit_equal_on_a_sweep(self):
        rng = np.random.default_rng(11)
        for lat, dlon in zip(rng.uniform(-84.0, 84.0, 5000), rng.uniform(-9.9, 9.9, 5000)):
            g = GeoPoint(lat, PARAMS.central_meridian + dlon)
            q = project(g)
            assert _bits(q) == _bits(crs_oracle.project(g))
            assert _bits(unproject(q)) == _bits(crs_oracle.unproject(q))
            assert meridian_arc(lat, PARAMS) == crs_oracle.meridian_arc(lat, PARAMS)
