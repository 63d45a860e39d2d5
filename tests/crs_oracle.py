"""The scalar transverse Mercator the package used before its projection
took arrays, kept as a test oracle, and the point types that went with it.

project and unproject map one GeoPoint or Point2D at a time by Snyder's
series in the longitude offset, the inverse through a Newton iteration for
the footpoint latitude. Every derived constant is recomputed on each call
from the ProjectionParams fields. The series is good to well under a
millimeter within a UTM-width zone, and off by centimeters near the edges
of the 10 degree window.

kruger_project is an independent forward reference good across the whole
window: Krüger's series through n^4, written with the math module.

project_point and unproject_point send one point through the package's
array projection, for tests that build records one point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowline_risk import crs
from flowline_risk.crs import ZONE_HALF_WIDTH_DEG, OutOfZone, ProjectionParams

from geometry_oracle import Point2D

_FOOTPOINT_MAX_ITER = 20
_FOOTPOINT_TOL_RAD = 1e-13


class NonConvergence(RuntimeError):
    """Footpoint-latitude iteration failed to converge."""


@dataclass(frozen=True)
class GeoPoint:
    """Geographic coordinates in degrees, latitude first."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not (math.isfinite(self.latitude) and math.isfinite(self.longitude)):
            raise ValueError("non-finite geographic coordinates")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} outside [-180, 180]")


def project_point(g: GeoPoint, params: ProjectionParams = ProjectionParams()) -> Point2D:
    """g projected by crs.project as a batch of one."""
    x, y = crs.project(np.array([g.latitude]), np.array([g.longitude]), params)
    return Point2D(float(x[0]), float(y[0]))


def unproject_point(q: Point2D, params: ProjectionParams = ProjectionParams()) -> GeoPoint:
    """q unprojected by crs.unproject as a batch of one."""
    lat, lon = crs.unproject(np.array([q.x]), np.array([q.y]), params)
    return GeoPoint(float(lat[0]), float(lon[0]))


class _Derived:
    """The derived constants of one ProjectionParams, computed on every access."""

    def __init__(self, params: ProjectionParams):
        self._p = params

    def __getattr__(self, name):
        return getattr(self._p, name)

    @property
    def e2(self) -> float:
        return self.flattening * (2.0 - self.flattening)

    @property
    def ep2(self) -> float:
        e2 = self.e2
        return e2 / (1.0 - e2)

    @property
    def n(self) -> float:
        f = self.flattening
        return f / (2.0 - f)


def meridian_arc(latitude_deg: float, params: ProjectionParams) -> float:
    """Ellipsoidal distance from the equator to the given latitude, meters.

    Helmert's series in the third flattening n, carried through n^5;
    truncation error is far below a micrometer for Earth-like flattening.
    """
    params = _Derived(params)
    phi = math.radians(latitude_deg)
    a = params.semi_major_axis
    n = params.n
    n2, n3, n4, n5 = n * n, n ** 3, n ** 4, n ** 5

    # b = a(1 - f); (a + b)/2 = a(1 - n)/(1 + n) * (1 + n) ... kept explicit.
    b = a * (1.0 - params.flattening)
    alpha = ((a + b) / 2.0) * (1.0 + n2 / 4.0 + n4 / 64.0)
    beta = -3.0 * n / 2.0 + 9.0 * n3 / 16.0 - 3.0 * n5 / 32.0
    gamma = 15.0 * n2 / 16.0 - 15.0 * n4 / 32.0
    delta = -35.0 * n3 / 48.0 + 105.0 * n5 / 256.0
    epsilon = 315.0 * n4 / 512.0

    return alpha * (
        phi
        + beta * math.sin(2.0 * phi)
        + gamma * math.sin(4.0 * phi)
        + delta * math.sin(6.0 * phi)
        + epsilon * math.sin(8.0 * phi)
    )


def _meridian_radius(phi: float, params: ProjectionParams) -> float:
    """Meridian radius of curvature, the derivative of the arc w.r.t. phi."""
    e2 = params.e2
    s = math.sin(phi)
    return params.semi_major_axis * (1.0 - e2) / (1.0 - e2 * s * s) ** 1.5


def project(p: GeoPoint, params: ProjectionParams = ProjectionParams()) -> Point2D:
    """Forward mapping: geographic degrees to easting/northing meters.

    Series in the longitude offset l through l^8 (Snyder's formulation in
    the second eccentricity), then scaled and shifted by k0 and the false
    origin. Raises OutOfZone when |longitude - central_meridian| >= 10 deg.
    """
    params = _Derived(params)
    dlon = p.longitude - params.central_meridian
    if abs(dlon) >= ZONE_HALF_WIDTH_DEG:
        raise OutOfZone(
            f"longitude {p.longitude} is {abs(dlon):.3f} deg from the "
            f"central meridian {params.central_meridian}"
        )

    phi = math.radians(p.latitude)
    l = math.radians(dlon)
    a = params.semi_major_axis
    ep2 = params.ep2

    cos_phi = math.cos(phi)
    t = math.tan(phi)
    t2 = t * t
    nu2 = ep2 * cos_phi * cos_phi
    # Radius of curvature in the prime vertical.
    N = a / math.sqrt(1.0 - params.e2 * math.sin(phi) ** 2)

    l3 = 1.0 - t2 + nu2
    l4 = 5.0 - t2 + 9.0 * nu2 + 4.0 * nu2 * nu2
    l5 = 5.0 - 18.0 * t2 + t2 * t2 + 14.0 * nu2 - 58.0 * t2 * nu2
    l6 = 61.0 - 58.0 * t2 + t2 * t2 + 270.0 * nu2 - 330.0 * t2 * nu2
    l7 = 61.0 - 479.0 * t2 + 179.0 * t2 * t2 - t2 * t2 * t2
    l8 = 1385.0 - 3111.0 * t2 + 543.0 * t2 * t2 - t2 * t2 * t2

    c = cos_phi
    x = (
        N * c * l
        + (N / 6.0) * c ** 3 * l3 * l ** 3
        + (N / 120.0) * c ** 5 * l5 * l ** 5
        + (N / 5040.0) * c ** 7 * l7 * l ** 7
    )
    y = (
        meridian_arc(p.latitude, params)
        + (t / 2.0) * N * c ** 2 * l ** 2
        + (t / 24.0) * N * c ** 4 * l4 * l ** 4
        + (t / 720.0) * N * c ** 6 * l6 * l ** 6
        + (t / 40320.0) * N * c ** 8 * l8 * l ** 8
    )

    k0 = params.scale_factor
    return Point2D(params.false_easting + k0 * x, params.false_northing + k0 * y)


def _footpoint_latitude(northing: float, params: ProjectionParams) -> float:
    """Latitude whose meridian arc equals the given unscaled northing.

    Newton iteration; the arc function is smooth and monotone, so this
    converges in a handful of steps anywhere on the ellipsoid.
    """
    a = params.semi_major_axis
    phi = northing / (a * (1.0 - params.flattening / 2.0))  # spherical start
    for _ in range(_FOOTPOINT_MAX_ITER):
        arc = meridian_arc(math.degrees(phi), params)
        step = (northing - arc) / _meridian_radius(phi, params)
        phi += step
        if abs(step) < _FOOTPOINT_TOL_RAD:
            return phi
    raise NonConvergence(
        f"footpoint latitude did not converge in {_FOOTPOINT_MAX_ITER} iterations"
    )


def unproject(q: Point2D, params: ProjectionParams = ProjectionParams()) -> GeoPoint:
    """Inverse mapping: easting/northing meters back to geographic degrees.

    Footpoint latitude by Newton iteration, then Snyder's inverse series in
    powers of the easting offset.
    """
    params = _Derived(params)
    k0 = params.scale_factor
    x = (q.x - params.false_easting) / k0
    y = (q.y - params.false_northing) / k0

    phif = _footpoint_latitude(y, params)

    ep2 = params.ep2
    cf = math.cos(phif)
    tf = math.tan(phif)
    tf2 = tf * tf
    tf4 = tf2 * tf2
    nuf2 = ep2 * cf * cf
    Nf = params.semi_major_axis / math.sqrt(1.0 - params.e2 * math.sin(phif) ** 2)

    x1 = 1.0 / (Nf * cf)
    x2 = tf / (2.0 * Nf ** 2)
    x3 = 1.0 / (6.0 * Nf ** 3 * cf)
    x4 = tf / (24.0 * Nf ** 4)
    x5 = 1.0 / (120.0 * Nf ** 5 * cf)
    x6 = tf / (720.0 * Nf ** 6)
    x7 = 1.0 / (5040.0 * Nf ** 7 * cf)
    x8 = tf / (40320.0 * Nf ** 8)

    p2 = -1.0 - nuf2
    p3 = -1.0 - 2.0 * tf2 - nuf2
    p4 = (
        5.0 + 3.0 * tf2 + 6.0 * nuf2 - 6.0 * tf2 * nuf2
        - 3.0 * nuf2 * nuf2 - 9.0 * tf2 * nuf2 * nuf2
    )
    p5 = 5.0 + 28.0 * tf2 + 24.0 * tf4 + 6.0 * nuf2 + 8.0 * tf2 * nuf2
    p6 = -61.0 - 90.0 * tf2 - 45.0 * tf4 - 107.0 * nuf2 + 162.0 * tf2 * nuf2
    p7 = -61.0 - 662.0 * tf2 - 1320.0 * tf4 - 720.0 * tf4 * tf2
    p8 = 1385.0 + 3633.0 * tf2 + 4095.0 * tf4 + 1575.0 * tf4 * tf2

    lat = (
        phif
        + x2 * p2 * x ** 2
        + x4 * p4 * x ** 4
        + x6 * p6 * x ** 6
        + x8 * p8 * x ** 8
    )
    lon = (
        math.radians(params.central_meridian)
        + x1 * x
        + x3 * p3 * x ** 3
        + x5 * p5 * x ** 5
        + x7 * p7 * x ** 7
    )

    return GeoPoint(math.degrees(lat), math.degrees(lon))


def kruger_project(lat_deg: float, lon_deg: float, params: ProjectionParams = ProjectionParams()):
    """(easting, northing) by Krüger's series in the third flattening.

    The conformal-latitude formulation with 4th-order alpha coefficients,
    good to about a micrometer across the window; it shares no code or series
    arrangement with the package's projection.
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
