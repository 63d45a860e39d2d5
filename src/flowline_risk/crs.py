"""Transverse Mercator projection between geographic and metric coordinates.

Both directions map whole arrays of points, so every caller projects all of
its points in one call. They use Krüger's series in the third flattening n,
carried through n^6 (Karney 2011, "Transverse Mercator with an accuracy of
a few nanometers", J. Geodesy 85): the forward mapping has no iteration,
and the inverse solves for tan(latitude) with a fixed number of Newton steps.

Every operation is elementwise, so a point gets the same bits alone as at
any position in a batch. numpy's vectorized transcendental functions may
round differently on another CPU or numpy build, though.

Defaults are the published constants of UTM zone 13N on the GRS80
ellipsoid, the metric frame the flowline datasets share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class OutOfZone(ValueError):
    """Longitude too far from the central meridian for the series to hold."""


# Half-width of the longitude window the series is trusted in, degrees.
ZONE_HALF_WIDTH_DEG = 10.0

# Karney 2011, eqs. (35) and (36): the j-th coefficient of the forward (alpha)
# and inverse (beta) series is a polynomial in n, listed from n^j up to n^6.
_ALPHA = (
    (1 / 2, -2 / 3, 5 / 16, 41 / 180, -127 / 288, 7891 / 37800),
    (13 / 48, -3 / 5, 557 / 1440, 281 / 630, -1983433 / 1935360),
    (61 / 240, -103 / 140, 15061 / 26880, 167603 / 181440),
    (49561 / 161280, -179 / 168, 6601661 / 7257600),
    (34729 / 80640, -3418889 / 1995840),
    (212378941 / 319334400,),
)
_BETA = (
    (1 / 2, -2 / 3, 37 / 96, -1 / 360, -81 / 512, 96199 / 604800),
    (1 / 48, 1 / 15, -437 / 1440, 46 / 105, -1118711 / 3870720),
    (17 / 480, -37 / 840, -209 / 4480, 5569 / 90720),
    (4397 / 161280, -11 / 504, -830251 / 7257600),
    (4583 / 161280, -108847 / 3991680),
    (20648693 / 638668800,),
)

# Newton steps of the inverse from tan(latitude) = tau' / (1 - e^2): two
# reach double precision for Earth-like flattening.
_NEWTON_STEPS = 2


@dataclass(frozen=True)
class ProjectionParams:
    """Transverse Mercator constants; defaults are UTM 13N / GRS80."""

    central_meridian: float = -105.0
    scale_factor: float = 0.9996
    false_easting: float = 500000.0
    false_northing: float = 0.0
    semi_major_axis: float = 6378137.0
    flattening: float = 1.0 / 298.257222101

    def __post_init__(self):
        if self.semi_major_axis <= 0:
            raise ValueError("semi-major axis must be positive")
        if not 0 < self.scale_factor <= 1:
            raise ValueError("scale factor must be in (0, 1]")
        if not abs(self.flattening) < 1:
            raise ValueError("|flattening| must be < 1")

    @cached_property
    def e2(self) -> float:
        """First eccentricity squared."""
        return self.flattening * (2.0 - self.flattening)

    @cached_property
    def n(self) -> float:
        """Third flattening, (a - b) / (a + b)."""
        f = self.flattening
        return f / (2.0 - f)

    @cached_property
    def _series(self) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
        """k0 times the rectifying radius A, and the alpha and beta coefficients."""
        n = self.n
        radius = self.semi_major_axis / (1.0 + n) * (1.0 + n**2 / 4 + n**4 / 64 + n**6 / 256)

        def coefficients(table):
            return tuple(sum(c * n**k for k, c in enumerate(row, start=j))
                         for j, row in enumerate(table, start=1))
        return self.scale_factor * radius, coefficients(_ALPHA), coefficients(_BETA)


def zone_violation(lon: float, params: ProjectionParams) -> str:
    """Why project refuses longitude lon, or "" when it is inside the window."""
    dlon = lon - params.central_meridian
    if not abs(dlon) >= ZONE_HALF_WIDTH_DEG:
        return ""
    return f"longitude {lon} is {abs(dlon):.3f} deg from the central meridian {params.central_meridian}"


def _sin_series(coefficients, zeta: np.ndarray) -> np.ndarray:
    """The sum over j of coefficients[j - 1] * sin(2 j zeta) for complex zeta,
    by Clenshaw's recurrence: one sine and one cosine instead of six."""
    two_cos = 2.0 * np.cos(2.0 * zeta)
    b1 = b2 = 0.0
    for c in reversed(coefficients):
        b1, b2 = c + two_cos * b1 - b2, b1
    return b1 * np.sin(2.0 * zeta)


def _conformal_tan(tau: np.ndarray, e2: float) -> np.ndarray:
    """tan of the conformal latitude for tau = tan of the latitude; e2 < 0
    is a prolate ellipsoid, where e is imaginary."""
    e, s = math.sqrt(abs(e2)), tau / np.hypot(1.0, tau)
    sigma = np.sinh(e * np.arctanh(e * s) if e2 >= 0 else -e * np.arctan(e * s))
    return tau * np.hypot(1.0, sigma) - sigma * np.hypot(1.0, tau)


def project(lat, lon, params: ProjectionParams = ProjectionParams()) -> tuple[np.ndarray, np.ndarray]:
    """Forward mapping: arrays of geographic degrees to easting and northing
    arrays, meters. Raises OutOfZone for the first point whose longitude is
    10 deg or more from the central meridian."""
    lat, lon = np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
    dlon = lon - params.central_meridian
    outside = np.flatnonzero(np.abs(dlon) >= ZONE_HALF_WIDTH_DEG)
    if len(outside):
        raise OutOfZone(zone_violation(float(lon.flat[outside[0]]), params))
    scale, alpha, _ = params._series
    lam = np.radians(dlon)
    taup = _conformal_tan(np.tan(np.radians(lat)), params.e2)
    cos_lam = np.cos(lam)
    zeta = np.arctan2(taup, cos_lam) + 1j * np.arcsinh(np.sin(lam) / np.hypot(taup, cos_lam))
    zeta = zeta + _sin_series(alpha, zeta)
    return params.false_easting + scale * zeta.imag, params.false_northing + scale * zeta.real


def unproject(x, y, params: ProjectionParams = ProjectionParams()) -> tuple[np.ndarray, np.ndarray]:
    """Inverse mapping: easting and northing arrays, meters, to arrays of
    latitude and longitude degrees."""
    scale, _, beta = params._series
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    zeta = (y - params.false_northing) / scale + 1j * ((x - params.false_easting) / scale)
    zeta = zeta - _sin_series(beta, zeta)
    sinh_eta, cos_xi = np.sinh(zeta.imag), np.cos(zeta.real)
    taup = np.sin(zeta.real) / np.hypot(sinh_eta, cos_xi)
    e2 = params.e2
    tau = taup / (1.0 - e2)
    for _ in range(_NEWTON_STEPS):
        taui = _conformal_tan(tau, e2)
        tau = tau + ((taup - taui) / np.hypot(1.0, taui)
                     * (1.0 + (1.0 - e2) * tau**2) / ((1.0 - e2) * np.hypot(1.0, tau)))
    return (np.degrees(np.arctan(tau)),
            params.central_meridian + np.degrees(np.arctan2(sinh_eta, cos_xi)))
