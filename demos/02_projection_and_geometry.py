"""Project geographic coordinates into the metric plane and measure geometry.

Everything downstream of ingest works in projected meters (UTM 13N on
GRS80 by default), so distances and tolerances mean what they say.
"""

import numpy as np

from flowline_risk.crs import ProjectionParams, project, unproject
from flowline_risk.geometry import MultiLineArray
from flowline_risk.matcher import segment_distances

params = ProjectionParams()
print("projection defaults:", params)

# Both directions map arrays: every point of a batch in one call. The
# equator point on the central meridian lands exactly on the false easting.
lat = np.array([0.0, 39.75, 40.0])
lon = np.array([-105.0, -105.0, -105.27])
x, y = project(lat, lon, params)
for la, lo, px, py in zip(lat, lon, x, y):
    print(f"({la:6.2f} N, {-lo:6.2f} W) -> ({px:.3f}, {py:.3f})")
back_lat, back_lon = unproject(x, y, params)
print("and back:", [(round(a, 9), round(b, 9)) for a, b in zip(back_lat.tolist(), back_lon.tolist())])

# Round trip error stays far below the 25 m matching tolerance.
x2, y2 = project(back_lat, back_lon, params)
print(f"round-trip residue: {np.max(np.hypot(x2 - x, y2 - y)):.2e} m")

# One geometry of two members, a dogleg plus a short spur, as the flat
# arrays every stage measures and matches on.
g = MultiLineArray.from_coordinates([[
    [(0.0, 0.0), (120.0, 10.0), (240.0, 0.0)],
    [(240.0, 0.0), (260.0, 35.0)],
]])
print("\nlength      :", round(g.lengths().tolist()[0], 3), "m")
print("members     :", g.line_counts().tolist()[0])
print("segments    :", g.line_counts(count_segments=True).tolist()[0])
print("bbox area   :", round(g.bbox_areas().tolist()[0], 1), "m^2")
# Each member's first and last vertex is a zero-length (x, y, x, y) row.
ends, _ = g.segments(endpoints_only=True)
print("endpoints   :", [(round(x), round(y)) for x, y in ends[:, :2].tolist()])
# The distance from one point to geometry 0, over all of its segments.
segments, first = g.segments()
d = segment_distances(np.array([120.0]), np.array([60.0]), segments, first, np.array([0]))
print("dist from (120, 60):", round(d.tolist()[0], 3), "m")
