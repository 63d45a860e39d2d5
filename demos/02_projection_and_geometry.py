"""Project geographic coordinates into the metric plane and measure geometry.

Everything downstream of ingest works in projected meters (UTM 13N on
GRS80 by default), so distances and tolerances mean what they say.
"""

import numpy as np

from flowline_risk.crs import GeoPoint, ProjectionParams, project, unproject
from flowline_risk.geometry import MultiLineArray
from flowline_risk.matcher import segment_distances

params = ProjectionParams()
print("projection defaults:", params)

# The equator point on the central meridian lands exactly on the false easting.
print("\n(0 N, 105 W)  ->", project(GeoPoint(0.0, -105.0), params))
sample = GeoPoint(39.75, -105.0)
p = project(sample, params)
print("(39.75 N, 105 W) ->", p)
print("and back         ->", unproject(p, params))

# Round trip error stays far below the 25 m matching tolerance.
q = project(GeoPoint(40.0, -105.27), params)
r = project(unproject(q, params), params)
print(f"round-trip residue: {q.distance_to(r):.2e} m")

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
