"""Line placement as it was before attempts were rejected ahead of the snap,
kept verbatim as a test oracle.

Every attempt that stays inside the area snaps both endpoints through
unproject, 12-decimal rounding and project, builds its chain from the
snapped ends and only then runs the separation test; the member count is
drawn with Generator.choice. The generator must write the same bytes with
this placement as with the one in flowline_risk.synth.
"""

from __future__ import annotations

import math

import numpy as np

from flowline_risk.crs import GeoPoint, project
from flowline_risk.geometry import Point2D
from flowline_risk.synth import (
    _PLACEMENT_ATTEMPTS,
    InfeasiblePacking,
    _Grid,
    _Line,
    _pick_junctions,
    _round_geo,
    _unproject_xy,
)


def _place_lines(cfg, rng, origin_x, origin_y, margin, params) -> list[_Line]:
    grid = _Grid(cell=max(cfg.min_separation, 25.0))
    lines: list[_Line] = []
    lo, hi = margin, cfg.area - margin
    if hi <= lo:
        raise InfeasiblePacking("area too small for the required margins")

    member_choices = list(range(1, cfg.max_members + 1))
    member_probs = {1: [1.0], 2: [0.65, 0.35], 3: [0.6, 0.25, 0.15]}[min(cfg.max_members, 3)]

    for i in range(cfg.n_lines):
        attempts = 0
        while True:
            attempts += 1
            if attempts > _PLACEMENT_ATTEMPTS:
                raise InfeasiblePacking(
                    f"could not place line {i} after {_PLACEMENT_ATTEMPTS} attempts"
                )

            bundled = lines and rng.random() < cfg.operator_reuse_clustering
            if bundled:
                parent = lines[int(rng.integers(len(lines)))]
                radius = cfg.min_separation + rng.uniform(0.0, 20.0)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                sx = parent.vertices[0][0] + radius * math.cos(angle)
                sy = parent.vertices[0][1] + radius * math.sin(angle)
                direction = parent.direction + math.radians(rng.uniform(-10.0, 10.0))
                length = float(np.clip(parent.length_m * rng.uniform(0.85, 1.15), *cfg.length_range))
                operator_idx = parent.operator_idx
                location_id = parent.location_id
            else:
                sx = origin_x + rng.uniform(lo, hi)
                sy = origin_y + rng.uniform(lo, hi)
                direction = rng.uniform(0.0, 2.0 * math.pi)
                length = rng.uniform(*cfg.length_range)
                operator_idx = int(rng.integers(cfg.n_operators))
                location_id = f"L{i:05d}"

            ex = sx + length * math.cos(direction)
            ey = sy + length * math.sin(direction)
            if not (origin_x + lo <= sx <= origin_x + hi and origin_y + lo <= sy <= origin_y + hi
                    and origin_x + lo <= ex <= origin_x + hi and origin_y + lo <= ey <= origin_y + hi):
                continue

            # Snap endpoints through the geographic representation that will
            # be written, so files and ground truth agree to the last bit.
            start_geo = _round_geo(*_unproject_xy(sx, sy, params))
            end_geo = _round_geo(*_unproject_xy(ex, ey, params))
            p_start = project(GeoPoint(*start_geo), params)
            p_end = project(GeoPoint(*end_geo), params)

            vertices = _build_chain(rng, p_start, p_end)
            n_members = int(rng.choice(member_choices[:len(member_probs)], p=member_probs))
            junction_idx = _pick_junctions(rng, len(vertices), n_members)

            key_points = [vertices[0], vertices[-1]] + [vertices[j] for j in junction_idx]
            if grid.too_close(key_points, cfg.min_separation):
                continue

            grid.add(key_points)
            lines.append(_Line(
                desc_id=f"D{i:05d}", op_id=f"OP{i:05d}",
                operator_idx=operator_idx, location_id=location_id,
                vertices=vertices, junction_idx=junction_idx,
                start_geo=start_geo, end_geo=end_geo,
                length_m=length, direction=direction,
            ))
            break
    return lines


def _build_chain(rng, p_start: Point2D, p_end: Point2D) -> list[tuple[float, float]]:
    """Vertex chain from start to end with a gentle interior zigzag."""
    ax, ay = p_start.x, p_start.y
    bx, by = p_end.x, p_end.y
    dx, dy = bx - ax, by - ay
    length = math.hypot(dx, dy)
    nx, ny = -dy / length, dx / length
    n_interior = int(rng.integers(1, 4))
    ts = np.sort(rng.uniform(0.15, 0.85, size=n_interior))
    chain = [(ax, ay)]
    for t in ts:
        swing = rng.uniform(-2.5, 2.5)
        chain.append((ax + t * dx + swing * nx, ay + t * dy + swing * ny))
    chain.append((bx, by))
    return chain
