"""Line placement that snaps each line as soon as it is placed, kept as a
test oracle.

Every attempt makes its draws (the chain's interior positions and swings
first, then the member count with Generator.choice) and is tested unsnapped
against min_separation plus the snap slack. A placed line's endpoints are
snapped at once through unproject, 12-decimal rounding and project, one
line per call, and its chain is built between the snapped ends. The
generator, which snaps every placed line in one batch after placement, must
write the same bytes with this placement as with its own.
"""

from __future__ import annotations

import math

import numpy as np

from flowline_risk.crs import project, unproject
from flowline_risk.synth import (
    _PLACEMENT_ATTEMPTS,
    _SLACK_MIN_LENGTH,
    _SNAP_SLACK,
    InfeasiblePacking,
    _Grid,
    _Line,
    _pick_junctions,
)


def _place_lines(cfg, rng, origin_x, origin_y, margin, params) -> list[_Line]:
    if cfg.min_separation > 0.0:
        low = cfg.length_range[0]
        separation = cfg.min_separation + _SNAP_SLACK * max(1.0, _SLACK_MIN_LENGTH / low)
    else:
        separation = 0.0
    grid = _Grid(cell=max(separation, 25.0))
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
                sx = parent.start[0] + radius * math.cos(angle)
                sy = parent.start[1] + radius * math.sin(angle)
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

            n_interior = int(rng.integers(1, 4))
            ts = np.sort(rng.uniform(0.15, 0.85, size=n_interior))
            swings = [rng.uniform(-2.5, 2.5) for _ in ts]
            n_members = int(rng.choice(member_choices[:len(member_probs)], p=member_probs))
            junction_idx = _pick_junctions(rng, n_interior + 2, n_members)

            vertices = _build_chain((sx, sy), (ex, ey), ts, swings)
            key_points = [vertices[0], vertices[-1]] + [vertices[j] for j in junction_idx]
            if grid.too_close(key_points, separation):
                continue

            # Snap the endpoints through the geographic representation that
            # will be written, so files and chain agree to the last bit.
            lat, lon = unproject(np.array([sx, ex]), np.array([sy, ey]), params)
            lat = [float(f"{v:.12f}") for v in lat.tolist()]
            lon = [float(f"{v:.12f}") for v in lon.tolist()]
            x, y = project(np.array(lat), np.array(lon), params)
            grid.add(key_points)
            lines.append(_Line(
                desc_id=f"D{i:05d}", op_id=f"OP{i:05d}",
                operator_idx=operator_idx, location_id=location_id,
                start=(sx, sy), end=(ex, ey), ts=ts, swings=swings,
                junction_idx=junction_idx, length_m=length, direction=direction,
                start_geo=(lat[0], lon[0]), end_geo=(lat[1], lon[1]),
                vertices=_build_chain((float(x[0]), float(y[0])), (float(x[1]), float(y[1])), ts, swings),
            ))
            break
    return lines


def _build_chain(start, end, ts, swings) -> list[tuple[float, float]]:
    """Vertex chain from start to end with a gentle interior zigzag."""
    ax, ay = start
    bx, by = end
    dx, dy = bx - ax, by - ay
    length = math.hypot(dx, dy)
    nx, ny = -dy / length, dx / length
    chain = [(ax, ay)]
    for t, swing in zip(ts, swings):
        chain.append((ax + t * dx + swing * nx, ay + t * dy + swing * ny))
    chain.append((bx, by))
    return chain
